"""Binary model files: a self-contained little-endian format.

Layout of version 2, which :func:`save_model` writes (all integers
little-endian)::

    magic   "SNLM" | version u32 | order u32 | dim u32 | regime u8
    diagonal u8 | vocab_size u64 | vocab_bytes u64
    vocab      the tokens' UTF-8 joined by "\\n" (vocab_bytes bytes),
               then counts V x i64
    structure  class: K u32, class ids V x i32
               tree:  num_nodes u32, root u32,
                      [parent, left, right, leaf_word] x num_nodes (i32)
               standard: empty
    payload    parameter arrays as float32, in the order and shapes
               :func:`snlm.model.parameter_shapes` lists (Q, R, b, C_j..,
               S, t); S and t are empty under the standard regime

Version 1 files are still read. Their header ends at vocab_size, and each
token is stored as [len u32, utf8 bytes] in place of the joined block; the
rest is the same. Loading a version 2 file is a bounded read per section,
with each array read straight into its final buffer.

Parameters are stored as 32-bit reals regardless of the in-memory dtype, so
float32 models round-trip bit for bit. The file carries no checksum: a
CRC32 (``zlib.crc32``) of a 14.7 MB file takes 4-7 ms on a 2-CPU host,
about as long as the whole load.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .corpus import Vocabulary
from .errors import ModelFormatError
from .model import (OUTPUT_LAYERS, REGIME_CLASS, REGIME_STANDARD, REGIME_TREE,
                    ModelConfig, ModelParameters, parameter_shapes)

MAGIC = b"SNLM"
VERSION = 2
_HEADER = struct.Struct("<4sIIIBBQ")  # the version 1 header
_VOCAB_BYTES = struct.Struct("<Q")    # version 2 adds the vocabulary block's length
_REGIME_CODE = {REGIME_STANDARD: 0, REGIME_CLASS: 1, REGIME_TREE: 2}
_CODE_REGIME = {v: k for k, v in _REGIME_CODE.items()}


def payload_nbytes(params: ModelParameters) -> int:
    return 4 * sum(a.size for _, a in params.arrays())


def save_model(path, params: ModelParameters, vocab: Vocabulary) -> dict:
    """Write a version 2 model file; returns the byte size of each section."""
    cfg = params.config
    if len(vocab) != cfg.vocab_size:
        raise ModelFormatError("vocabulary size disagrees with the model")
    text = "\n".join(vocab.tokens).encode("utf-8")
    if text.count(b"\n") != len(vocab) - 1:
        bad = next(t for t in vocab.tokens if "\n" in t)
        raise ModelFormatError(f"vocabulary token {bad!r} contains a newline")
    counts = np.ascontiguousarray(vocab.counts, dtype="<i8")
    blob = cfg.layout().structure_bytes()
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, cfg.order, cfg.dim,
                              _REGIME_CODE[cfg.regime], int(cfg.diagonal),
                              cfg.vocab_size))
        fh.write(_VOCAB_BYTES.pack(len(text)))
        fh.write(text)
        fh.write(counts)
        fh.write(blob)
        for _, arr in params.arrays():
            fh.write(np.ascontiguousarray(arr, dtype="<f4"))
    return {"header": _HEADER.size + _VOCAB_BYTES.size,
            "vocab": len(text) + counts.nbytes,
            "structure": len(blob), "payload": payload_nbytes(params)}


def load_model(path):
    """Read a model file, version 2 or 1, back into (ModelParameters, Vocabulary).

    Every length field is checked against the bytes the file has left before
    anything is read or allocated.
    """
    with open(path, "rb") as fh:
        left = os.fstat(fh.fileno()).st_size

        def claim(n: int) -> None:
            nonlocal left
            if n > left:
                raise ModelFormatError("truncated model file")
            left -= n

        def read(n: int) -> bytes:
            claim(n)
            return fh.read(n)

        def block(shape, dtype="<f4") -> np.ndarray:
            """The next array of ``shape``, read straight into its buffer."""
            dtype = np.dtype(dtype)
            claim(dtype.itemsize * math.prod(shape))
            out = np.empty(shape, dtype=dtype)
            if fh.readinto(out) != out.nbytes:
                raise ModelFormatError("truncated model file")
            return out

        magic, version, order, dim, regime_code, diagonal, vocab_size = \
            _HEADER.unpack(read(_HEADER.size))
        if magic != MAGIC:
            raise ModelFormatError("not a model file (bad magic)")
        if version not in (1, VERSION):
            raise ModelFormatError(f"unsupported model file version {version}")
        if regime_code not in _CODE_REGIME:
            raise ModelFormatError(f"unknown regime code {regime_code}")
        regime = _CODE_REGIME[regime_code]

        if version == 1:
            tokens = _read_v1_tokens(read, vocab_size, left)
        else:
            (nbytes,) = _VOCAB_BYTES.unpack(read(_VOCAB_BYTES.size))
            if nbytes + 8 * vocab_size > left:  # the joined tokens, then a count each
                raise ModelFormatError(f"vocabulary of {vocab_size} tokens overruns the file")
            try:
                tokens = read(nbytes).decode("utf-8").split("\n")
            except UnicodeDecodeError as exc:
                raise ModelFormatError(f"vocabulary block: {exc}") from None
            if len(tokens) != vocab_size:
                raise ModelFormatError(f"vocabulary block holds {len(tokens)} tokens, "
                                       f"header says {vocab_size}")
        vocab = Vocabulary(tokens, block((vocab_size,), "<i8"))

        structure = OUTPUT_LAYERS[regime].read_structure(read, vocab_size)
        config = ModelConfig(order=order, dim=dim, regime=regime,
                             diagonal=bool(diagonal), vocab_size=vocab_size,
                             **structure)
        config.validate()

        Q, R, b, *C, S, t = [block(shape) for _, shape in parameter_shapes(config)]
        if left:
            raise ModelFormatError("trailing bytes after the parameter payload")
    return ModelParameters(config, Q, R, b, C, S, t), vocab


def _read_v1_tokens(read, vocab_size: int, left: int) -> list:
    """The version 1 vocabulary: a u32 length and the UTF-8 bytes per token."""
    if 12 * vocab_size > left:  # a length and a count per token
        raise ModelFormatError(f"vocabulary of {vocab_size} tokens overruns the file")
    tokens = []
    for _ in range(vocab_size):
        (tlen,) = struct.unpack("<I", read(4))
        try:
            tokens.append(read(tlen).decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"vocabulary token {len(tokens)}: {exc}") from None
    return tokens
