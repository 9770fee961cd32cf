"""Binary model files: a self-contained little-endian format.

Layout (all integers little-endian)::

    magic   "SNLM" | version u32 | order u32 | dim u32 | regime u8
    diagonal u8 | vocab_size u64
    vocab      [len u32, utf8 bytes] x V, then counts V x i64
    structure  class: K u32, class ids V x i32
               tree:  num_nodes u32, root u32,
                      [parent, left, right, leaf_word] x num_nodes (i32)
               standard: empty
    payload    parameter arrays as float32, fixed order (Q, R, b, C_j.., S, t)

Parameters are stored as 32-bit reals regardless of the in-memory dtype, so
float32 models round-trip bit for bit.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .corpus import Vocabulary
from .errors import ModelFormatError
from .model import (OUTPUT_LAYERS, REGIME_CLASS, REGIME_STANDARD, REGIME_TREE,
                    ModelConfig, ModelParameters)

MAGIC = b"SNLM"
VERSION = 1
_HEADER = struct.Struct("<4sIIIBBQ")
_REGIME_CODE = {REGIME_STANDARD: 0, REGIME_CLASS: 1, REGIME_TREE: 2}
_CODE_REGIME = {v: k for k, v in _REGIME_CODE.items()}


def payload_nbytes(params: ModelParameters) -> int:
    return 4 * sum(a.size for _, a in params.arrays())


def save_model(path, params: ModelParameters, vocab: Vocabulary) -> dict:
    """Write a model file; returns the byte size of each section."""
    cfg = params.config
    if len(vocab) != cfg.vocab_size:
        raise ModelFormatError("vocabulary size disagrees with the model")
    sizes = {}
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, cfg.order, cfg.dim,
                              _REGIME_CODE[cfg.regime], int(cfg.diagonal),
                              cfg.vocab_size))
        sizes["header"] = _HEADER.size

        n = 0
        for tok in vocab.tokens:
            raw = tok.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            n += 4 + len(raw)
        counts = np.ascontiguousarray(vocab.counts, dtype="<i8").tobytes()
        fh.write(counts)
        sizes["vocab"] = n + len(counts)

        blob = cfg.layout().structure_bytes()
        fh.write(blob)
        sizes["structure"] = len(blob)

        n = 0
        for _, arr in params.arrays():
            raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
            fh.write(raw)
            n += len(raw)
        sizes["payload"] = n
    return sizes


def load_model(path):
    """Read a model file back into (ModelParameters, Vocabulary).

    Every length field is checked against the bytes the file has left before
    anything is read or allocated.
    """
    with open(path, "rb") as fh:
        left = os.fstat(fh.fileno()).st_size

        def read(n: int) -> bytes:
            nonlocal left
            if n > left:
                raise ModelFormatError("truncated model file")
            left -= n
            return fh.read(n)

        def block(shape) -> np.ndarray:
            raw = read(4 * math.prod(shape))
            return np.frombuffer(raw, dtype="<f4").reshape(shape).copy()

        magic, version, order, dim, regime_code, diagonal, vocab_size = \
            _HEADER.unpack(read(_HEADER.size))
        if magic != MAGIC:
            raise ModelFormatError("not a model file (bad magic)")
        if version != VERSION:
            raise ModelFormatError(f"unsupported model file version {version}")
        if regime_code not in _CODE_REGIME:
            raise ModelFormatError(f"unknown regime code {regime_code}")
        regime = _CODE_REGIME[regime_code]
        if 12 * vocab_size > left:  # a length and a count per token
            raise ModelFormatError(f"vocabulary of {vocab_size} tokens overruns the file")

        tokens = []
        for _ in range(vocab_size):
            (tlen,) = struct.unpack("<I", read(4))
            try:
                tokens.append(read(tlen).decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise ModelFormatError(f"vocabulary token {len(tokens)}: {exc}") from None
        counts = np.frombuffer(read(8 * vocab_size), dtype="<i8")
        vocab = Vocabulary(tokens, counts.astype(np.int64))

        structure = OUTPUT_LAYERS[regime].read_structure(read, vocab_size)
        config = ModelConfig(order=order, dim=dim, regime=regime,
                             diagonal=bool(diagonal), vocab_size=vocab_size,
                             **structure)
        config.validate()

        V, D = vocab_size, dim
        Q = block((V, D))
        R = block((V, D))
        b = block((V,))
        C = [block((D,) if diagonal else (D, D)) for _ in range(order - 1)]
        S = t = None
        rows = config.layout().rows
        if rows:
            S = block((rows, D))
            t = block((rows,))
        if left:
            raise ModelFormatError("trailing bytes after the parameter payload")

    params = ModelParameters(config, Q, R, b, C, S, t)
    return params, vocab
