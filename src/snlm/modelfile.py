"""Binary model files: a self-contained little-endian format.

Layout of version 4, which :func:`save_model` writes (all integers
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
               S, t); S and t are empty under the standard regime. Zero
               bytes pad the file so that each non-empty array starts at a
               multiple of 64 bytes; an empty array gets no padding. A
               tree's S and t rows of right children are zeros, never read.

:func:`load_model` maps the file copy-on-write (``mmap.ACCESS_COPY``) and
returns each parameter array, and the counts, as a view of the map at its
offset; an array that is not aligned for its dtype, as the counts usually
are not, is copied instead. Loading reads no payload byte. A caller that
writes to a loaded model, training it for one, gets private pages and never
changes the file. :func:`save_model` renames a finished file over the old
one, so a model mapped from a path stays intact when that path is saved
again. Version 3, version 4's layout, and version 2, without the padding,
are read by the same code, except for tree models, whose rows scored a
node against its sibling: the tree layer's ``read_structure`` refuses them.
Version 1 files are refused.

Parameters are stored as 32-bit reals regardless of the in-memory dtype, so
float32 models round-trip bit for bit. The file carries no checksum: a
CRC32 (``zlib.crc32``) of a 14.7 MB file takes 4-7 ms on a 2-CPU host,
about as long as a whole mapped load of that class model (5-6 ms at |V|
17.7k), and it would read every page that the mapping leaves untouched.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import struct

import numpy as np

from .corpus import Vocabulary
from .errors import ModelFormatError
from .model import (OUTPUT_LAYERS, REGIME_CLASS, REGIME_STANDARD, REGIME_TREE,
                    ModelConfig, ModelParameters, parameter_shapes)

MAGIC = b"SNLM"
VERSION = 4
ALIGN = 64  # versions 3 and 4 start each non-empty payload array at a multiple of this
_HEADER = struct.Struct("<4sIIIBBQ")  # magic .. vocab_size
_VOCAB_BYTES = struct.Struct("<Q")    # then the vocabulary block's length
_REGIME_CODE = {REGIME_STANDARD: 0, REGIME_CLASS: 1, REGIME_TREE: 2}
_CODE_REGIME = {v: k for k, v in _REGIME_CODE.items()}


def save_model(path, params: ModelParameters, vocab: Vocabulary) -> dict:
    """Write a version 4 model file; returns the byte size of each section.

    The file is written beside ``path`` under a temporary name and renamed
    over it once complete, so ``path`` never holds a partial model.
    """
    cfg = params.config
    if len(vocab) != cfg.vocab_size:
        raise ModelFormatError("vocabulary size disagrees with the model")
    text = "\n".join(vocab.tokens).encode("utf-8")
    if text.count(b"\n") != len(vocab) - 1:
        bad = next(t for t in vocab.tokens if "\n" in t)
        raise ModelFormatError(f"vocabulary token {bad!r} contains a newline")
    counts = np.ascontiguousarray(vocab.counts, dtype="<i8")
    blob = cfg.layout().structure_bytes()
    tmp = f"{os.fspath(path)}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    padding = payload = 0
    try:
        with open(tmp, "xb") as fh:
            fh.write(_HEADER.pack(MAGIC, VERSION, cfg.order, cfg.dim, _REGIME_CODE[cfg.regime],
                                  int(cfg.diagonal), cfg.vocab_size)
                     + _VOCAB_BYTES.pack(len(text)))
            fh.write(text)
            fh.write(counts)
            fh.write(blob)
            for _, arr in params.arrays():
                padding += fh.write(bytes(-fh.tell() % ALIGN))
                payload += fh.write(np.ascontiguousarray(arr, dtype="<f4"))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    return {"header": _HEADER.size + _VOCAB_BYTES.size,
            "vocab": len(text) + counts.nbytes, "structure": len(blob),
            "padding": padding, "payload": payload}


def load_model(path):
    """Map a model file, version 4, 3 or 2, as (ModelParameters, Vocabulary).

    Every length field is checked against the bytes the file has left, and
    the file's total length against the whole layout, before any array is
    made.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if not size:
            raise ModelFormatError("empty model file")
        buf = memoryview(mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY))
    pos = 0

    def read(n: int) -> memoryview:
        nonlocal pos
        if n > size - pos:
            raise ModelFormatError("truncated model file")
        pos += n
        return buf[pos - n:pos]

    def view(raw, shape, dtype="<f4") -> np.ndarray:
        """``raw`` as an array, copied only if it is not aligned for its dtype."""
        return np.require(np.frombuffer(raw, dtype).reshape(shape), requirements="A")

    magic, version, order, dim, regime_code, diagonal, vocab_size = \
        _HEADER.unpack(read(_HEADER.size))
    if magic != MAGIC:
        raise ModelFormatError("not a model file (bad magic)")
    if version not in (2, 3, VERSION):
        raise ModelFormatError(f"unsupported model file version {version}")
    if regime_code not in _CODE_REGIME:
        raise ModelFormatError(f"unknown regime code {regime_code}")
    regime = _CODE_REGIME[regime_code]

    (nbytes,) = _VOCAB_BYTES.unpack(read(_VOCAB_BYTES.size))
    if nbytes + 8 * vocab_size > size - pos:  # the joined tokens, then a count each
        raise ModelFormatError(f"vocabulary of {vocab_size} tokens overruns the file")
    try:
        tokens = str(read(nbytes), "utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"vocabulary block: {exc}") from None
    if len(tokens) != vocab_size:
        raise ModelFormatError(f"vocabulary block holds {len(tokens)} tokens, "
                               f"header says {vocab_size}")
    counts = read(8 * vocab_size)

    structure = OUTPUT_LAYERS[regime].read_structure(read, vocab_size, version)
    config = ModelConfig(order=order, dim=dim, regime=regime, diagonal=bool(diagonal),
                         vocab_size=vocab_size, **structure)
    config.validate()

    align = ALIGN if version >= 3 else 1
    payload = []
    for _, shape in parameter_shapes(config):
        if math.prod(shape):
            read(-pos % align)
        payload.append((read(4 * math.prod(shape)), shape))
    if pos != size:
        raise ModelFormatError("trailing bytes after the parameter payload")
    Q, R, b, *C, S, t = [view(raw, shape) for raw, shape in payload]
    return (ModelParameters(config, Q, R, b, C, S, t),
            Vocabulary(tokens, view(counts, (vocab_size,), "<i8")))
