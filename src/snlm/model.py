"""Model parameters and log-probabilities under each normalization regime.

The context words are embedded with ``Q``, combined by per-position
transforms ``C_j`` and rectified into a prediction vector::

    p = relu(sum_j C_j q_{h_j})

A word is scored as ``phi(w, h) = r_w . p + b_w``. The regimes differ in how
scores become probabilities:

* ``standard``        softmax over the whole support
* ``class_factored``  P(class | h) * P(w | class, h), two small softmaxes
* ``tree_factored``   product of two-way softmaxes along a tree path
* unnormalised        raw ``phi`` used directly (NCE-trained models)

Each normalized regime is one :class:`OutputLayer`, and every scoring path
runs on batches: a single query is a batch of one.

``<s>`` is excluded from the prediction support everywhere: it gets
probability exactly 0 and is never a legal target.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .corpus import BOS_ID, unigram_from_counts
from .errors import DataError, ModelFormatError
from .partitioning import (VocabularyTree, WordClassing, default_num_classes,
                           frequency_binning, huffman_tree)

REGIME_STANDARD = "standard"
REGIME_CLASS = "class_factored"
REGIME_TREE = "tree_factored"

_PROB_FLOOR = 1e-10  # keeps log-space initializers finite
# Bytes of R that one standard-softmax score block covers: 6,144 words at
# D 100, float32. A batch at its scoring width then holds about 8 MiB of
# scores per block, and R is read once per batch of about 330 queries.
_STANDARD_BLOCK_BYTES = 2400 << 10
# Bytes of one row slab, which stays in a 2 MiB per-core L2 cache: of a
# standard score block, normalised pass after pass, of the S rows gathered
# at a step of the tree walk, or of a raw-score batch's arrays.
_SLAB_BYTES = 512 << 10
# Bytes of the float64 block into which ``init_parameters`` draws a table's
# rows before writing them in the parameters' dtype.
_DRAW_BYTES = 1 << 20
# Queries per tree backward block, whose dense weights grow with its square.
_TREE_BLOCK = 128


@dataclass
class MacCounter:
    """Analytic multiply-accumulate tallies; the toolkit's speed surrogate.

    ``projection`` counts context-combination MACs, ``output`` counts
    score MACs against word/class/node representations. ``output_rows``
    tallies output-layer rows receiving gradient during training.
    """

    projection: int = 0
    output: int = 0
    output_rows: int = 0

    @property
    def total(self) -> int:
        return self.projection + self.output


def count_output(macs: MacCounter, pairs: int, dim: int, train: bool = False) -> None:
    """Tally ``pairs`` scores; training also pays for both gradients through them."""
    if macs is not None:
        macs.output += (3 if train else 1) * pairs * dim
        if train:
            macs.output_rows += pairs


@dataclass
class ModelConfig:
    """Architecture hyper-parameters plus the structures a regime needs."""

    order: int = 5          # n: target plus n-1 context positions
    dim: int = 500          # D
    regime: str = REGIME_CLASS
    diagonal: bool = True
    vocab_size: int = 0
    classing: Optional[WordClassing] = None
    tree: Optional[VocabularyTree] = None

    def __post_init__(self):
        if self.order < 2:
            raise DataError("order must be >= 2")
        if self.dim < 1:
            raise DataError("dim must be >= 1")
        if self.regime not in OUTPUT_LAYERS:
            raise DataError(f"unknown regime {self.regime!r}")
        for field in ("classing", "tree"):
            if getattr(self, field) is not None and field != OUTPUT_LAYERS[self.regime].structure:
                raise DataError(f"the {self.regime} regime reads no {field}")

    @property
    def context_size(self) -> int:
        return self.order - 1

    def validate(self) -> None:
        """Check structural consistency (called by init / IO paths)."""
        if self.vocab_size < 3:
            raise DataError("vocabulary must hold at least the three specials")
        self.layout()

    def layout(self) -> "OutputLayer":
        """The regime's output layer, built (and checked) on first use."""
        cached = getattr(self, "_layout", None)
        if cached is None:
            cached = self._layout = OUTPUT_LAYERS[self.regime](self)
        return cached


def parameter_shapes(config: ModelConfig) -> list:
    """Every parameter array's (name, shape), in model-file order.

    ``Q, R: (V, D); b: (V,); C0..: order-1 transforms (D,) or (D, D);
    S, t: the output layer's class or node score rows``, of which the
    standard regime has none, so its S and t are empty.
    """
    V, D, rows = config.vocab_size, config.dim, config.layout().rows
    C = (D,) if config.diagonal else (D, D)
    return ([("Q", (V, D)), ("R", (V, D)), ("b", (V,))]
            + [(f"C{j}", C) for j in range(config.context_size)]
            + [("S", (rows, D)), ("t", (rows,))])


@dataclass
class ModelParameters:
    """All trainable arrays, shaped as :func:`parameter_shapes` lists them."""

    config: ModelConfig
    Q: np.ndarray
    R: np.ndarray
    b: np.ndarray
    C: list
    S: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        if len(self.C) != self.config.context_size:
            raise DataError("one context transform per position required")
        for (name, shape), a in zip(parameter_shapes(self.config), self._flat()):
            if getattr(a, "shape", None) != shape:
                raise DataError(f"parameter {name} must be shaped {shape}, "
                                f"not {getattr(a, 'shape', None)}")

    def _flat(self) -> list:
        return [self.Q, self.R, self.b, *self.C, self.S, self.t]

    @property
    def dtype(self):
        return self.Q.dtype

    def tables(self) -> dict:
        """The row tables by name, each a (matrix, bias or None) pair sharing row ids."""
        return {"Q": (self.Q, None), "R": (self.R, self.b), "S": (self.S, self.t)}

    def rows(self, name, ids):
        """(matrix rows, bias values or None) of the row table ``name`` at
        ``ids``: a plain gather, with numpy's bounds check, or views when
        ``ids`` is a slice. Every gradient reads the rows it writes through
        here, once, so that a lazily decayed view of the parameters can hand
        out rows already current."""
        M, bias = self.tables()[name]
        if isinstance(ids, slice):
            return M[ids], None if bias is None else bias[ids]
        return np.take(M, ids, axis=0), None if bias is None else np.take(bias, ids)

    def arrays(self):
        """(name, array) pairs in serialization order; empty arrays are left out."""
        names = [name for name, _ in parameter_shapes(self.config)]
        return [(n, a) for n, a in zip(names, self._flat()) if a.size]

    def _map(self, f) -> "ModelParameters":
        return ModelParameters(self.config, f(self.Q), f(self.R), f(self.b),
                               [f(Cj) for Cj in self.C], f(self.S), f(self.t))

    def copy(self) -> "ModelParameters":
        return self._map(np.ndarray.copy)

    def astype(self, dtype) -> "ModelParameters":
        return self._map(lambda a: a.astype(dtype))


def _floored_log(p) -> np.ndarray:
    return np.log(np.maximum(p, _PROB_FLOOR))


def _draw_rows(rng, shape, dtype) -> np.ndarray:
    """``rng.normal(0.0, 0.1, shape).astype(dtype)``, bitwise, without its
    float64 copy: the draw goes in C order through one float64 block of
    about ``_DRAW_BYTES``, each block written into the table as it is drawn
    (``normal(0, 0.1)`` is ``0.1 * standard_normal``, element by element)."""
    out = np.empty(shape, dtype=dtype)
    step = max(1, _DRAW_BYTES // (8 * shape[1]))
    block = np.empty((min(step, shape[0]), shape[1]))
    for a in range(0, shape[0], step):
        drawn = rng.standard_normal(out=block[:min(step, shape[0] - a)])
        np.multiply(drawn, 0.1, out=out[a:a + len(drawn)])
    return out


def init_parameters(config: ModelConfig, seed: int = 0, unigram=None,
                    dtype=np.float32) -> ModelParameters:
    """Fresh parameters.

    Embeddings are drawn i.i.d. N(0, 0.1^2); context transforms start at
    (scaled) identity so the projection begins as the average context
    embedding; biases start at log prior mass so the initial model already
    matches the unigram distribution given by ``unigram`` (zeros when None).
    The draw order (Q, R, then S) is fixed, so a seed pins every array.
    Each array is made once, in ``dtype``; the draws go through one bounded
    float64 block (see ``_draw_rows``).
    """
    config.validate()
    layer = config.layout()
    rng = np.random.default_rng(seed)
    V, D = config.vocab_size, config.dim
    Q = _draw_rows(rng, (V, D), dtype)
    R = _draw_rows(rng, (V, D), dtype)

    probs = None if unigram is None else np.asarray(unigram, dtype=np.float64)
    if probs is not None and probs.shape != (V,):
        raise DataError("unigram size mismatch")
    b = (np.zeros(V) if probs is None else _floored_log(probs)).astype(dtype)

    scale = np.full(D, 1.0 / config.context_size, dtype=dtype)
    C = [scale.copy() if config.diagonal else np.diag(scale)
         for _ in range(config.context_size)]

    t = layer.start_values(probs).astype(dtype)  # draws nothing: the order stays Q, R, S
    S = _draw_rows(rng, (layer.rows, D), dtype)
    S[layer.unused_rows] = 0  # after the whole draw, so the other rows keep theirs
    return ModelParameters(config, Q, R, b, C, S, t)


def starting_parameters(targets, vocab_size: int, order: int, dim: int, regime: str,
                        diagonal: bool = True, seed: int = 1, structure: dict = None):
    """The parameters ``snlm train`` starts from, for the instance
    ``targets``: the output layer's ``default_structure`` of the target
    counts unless ``structure`` (ModelConfig keywords, as
    ``OutputLayer.load_structure`` gives them) is given, and
    :func:`init_parameters` at ``seed`` from the target unigram."""
    counts = np.bincount(targets, minlength=vocab_size)
    if structure is None:  # an unknown regime gets none, for ModelConfig to refuse
        structure = OUTPUT_LAYERS.get(regime, OutputLayer).default_structure(counts)
    config = ModelConfig(order, dim, regime, diagonal, vocab_size, **structure)
    return init_parameters(config, seed=seed, unigram=unigram_from_counts(counts))


# ---------------------------------------------------------------------------
# row-sparse gradients and softmax helpers


class RowPlan:
    """One index plan over the row ids a step reads from one table.

    ``rows`` are the distinct ids in ascending order and ``inv``, shaped
    like the ids, gives each id's place in ``rows``, so ``M[ids]`` is
    ``M[rows][inv]``; ``first`` is the flat index of each row's first id.
    One stable sort groups equal ids in input order.
    ``sum`` adds up the entries that share a row: a row met once is copied,
    a pair is one add, and only runs of three or more go through
    ``np.add.reduceat``, so every sum is bitwise that of one ``reduceat``
    over each run in input order.
    """

    def __init__(self, ids):
        ids = np.asarray(ids, dtype=np.int64)
        flat = ids.ravel()
        order = flat.argsort(kind="stable")
        flat = flat[order]
        edge = np.empty(len(flat) + 1, dtype=bool)  # where a run of equal ids starts or ends
        edge[0] = edge[-1] = True
        np.not_equal(flat[1:], flat[:-1], out=edge[1:-1])
        bounds = edge.nonzero()[0]
        starts, sizes = bounds[:-1], np.diff(bounds)
        self.rows = flat[starts]
        inv = np.empty(len(flat), dtype=np.int64)
        inv[order] = edge[:-1].cumsum() - 1
        self.inv = inv.reshape(ids.shape)
        self.first = order[starts]
        self._pairs = (sizes == 2).nonzero()[0]
        self._second = order[starts[self._pairs] + 1]
        many = sizes > 2
        self._many = many.nonzero()[0]
        self._grouped = order[many.repeat(sizes)]
        self._lo = sizes[self._many].cumsum() - sizes[self._many]

    def sum(self, x) -> np.ndarray:
        """Per-row sums of ``x``, whose first axis runs over the ids in order."""
        out = x[self.first]
        if len(self._pairs):
            out[self._pairs] += x[self._second]
        if len(self._many):
            out[self._many] = np.add.reduceat(x[self._grouped], self._lo, axis=0)
        return out


def row_ranks(columns: np.ndarray, prior=None):
    """(rank, count) of the rows of the integer ``columns``, a (k, N) array
    holding N rows' k columns, the first most significant, after the
    ``prior`` (rank, count) of the same rows where one is given: each row's
    place among the ``count`` distinct rows in lexicographic order, the
    inverse that ``np.unique(rows, axis=0, return_inverse=True)`` gives, for
    fewer than 2**31 rows.

    The rows are ranked by packed keys. Offset so that none is below 0,
    each id takes the ``bits`` that the largest needs. The columns are
    added into int64 keys of at most 63 bits in place, the first highest,
    as many to a key as fit, and each key also carries, above its columns,
    the rank of the key before it (or the prior rank). One ``np.unique``
    per key ranks the rows by the columns packed so far: one 1-D sort for
    the contexts at order 5 and |V| < 32k, where a lexsort of the columns
    takes twice as long. No copy of a column is made."""
    lo = min(0, int(columns.min(initial=0)))
    bits = max(1, (int(columns.max(initial=0)) - lo).bit_length())
    rank, count = prior if prior is not None else (np.zeros(columns.shape[1], np.intp), 1)
    col = 0
    while col < len(columns):
        end = min(len(columns), col + (63 - (count - 1).bit_length()) // bits)
        key = rank.astype(np.int64)
        for c in columns[col:end]:
            key <<= bits
            key += c
            key -= lo
        distinct, rank = np.unique(key, return_inverse=True)
        count, col = len(distinct), end
    return rank, count


def _distinct_rows(a: np.ndarray):
    """(distinct rows in lexicographic order, inverse) of a 2-D integer
    array of fewer than 2**31 rows, so that ``a == rows[inverse]``:
    ``np.unique(a, axis=0, return_inverse=True)`` by :func:`row_ranks`."""
    inverse, count = row_ranks(a.T)
    rows = np.empty((count, a.shape[1]), dtype=a.dtype)
    rows[inverse] = a
    return rows, inverse


@dataclass
class RowGrad:
    """Gradient of one row table: ``values[i]`` (and ``bias[i]``) belong to
    row ``rows[i]``. Rows are unique, so writing them back is exact.

    ``held`` is the (matrix rows, bias values or None) pair the gradient
    read at ``rows``, current when it was taken; a step updates those
    instead of reading the table again. A concatenation holds nothing
    itself (``held`` None) and keeps its ``parts``, each with the rows it
    holds, which may be a view of the table: a step updates each part's
    rows where they were read."""

    rows: np.ndarray
    values: np.ndarray
    bias: Optional[np.ndarray]
    held: Optional[tuple]
    parts: tuple = ()

    @classmethod
    def empty(cls, dim, dtype) -> "RowGrad":
        """No rows, and so none held: a step has nothing of its table to read."""
        values, bias = np.zeros((0, dim), dtype=dtype), np.zeros(0, dtype=dtype)
        return cls(np.zeros(0, dtype=np.int64), values, bias, (values, bias))

    @classmethod
    def concatenate(cls, parts) -> "RowGrad":
        """The gradients ``parts`` of one table as one, their rows in turn."""
        rows, values, bias = (np.concatenate(x) for x in zip(*(
            (g.rows, g.values, g.bias) for g in parts)))
        return cls(rows, values, bias, None, tuple(parts))

    def finite(self) -> bool:
        return bool(np.isfinite(self.values).all()
                    and (self.bias is None or np.isfinite(self.bias).all()))


def _block(P, M, bias) -> np.ndarray:
    """Scores of every row of ``M`` (with ``bias``) against every row of P,
    in P's dtype, with the bias added in place."""
    X = P @ M.T
    X += bias
    return X


def _scores(P, M, bias) -> np.ndarray:
    """:func:`_block` as float64, for ``distribution``, the reference."""
    return _block(P, M, bias).astype(np.float64)


def _lse_rows(X: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Row-wise log-sum-exp as float64 (m,). The shift, ``exp`` and row sums
    work in X's dtype; ``overwrite`` lets them use X as their scratch, and
    otherwise they take it in row slabs of about ``_SLAB_BYTES``, bitwise
    the same, since every operation is per row."""
    slab = max(1, _SLAB_BYTES // max(1, X.itemsize * X.shape[1]))
    if not overwrite and len(X) > slab:
        return np.concatenate([_lse_rows(X[a:a + slab]) for a in range(0, len(X), slab)])
    m = X.max(axis=1)
    safe = np.where(np.isfinite(m), m, 0)
    E = np.subtract(X, safe[:, None], out=X if overwrite else None)
    out = safe + np.log(np.exp(E, out=E).sum(axis=1), dtype=np.float64)
    return np.where(m == -np.inf, -np.inf, out)


def _weighted_rows(W, P, rows, held):
    """(RowGrad, pull on P) of a dense weight block: ``W[i, j]`` is the
    objective's derivative by the score of P's row i against row ``rows[j]``
    of the ``held`` (matrix rows, bias values) read there. The bias values
    are W's column sums, taken in W's dtype; the row values ``W.T @ P`` and
    the pull ``W @ held rows`` are taken in P's."""
    bias = W.sum(axis=0).astype(P.dtype, copy=False)
    W = W.astype(P.dtype, copy=False)
    return RowGrad(rows, W.T @ P, bias, held), W @ held[0]


def _softmax_backward(P, X, rows, held, pos):
    """(loglik, RowGrad, gP) of one softmax whose scores ``X`` against P, in
    the parameters' dtype, are over the ``held`` (matrix rows, bias values)
    read at ``rows``, with targets in columns ``pos``. The log-sum-exps and
    the log-likelihood are float64. X is then overwritten with the deltas,
    the one-hot targets less the probabilities: it is shifted by the
    log-sum-exps, rounded to its dtype, and exponentiated in place."""
    lz = _lse_rows(X)
    at = np.arange(len(P))
    loglik = float(np.sum(X[at, pos] - lz))
    np.negative(np.exp(np.subtract(X, lz.astype(X.dtype)[:, None], out=X), out=X), out=X)
    X[at, pos] += 1
    return (loglik, *_weighted_rows(X, P, rows, held))


# ---------------------------------------------------------------------------
# output layers


class OutputLayer:
    """How one regime turns projected contexts ``P`` (m, D) into probabilities.

    A layer owns its ``rows`` extra score rows ``S``/``t`` and their
    ``start_values(probs)``, its section of the model file, and its passes:
    ``log_probs(params, P, targets, rows, macs)`` (float64 (m,), one per
    target), where P holds the batch's distinct projections and ``rows``
    each query's row of P, so that what depends only on the context, the
    standard softmax's log-normaliser and the class layer's class-level
    one, is computed, and counted, once per row of P; picks, word terms
    and tree walks are per query.
    ``backward`` (float64 log-likelihood, gP,
    and a :class:`RowGrad` for each of ``"R"`` and ``"S"`` that it reads)
    and ``distribution`` (float64 (m, V)). ``log_probs`` and ``backward``
    work in the parameters' dtype, with float64 log-sum-exps; every dense
    weight block of ``backward`` ends in :func:`_weighted_rows`.
    ``distribution`` is the float64 reference. ``backward`` reads the rows
    it writes through ``params.rows``, once, and keeps them as the
    gradient's ``held``; ``log_probs`` and ``distribution`` read the tables
    in place.
    ``class_of`` and ``class_sizes`` are the partition that NCE discriminates
    over: each word's class and each class's count of members but ``<s>``.
    NCE discriminates the target's class against noise classes, scored by
    the class rows of S when there are two or more, then the word within
    its class. ``reads_word_rows`` states whether the layer's scores read
    R and b: a layer that never reads them (the tree layer) never trains
    them either, and has no partition, so neither NCE nor raw scores
    ``r_w . p + b_w`` apply to it: ``require_word_rows`` refuses them.
    ``structure`` names the one ModelConfig field that holds the layer's
    structure (None: it has none), which ModelConfig refuses in any other;
    ``default_structure(counts)`` gives that keyword for the structure
    ``snlm train`` builds from the target counts when it is given none, as
    ``load_structure(path, vocab)`` gives it for a structure file (the
    output of ``snlm classes``) and ``read_structure`` for a model file's.
    ``row_bytes(itemsize)`` is the size of the temporaries ``log_probs``
    makes per query from parameters of ``itemsize`` bytes (4, float32, by
    default): its score rows work in the parameters' dtype. Evaluation sizes
    its batches from it. ``scoring_order(targets)`` is the order in which
    normalised scoring hands it queries. Targets are prediction targets,
    never ``<s>``. Rows ``unused_rows`` of S and t stay 0, unread. The base
    class has no score rows, no structure and no order.
    """

    rows = 0
    unused_rows = np.zeros(0, dtype=np.int64)
    reads_word_rows = True
    structure = None

    def __init__(self, config: ModelConfig):
        if self.structure and getattr(config, self.structure) is None:
            raise DataError(f"the {config.regime} regime needs a {self.structure}")
        self.vocab_size, self.dim = config.vocab_size, config.dim
        self.support = np.flatnonzero(np.arange(self.vocab_size) != BOS_ID)

    @classmethod
    def require_word_rows(cls, use: str, hint: str = "") -> None:
        """Refuse ``use`` (NCE, or raw scores), which reads R and b, where
        the layer never does; ``hint`` ends the message."""
        if not cls.reads_word_rows:
            able = " or ".join(r for r, layer in OUTPUT_LAYERS.items() if layer.reads_word_rows)
            raise DataError(f"{use} applies to {able} models: "
                            f"{cls.__name__} never trains R or b{hint}")

    def start_values(self, probs):
        return np.zeros(self.rows)

    def scoring_order(self, targets):
        """A permutation of the queries that groups what ``log_probs`` shares
        across them, or None where their order costs nothing."""
        return None

    def structure_bytes(self) -> bytes:
        return b""

    @staticmethod
    def read_structure(read, vocab_size: int, version: int) -> dict:
        """ModelConfig keywords read by ``read(n)`` from the structure
        section of a model file at ``version``."""
        return {}

    @staticmethod
    def default_structure(counts) -> dict:
        """ModelConfig keywords of the default structure over the target
        ``counts``, one per word id."""
        return {}


class StandardLayer(OutputLayer):
    """Softmax over the whole support.

    ``log_probs`` takes each query's target score from its projection's row
    and normalises each distinct projection once: it scores them in column
    blocks of R of at most ``_STANDARD_BLOCK_BYTES``, one GEMM per block
    into one reused (m, block) buffer, and normalises each block in row
    slabs of about ``_SLAB_BYTES``, small enough to stay in a 2 MiB L2
    cache across the bias, max, shift, ``exp`` and row-sum passes. The blocks' maxima and
    sums are combined in float64 by the online rule ``M' = max(M, m_j)``,
    ``S' = S e^(M - M') + s_j e^(m_j - M')`` (Milakov & Gimelshein 2018).
    ``backward`` reads all of R as one slice, scores it in one block and
    sets ``<s>``'s column to -inf, as ``log_probs`` does through its bias;
    ``<s>``'s row gets a zero gradient. ``distribution`` keeps the one-pass
    float64 form as the reference. For NCE the support is one class.
    """

    def __init__(self, config: ModelConfig):
        super().__init__(config)
        self.class_of = np.zeros(self.vocab_size, dtype=np.int32)
        self.class_sizes = np.array([len(self.support)])

    def block_words(self, itemsize=4) -> int:
        """Columns per score block: at least 2, so a block is never <s> alone."""
        return max(2, min(self.vocab_size, _STANDARD_BLOCK_BYTES // (itemsize * self.dim)))

    def row_bytes(self, itemsize=4) -> int:
        return itemsize * self.block_words(itemsize)  # one block's score row

    def log_probs(self, params, P, targets, rows, macs=None):
        # picked before the blocks, so its gathers never overlap the score buffer
        picked = (np.einsum("md,md->m", P[rows], params.R[targets]).astype(np.float64)
                  + params.b[targets])
        m, V = len(P), self.vocab_size
        width = self.block_words(params.dtype.itemsize)
        slab = max(1, _SLAB_BYTES // (params.dtype.itemsize * width))
        # Sized by the batch's queries, not its m distinct projections, so
        # every full batch asks malloc for one size: glibc raises its mmap
        # threshold to a freed mapping's size and serves smaller requests
        # from its heap, which keeps their pages (4 MB more peak RSS on the
        # benchmark's held-out text). Past m rows the buffer is never touched.
        buf = np.empty(len(targets) * width, dtype=params.dtype)
        ones = np.ones(width, dtype=params.dtype)
        bias = params.b.copy()
        bias[BOS_ID] = -np.inf
        block_max, block_sum = np.empty((2, m), dtype=params.dtype)
        M, S = np.full(m, -np.inf), np.zeros(m)
        for lo in range(0, V, width):
            w = min(width, V - lo)
            X = buf[:m * w].reshape(m, w)
            np.matmul(P, params.R[lo:lo + w].T, out=X)
            for a in range(0, m, slab):
                Xs = X[a:a + slab]
                Xs += bias[lo:lo + w]
                Xs -= Xs.max(axis=1, out=block_max[a:a + slab])[:, None]
                np.exp(Xs, out=Xs)
                np.matmul(Xs, ones[:w], out=block_sum[a:a + slab])
            top = np.maximum(M, block_max)
            S = S * np.exp(M - top) + block_sum * np.exp(block_max - top)
            M = top
        count_output(macs, m * len(self.support), self.dim)
        return picked - (M + np.log(S))[rows]

    def backward(self, params, P, targets, macs=None):
        held = params.rows("R", slice(None))
        X = _block(P, *held)
        X[:, BOS_ID] = -np.inf
        count_output(macs, len(P) * len(self.support), self.dim, train=True)
        loglik, R, gP = _softmax_backward(P, X, np.arange(self.vocab_size), held, targets)
        return loglik, gP, {"R": R}

    def distribution(self, params, P, macs=None):
        scores = _scores(P, params.R[self.support], params.b[self.support])
        count_output(macs, scores.size, self.dim)
        out = np.zeros((len(P), self.vocab_size))
        out[:, self.support] = np.exp(scores - _lse_rows(scores)[:, None])
        return out


class _WordTerms(NamedTuple):
    """One batch's within-class softmaxes, as ``ClassLayer._word_terms`` lays
    them out: ``rows`` are the batch rows scored, grouped by class, ``logp``
    their float64 log-probs and ``P`` their projections. ``flat`` holds
    each row's ``exp(score - max)`` over its ``sizes`` class members, ``sums``
    each row's sum of them and ``at`` its target's index in ``flat``. A run
    ``(class, a, z, X)`` covers ``rows[a:z]``; X is its (z - a, size) view
    of ``flat``. ``held`` has each run's (R rows, b values) of its class's
    members, as the scores read them."""

    rows: np.ndarray
    logp: np.ndarray
    runs: list
    P: np.ndarray
    flat: np.ndarray
    sums: np.ndarray
    sizes: np.ndarray
    at: np.ndarray
    held: list


class ClassLayer(OutputLayer):
    """P(class | h) over the K class rows of S, times a softmax over the
    target's class members. A class holding only ``<s>`` gets no mass.
    ``members_eff`` are each class's members but ``<s>``, ``class_sizes``
    their counts. ``member_rows`` hold each class's members as a slice
    where they are one run of ids (as frequency binning makes them but
    around ``<s>``), so that gathering their rows of R and b is a view.

    A batch's word terms take one GEMM per distinct target class, written
    into one flat buffer, and one segmented log-sum-exp over that buffer
    (see ``_word_terms``); ``distribution`` keeps the per-class form as the
    reference."""

    structure = "classing"

    def __init__(self, config: ModelConfig):
        super().__init__(config)
        classing = config.classing
        if len(classing.class_of) != config.vocab_size:
            raise DataError("classing does not cover the vocabulary")
        self.class_of = classing.class_of
        self.rows = classing.num_classes
        V = config.vocab_size
        # by class, then id; a key of at most 16 bits takes numpy's radix sort
        order = np.argsort(self.class_of.astype(np.min_scalar_type(self.rows - 1)),
                           kind="stable")
        order = order[order != BOS_ID]
        cls = self.class_of[order]
        starts = np.searchsorted(cls, np.arange(self.rows + 1))
        self.members_eff = np.split(order, starts[1:-1])
        self.member_rows = [slice(m[0], m[-1] + 1) if len(m) and m[-1] - m[0] == len(m) - 1
                            else m for m in self.members_eff]
        self.class_sizes = np.diff(starts)
        self.class_valid = self.class_sizes > 0
        self.pos_in_class = np.full(V, -1, dtype=np.int64)
        self.pos_in_class[order] = np.arange(len(order)) - starts[cls]

    def row_bytes(self, itemsize=4) -> int:
        """Class scores, a share of the flat word buffer of at most the
        largest class, and the row max and picked score. The gathered
        projection row is the (D,) row that ``_batch_width`` adds."""
        return itemsize * (self.rows + int(self.class_sizes.max()) + 2)

    def start_values(self, probs):
        if probs is None:
            return super().start_values(probs)
        return _floored_log(np.array([probs[m].sum() if len(m) else 0.0
                                      for m in self.members_eff]))

    def scoring_order(self, targets):
        """Target-class order, stable: ``log_probs`` runs one GEMM per
        distinct target class in a batch, so sorted batches run fewer."""
        return np.argsort(self.class_of[targets], kind="stable")

    def structure_bytes(self) -> bytes:
        return (struct.pack("<I", self.rows)
                + np.ascontiguousarray(self.class_of, dtype="<i4").tobytes())

    @staticmethod
    def read_structure(read, vocab_size, version):
        (K,) = struct.unpack("<I", read(4))  # WordClassing rejects K > |V|
        class_of = np.frombuffer(read(4 * vocab_size), dtype="<i4")
        return {"classing": WordClassing(class_of.copy(), K)}

    @staticmethod
    def load_structure(path, vocab):
        return {"classing": WordClassing.load(path, vocab)}

    @staticmethod
    def default_structure(counts):
        """ceil(sqrt(|V|)) frequency bins of the target unigram."""
        return {"classing": frequency_binning(unigram_from_counts(counts),
                                              default_num_classes(len(counts)))}

    def _class_scores(self, P, S, t):
        """Class scores in the parameters' dtype, -inf for the empty classes."""
        psi = _block(P, S, t)
        psi[:, ~self.class_valid] = -np.inf
        return psi

    def _word_terms(self, P, rows, targets, read) -> "_WordTerms":
        """Every query's within-class softmax in one flat pass, in the
        parameters' dtype; ``log_probs`` and ``backward`` share it. Query i
        is projected in row ``rows[i]`` of P. ``read(members)`` returns the
        (R rows, b values) of a class's ``member_rows``.

        One stable argsort groups the queries by target class. Queries whose
        class has one effective member are left out: their word term is
        exactly 0. Each run of ``m`` queries on a class of ``k`` members
        fills an (m, k) block of one flat buffer: one GEMM and the bias.
        Then one gather over the whole buffer picks the targets' raw scores
        and one ``np.maximum.reduceat`` over the row starts takes the row
        maxima, which each run subtracts in place; one ``exp`` and one
        ``np.add.reduceat`` normalise every row, and a log-prob is
        ``picked - (max + log sum)``, in :func:`_lse_rows`' order of
        operations.
        """
        cls = self.class_of[targets]
        order = np.argsort(cls, kind="stable")
        order = order[self.class_sizes[cls[order]] > 1]
        cls, Pr = cls[order], P[rows[order]]
        sizes = self.class_sizes[cls]
        starts = sizes.cumsum() - sizes
        at = starts + self.pos_in_class[targets[order]]
        flat = np.empty(int(sizes.sum()), dtype=P.dtype)
        edges = np.flatnonzero(np.diff(cls, prepend=-1, append=-1)).tolist()
        runs, held = [], []
        for a, z in zip(edges[:-1], edges[1:]):
            c, lo = int(cls[a]), int(starts[a])
            Rc, bc = read(self.member_rows[c])
            X = flat[lo:lo + (z - a) * int(sizes[a])].reshape(z - a, -1)
            np.matmul(Pr[a:z], Rc.T, out=X)
            X += bc
            runs.append((c, a, z, X))
            held.append((Rc, bc))
        picked = flat[at]
        shift = np.maximum.reduceat(flat, starts)
        for _, a, z, X in runs:  # not np.repeat: a second flat-sized buffer would
            X -= shift[a:z, None]  # outgrow what row_bytes sizes a batch for
        sums = np.add.reduceat(np.exp(flat, out=flat), starts)
        logp = picked - (shift + np.log(sums, dtype=np.float64))
        return _WordTerms(order, logp, runs, Pr, flat, sums, sizes, at, held)

    def log_probs(self, params, P, targets, rows, macs=None):
        out = np.zeros(len(targets))
        if self.rows > 1:
            psi = self._class_scores(P, params.S, params.t)
            count_output(macs, psi.size, self.dim)
            picked = psi[rows, self.class_of[targets]]
            out = picked - _lse_rows(psi, overwrite=True)[rows]
        word = self._word_terms(P, rows, targets, lambda mem: (params.R[mem], params.b[mem]))
        count_output(macs, word.flat.size, self.dim)
        out[word.rows] += word.logp
        return out

    def backward(self, params, P, targets, macs=None):
        loglik, gP, grads = 0.0, np.zeros(P.shape, P.dtype), {}
        if self.rows > 1:
            held = params.rows("S", slice(None))
            psi = self._class_scores(P, *held)
            count_output(macs, psi.size, self.dim, train=True)
            loglik, grads["S"], gP = _softmax_backward(
                P, psi, np.arange(self.rows), held, self.class_of[targets])
        word = self._word_terms(P, np.arange(len(P)), targets, lambda mem: params.rows("R", mem))
        count_output(macs, word.flat.size, self.dim, train=True)
        if not word.runs:
            return loglik, gP, grads
        d = word.flat  # the softmax deltas in place: one-hot target less the probabilities
        d /= np.repeat(word.sums, word.sizes)
        np.negative(d, out=d)
        d[word.at] += 1
        parts = [_weighted_rows(X, word.P[a:z], self.members_eff[c], held)  # X: the run's deltas
                 for (c, a, z, X), held in zip(word.runs, word.held)]
        # the runs cover word.rows in order, so one scatter adds every pull
        # (a fancy add per run costs several times as much)
        gP[word.rows] += np.concatenate([pull for _, pull in parts])
        # the classes are disjoint, so their rows are unique
        grads["R"] = RowGrad.concatenate([g for g, _ in parts])
        return loglik + float(word.logp.sum()), gP, grads

    def distribution(self, params, P, macs=None):
        psi = self._class_scores(P, params.S, params.t).astype(np.float64)
        count_output(macs, psi.size, self.dim)
        class_lp = psi - _lse_rows(psi)[:, None]
        out = np.zeros((len(P), self.vocab_size))
        for c, (mem, rows) in enumerate(zip(self.members_eff, self.member_rows)):
            if len(mem):
                word = _scores(P, params.R[rows], params.b[rows])
                count_output(macs, word.size, self.dim)
                out[:, rows] = np.exp(class_lp[:, c, None] + (word - _lse_rows(word)[:, None]))
        return out


class TreeLayer(OutputLayer):
    """Hierarchical softmax (Morin & Bengio 2005; Mnih & Hinton 2009): at
    each internal node n on a word's path, ``x = S[left[n]] . p + t[left[n]]``
    sends it left with ``sigmoid(x)`` and right with ``sigmoid(-x)``. Node
    n's vector is kept in its left child's row; the right children's rows
    (``unused_rows``) stay 0, keeping the file's row per node but the root.
    ``choice_row[c]`` is the row of node c's parent's vector, ``side[c]`` +1
    for a left child and -1 for a right one.

    ``log_probs`` walks each query up ``tree.parent`` from its leaf, deepest
    queries first, so those still walking are a prefix; a step gathers one
    row of S and t each, in slabs whose rows fill about ``_SLAB_BYTES``, an
    L2 cache's worth. ``backward`` walks the same way, in blocks of
    ``_TREE_BLOCK`` queries; ``distribution``, the reference, goes down from
    the root."""

    structure = "tree"
    reads_word_rows = False

    def __init__(self, config: ModelConfig):
        super().__init__(config)
        tree = config.tree
        if not np.array_equal(tree.words, self.support):
            raise DataError("tree leaves must cover the vocabulary minus <s>")
        self.tree = tree
        self.rows = tree.num_nodes - 1  # every node but the root
        self.unused_rows = tree.right[tree.leaf_word < 0]
        self.choice_row = np.take(tree.left, tree.parent)  # the root's is never read
        self.side = np.where(self.choice_row == np.arange(tree.num_nodes), 1.0, -1.0)

    def row_bytes(self, itemsize=4) -> int:
        """What the walk holds per query, whatever the dtype: its order, leaf
        and depth, and its float64 sums and result. A slab's gathered rows
        and scores are bounded by ``_SLAB_BYTES``, not by the batch width."""
        return 40

    def _deepest_first(self, targets):
        """(order, leaf, depth) of the queries, deepest first, stable."""
        leaf = self.tree.leaf_of[targets]
        depth = self.tree.node_depth[leaf]
        order = np.argsort(-depth, kind="stable")
        return order, leaf[order], depth[order]

    def _steps(self, leaf, depth):
        """Before each step of the walk up from ``leaf`` (deepest first), the
        nodes of the rows still walking: a prefix, then their parents."""
        for r in np.searchsorted(-depth, -np.arange(depth.max(initial=0))).tolist():
            leaf = leaf[:r]
            yield leaf
            leaf = self.tree.parent[leaf]

    def _choices(self, leaf, depth):
        """(node, index of its query in ``leaf``) of every step's nodes."""
        steps = list(self._steps(leaf, depth))
        return (np.concatenate([leaf[:0], *steps]),
                np.concatenate([np.arange(0), *(np.arange(len(c)) for c in steps)]))

    def start_values(self, probs):
        """log(left mass / right mass) in left children's rows: the biases
        alone give each word its prior mass (uniform when probs is None)."""
        tree = self.tree
        leaves = tree.leaf_word >= 0
        mass = np.zeros(tree.num_nodes)
        mass[leaves] = 1.0 / leaves.sum() if probs is None else probs[tree.leaf_word[leaves]]
        for d in range(tree.max_depth - 1, -1, -1):  # deepest internal nodes first
            level = np.flatnonzero((tree.node_depth == d) & ~leaves)
            mass[level] = mass[tree.left[level]] + mass[tree.right[level]]
        t, left = np.zeros(tree.num_nodes), tree.left[~leaves]
        t[left] = _floored_log(mass[left]) - _floored_log(mass[tree.right[~leaves]])
        return t[:self.rows]

    def structure_bytes(self) -> bytes:
        tree = self.tree
        nodes = np.stack([tree.parent, tree.left, tree.right, tree.leaf_word], axis=1)
        return (struct.pack("<II", tree.num_nodes, tree.root)
                + np.ascontiguousarray(nodes, dtype="<i4").tobytes())

    @staticmethod
    def read_structure(read, vocab_size, version):
        """Refuses files before version 4, whose rows scored a node against
        its sibling."""
        if version < 4:
            raise ModelFormatError(f"unsupported model file version {version} for a tree model")
        num_nodes, root = struct.unpack("<II", read(8))
        nodes = np.frombuffer(read(16 * num_nodes), dtype="<i4").reshape(num_nodes, 4)
        if root != num_nodes - 1:
            raise ModelFormatError("tree root must be the last node")
        if (nodes[:, 3] >= vocab_size).any():
            raise ModelFormatError("tree leaf word out of range")
        return {"tree": VocabularyTree(*(nodes[:, i].copy() for i in range(4)))}

    @staticmethod
    def load_structure(path, vocab):
        return {"tree": VocabularyTree.load(path, vocab)}

    @staticmethod
    def default_structure(counts):
        """The Huffman tree of the target counts over every word but ``<s>``."""
        return {"tree": huffman_tree({w: int(c) for w, c in enumerate(counts) if w != BOS_ID})}

    def log_probs(self, params, P, targets, rows, macs=None):
        order, leaf, depth = self._deepest_first(targets)
        at = rows[order]
        count_output(macs, int(depth.sum()), self.dim)
        sums = np.zeros(len(targets))
        slab = max(1, _SLAB_BYTES // (params.dtype.itemsize * self.dim))
        for a in range(0, len(targets), slab):
            Ps, lp = P[at[a:a + slab]], sums[a:a + slab]
            for cur in self._steps(leaf[a:a + slab], depth[a:a + slab]):
                # the tree's ids are in range: mode "clip" skips the slow bounds check
                ids = np.take(self.choice_row, cur, mode="clip")
                x = np.einsum("md,md->m", np.take(params.S, ids, axis=0, mode="clip"),
                              Ps[:len(cur)])
                x += np.take(params.t, ids, mode="clip")
                d = x * np.take(self.side, cur, mode="clip")  # float64
                lp[:len(cur)] += np.minimum(d, 0) - np.log1p(np.exp(-np.abs(d)))  # log sigmoid
        out = np.empty(len(targets))
        out[order] = sums
        return out

    def backward(self, params, P, targets, macs=None):
        order, leaf, depth = self._deepest_first(targets)
        count_output(macs, int(depth.sum()), self.dim, train=True)
        gP, loglik, parts = np.empty(P.shape, P.dtype), 0.0, []
        for a in range(0, len(P), _TREE_BLOCK):
            block = order[a:a + _TREE_BLOCK]
            cur, at = self._choices(leaf[a:a + _TREE_BLOCK], depth[a:a + _TREE_BLOCK])
            rows, inv = np.unique(self.choice_row[cur], return_inverse=True)
            (Su, tu), Ps, side = params.rows("S", rows), P[block], self.side[cur]
            d = (np.einsum("ed,ed->e", Su[inv], Ps[at]) + tu[inv]) * side
            e = np.exp(-np.abs(d))
            loglik += float(np.sum(np.minimum(d, 0) - np.log1p(e)))
            # d loglik / d x, side * sigmoid(-d), by query and row: a path passes a node once
            A = np.zeros((len(Ps), len(rows)), dtype=params.dtype)
            A[at, inv] = side * np.where(d < 0, 1.0, e) / (1.0 + e)
            g, gP[block] = _weighted_rows(A, Ps, rows, (Su, tu))
            parts.append(g)
        if not parts:  # an empty batch reads no row
            return loglik, gP, {}
        if len(parts) == 1:
            return loglik, gP, {"S": parts[0]}
        # blocks share rows: sum them, holding each row as first read
        g = RowGrad.concatenate(parts)
        plan = RowPlan(g.rows)
        held = (np.concatenate(h)[plan.first] for h in zip(*(p.held for p in parts)))
        return loglik, gP, {"S": RowGrad(plan.rows, plan.sum(g.values), plan.sum(g.bias),
                                         tuple(held))}

    def distribution(self, params, P, macs=None):
        tree = self.tree
        inner = np.flatnonzero(tree.leaf_word < 0)
        x = _scores(P, params.S[tree.left[inner]], params.t[tree.left[inner]])
        count_output(macs, x.size, self.dim)
        logp = np.zeros((len(P), tree.num_nodes))
        for d in range(tree.max_depth):  # from the root down, one level at a time
            k = np.flatnonzero(tree.node_depth[inner] == d)
            logp[:, tree.left[inner[k]]] = logp[:, inner[k]] - np.logaddexp(0.0, -x[:, k])
            logp[:, tree.right[inner[k]]] = logp[:, inner[k]] - np.logaddexp(0.0, x[:, k])
        out = np.zeros((len(P), self.vocab_size))
        out[:, self.support] = np.exp(logp[:, tree.leaf_of[self.support]])
        return out


OUTPUT_LAYERS = {REGIME_STANDARD: StandardLayer, REGIME_CLASS: ClassLayer,
                 REGIME_TREE: TreeLayer}


# ---------------------------------------------------------------------------
# projection and scoring: batches, and single queries as batches of one


def project_gathered(params: ModelParameters, Qg: np.ndarray, macs: MacCounter = None):
    """Batched projection of context rows already gathered, ``Qg = Q[contexts]``
    of shape (m, n-1, D).

    Returns (P, active) where P is (m, D) and active marks strictly positive
    pre-activations (the rectifier's derivative is taken as 0 at 0).
    Diagonal transforms sum the positions in order in one ``einsum``.
    """
    cfg = params.config
    if cfg.diagonal:
        acc = np.einsum("mjd,jd->md", Qg, np.array(params.C))
    else:
        acc = Qg[:, 0] @ params.C[0].T
        for j in range(1, cfg.context_size):
            acc += Qg[:, j] @ params.C[j].T
    if macs is not None:
        per = cfg.dim if cfg.diagonal else cfg.dim * cfg.dim
        macs.projection += len(Qg) * cfg.context_size * per
    active = acc > 0
    return np.maximum(acc, 0, out=acc), active


def project_batch(params: ModelParameters, contexts: np.ndarray, macs: MacCounter = None):
    """:func:`project_gathered` of a batch of (m, n-1) context ids; the
    gathered rows, one ``np.take`` of Q, are freed on return."""
    return project_gathered(params, np.take(params.Q, contexts, axis=0), macs)


def log_probs_batch(params: ModelParameters, contexts: np.ndarray, targets: np.ndarray,
                    macs: MacCounter = None) -> np.ndarray:
    """log P(target_i | context_i) for a batch, as float64 (m,).

    Each distinct context of the batch (found by :func:`_distinct_rows`) is
    projected once, and the output layer's ``log_probs`` computes what
    depends only on the context once per projection, so the MAC counter
    tallies one projection and one normaliser per distinct context. A
    batch of one has nothing to share and skips the search, which would
    add about 40% to it (27 us to a 64 us class query at |V| 5k, D 100,
    on a 2-core Xeon). ``<s>`` targets get -inf and cost nothing. The
    scores are made after the projection, whose gathered context rows are
    a batch's largest temporary.
    """
    targets = np.asarray(targets, dtype=np.int64)
    valid = targets != BOS_ID
    contexts = np.asarray(contexts)[valid]
    if len(contexts) > 1:
        contexts, rows = _distinct_rows(contexts)
    else:
        rows = np.arange(len(contexts))
    P = project_batch(params, contexts, macs)[0]  # mask freed: no gradient
    out = np.full(len(targets), -np.inf)
    out[valid] = params.config.layout().log_probs(params, P, targets[valid], rows, macs)
    return out


def unnormalised_scores_batch(params: ModelParameters, contexts: np.ndarray,
                              targets: np.ndarray, macs: MacCounter = None) -> np.ndarray:
    """Raw scores phi(target_i, context_i) for a batch, as float64 (m,)."""
    targets = np.asarray(targets, dtype=np.int64)
    P, _ = project_batch(params, contexts, macs)
    count_output(macs, len(targets), params.config.dim)
    return (np.einsum("md,md->m", P, params.R[targets]) + params.b[targets]).astype(np.float64)


def _one(params: ModelParameters, context) -> np.ndarray:
    """One context as a (1, n-1) batch."""
    context = np.asarray(context, dtype=np.int64).reshape(1, -1)
    if context.shape[1] != params.config.context_size:
        raise DataError("context length must be order - 1")
    return context


def project_context(params: ModelParameters, context, macs: MacCounter = None) -> np.ndarray:
    """Prediction vector p = relu(sum_j C_j q_{h_j}) for one context.

    ``context`` holds the n-1 context ids, most recent first. Cost is
    (n-1) * D MACs with diagonal transforms, (n-1) * D^2 with full ones.
    """
    return project_batch(params, _one(params, context), macs)[0][0]


def unnormalised_log_score(params: ModelParameters, context, w: int,
                           macs: MacCounter = None) -> float:
    """Raw score phi(w, h); NCE training drives exp(phi) toward P(w | h)."""
    return float(unnormalised_scores_batch(params, _one(params, context), [w], macs)[0])


def log_prob(params: ModelParameters, context, w: int, macs: MacCounter = None) -> float:
    """Normalized log P(w | h) under the model's regime (-inf for ``<s>``)."""
    return float(log_probs_batch(params, _one(params, context), [w], macs)[0])


def full_distribution(params: ModelParameters, context, macs: MacCounter = None) -> np.ndarray:
    """P(. | h) over the whole vocabulary (float64; ``<s>`` gets exactly 0)."""
    P, _ = project_batch(params, _one(params, context), macs)
    return params.config.layout().distribution(params, P, macs)[0]
