"""Training: maximum-likelihood SGD and noise contrastive estimation.

Gradient conventions
--------------------
All objectives are maximized; ``train`` takes ascent steps ``theta += lr * g``.
A batch of m instances contributes::

    sum_i log-term_i  -  (l2 * m / 2) * ||theta||^2

so ``l2`` is a per-example coefficient. Gradient functions return the data
term's value and the gradient of the full penalized objective as row-sparse
``Gradients``: the data term on the rows the batch reads, plus the penalty's
coefficient ``l2 * m``. ``Gradients.dense`` spells the whole vector out.

Sparse steps
------------
``train`` writes only the rows a minibatch reads. The decay that a dense
step applies to every other row is deferred: each row of Q, R/b and S/t
records the step it is current through and is multiplied by
``(1 - lr * l2) ** missed`` when a step next reads it, or when all rows are
flushed (before each epoch's perplexity passes, and whenever ``train``
returns or raises). This is the lazy weight decay of Bottou, "Stochastic
Gradient Descent Tricks" (2012); with it an NCE step costs what its sampled
rows cost, whatever the vocabulary size.

A step reads each touched row once and writes it once. Its gradient
function gets a lazily decayed view of the parameters (``_DecayedView``):
the same arrays, whose ``rows(name, ids)`` returns the rows times the decay
they owe and writes nothing. NCE blocks and the output layers' ML
``backward`` passes read only the rows they write, through ``rows``, and
the returned ``RowGrad`` keeps them (``held``), so ``_SparseSGD.apply``
computes ``held * decay + scale * g`` in place in ``held`` and writes it
back with one scatter, or none where ``held`` is a view of its table (a
concatenated gradient, such as a class/ML step's member runs, does this
part by part).
The training split stays index arrays into the caller's instances: each
batch gathers its own rows.

NCE
---
Instead of normalizing over the vocabulary, each observed word is
discriminated against k samples from a fixed noise distribution P_n::

    P(observed | w, h) = sigmoid(phi(w, h) - log(k * P_n(w)))

with the model's normalizer fixed to 1. NCE runs over the output layer's
partition of the support (its ``class_of``): one discrimination at the class
level (noise = class unigram) and one within the target's class (noise =
within-class unigram). A standard model's partition is one class, so it has
no class level. ``nce_gradient`` and ``nce_objective`` are the one pair of
entry points for both regimes. ``NoiseTable`` holds either noise
distribution and draws from it; the gradient functions take only its log
P_n vectors.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .corpus import BOS_ID, unigram_from_counts
from .errors import DataError, TrainingDivergedError
from .evaluation import perplexity_from_instances, perplexity_of
from .model import (MacCounter, ModelParameters, RowGrad, RowPlan, _weighted_rows,
                    count_output, log_probs_batch, project_gathered)

ALGORITHMS = ("ml_sgd", "nce")

# Each epoch's training-set perplexity is taken over at most this many
# training instances (the first of the seeded split); validation is scored whole.
TRAIN_PPL_INSTANCES = 4096


@dataclass
class TrainingConfig:
    algorithm: str = "nce"
    learning_rate: float = 0.1
    minibatch_size: int = 64
    epochs: int = 10
    l2_strength: float = 1e-5      # per example
    noise_samples: int = 10        # k
    rng_seed: int = 1
    validation_fraction: float = 0.05

    def validate(self, flags: dict = None):
        """Raise DataError on the first bad setting. The message names the
        field, and its command-line flag where ``flags`` maps it to one."""
        def named(field):
            return f"{field} ({flags[field]})" if flags and field in flags else field

        def bad(field, rule):
            raise DataError(f"{named(field)} must be {rule}, got {getattr(self, field)!r}")

        if self.algorithm not in ALGORITHMS:
            bad("algorithm", f"one of {', '.join(ALGORITHMS)}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            bad("learning_rate", "finite and > 0")
        if self.minibatch_size < 1:
            bad("minibatch_size", ">= 1")
        if self.epochs < 0:
            bad("epochs", ">= 0")
        if not (math.isfinite(self.l2_strength) and self.l2_strength >= 0):
            bad("l2_strength", "finite and >= 0")
        if self.learning_rate * self.l2_strength >= 1:
            raise DataError(
                f"{named('learning_rate')} times {named('l2_strength')} must be < 1, "
                f"so that a step's decay 1 - lr * l2 stays above 0, got "
                f"{self.learning_rate!r} * {self.l2_strength!r}")
        if self.rng_seed < 0:
            bad("rng_seed", ">= 0")
        if self.algorithm == "nce" and self.noise_samples < 1:
            bad("noise_samples", ">= 1 for NCE")
        if not 0 <= self.validation_fraction < 1:
            bad("validation_fraction", "in [0, 1)")


def empirical_unigram(targets, vocab_size: int) -> np.ndarray:
    """Relative frequency of prediction targets (includes </s> mass)."""
    return unigram_from_counts(np.bincount(np.asarray(targets, dtype=np.int64),
                                           minlength=vocab_size))


# ---------------------------------------------------------------------------
# sampling


class NoiseTable:
    """A noise distribution P_n as one Walker alias table, grouped.

    Item i belongs to group ``group_of[i]`` (all to group 0 by default), and
    group g owns the slots ``offset[g] : offset[g] + size[g]`` of one flat
    table, so a batch of draws, each from its own group, is one vectorized
    alias draw. Groups without mass get no slots. ``mass`` is each group's
    total P_n and ``log_probs`` is log P_n(item | its group), -inf where P_n
    is 0.
    """

    def __init__(self, probs, rng, group_of=None):
        probs = np.asarray(probs, dtype=np.float64)
        if (probs < 0).any() or not probs.sum() > 0:
            raise DataError("need non-negative probs with positive mass")
        group_of = np.zeros(len(probs), dtype=np.int64) if group_of is None \
            else np.asarray(group_of, dtype=np.int64)
        self.mass = np.bincount(group_of, weights=probs)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.log(probs) - np.log(self.mass[group_of])
        self.log_probs = np.where(probs > 0, ratio, -np.inf)
        order = np.argsort(group_of, kind="stable")
        self.items = order[self.mass[group_of[order]] > 0]
        self.size = np.bincount(group_of[self.items], minlength=len(self.mass))
        self.offset = np.cumsum(self.size) - self.size
        self.q, self.alias = np.empty(len(self.items)), np.arange(len(self.items))
        for lo, n in zip(self.offset[self.size > 0].tolist(),
                         self.size[self.size > 0].tolist()):
            # Walker's construction of one group's slots, on Python lists and
            # floats (the same IEEE doubles as numpy scalars, at less cost)
            p = probs[self.items[lo:lo + n]]
            scaled = p * (n / p.sum())
            q, alias = scaled.tolist(), list(range(lo, lo + n))
            small = np.flatnonzero(scaled < 1.0).tolist()
            large = np.flatnonzero(scaled >= 1.0).tolist()
            while small and large:
                s, l = small.pop(), large.pop()
                alias[s] = lo + l
                q[l] = q[l] - (1.0 - q[s])
                (small if q[l] < 1.0 else large).append(l)
            for i in small + large:
                q[i] = 1.0  # numerical leftovers
            self.q[lo:lo + n], self.alias[lo:lo + n] = q, alias
        self.rng = rng

    def draw(self, groups, k) -> np.ndarray:
        """k draws from each entry's group, as an (m, k) id matrix."""
        groups = np.asarray(groups, dtype=np.int64)
        size = self.size[groups]
        if (size == 0).any():
            raise DataError(f"group {groups[size == 0][0]} has no noise mass")
        m = len(groups)
        slot = self.offset[groups, None] + self.rng.integers(0, size[:, None], size=(m, k))
        keep = self.rng.random((m, k)) < self.q[slot]
        return self.items[np.where(keep, slot, self.alias[slot])]


# ---------------------------------------------------------------------------
# gradients


_row_tables = ModelParameters.tables  # (matrix, bias or None) pairs by table name


@dataclass
class Gradients:
    """Row-sparse gradient of a penalized batch objective.

    ``Q``, ``R`` (with the bias ``b``) and ``S`` (with ``t``) hold the data
    term on the rows the batch reads; the context transforms ``C`` are dense.
    The penalty's gradient ``-l2 * theta`` covers every parameter and is not
    stored: ``l2`` is its coefficient, already scaled by the batch size, and
    ``train`` applies it as lazy decay.
    """

    Q: RowGrad
    R: RowGrad
    C: list
    S: RowGrad
    l2: float = 0.0

    def tables(self):
        """(name, RowGrad) pairs, named as in ``_row_tables``."""
        return [("Q", self.Q), ("R", self.R), ("S", self.S)]

    def finite(self) -> bool:
        """True when every stored row and every transform gradient is finite."""
        return all(g.finite() for _, g in self.tables()) \
            and all(np.isfinite(gC).all() for gC in self.C)

    def dense(self, params: ModelParameters) -> ModelParameters:
        """The full gradient, penalty included, as arrays shaped like ``params``.

        A pass over every parameter: for tests and diagnostics, not training.
        """
        out = params.copy()
        for _, a in out.arrays():
            a[...] = 0
        tables = _row_tables(out)
        for name, g in self.tables():
            M, bias = tables[name]
            M[g.rows] = g.values
            if bias is not None:
                bias[g.rows] = g.bias
        for Cj, gC in zip(out.C, self.C):
            Cj[...] = gC
        if self.l2:
            for (_, g), (_, p) in zip(out.arrays(), params.arrays()):
                g -= (self.l2 * p).astype(g.dtype, copy=False)
        return out


def squared_norm(params: ModelParameters) -> float:
    return float(sum((a.astype(np.float64) ** 2).sum() for _, a in params.arrays()))


def _sigmoid(x):
    """(sigma(x), z = exp(-|x|)); log sigma(+-x) = min(+-x, 0) - log1p(z)."""
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z)), z


def _project_for_grad(params, contexts, macs):
    """(plan, Qu, Qg, P, active): the context ids' :class:`RowPlan`,
    position-major as the backward pass sums them; their distinct rows
    ``Qu``, read once; ``Qg = Q[contexts]`` taken from ``Qu`` for the
    projection and its backward pass; and the projection."""
    plan = RowPlan(np.asarray(contexts).T)
    Qu, _ = params.rows("Q", plan.rows)
    Qg = Qu[plan.inv.T]
    P, active = project_gathered(params, Qg, macs)
    if macs is not None:  # backward transform/embedding passes
        cfg = params.config
        per = cfg.dim if cfg.diagonal else cfg.dim * cfg.dim
        macs.projection += 2 * len(contexts) * cfg.context_size * per
    return plan, Qu, Qg, P, active


def _backprop_projection(params, plan, Qu, Qg, active, gP, l2, rowgrads) -> Gradients:
    """Push the output-side gradient gP through the rectifier into C and Q,
    reading Q's context rows from ``Qg``, the block the projection used,
    and summing them by ``plan``; Q's gradient holds the rows ``Qu``.

    ``rowgrads`` maps "R" and "S" to their :class:`RowGrad`; a table the
    output layer did not touch gets no rows.
    """
    cfg = params.config
    gA = (gP * active).astype(params.dtype, copy=False)
    if cfg.diagonal:
        C = list(np.einsum("md,mjd->jd", gA, Qg))
        parts = gA * np.array(params.C)[:, None, :]
    else:
        C = [gA.T @ Qg[:, j] for j in range(cfg.context_size)]
        parts = gA @ np.array(params.C)
    # parts is (n-1, m, D): position-major, like the planned ids
    Q = RowGrad(plan.rows, plan.sum(parts.reshape(-1, cfg.dim)), None, (Qu, None))
    empty = RowGrad.empty(cfg.dim, params.dtype)
    return Gradients(Q, rowgrads.get("R", empty), C, rowgrads.get("S", empty), l2)


def _check_targets(targets):
    if (np.asarray(targets) == BOS_ID).any():
        raise DataError("<s> cannot be a prediction target")


def ml_objective(params: ModelParameters, contexts, targets, l2: float = 0.0) -> float:
    """Batch log-likelihood minus the L2 penalty (finite-difference anchor)."""
    lp = log_probs_batch(params, contexts, targets)
    return float(lp.sum()) - 0.5 * l2 * len(targets) * squared_norm(params)


def ml_gradient(params: ModelParameters, contexts, targets, l2: float = 0.0,
                macs: MacCounter = None):
    """Exact log-likelihood gradients for the model's regime.

    Returns (Gradients, batch log-likelihood). The gradient holds the rows
    the batch reads: the context rows of Q, and every row of R, ``<s>``'s
    with a zero gradient (standard), every row of S plus the rows of R of
    the target classes of more than one member (class), or the rows of S
    that hold the vectors of the target paths' nodes (tree).
    """
    targets = np.asarray(targets, dtype=np.int64)
    _check_targets(targets)
    plan, Qu, Qg, P, active = _project_for_grad(params, contexts, macs)
    loglik, gP, rowgrads = params.config.layout().backward(params, P, targets, macs)
    return _backprop_projection(params, plan, Qu, Qg, active, gP, l2 * len(targets),
                                rowgrads), loglik


# ---------------------------------------------------------------------------
# NCE


def _nce_terms(scores64, log_pn_rows, k):
    """Per-row discrimination deltas, objective value and score gradients.

    Column 0 is the observed item, columns 1..k are noise. Returns
    (objective, dscore) where dscore has the same shape as scores64.
    """
    delta = scores64 - (math.log(k) + log_pn_rows)
    sig, z = _sigmoid(delta)
    # log sigma(delta) of the observed column, log sigma(-delta) of the noise
    value = float(np.minimum(delta[:, 0], 0.0).sum() - np.maximum(delta[:, 1:], 0.0).sum()
                  - np.log1p(z).sum())
    d = -sig
    d[:, 0] += 1.0
    return value, d


def _scores_for(G, bias_g, P):
    """Batched r . p + b over gathered rows: (m, w) scores of the (m, w, D)
    rows ``G`` and their (m, w) biases against P (m, D)."""
    return np.einsum("mwd,md->mw", G, P) + bias_g


def _nce_backward(params, P, plan, held, G, d):
    """Row gradient of one word-level NCE block, summed by its ids'
    :class:`RowPlan`, and its pull on P, in the parameters' dtype;
    ``held`` are the rows read at ``plan.rows`` and ``G = M[ids]`` the rows
    its scores used."""
    dd = d.astype(params.dtype)
    D = params.config.dim
    rows = RowGrad(plan.rows, plan.sum((dd[:, :, None] * P[:, None, :]).reshape(-1, D)),
                   plan.sum(dd.ravel()), held)
    return rows, np.einsum("mw,mwd->md", dd, G)


def _class_nce_backward(P, u, inv, held, d):
    """``_nce_backward`` for the class-level block, as small matmuls.

    The block's distinct rows ``u`` are classes, so there are at most K of
    them whatever the batch size; ``inv`` maps each id to its place in ``u``
    and ``held`` the (``Mu = M[u]``, bias) read there. The weights ``d`` are
    summed per batch row and class into a dense float64 (m, |u|) block,
    which :func:`_weighted_rows` turns into the rows and the pull on P,
    O(m·K·D) like the class softmax. The word-level block keeps
    ``_nce_backward``: its distinct rows grow with m.
    """
    m = len(inv)
    A = np.bincount((np.arange(m)[:, None] * len(u) + inv).ravel(),
                    weights=d.ravel(), minlength=m * len(u))
    return _weighted_rows(A.reshape(m, len(u)), P, u, held)


def _present_rows(ids, n):
    """(u, inv) of ids into a table of ``n`` rows, by a presence mask: the
    distinct ids in ascending order and each id's place among them."""
    present = np.zeros(n, dtype=bool)
    present[ids] = True
    return present.nonzero()[0], (present.cumsum() - 1)[ids]


def _nce(params, contexts, blocks, l2, macs):
    """(Gradients, objective without the L2 term) over blocks (table name,
    batch rows, ids, log P_n of ids), where each row of ``ids`` is an
    observed row of the table, then its k noise rows. Each block reads its
    table's distinct rows once, through ``params.rows``, and uses them for
    its scores, its pull on P and the step's update; Q's rows serve the
    projection and its backward pass."""
    plan, Qu, Qg, P, active = _project_for_grad(params, contexts, macs)
    gP = np.zeros(P.shape, P.dtype)
    value, rowgrads = 0.0, {}
    for name, rows, ids, log_pn in blocks:
        Pr = P[rows]
        if name == "S":  # class ids: at most K distinct rows
            u, inv = _present_rows(ids, len(params.S))
        else:
            ids_plan = RowPlan(ids)
            u, inv = ids_plan.rows, ids_plan.inv
        Mu, bu = params.rows(name, u)
        G = Mu[inv]
        scores = _scores_for(G, bu[inv], Pr)
        v, d = _nce_terms(scores.astype(np.float64), log_pn, ids.shape[1] - 1)
        value += v
        rowgrads[name], pull = (_class_nce_backward(Pr, u, inv, (Mu, bu), d) if name == "S"
                                else _nce_backward(params, Pr, ids_plan, (Mu, bu), G, d))
        gP[rows] += pull
        count_output(macs, ids.size, params.config.dim, train=True)
    return _backprop_projection(params, plan, Qu, Qg, active, gP, l2 * len(P),
                                rowgrads), value


def _noise_ids(observed, noise, what):
    noise = np.asarray(noise, dtype=np.int64)
    if noise.ndim != 2 or noise.shape[0] != len(observed) or noise.shape[1] < 1:
        raise DataError(f"{what} must be (batch, k) with k >= 1")
    return np.concatenate([observed[:, None], noise], axis=1)


def _nce_layer(params):
    """The model's output layer, if it reads R and b, and so has a partition for NCE."""
    layer = params.config.layout()
    layer.require_word_rows("NCE")
    return layer


def nce_objective(params: ModelParameters, contexts, targets, class_noise, word_noise,
                  log_pn, l2: float = 0.0) -> float:
    """:func:`nce_gradient`'s objective less the L2 penalty, for fixed noise
    draws (finite-difference anchor)."""
    _, value = nce_gradient(params, contexts, targets, class_noise, word_noise, log_pn)
    return value - 0.5 * l2 * len(targets) * squared_norm(params)


def nce_gradient(params: ModelParameters, contexts, targets, class_noise, word_noise,
                 log_pn, l2: float = 0.0, macs: MacCounter = None):
    """NCE gradients against fixed noise draws over the output layer's
    partition (``class_of``): discriminate the target's class against the
    class noise, then the target within its class against the word noise.

    A class model's partition is its classes; a standard model's is one
    class of its whole support, which has no class level. ``class_noise``
    and ``word_noise`` are (m, k) id matrices, of classes and of words, and
    ``log_pn`` is the pair (log P_n(class), log P_n(word | its class)) of
    vectors over class and word ids. With one class, ``class_noise`` and
    log P_n(class) may be None; a partition of more than one class refuses
    a None ``class_noise``. The word-level term is skipped for targets
    whose class has a single effective member (its conditional is the point
    mass either way). The gradient holds the context rows of Q, the
    target-class and class-noise rows of S and the target and word-noise
    rows of R.
    Returns (Gradients, objective value without the L2 term).
    """
    layer = _nce_layer(params)
    targets = np.asarray(targets, dtype=np.int64)
    _check_targets(targets)
    cls = layer.class_of[targets].astype(np.int64)
    log_class, log_word = map(np.asarray, log_pn)
    blocks = []
    if layer.rows > 1:
        if class_noise is None:
            raise DataError("a partition of more than one class needs class noise")
        ids = _noise_ids(cls, class_noise, "class noise")
        blocks.append(("S", slice(None), ids, log_class[ids]))
    rows = np.flatnonzero(layer.class_sizes[cls] > 1)
    if len(rows):
        ids = _noise_ids(targets, word_noise, "word noise")[rows]
        blocks.append(("R", rows, ids, log_word[ids]))
    return _nce(params, contexts, blocks, l2, macs)


# ---------------------------------------------------------------------------
# the training loop


@dataclass
class _DecayedView(ModelParameters):
    """The parameters as a step of ``sgd`` reads them: the same arrays, but
    ``rows`` returns each row times the ``decay ** missed`` it owes, bitwise
    what ``_SparseSGD.flush`` would leave there, and writes nothing: it
    multiplies out of place, since a slice of rows is a view of the table.
    Only what ``rows`` returns is current; the row tables themselves may owe
    decay, so only code that reads them through ``rows`` may take a view."""

    sgd: "_SparseSGD" = None

    def rows(self, name, ids):
        M, bias = super().rows(name, ids)
        factor = self.sgd.owed(name, ids, M.dtype)
        if factor is None:
            return M, bias
        return M * factor[:, None], None if bias is None else bias * factor


class _SparseSGD:
    """Ascent steps that write only the rows a gradient holds, with lazy L2 decay.

    A dense step sets ``theta = decay * theta + scale * g`` for every
    parameter, with ``decay = 1 - scale * l2``. Here ``last`` records, for
    each row of Q, R/b and S/t, the step that row is current through, and a
    row is multiplied by the ``decay ** missed`` it owes when a step reads
    it, on the copy that ``view``'s ``rows`` hands out, which ``apply`` then
    updates in place and writes back once; rows that owe nothing may be
    handed out as views of the table, which ``apply`` updates where they
    lie. ``flush`` brings every row current in place. Within an epoch the decay is constant, and ``train`` flushes
    before the learning rate can change.
    The small C transforms are updated densely.
    """

    def __init__(self, params: ModelParameters):
        self.params = params
        self.tables = _row_tables(params)
        self.last = {name: np.zeros(len(M), dtype=np.int64)
                     for name, (M, _) in self.tables.items()}
        self.step = 0
        self.decay = 1.0

    def view(self) -> _DecayedView:
        """The parameters, with rows read through ``rows`` brought current."""
        p = self.params
        return _DecayedView(p.config, p.Q, p.R, p.b, p.C, p.S, p.t, self)

    def owed(self, name, ids, dtype):
        """``decay ** missed`` in ``dtype`` for the rows ``ids`` of one table,
        as ``flush`` multiplies them, or None when none owes any decay."""
        if self.decay == 1.0:
            return None
        missed = self.step - self.last[name][ids]
        if not missed.any():
            return None
        return np.power(self.decay, missed).astype(dtype)

    def flush(self) -> None:
        """Bring every row current: one in-place multiply per table by
        ``decay ** missed``, which is 1.0 for the rows already current."""
        if self.decay == 1.0:
            return
        for name, (M, bias) in self.tables.items():
            missed = self.step - self.last[name]
            if not missed.any():
                continue
            factor = np.power(self.decay, missed).astype(M.dtype)
            M *= factor[:, None]
            if bias is not None:
                bias *= factor
            self.last[name][:] = self.step

    def apply(self, grads: Gradients, scale: float) -> None:
        """One step on the rows ``grads`` holds, from the current values it
        read (``RowGrad.held``, part by part for a concatenation), with no
        gather: each table's rows become ``held * decay + scale * g``,
        computed in place in ``held``, bitwise as that expression. Where
        ``held`` is a view of its table (a slice read that owed no decay),
        that is the write; a private copy is written back with one scatter.
        The gradient's values and biases are left as they were; its ``held``
        rows are the step's result."""
        self.decay = 1.0 - scale * grads.l2
        self.step += 1
        for name, g in grads.tables():
            for part in g.parts or (g,):
                for table, grad, held in zip(self.tables[name], (part.values, part.bias),
                                             part.held):
                    if table is None:
                        continue
                    held *= self.decay
                    held += scale * grad
                    # a private copy lies outside the table, so the bounds check is exact
                    if not np.may_share_memory(held, table):
                        table[part.rows] = held
            self.last[name][g.rows] = self.step
        for Cj, gC in zip(self.params.C, grads.C):
            Cj *= self.decay
            Cj += scale * gC


@dataclass
class EpochStats:
    """One epoch's record; ``seconds`` is its minibatch steps plus its
    perplexity passes. ``train_ppl`` is over at most ``TRAIN_PPL_INSTANCES``
    training instances, the first of the seeded split; ``valid_ppl`` is over
    the whole validation split."""

    epoch: int
    train_ppl: float
    valid_ppl: float
    learning_rate: float
    train_seconds: float
    eval_seconds: float

    @property
    def seconds(self) -> float:
        return self.train_seconds + self.eval_seconds


@dataclass
class TrainingResult:
    params: ModelParameters
    epochs: list
    macs: MacCounter
    final_learning_rate: float


def _ppl(params, contexts, targets) -> float:
    return perplexity_of(*perplexity_from_instances(params, contexts, targets))


def train(params: ModelParameters, contexts, targets, config: TrainingConfig,
          macs: MacCounter = None, log_file=None) -> TrainingResult:
    """SGD over shuffled minibatches with validation-driven step decay.

    Updates are ascent steps on the batch-averaged gradient,
    ``theta += (lr / m) * batch_gradient``, so the step scale is invariant
    to the minibatch size. A step writes only the rows its batch reads and
    defers the L2 decay of the others (see the module docstring); all rows
    are brought up to date before each epoch's perplexity passes and before
    ``train`` returns or raises. A seeded instance-level split holds out
    ``validation_fraction`` of the data. After each epoch the training
    perplexity is taken over at most ``TRAIN_PPL_INSTANCES`` (4,096) training
    instances, the first of the split, and the validation perplexity over
    every held-out instance (the whole training split when none is held
    out). The learning rate halves if validation perplexity worsened;
    training aborts if it exceeds 10x its pre-training value or a gradient
    goes non-finite. Identical
    inputs, config and seed reproduce the parameters bit for bit. ``macs``
    (or the counter in the result) tallies gradient-pass MACs only;
    validation passes are not counted.

    ``log_file``, a path, gets one line per epoch appended, in the format
    ``epoch<TAB>train_ppl<TAB>valid_ppl<TAB>lr<TAB>seconds``.
    """
    config.validate()
    cfg = params.config
    contexts = np.asarray(contexts, dtype=np.int32)
    targets = np.asarray(targets, dtype=np.int32)
    _check_targets(targets)
    if len(contexts) != len(targets) or contexts.shape[1] != cfg.context_size:
        raise DataError("instance arrays disagree with the model order")
    if config.algorithm == "nce":
        layer = _nce_layer(params)
    macs = macs if macs is not None else MacCounter()

    ss = np.random.SeedSequence(config.rng_seed)
    split_rng, order_rng, noise_rng = (np.random.default_rng(s) for s in ss.spawn(3))

    N = len(targets)
    perm = split_rng.permutation(N)
    n_valid = int(round(N * config.validation_fraction))
    valid_idx, train_idx = perm[:n_valid], perm[n_valid:]
    if len(train_idx) == 0:
        raise DataError("no training instances left after the validation split")
    # the split stays index arrays into the caller's instances: only the
    # validation split and the first training instances are gathered, for
    # the perplexity passes; with nothing held out, validation scores the
    # caller's arrays as they are
    ppl_idx = train_idx[:TRAIN_PPL_INSTANCES]
    ppl_ctx, ppl_tgt = contexts[ppl_idx], targets[ppl_idx]
    ev_ctx, ev_tgt = (contexts[valid_idx], targets[valid_idx]) if n_valid \
        else (contexts, targets)

    if config.algorithm == "nce":
        # NCE draws a class, then a word within it, from one shared rng
        word_table = NoiseTable(empirical_unigram(targets[train_idx], cfg.vocab_size),
                                noise_rng, layer.class_of)
        class_table = NoiseTable(word_table.mass, noise_rng)
        log_pn = (class_table.log_probs, word_table.log_probs)

    initial_ppl = _ppl(params, ev_ctx, ev_tgt)
    lr = config.learning_rate
    prev_ppl = initial_ppl
    records = []
    k = config.noise_samples
    l2 = config.l2_strength
    sgd = _SparseSGD(params)
    view = sgd.view()

    log_fh = None if log_file is None else open(log_file, "a", encoding="utf-8")

    try:
        for epoch in range(1, config.epochs + 1):
            tick = time.perf_counter()
            order = order_rng.permutation(len(train_idx))
            # a diverging step shows as a non-finite gradient, which the
            # check below reports; numpy's own warnings would only precede it
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                for step, lo in enumerate(range(0, len(order), config.minibatch_size), 1):
                    sel = train_idx[order[lo:lo + config.minibatch_size]]
                    ctx_b, tgt_b = contexts[sel], targets[sel]
                    if config.algorithm == "ml_sgd":
                        grads, _ = ml_gradient(view, ctx_b, tgt_b, l2=l2, macs=macs)
                    else:
                        cnoise = class_table.draw(np.zeros(len(sel), np.int64), k) \
                            if layer.rows > 1 else None
                        wnoise = word_table.draw(layer.class_of[tgt_b], k)
                        grads, _ = nce_gradient(view, ctx_b, tgt_b, cnoise, wnoise,
                                                log_pn, l2=l2, macs=macs)
                    if not grads.finite():
                        raise TrainingDivergedError(
                            f"non-finite gradient in epoch {epoch}, step {step}; "
                            "lower the learning rate")
                    # averaged step: invariant to the minibatch size
                    sgd.apply(grads, lr / len(sel))
                sgd.flush()
            train_seconds = time.perf_counter() - tick

            tick = time.perf_counter()
            train_ppl = _ppl(params, ppl_ctx, ppl_tgt)
            valid_ppl = _ppl(params, ev_ctx, ev_tgt)
            stats = EpochStats(epoch, train_ppl, valid_ppl, lr, train_seconds,
                               time.perf_counter() - tick)
            records.append(stats)
            if log_fh is not None:
                log_fh.write(f"{epoch}\t{train_ppl:.6f}\t{valid_ppl:.6f}"
                             f"\t{lr:.6g}\t{stats.seconds:.3f}\n")
            if not math.isfinite(valid_ppl) or valid_ppl > 10.0 * initial_ppl:
                raise TrainingDivergedError(
                    f"validation perplexity {valid_ppl:.3f} exceeds 10x its "
                    f"starting value {initial_ppl:.3f}")
            if valid_ppl > prev_ppl:
                lr *= 0.5
            prev_ppl = valid_ppl
    finally:
        sgd.flush()  # no caller sees a row that still owes decay
        if log_fh is not None:
            log_fh.close()

    return TrainingResult(params, records, macs, lr)
