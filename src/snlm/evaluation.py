"""Evaluation: perplexity, n-best rescoring, memory accounting, query speed."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import UNK_ID, Vocabulary, instance_arrays
from .errors import DataError
from .model import (MacCounter, ModelConfig, ModelParameters, log_prob,
                    log_probs_batch, parameter_shapes, unnormalised_log_score,
                    unnormalised_scores_batch)

_SCRATCH_BYTES = 8 << 20   # bound on a scoring batch's largest temporary
# Bound on a raw-score batch's arrays: kept within a 2 MiB per-core L2 cache,
# where a raw pass runs fastest (2.06 ms at 1,310 rows against 2.69 ms at
# 10,485 on the rescoring queries, D 100, single-threaded BLAS on a Xeon).
_RAW_SCRATCH_BYTES = 1 << 20
_NBEST_GROUP_TOKENS = 1 << 16  # n-best tokens gathered into one scoring call


def _batch_width(params: ModelParameters, unnormalised: bool = False) -> int:
    """Rows per scoring batch: as many as keep what the queries hold within
    ``_SCRATCH_BYTES`` together (``_RAW_SCRATCH_BYTES`` for raw scores), at
    least one. Each query holds its projection and, before it, its n-1
    gathered context rows of Q; once those are freed, one gathered (D,) row,
    of R for raw scores or of the projection in the class layer, to which
    normalised scoring adds the output layer's ``row_bytes``. A query is
    sized at the larger of the two stages. All of it is in the parameters'
    dtype."""
    itemsize = params.dtype.itemsize
    vector = itemsize * params.config.dim
    later = vector if unnormalised else vector + params.config.layout().row_bytes(itemsize)
    row = vector + max(params.config.context_size * vector, later)
    return max(1, (_RAW_SCRATCH_BYTES if unnormalised else _SCRATCH_BYTES) // row)


def score_instances(params: ModelParameters, contexts, targets,
                    unnormalised: bool = False, macs: MacCounter = None) -> np.ndarray:
    """Per-instance scores in input order, float64: log-probabilities, or raw
    ``phi`` scores when ``unnormalised``, computed in batches of the layer's
    width. Normalised scoring takes the queries in the output layer's
    ``scoring_order`` before the batches are cut: each batch gathers its
    queries through its slice of that order and writes its scores back
    through it, so no reordered copy of the queries is made."""
    contexts = np.asarray(contexts, dtype=np.int32)
    targets = np.asarray(targets, dtype=np.int64)
    score = unnormalised_scores_batch if unnormalised else log_probs_batch
    order = None if unnormalised else params.config.layout().scoring_order(targets)
    width = _batch_width(params, unnormalised)
    out = np.empty(len(targets))
    for lo in range(0, len(targets), width):
        at = slice(lo, lo + width) if order is None else order[lo:lo + width]
        out[at] = score(params, contexts[at], targets[at], macs)
    return out


def perplexity_from_instances(params: ModelParameters, contexts, targets,
                              macs: MacCounter = None):
    """(total log-probability, instance count) over instance arrays.

    The per-instance log-probabilities are reduced with ``math.fsum``, so the
    total is independent of instance order.
    """
    if len(targets) == 0:
        raise DataError("no instances to score")
    lp = score_instances(params, contexts, targets, macs=macs)
    return math.fsum(lp.tolist()), len(lp)


def perplexity_of(total: float, count: int) -> float:
    """``exp(-total / count)``, or inf where that overflows a float."""
    try:
        return math.exp(-total / count)
    except OverflowError:
        return math.inf


@dataclass
class EvaluationReport:
    token_count: int
    oov_count: int
    total_log_prob: float
    perplexity: float
    queries_per_second: float
    macs_per_query: float


def perplexity(params: ModelParameters, sentences, vocab: Vocabulary,
               macs: MacCounter = None) -> EvaluationReport:
    """Corpus perplexity ``exp(-mean log P)`` (natural log).

    Every prediction event is scored: each token plus one ``</s>`` per
    sentence. ``<unk>`` targets are scored like ordinary words and tallied in
    ``oov_count``.
    """
    sentences = [list(s) for s in sentences]
    if not sentences:
        raise DataError("empty corpus")
    n = params.config.order
    macs = macs if macs is not None else MacCounter()

    tick = time.perf_counter()
    ctx, tgt = instance_arrays(sentences, vocab, n)
    total, count = perplexity_from_instances(params, ctx, tgt, macs)
    oov = int((tgt == UNK_ID).sum())
    seconds = time.perf_counter() - tick

    return EvaluationReport(
        token_count=count, oov_count=oov, total_log_prob=total,
        perplexity=perplexity_of(total, count),
        queries_per_second=count / seconds if seconds > 0 else math.inf,
        macs_per_query=macs.total / count)


def score_sentence(params: ModelParameters, sentence, vocab: Vocabulary,
                   unnormalised: bool = False, macs: MacCounter = None) -> float:
    """Total (log-domain) score of one sentence, including ``</s>``.

    Normalized mode sums log-probabilities; unnormalised mode sums raw
    ``phi`` scores, the fast path for NCE-trained models.
    """
    contexts, targets = instance_arrays([sentence], vocab, params.config.order)
    return float(score_instances(params, contexts, targets, unnormalised, macs).sum())


class NBestEntry(NamedTuple):
    line_no: int
    sent_id: str
    hypothesis: str
    rest: str
    score: float


def parse_nbest_line(line: str):
    """Split ``sent_id ||| hypothesis ||| anything...``; None if malformed.

    One split at the first two separators: the third part is the rest of
    the line as it stands, further separators and all."""
    parts = line.split(" ||| ", 2)
    sent_id = parts[0].strip()
    if len(parts) < 2 or not sent_id:
        return None
    return sent_id, parts[1], parts[2] if len(parts) > 2 else ""


def score_nbest(params: ModelParameters, lines, vocab: Vocabulary,
                unnormalised: bool = False):
    """Score every hypothesis of an n-best list.

    ``lines`` is an iterable of raw strings. Returns (entries, errors):
    entries in input order, errors as (line_no, reason) pairs for malformed
    lines, which are skipped without stopping the run. Scores depend only on
    each hypothesis, never on neighboring lines.

    Hypotheses are scored in groups of about ``_NBEST_GROUP_TOKENS``
    tokens: one instance array per group, one batched scoring pass over its
    distinct queries (found by :func:`_distinct_rows`' packed keys), split
    back into per-hypothesis sums. Each line is split once, by
    :func:`parse_nbest_line`; only a line it rejects is tested for being
    blank, which is skipped without an error.
    """
    entries, errors, group, sentences, tokens = [], [], [], [], 0
    for line_no, raw in enumerate(lines, 1):
        line = raw.rstrip("\n")
        parsed = parse_nbest_line(line)
        if parsed is None:
            if line.strip():
                errors.append((line_no, "expected 'sent_id ||| hypothesis ||| ...'"))
            continue
        words = parsed[1].split()
        group.append((line_no, *parsed))
        sentences.append(words)
        tokens += len(words) + 1
        if tokens >= _NBEST_GROUP_TOKENS:
            entries += _score_hypotheses(params, group, sentences, vocab, unnormalised)
            group, sentences, tokens = [], [], 0
    if group:
        entries += _score_hypotheses(params, group, sentences, vocab, unnormalised)
    return entries, errors


def _distinct_rows(a: np.ndarray):
    """(distinct rows in lexicographic order, inverse) of a 2-D int32 array
    of fewer than 2**31 rows, so that ``a == rows[inverse]``: ``np.unique(a,
    axis=0, return_inverse=True)`` by packed keys. Offset so that none is
    below 0, each id takes the ``bits`` that the largest needs. The columns
    are packed, the first highest, into int64 keys of at most 63 bits, as
    many to a key as fit, and each key after the first also carries, above
    its columns, the rank of the key before it. One ``np.unique`` per key
    ranks the rows by the columns packed so far, so the last key's ranks
    are the rows' lexicographic ranks: two 1-D sorts at order 5 and
    |V| < 32k, where a lexsort of the columns takes twice as long."""
    ids = a.T.astype(np.int64, order="C")
    ids -= ids.min(initial=0)
    bits = max(1, int(ids.max(initial=0)).bit_length())
    inverse, ranks, col = np.zeros(len(a), dtype=np.intp), 1, 0
    while col < len(ids):
        end = min(len(ids), col + (63 - (ranks - 1).bit_length()) // bits)
        key = inverse.astype(np.int64)
        for j in range(col, end):
            key <<= bits
            key |= ids[j]
        distinct, inverse = np.unique(key, return_inverse=True)
        ranks, col = len(distinct), end
    rows = np.empty((ranks, a.shape[1]), dtype=a.dtype)
    rows[inverse] = a
    return rows, inverse


def _score_hypotheses(params, group, sentences, vocab, unnormalised):
    """NBestEntry per (line_no, sent_id, hypothesis, rest) of a group, whose
    hypotheses' words are ``sentences``.

    Hypotheses of one source share most of their n-grams, so each distinct
    (context, target) query is scored once and its score copied to every
    instance that asks it.
    """
    contexts, targets = instance_arrays(sentences, vocab, params.config.order)
    queries, inverse = _distinct_rows(np.column_stack([contexts, targets]))
    scores = score_instances(params, queries[:, :-1], queries[:, -1],
                             unnormalised)[inverse]
    starts = np.cumsum([0] + [len(s) + 1 for s in sentences[:-1]])
    return [NBestEntry(*g, score)
            for g, score in zip(group, np.add.reduceat(scores, starts).tolist())]


# ---------------------------------------------------------------------------
# memory accounting


@dataclass
class MemoryEstimate:
    """Parameter counts by family plus serialized sizes (4 bytes/parameter)."""

    embedding_params: int
    bias_params: int
    context_params: int
    structure_params: int   # class or tree score rows
    vocab_string_bytes: int

    @property
    def parameter_count(self) -> int:
        return (self.embedding_params + self.bias_params
                + self.context_params + self.structure_params)

    @property
    def payload_bytes(self) -> int:
        return 4 * self.parameter_count

    @property
    def total_bytes(self) -> int:
        return self.payload_bytes + self.vocab_string_bytes

    @property
    def megabytes(self) -> float:
        return self.payload_bytes / 1e6


def memory_estimate(config: ModelConfig, vocab: Vocabulary = None) -> MemoryEstimate:
    """Parameter count and payload size implied by a configuration.

    Works from the config alone; pass the vocabulary to also account for its
    string bytes (UTF-8). The counts sum :func:`parameter_shapes`, so the
    payload estimate always matches the serialized parameter section exactly.
    """
    if config.vocab_size < 1:
        raise DataError("vocab_size must be set")
    n = {name: math.prod(shape) for name, shape in parameter_shapes(config)}
    ctx = sum(size for name, size in n.items() if name.startswith("C"))
    strings = sum(len(t.encode("utf-8")) for t in vocab.tokens) if vocab else 0
    return MemoryEstimate(n["Q"] + n["R"], n["b"], ctx, n["S"] + n["t"], strings)


# ---------------------------------------------------------------------------
# query benchmark


@dataclass
class BenchmarkReport:
    queries: int
    macs_per_query: float
    macs_per_query_unnormalised: float
    queries_per_second: float
    queries_per_second_unnormalised: float


def query_benchmark(params: ModelParameters, contexts) -> BenchmarkReport:
    """Cost of single (context, word) queries, normalized vs unnormalised.

    MAC counts are analytic; queries/second is wall-clock over the given
    contexts. Query i asks for word i of a round-robin over the prediction
    support.
    """
    contexts = np.asarray(contexts, dtype=np.int64)
    if contexts.ndim != 2 or len(contexts) == 0:
        raise DataError("need a (queries, order-1) context array")
    nq = len(contexts)
    sup = params.config.layout().support
    words = sup[np.arange(nq) % len(sup)]

    def timed(score):  # (MACs per query, queries/s)
        macs = MacCounter()
        tick = time.perf_counter()
        for ctx, w in zip(contexts, words):
            score(params, ctx, int(w), macs)
        secs = time.perf_counter() - tick
        return macs.total / nq, nq / secs if secs > 0 else math.inf

    (norm_macs, norm_qps), (raw_macs, raw_qps) = timed(log_prob), timed(unnormalised_log_score)
    return BenchmarkReport(nq, norm_macs, raw_macs, norm_qps, raw_qps)
