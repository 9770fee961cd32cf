"""Evaluation: perplexity, n-best rescoring, memory accounting, query speed."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import UNK_ID, Vocabulary, instance_arrays
from .errors import DataError
from .model import (_SLAB_BYTES, MacCounter, ModelConfig, ModelParameters,
                    log_prob, log_probs_batch, parameter_shapes, row_ranks,
                    unnormalised_log_score, unnormalised_scores_batch)

_SCRATCH_BYTES = 8 << 20   # bound on a scoring batch's largest temporary
_NBEST_GROUP_TOKENS = 1 << 16  # n-best tokens gathered into one scoring call


def _batch_width(params: ModelParameters, unnormalised: bool = False) -> int:
    """Rows per scoring batch: as many as keep what the queries hold within
    ``_SCRATCH_BYTES`` together (``_SLAB_BYTES``, the L2-cache bound of the
    score slabs, for raw scores), at least one. Each query holds its
    projection and, before it, its n-1 gathered context rows of Q; once
    those are freed, one gathered (D,) row, of R for raw scores or of the
    projection in the class layer, to which normalised scoring adds the
    output layer's ``row_bytes``. A query is sized at the larger of the two
    stages. All of it is in the parameters' dtype."""
    itemsize = params.dtype.itemsize
    vector = itemsize * params.config.dim
    later = vector if unnormalised else vector + params.config.layout().row_bytes(itemsize)
    row = vector + max(params.config.context_size * vector, later)
    return max(1, (_SLAB_BYTES if unnormalised else _SCRATCH_BYTES) // row)


def score_instances(params: ModelParameters, contexts, targets,
                    unnormalised: bool = False, macs: MacCounter = None) -> np.ndarray:
    """Per-instance scores in input order, float64: log-probabilities, or raw
    ``phi`` scores when ``unnormalised``, which a model whose output layer
    never trains R and b (a tree model) refuses with a ``DataError``.

    Each distinct (context, target) query is scored once and its score
    copied to every instance that asks it. :func:`row_ranks` ranks the
    queries by their contexts, then by target, so that the distinct queries
    are in lexicographic order, equal contexts side by side. They are cut
    into batches of the layer's width, for normalised scoring in the output
    layer's ``scoring_order``; each batch gathers one instance of each of
    its queries and writes its scores back through that order, and
    :func:`log_probs_batch` projects and normalises each distinct context
    of a batch once. The MAC counter tallies only that work: for raw scores
    each distinct query's projection and score; for log-probabilities each
    distinct context's projection and normaliser, once per batch that asks
    it, and each distinct query's pick, word term or tree walk. The
    instances are not copied and keep their dtypes: beside the packed keys,
    the per-instance arrays made are the ranks and the returned scores.
    """
    if unnormalised:
        params.config.layout().require_word_rows("unnormalised scoring")
    contexts, targets = np.asarray(contexts), np.asarray(targets)
    query, count = row_ranks(targets[None], row_ranks(contexts.T))
    first = np.empty(count, dtype=np.intp)  # one instance of each distinct query
    first[query] = np.arange(len(query))
    score = unnormalised_scores_batch if unnormalised else log_probs_batch
    order = None if unnormalised else params.config.layout().scoring_order(targets[first])
    width = _batch_width(params, unnormalised)
    out = np.empty(count)
    for lo in range(0, count, width):
        at = slice(lo, lo + width) if order is None else order[lo:lo + width]
        ids = first[at]
        out[at] = score(params, contexts[ids], targets[ids], macs)
    return out[query]


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
    ``oov_count``. ``macs_per_query`` is the MACs done over the events
    scored: :func:`score_instances` scores each distinct query once and
    projects and normalises each distinct context once per batch, so
    repeated contexts and queries lower it.
    """
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
    ``phi`` scores, the fast path for NCE-trained models, which a tree
    model refuses (see :func:`score_instances`).
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
    tokens: one instance array per group and one :func:`score_instances`
    pass, which scores each distinct query once, split back into
    per-hypothesis sums. Each line is split once, by
    :func:`parse_nbest_line`; only a line it rejects is tested for being
    blank, which is skipped without an error. A tree model refuses
    ``unnormalised`` before any line is read (see :func:`score_instances`).
    """
    if unnormalised:
        params.config.layout().require_word_rows("unnormalised scoring")
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


def _score_hypotheses(params, group, sentences, vocab, unnormalised):
    """NBestEntry per (line_no, sent_id, hypothesis, rest) of a group, whose
    hypotheses' words are ``sentences``: one instance array and one
    :func:`score_instances` pass, which scores the queries that the
    hypotheses of one source share once, split into per-hypothesis sums.
    """
    contexts, targets = instance_arrays(sentences, vocab, params.config.order)
    scores = score_instances(params, contexts, targets, unnormalised)
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
