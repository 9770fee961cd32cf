"""Evaluation: perplexity, n-best rescoring, memory accounting, query speed."""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import UNK_ID, Vocabulary, extract_instances
from .errors import DataError
from .model import (REGIME_CLASS, REGIME_TREE, MacCounter, ModelConfig,
                    ModelParameters, log_prob, log_probs_batch,
                    unnormalised_log_score)

_EVAL_BATCH = 512


def perplexity_from_instances(params: ModelParameters, contexts, targets,
                              macs: MacCounter = None):
    """(total log-probability, instance count) over instance arrays.

    The per-instance log-probabilities are reduced with ``math.fsum``, so the
    total is independent of instance order.
    """
    contexts = np.asarray(contexts, dtype=np.int32)
    targets = np.asarray(targets, dtype=np.int64)
    if len(targets) == 0:
        raise DataError("no instances to score")
    pieces = []
    for lo in range(0, len(targets), _EVAL_BATCH):
        lp = log_probs_batch(params, contexts[lo:lo + _EVAL_BATCH],
                             targets[lo:lo + _EVAL_BATCH], macs)
        pieces.extend(lp.tolist())
    return math.fsum(pieces), len(targets)


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
               macs: MacCounter = None, threads: int = 1) -> EvaluationReport:
    """Corpus perplexity ``exp(-mean log P)`` (natural log).

    Every prediction event is scored: each token plus one ``</s>`` per
    sentence. ``<unk>`` targets are scored like ordinary words and tallied in
    ``oov_count``. With ``threads > 1`` sentences are sharded across a thread
    pool; the fsum reduction keeps the result identical to a single-threaded
    run.
    """
    sentences = [list(s) for s in sentences]
    if not sentences:
        raise DataError("empty corpus")
    n = params.config.order
    macs = macs if macs is not None else MacCounter()

    def shard_instances(shard):
        ctx, tgt = [], []
        for sent in shard:
            for inst in extract_instances(sent, vocab, n):
                ctx.append(inst.context)
                tgt.append(inst.target)
        return np.asarray(ctx, dtype=np.int32), np.asarray(tgt, dtype=np.int64)

    tick = time.perf_counter()
    if threads <= 1:
        ctx, tgt = shard_instances(sentences)
        total, count = perplexity_from_instances(params, ctx, tgt, macs)
        oov = int((tgt == UNK_ID).sum())
    else:
        shards = [sentences[i::threads] for i in range(threads)]
        shards = [s for s in shards if s]
        counters = [MacCounter() for _ in shards]
        with ThreadPoolExecutor(max_workers=len(shards)) as pool:
            arrays = list(pool.map(shard_instances, shards))
            parts = list(pool.map(
                lambda a: perplexity_from_instances(params, a[0][0], a[0][1], a[1]),
                zip(arrays, counters)))
        total = math.fsum(p[0] for p in parts)
        count = sum(p[1] for p in parts)
        oov = int(sum((tgt == UNK_ID).sum() for _, tgt in arrays))
        for c in counters:
            macs.projection += c.projection
            macs.output += c.output
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
    total = 0.0
    for inst in extract_instances(sentence, vocab, params.config.order):
        if unnormalised:
            total += unnormalised_log_score(params, inst.context, inst.target, macs)
        else:
            total += log_prob(params, inst.context, inst.target, macs)
    return total


class NBestEntry(NamedTuple):
    line_no: int
    sent_id: str
    hypothesis: str
    rest: str
    score: float


def parse_nbest_line(line: str):
    """Split ``sent_id ||| hypothesis ||| anything...``; None if malformed."""
    parts = line.split(" ||| ")
    if len(parts) < 2 or not parts[0].strip():
        return None
    sent_id = parts[0].strip()
    hypothesis = parts[1]
    rest = " ||| ".join(parts[2:])
    return sent_id, hypothesis, rest


def score_nbest(params: ModelParameters, lines, vocab: Vocabulary,
                unnormalised: bool = False):
    """Score every hypothesis of an n-best list.

    ``lines`` is an iterable of raw strings. Returns (entries, errors):
    entries in input order, errors as (line_no, reason) pairs for malformed
    lines, which are skipped without stopping the run. Scores depend only on
    each hypothesis, never on neighboring lines.
    """
    entries, errors = [], []
    for line_no, raw in enumerate(lines, 1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        parsed = parse_nbest_line(line)
        if parsed is None:
            errors.append((line_no, "expected 'sent_id ||| hypothesis ||| ...'"))
            continue
        sent_id, hypothesis, rest = parsed
        score = score_sentence(params, hypothesis.split(), vocab, unnormalised)
        entries.append(NBestEntry(line_no, sent_id, hypothesis, rest, score))
    return entries, errors


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
    string bytes (UTF-8). The payload estimate always matches the serialized
    parameter section exactly.
    """
    V, D = config.vocab_size, config.dim
    if V < 1:
        raise DataError("vocab_size must be set")
    ctx = config.context_size * (D if config.diagonal else D * D)
    structure = 0
    if config.regime == REGIME_CLASS:
        if config.classing is None:
            raise DataError("class_factored estimate needs the classing")
        structure = config.classing.num_classes * (D + 1)
    elif config.regime == REGIME_TREE:
        if config.tree is None:
            raise DataError("tree_factored estimate needs the tree")
        structure = (config.tree.num_nodes - 1) * (D + 1)
    strings = sum(len(t.encode("utf-8")) for t in vocab.tokens) if vocab else 0
    return MemoryEstimate(2 * V * D, V, ctx, structure, strings)


# ---------------------------------------------------------------------------
# query benchmark


@dataclass
class BenchmarkReport:
    queries: int
    macs_per_query: float
    macs_per_query_unnormalised: float
    queries_per_second: float
    queries_per_second_unnormalised: float


def query_benchmark(params: ModelParameters, contexts, words=None) -> BenchmarkReport:
    """Cost of single (context, word) queries, normalized vs unnormalised.

    MAC counts are analytic; queries/second is wall-clock over the given
    contexts. ``words`` defaults to a deterministic round-robin over the
    prediction support.
    """
    contexts = np.asarray(contexts, dtype=np.int64)
    if contexts.ndim != 2 or len(contexts) == 0:
        raise DataError("need a (queries, order-1) context array")
    layout = params.config.layout()
    if words is None:
        sup = layout.support
        words = sup[np.arange(len(contexts)) % len(sup)]
    words = np.asarray(words, dtype=np.int64)

    norm_macs = MacCounter()
    tick = time.perf_counter()
    for ctx, w in zip(contexts, words):
        log_prob(params, ctx, int(w), norm_macs)
    norm_secs = time.perf_counter() - tick

    raw_macs = MacCounter()
    tick = time.perf_counter()
    for ctx, w in zip(contexts, words):
        unnormalised_log_score(params, ctx, int(w), raw_macs)
    raw_secs = time.perf_counter() - tick

    nq = len(contexts)
    return BenchmarkReport(
        queries=nq,
        macs_per_query=norm_macs.total / nq,
        macs_per_query_unnormalised=raw_macs.total / nq,
        queries_per_second=nq / norm_secs if norm_secs > 0 else math.inf,
        queries_per_second_unnormalised=nq / raw_secs if raw_secs > 0 else math.inf)
