"""Perplexity, n-best rescoring, memory accounting and the query benchmark."""
import math
import tracemalloc

import numpy as np
import pytest

from conftest import make_config, make_params, make_vocab, zero_params
from snlm import evaluation
from snlm.corpus import BOS_ID, EOS_ID, UNK_ID, instance_arrays
from snlm.errors import DataError
from snlm.evaluation import (
    MemoryEstimate,
    memory_estimate,
    parse_nbest_line,
    perplexity,
    perplexity_from_instances,
    query_benchmark,
    score_instances,
    score_nbest,
    score_sentence,
)
from snlm.model import (
    MacCounter,
    ModelConfig,
    REGIME_CLASS,
    REGIME_STANDARD,
    REGIME_TREE,
    full_distribution,
    log_prob,
    log_probs_batch,
    project_batch,
    row_ranks,
    unnormalised_log_score,
    unnormalised_scores_batch,
)
from snlm.modelfile import load_model, save_model
from snlm.partitioning import WordClassing, frequency_binning


class TestPerplexity:
    def test_uniform_model_scores_support_size(self):
        vocab = make_vocab([f"w{i:02d}" for i in range(98)])
        params = zero_params(vocab, REGIME_STANDARD)
        report = perplexity(params, [["w00", "w01"], ["w05"]], vocab)
        np.testing.assert_allclose(report.perplexity, 100.0, rtol=1e-9)
        assert report.token_count == 5

    def test_two_outcome_closed_form(self):
        vocab = make_vocab(["a"])
        params = zero_params(vocab, REGIME_STANDARD)
        params.b[UNK_ID] = -1e9  # unreachable, leaving P(a) = P(</s>) = 1/2
        report = perplexity(params, [["a"]], vocab)
        np.testing.assert_allclose(report.perplexity, 2.0, rtol=1e-12)

    def test_overflowing_perplexity_reads_inf(self):
        vocab = make_vocab(["a"])
        params = zero_params(vocab, REGIME_STANDARD)
        params.b[EOS_ID] = -2000.0  # </s> all but impossible: mean log P < -709
        report = perplexity(params, [["a"]], vocab)
        assert math.isfinite(report.total_log_prob)
        assert report.total_log_prob / report.token_count < -709
        assert report.perplexity == math.inf

    def test_matches_distribution_oracle(self):
        vocab = make_vocab(list("abcd"), counts=[5, 3, 2, 1])
        sentences = [["a", "b", "a"], ["c", "zzz"], ["d"]]
        for regime in (REGIME_STANDARD, REGIME_CLASS, REGIME_TREE):
            params = make_params(vocab, regime, order=3, dim=4, seed=110)
            pieces = []
            for sent in sentences:
                for ctx, target in zip(*instance_arrays([sent], vocab, 3)):
                    dist = full_distribution(params, ctx)
                    pieces.append(math.log(dist[target]))
            want_total = math.fsum(pieces)
            report = perplexity(params, sentences, vocab)
            np.testing.assert_allclose(report.total_log_prob, want_total,
                                       rtol=1e-9)
            np.testing.assert_allclose(
                report.perplexity,
                math.exp(-want_total / len(pieces)), rtol=1e-9)

    def test_order_of_sentences_is_irrelevant(self):
        vocab = make_vocab(list("abc"))
        params = make_params(vocab, REGIME_STANDARD, seed=111)
        sentences = [["a", "b"], ["c"], ["b", "b", "a"], ["a"]]
        fwd = perplexity(params, sentences, vocab)
        rev = perplexity(params, sentences[::-1], vocab)
        assert fwd.total_log_prob == rev.total_log_prob
        assert fwd.perplexity == rev.perplexity

    def test_never_below_one(self):
        vocab = make_vocab(list("ab"))
        for seed in range(5):
            params = make_params(vocab, REGIME_STANDARD, seed=seed, scale=2.0)
            report = perplexity(params, [["a", "b", "a"]], vocab)
            assert report.perplexity >= 1.0

    def test_oov_targets_are_counted_and_scored(self):
        vocab = make_vocab(["a"])
        params = make_params(vocab, REGIME_STANDARD, seed=113)
        report = perplexity(params, [["a", "qq", "zz"]], vocab)
        assert report.oov_count == 2
        assert report.token_count == 4
        assert math.isfinite(report.total_log_prob)

    def test_eval_macs_are_forward_only(self):
        vocab = make_vocab(list("abc"))
        params = make_params(vocab, REGIME_STANDARD, order=2, dim=4, seed=114)
        macs = MacCounter()
        report = perplexity(params, [["a", "b"]], vocab, macs=macs)
        # 3 events, each one projection (1 position) and 5 support rows
        assert macs.projection == 3 * 4
        assert macs.output == 3 * 5 * 4
        np.testing.assert_allclose(report.macs_per_query, (12 + 60) / 3)

    def test_empty_corpus_rejected(self):
        vocab = make_vocab(["a"])
        params = make_params(vocab, REGIME_STANDARD, seed=115)
        with pytest.raises(DataError):
            perplexity(params, [], vocab)


class TestScoreSentence:
    def test_normalized_sums_per_instance_log_probs(self):
        vocab = make_vocab(list("abc"))
        for regime in (REGIME_STANDARD, REGIME_CLASS, REGIME_TREE):
            params = make_params(vocab, regime, seed=116)
            sent = ["a", "c", "b"]
            want = sum(log_prob(params, ctx, target)
                       for ctx, target in zip(*instance_arrays([sent], vocab, 3)))
            np.testing.assert_allclose(score_sentence(params, sent, vocab),
                                       want, rtol=1e-12)

    def test_unnormalised_sums_raw_scores(self):
        vocab = make_vocab(list("ab"))
        params = make_params(vocab, REGIME_STANDARD, seed=117)
        sent = ["b", "a"]
        want = sum(unnormalised_log_score(params, ctx, target)
                   for ctx, target in zip(*instance_arrays([sent], vocab, 3)))
        got = score_sentence(params, sent, vocab, unnormalised=True)
        np.testing.assert_allclose(got, want, rtol=1e-12)


class TestScoreNbest:
    def lines(self):
        return [
            "7 ||| a b ||| extra=1 ||| more\n",
            "busted line without separators\n",
            "7 ||| a ||| x\n",
            "\n",
            "8 ||| a b\n",
        ]

    def test_entries_and_errors(self):
        vocab = make_vocab(list("ab"))
        params = make_params(vocab, REGIME_STANDARD, seed=118)
        entries, errors = score_nbest(params, self.lines(), vocab)
        assert [e.line_no for e in entries] == [1, 3, 5]
        assert [e.sent_id for e in entries] == ["7", "7", "8"]
        assert entries[0].rest == "extra=1 ||| more"
        assert errors == [(2, "expected 'sent_id ||| hypothesis ||| ...'")]

    def test_score_depends_only_on_the_hypothesis(self):
        vocab = make_vocab(list("ab"))
        params = make_params(vocab, REGIME_STANDARD, seed=119)
        a, _ = score_nbest(params, ["1 ||| a b ||| q", "2 ||| b"], vocab)
        b, _ = score_nbest(params, ["9 ||| a b"], vocab)
        assert a[0].score == b[0].score
        want = score_sentence(params, ["a", "b"], vocab)
        np.testing.assert_allclose(a[0].score, want, rtol=1e-12)

    def test_unnormalised_mode(self):
        vocab = make_vocab(list("ab"))
        params = make_params(vocab, REGIME_STANDARD, seed=120)
        entries, _ = score_nbest(params, ["1 ||| b a"], vocab, unnormalised=True)
        want = score_sentence(params, ["b", "a"], vocab, unnormalised=True)
        np.testing.assert_allclose(entries[0].score, want, rtol=1e-12)

    def test_unnormalised_scoring_refuses_a_tree_model(self):
        """A tree model's R and b are never read, so never trained: every
        raw-scoring entry point refuses it, ``score_nbest`` before it reads
        a line, while normalised scoring of the same model runs."""
        vocab = make_vocab(list("ab"))
        params = make_params(vocab, REGIME_TREE, seed=122)
        ctx, tgt = instance_arrays([["b", "a"]], vocab, 3)

        def unread():
            raise AssertionError("read an n-best line")
            yield

        calls = [lambda: score_instances(params, ctx, tgt, unnormalised=True),
                 lambda: score_sentence(params, ["b", "a"], vocab, unnormalised=True),
                 lambda: score_nbest(params, unread(), vocab, unnormalised=True),
                 lambda: score_nbest(params, [], vocab, unnormalised=True)]
        for call in calls:
            with pytest.raises(DataError, match="never trains R"):
                call()
        assert np.isfinite(score_sentence(params, ["b", "a"], vocab))

    def test_parse_rejects_blank_sentence_id(self):
        assert parse_nbest_line("  ||| hyp") is None
        assert parse_nbest_line("no separators at all") is None
        parsed = parse_nbest_line("3 ||| a b c")
        assert parsed == ("3", "a b c", "")


class TestNbestParsing:
    LINES = [
        "1 ||| a b ||| x=1 ||| y=2 ||| z",   # the rest keeps its separators
        "1 ||| a b ||| ||| ||| ",
        "1 ||| a b ||| ",                    # a trailing separator
        "1 ||| a b |||",
        "2 ||| ||| |||",
        "2 |||  ||| empty",
        " 3  ||| a\tb ||| tab",
        "3 ||| a b\r",                       # \r stays in the fields
        "3 ||| a ||| x\r",
        "  ||| hyp",                         # blank sentence id: an error
        " ||| a b ||| blank id",
        "no separators at all",
        "4|||a b",
        "   ",                               # blank lines: skipped silently
        "",
        "\t\r",
    ]

    @staticmethod
    def split_and_join(line):
        """The parse of a split at every separator, the rest rejoined."""
        parts = line.split(" ||| ")
        if len(parts) < 2 or not parts[0].strip():
            return None
        return parts[0].strip(), parts[1], " ||| ".join(parts[2:])

    def test_one_split_matches_split_and_join(self):
        for line in self.LINES:
            assert parse_nbest_line(line) == self.split_and_join(line), line

    def test_score_nbest_keeps_each_field_and_skips_blank_lines(self):
        vocab = make_vocab(list("ab"))
        params = make_params(vocab, REGIME_STANDARD, seed=184)
        entries, errors = score_nbest(params, [line + "\n" for line in self.LINES], vocab)
        want, want_errors = [], []
        for line_no, line in enumerate(self.LINES, 1):
            parsed = self.split_and_join(line)
            if parsed is not None:
                want.append((line_no, *parsed))
            elif line.strip():
                want_errors.append((line_no, "expected 'sent_id ||| hypothesis ||| ...'"))
        assert [tuple(e[:4]) for e in entries] == want
        assert [e.line_no for e in entries] == list(range(1, 10))
        assert errors == want_errors
        assert [no for no, _ in errors] == [10, 11, 12, 13]
        assert entries[0].rest == "x=1 ||| y=2 ||| z" and entries[8].rest == "x\r"
        for e in entries:
            want_score = score_sentence(params, e.hypothesis.split(), vocab)
            np.testing.assert_allclose(e.score, want_score, rtol=1e-12)


class TestBatchedNbest:
    LINES = [
        "1 ||| a b c ||| x=1\n",
        "busted line without separators\n",
        "\n",
        "1 |||  ||| empty\n",
        "   \n",
        "2 ||| qq a zz b ||| oov\n",
        " ||| a b ||| blank id\n",
        "2 ||| <s> a </s> c\n",
        "3 ||| d e f g a b c d ||| long\n",
        "3 ||| g\n",
    ]

    @pytest.mark.parametrize("regime", [REGIME_STANDARD, REGIME_CLASS, REGIME_TREE])
    @pytest.mark.parametrize("group_tokens", [1, 7, 1 << 16])
    def test_matches_per_line_scores(self, regime, group_tokens, monkeypatch):
        monkeypatch.setattr(evaluation, "_NBEST_GROUP_TOKENS", group_tokens)
        vocab = make_vocab(list("abcdefg"), counts=[13, 8, 5, 3, 2, 1, 1])
        params = make_params(vocab, regime, order=3, dim=6, seed=160,
                             num_classes=3, dtype=np.float32)
        for unnormalised, _ in scoring_modes(params):
            entries, errors = score_nbest(params, self.LINES, vocab, unnormalised)
            assert [e.line_no for e in entries] == [1, 4, 6, 8, 9, 10]
            assert [e.sent_id for e in entries] == ["1", "1", "2", "2", "3", "3"]
            assert [e.rest for e in entries] == ["x=1", "empty", "oov", "", "long", ""]
            assert errors == [(2, "expected 'sent_id ||| hypothesis ||| ...'"),
                              (7, "expected 'sent_id ||| hypothesis ||| ...'")]
            for e in entries:
                words = e.hypothesis.split()
                want = score_sentence(params, words, vocab, unnormalised)
                assert abs(e.score - want) <= 1e-5 * (len(words) + 1)


class TestDistinctQueries:
    @staticmethod
    def nbest(rng, words, sources=4, hyps=40):
        lines = []
        for sid in range(sources):
            src = list(rng.choice(words, size=rng.integers(3, 9)))
            for _ in range(hyps):
                hyp = list(src)
                edits = min(len(hyp), int(rng.integers(1, 4)))
                for pos in rng.choice(len(hyp), size=edits, replace=False):
                    hyp[pos] = words[rng.integers(len(words))]
                lines.append(f"{sid} ||| {' '.join(hyp)} ||| 0")
        return lines

    @pytest.mark.parametrize("regime", [REGIME_STANDARD, REGIME_CLASS, REGIME_TREE])
    def test_each_distinct_query_is_scored_once(self, regime, monkeypatch):
        words = list("abcdefg") + ["zzz"]
        vocab = make_vocab(list("abcdefg"), counts=[13, 8, 5, 3, 2, 1, 1])
        params = make_params(vocab, regime, order=3, dim=6, seed=181,
                             num_classes=3, dtype=np.float32)
        lines = self.nbest(np.random.default_rng(182), words)
        hyps = [parse_nbest_line(line)[1].split() for line in lines]
        ctx, tgt = instance_arrays(hyps, vocab, 3)
        distinct = {(*c, t) for c, t in zip(ctx.tolist(), tgt.tolist())}
        assert len(distinct) < len(tgt) / 2  # the lists are duplicate-heavy

        batches = record_batches(monkeypatch)
        for unnormalised, _ in scoring_modes(params):
            batches.clear()
            entries, errors = score_nbest(params, lines, vocab, unnormalised)
            assert errors == [] and len(entries) == len(lines)
            assert sum(len(t) for _, t in batches) == len(distinct)
            for e, hyp in zip(entries, hyps):
                want = score_sentence(params, hyp, vocab, unnormalised)
                assert abs(e.score - want) <= 1e-5 * (len(hyp) + 1)
            again, _ = score_nbest(params, lines, vocab, unnormalised)
            assert [e.score for e in again] == [e.score for e in entries]


def scoring_modes(params):
    """(unnormalised, single-query scorer) of each mode ``params`` can be
    scored in: raw scores only where its output layer reads R and b."""
    modes = ((False, log_prob), (True, unnormalised_log_score))
    return modes if params.config.layout().reads_word_rows else modes[:1]


def record_batches(monkeypatch):
    """The (contexts, targets) of every batch that ``score_instances`` hands
    to ``log_probs_batch`` or ``unnormalised_scores_batch`` from now on, in
    a list the caller may clear."""
    batches = []

    def recording(score):
        def record(params, contexts, targets, macs=None):
            batches.append((np.array(contexts), np.array(targets)))
            return score(params, contexts, targets, macs)
        return record

    monkeypatch.setattr(evaluation, "log_probs_batch", recording(log_probs_batch))
    monkeypatch.setattr(evaluation, "unnormalised_scores_batch",
                        recording(unnormalised_scores_batch))
    return batches


def batch_macs(params, batches, unnormalised):
    """The exact MACs of scoring ``batches`` of (contexts, targets), counted
    query by query: a raw score costs each query its projection and one
    (D,) product. A log-probability costs each distinct context of a batch
    (of its queries whose target is not ``<s>``) one projection and, in the
    standard and class layers, one normaliser over the support or the
    classes; each query adds its class's word terms or its tree path."""
    cfg, layer = params.config, params.config.layout()
    D, project = cfg.dim, cfg.context_size * cfg.dim  # diagonal transforms
    want = MacCounter()
    for contexts, targets in batches:
        if unnormalised:
            want.projection += len(targets) * project
            want.output += len(targets) * D
            continue
        contexts, targets = contexts[targets != BOS_ID], targets[targets != BOS_ID]
        distinct = len({tuple(c) for c in contexts.tolist()})
        want.projection += distinct * project
        if cfg.regime == REGIME_STANDARD:
            want.output += distinct * len(layer.support) * D
        elif cfg.regime == REGIME_CLASS:
            sizes = layer.class_sizes[layer.class_of[targets]]
            want.output += (distinct * layer.rows * (layer.rows > 1)
                            + int(sizes[sizes > 1].sum())) * D
        else:
            want.output += sum(cfg.tree.depth(t) for t in targets.tolist()) * D
    return want


def query_bytes(params):
    """The bytes per query that ``_batch_width`` divides its budget by."""
    itemsize = params.dtype.itemsize
    vector = itemsize * params.config.dim
    later = vector + params.config.layout().row_bytes(itemsize)
    return vector + max(params.config.context_size * vector, later)


class TestBatchWidth:
    def sentences(self):
        rng = np.random.default_rng(170)
        words = list("abcdefg") + ["zzz"]
        return [list(rng.choice(words, size=rng.integers(0, 12))) for _ in range(30)]

    @pytest.mark.parametrize("regime", [REGIME_STANDARD, REGIME_CLASS, REGIME_TREE])
    def test_width_one_matches_the_layer_width(self, regime, monkeypatch):
        vocab = make_vocab(list("abcdefg"), counts=[13, 8, 5, 3, 2, 1, 1])
        params = make_params(vocab, regime, order=3, dim=6, seed=171,
                             num_classes=3, dtype=np.float32)
        ctx, tgt = instance_arrays(self.sentences(), vocab, 3)
        layer_width = evaluation._batch_width(params)
        assert layer_width > len(tgt)
        for unnormalised, _ in scoring_modes(params):
            batches = record_batches(monkeypatch)
            wide_macs = MacCounter()
            wide = score_instances(params, ctx, tgt, unnormalised, wide_macs)
            assert len(batches) == 1
            assert wide_macs == batch_macs(params, batches, unnormalised)
            for budget in (1, 7 * params.config.layout().row_bytes()):
                monkeypatch.setattr(evaluation, "_SCRATCH_BYTES", budget)
                monkeypatch.setattr(evaluation, "_SLAB_BYTES", budget)
                batches.clear()
                macs = MacCounter()
                narrow = score_instances(params, ctx, tgt, unnormalised, macs)
                assert np.abs(narrow - wide).max() <= 1e-5
                assert len(batches) > 1
                assert macs == batch_macs(params, batches, unnormalised)
            monkeypatch.undo()
        total, count = perplexity_from_instances(params, ctx, tgt)
        assert (total, count) == (math.fsum(score_instances(params, ctx, tgt).tolist()),
                                  len(tgt))

    def test_row_bytes_per_layer(self):
        vocab = make_vocab(list("abcdefg"), counts=[13, 8, 5, 3, 2, 1, 1])
        D = 6
        std = make_config(vocab, REGIME_STANDARD, dim=D).layout()
        assert std.row_bytes() == 4 * len(vocab)  # one float32 score row
        assert std.row_bytes(8) == 8 * len(vocab)
        cls = make_config(vocab, REGIME_CLASS, dim=D, num_classes=3).layout()
        # class scores, the largest class's share of the word buffer, max and picked
        assert cls.row_bytes() == 4 * (3 + max(len(m) for m in cls.members_eff) + 2)
        tree = make_config(vocab, REGIME_TREE, dim=D).layout()
        # the walk's order, leaf, depth and sums; its slabs are bounded apart
        assert tree.row_bytes() == tree.row_bytes(8) == 40

    @pytest.mark.parametrize("regime", [REGIME_STANDARD, REGIME_CLASS, REGIME_TREE])
    def test_one_batch_holds_what_its_width_was_sized_for(self, regime):
        """One float32 batch at the width ``_batch_width`` gives peaks within
        the budget. Classes are binned by frequency as ``snlm train`` does,
        and every class query targets the largest class, its dearest case;
        a tree query's walk holds the same whatever its target."""
        words = [f"w{i}" for i in range(12_000)]
        vocab = make_vocab(words, counts=[len(words) // (i + 1) + 1
                                          for i in range(len(words))])
        class_of = frequency_binning(vocab.counts, math.ceil(math.sqrt(len(vocab)))).class_of
        params = make_params(vocab, regime, dim=100, seed=174, dtype=np.float32,
                             class_of=class_of)
        layer = params.config.layout()
        pool = (layer.members_eff[np.argmax(layer.class_sizes)] if regime == REGIME_CLASS
                else layer.support)
        width = evaluation._batch_width(params)
        rng = np.random.default_rng(175)
        contexts = rng.integers(0, len(vocab), size=(width, 2)).astype(np.int32)
        targets = rng.choice(pool, size=width)
        tracemalloc.start()
        try:
            log_probs_batch(params, contexts, targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.8 * evaluation._SCRATCH_BYTES < peak <= 1.1 * evaluation._SCRATCH_BYTES

    def test_standard_width_counts_one_score_block(self):
        """A standard query holds one block's score row, not the whole
        vocabulary's: 330 rows a batch at order 5, D 100 and |V| 17,652,
        where a whole row would give 117."""
        vocab = make_vocab([f"w{i}" for i in range(17_649)])
        params = make_params(vocab, REGIME_STANDARD, order=5, dim=100, seed=177,
                             dtype=np.float32)
        block = params.config.layout().block_words()
        assert block < len(vocab)
        assert evaluation._batch_width(params) == evaluation._SCRATCH_BYTES // (800 + 4 * block)
        assert evaluation._batch_width(params) == 330

    def test_unnormalised_batches_are_wider_on_a_standard_model(self):
        vocab = make_vocab([f"w{i}" for i in range(400)])
        params = make_params(vocab, REGIME_STANDARD, dim=6, seed=173, dtype=np.float32)
        raw = evaluation._batch_width(params, unnormalised=True)
        assert raw == evaluation._SLAB_BYTES // (3 * 4 * 6)  # order 3: 3 rows a query
        assert raw > evaluation._batch_width(params)

    @pytest.mark.parametrize("regime", [REGIME_STANDARD, REGIME_CLASS, REGIME_TREE])
    def test_unnormalised_width_keeps_a_batch_in_l2(self, regime):
        """Raw scores take batches of ``_SLAB_BYTES`` (512 KiB) of (D,) float32
        rows, three per query at order 3 (the projection and its two context
        rows, which are freed before its row of R is gathered): 436 rows at
        D 100 whatever the output layer."""
        vocab = make_vocab([f"w{i}" for i in range(40)])
        params = make_params(vocab, regime, dim=100, seed=176, dtype=np.float32)
        assert evaluation._batch_width(params, unnormalised=True) == 436

    def test_rows_over_budget_still_score_one_at_a_time(self, monkeypatch):
        vocab = make_vocab(list("abc"))
        params = make_params(vocab, REGIME_STANDARD, seed=172)
        row = query_bytes(params)
        assert evaluation._batch_width(params) == evaluation._SCRATCH_BYTES // row
        monkeypatch.setattr(evaluation, "_SCRATCH_BYTES", row - 1)
        assert evaluation._batch_width(params) == 1
        monkeypatch.setattr(evaluation, "_SCRATCH_BYTES", 0)
        assert evaluation._batch_width(params) == 1
        got = score_sentence(params, ["a", "b", "c"], vocab)
        want = sum(log_prob(params, ctx, target)
                   for ctx, target in zip(*instance_arrays([["a", "b", "c"]], vocab, 3)))
        np.testing.assert_allclose(got, want, rtol=1e-12)


class TestScoringOrder:
    """Normalised scoring runs in the layer's order and returns input order."""

    @staticmethod
    def alternating(vocab, reps=7):
        """Instances whose targets cycle through the support, so that every
        neighbour has another class (``make_config`` deals words round-robin)."""
        rng = np.random.default_rng(190)
        support = np.array([w for w in range(len(vocab)) if w != BOS_ID])
        targets = np.tile(support, reps)
        contexts = rng.choice(support, size=(len(targets), 2))
        return contexts, targets

    def test_class_scores_in_class_order_and_returns_input_order(self, monkeypatch):
        vocab = make_vocab([f"w{i}" for i in range(13)])
        params = make_params(vocab, REGIME_CLASS, order=3, dim=6, seed=191,
                             num_classes=4, dtype=np.float32)
        class_of = params.config.classing.class_of
        ctx, tgt = self.alternating(vocab)
        assert (np.diff(class_of[tgt]) != 0).all()

        alone = np.array([log_probs_batch(params, ctx[i:i + 1], tgt[i:i + 1])[0]
                          for i in range(len(tgt))])
        distinct = len({(*c, t) for c, t in zip(ctx.tolist(), tgt.tolist())})
        batches = record_batches(monkeypatch)
        monkeypatch.setattr(evaluation, "_SCRATCH_BYTES", 10 * query_bytes(params))
        macs = MacCounter()
        got = score_instances(params, ctx, tgt, macs=macs)
        assert np.abs(got - alone).max() <= 1e-6
        assert macs == batch_macs(params, batches, False)
        assert len(batches) == math.ceil(distinct / 10)
        classes = [class_of[targets] for _, targets in batches]
        for batch in classes:
            assert (np.diff(batch) >= 0).all()
        assert (np.diff(np.concatenate(classes)) >= 0).all()

    def test_unnormalised_scores_keep_input_order(self, monkeypatch):
        vocab = make_vocab([f"w{i}" for i in range(13)])
        params = make_params(vocab, REGIME_CLASS, order=3, dim=6, seed=192,
                             num_classes=4, dtype=np.float32)
        ctx, tgt = self.alternating(vocab)
        queries = [(*c, t) for c, t in zip(ctx.tolist(), tgt.tolist())]
        assert len(set(queries)) < len(queries)  # some queries repeat
        batches = record_batches(monkeypatch)
        got = score_instances(params, ctx, tgt, unnormalised=True)
        seen = [(*c, t) for contexts, targets in batches
                for c, t in zip(contexts.tolist(), targets.tolist())]
        assert sorted(seen) == sorted(set(queries))  # each distinct query once
        want = [unnormalised_log_score(params, c, t) for c, t in zip(ctx, tgt)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)

    def test_only_the_class_layer_orders_queries(self):
        """Class queries go by target class, in a stable sort; the standard
        and tree layers keep the input order (the tree walk sorts each batch
        deepest first itself)."""
        vocab = make_vocab([f"w{i}" for i in range(13)], counts=list(range(26, 0, -2)))
        _, tgt = self.alternating(vocab, reps=3)
        for regime in (REGIME_STANDARD, REGIME_TREE):
            assert make_config(vocab, regime).layout().scoring_order(tgt) is None
        layer = make_config(vocab, REGIME_CLASS, num_classes=4).layout()
        order = layer.scoring_order(tgt)
        np.testing.assert_array_equal(np.sort(order), np.arange(len(tgt)))
        key = layer.class_of[tgt][order]
        assert (np.diff(key) >= 0).all()
        assert (np.diff(order)[np.diff(key) == 0] > 0).all()  # stable


class TestDeduplicatedScoring:
    """Every evaluation path scores each distinct query once and normalises
    each distinct context once per batch, on instances whose contexts repeat
    heavily, with the parent's per-query scores."""

    @staticmethod
    def repeating(vocab, rng, n=240):
        """Six contexts, each asked of many targets, repeats and ``<s>``
        targets among them."""
        support = np.array([w for w in range(len(vocab)) if w != BOS_ID])
        contexts = rng.choice(support, size=(6, 2))[rng.integers(0, 6, size=n)]
        targets = rng.choice(support, size=n)
        targets[::23] = BOS_ID
        return contexts.astype(np.int32), targets.astype(np.int32)

    @pytest.mark.parametrize("regime", [REGIME_STANDARD, REGIME_CLASS, REGIME_TREE])
    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_scores_match_batches_of_one_and_macs_count_the_work(self, regime, dtype,
                                                                 tol, monkeypatch):
        vocab = make_vocab(list("abcdefghij"), counts=[20, 13, 8, 5, 3, 2, 2, 1, 1, 1])
        params = make_params(vocab, regime, order=3, dim=6, seed=200, num_classes=3,
                             dtype=dtype)
        ctx, tgt = self.repeating(vocab, np.random.default_rng(201))
        distinct = len({(*c, t) for c, t in zip(ctx.tolist(), tgt.tolist())})
        assert len({tuple(c) for c in ctx.tolist()}) == 6 and distinct < len(tgt) / 2
        # 11 distinct queries a batch: each context's queries are split over several
        budget = (11 * query_bytes(params), 11 * 3 * params.dtype.itemsize * 6)
        for unnormalised, single in scoring_modes(params):
            alone = [single(params, c, t) for c, t in zip(ctx, tgt)]
            batches = record_batches(monkeypatch)
            for narrow in (False, True):
                if narrow:
                    monkeypatch.setattr(evaluation, "_SCRATCH_BYTES", budget[0])
                    monkeypatch.setattr(evaluation, "_SLAB_BYTES", budget[1])
                batches.clear()
                macs = MacCounter()
                got = score_instances(params, ctx, tgt, unnormalised, macs)
                np.testing.assert_allclose(got, alone, rtol=0, atol=tol)
                if not unnormalised:
                    assert (got[tgt == BOS_ID] == -np.inf).all()
                    assert np.isfinite(got[tgt != BOS_ID]).all()
                assert sum(len(t) for _, t in batches) == distinct
                assert len(batches) == (math.ceil(distinct / 11) if narrow else 1)
                assert macs == batch_macs(params, batches, unnormalised)
                if narrow and not unnormalised:
                    first = {tuple(c) for c in batches[0][0].tolist()}
                    assert any(first & {tuple(c) for c in b[0].tolist()} for b in batches[1:])
            monkeypatch.undo()

    def test_query_ranks_match_np_unique(self):
        """Targets ranked under their contexts' ranks, as ``score_instances``
        ranks queries, give ``np.unique``'s lexicographic ranks of the
        (context, target) rows, in int32 and int64, with ids of 15 bits and
        of 21 (a key per context column then)."""
        rng = np.random.default_rng(203)
        for dtype in (np.int32, np.int64):
            for high in (17_680, 1 << 21):
                ids = rng.integers(0, high, size=6)
                ctx, tgt = ids[rng.integers(0, 6, size=(400, 4))], ids[rng.integers(0, 6, size=400)]
                ctx, tgt = ctx.astype(dtype), tgt.astype(dtype)
                rank, count = row_ranks(tgt[None], row_ranks(ctx.T))
                rows, inverse = np.unique(np.column_stack([ctx, tgt]), axis=0,
                                          return_inverse=True)
                assert count == len(rows) < 400
                np.testing.assert_array_equal(rank, inverse.reshape(-1))

    @pytest.mark.parametrize("regime", [REGIME_STANDARD, REGIME_CLASS, REGIME_TREE])
    def test_every_entry_point_scores_distinct_queries(self, regime, monkeypatch):
        """``perplexity``, ``score_sentence`` and ``score_nbest`` hand each
        distinct query to one batch, and ``snlm ppl``'s MACs per query fall
        with the share of repeated contexts."""
        vocab = make_vocab(list("abcd"), counts=[8, 4, 2, 1])
        params = make_params(vocab, regime, order=3, dim=5, seed=202, num_classes=2)
        sentence = ["a", "b"] * 6  # contexts (a, b) and (b, a) repeat
        ctx, tgt = instance_arrays([sentence], vocab, 3)
        distinct = len({(*c, t) for c, t in zip(ctx.tolist(), tgt.tolist())})
        assert distinct < len(tgt) / 2
        batches = record_batches(monkeypatch)
        macs = MacCounter()
        report = perplexity(params, [sentence], vocab, macs=macs)
        assert [len(t) for _, t in batches] == [distinct]
        assert report.macs_per_query == batch_macs(params, batches, False).total / len(tgt)
        want = sum(log_prob(params, c, t) for c, t in zip(ctx, tgt))
        np.testing.assert_allclose(report.total_log_prob, want, rtol=1e-12)
        for unnormalised, _ in scoring_modes(params):
            batches.clear()
            got = score_sentence(params, sentence, vocab, unnormalised)
            entries, _ = score_nbest(params, [f"1 ||| {' '.join(sentence)}"] * 3, vocab,
                                     unnormalised)
            assert [len(t) for _, t in batches] == [distinct, distinct]
            np.testing.assert_allclose([e.score for e in entries], [got] * 3, rtol=1e-12)


class TestMemoryEstimate:
    def test_large_class_model_payload(self):
        V, D, K = 105500, 500, 325
        classing = WordClassing(np.arange(V, dtype=np.int64) % K, K)
        cfg = ModelConfig(order=5, dim=D, regime=REGIME_CLASS, diagonal=True,
                          vocab_size=V, classing=classing)
        est = memory_estimate(cfg)
        assert est.parameter_count == 2 * V * D + V + 4 * D + K * (D + 1)
        assert est.parameter_count == 105_770_325
        assert abs(est.megabytes - 423.0) < 2.0

    def test_smallest_model(self):
        cfg = ModelConfig(order=2, dim=1, regime=REGIME_STANDARD,
                          diagonal=True, vocab_size=2)
        est = memory_estimate(cfg)
        assert est.parameter_count == 7
        assert est.payload_bytes == 28

    def test_full_transforms_cost_d_squared(self):
        base = dict(order=5, dim=500, regime=REGIME_STANDARD, vocab_size=1000)
        diag = memory_estimate(ModelConfig(diagonal=True, **base))
        full = memory_estimate(ModelConfig(diagonal=False, **base))
        per_position = 500 * 500 - 500
        assert full.parameter_count - diag.parameter_count == 4 * per_position

    def test_tree_rows_cost_dim_plus_one(self):
        vocab = make_vocab(list("abcd"), counts=[5, 3, 2, 1])
        cfg = make_config(vocab, REGIME_TREE, order=3, dim=6)
        est = memory_estimate(cfg)
        rows = cfg.tree.num_nodes - 1
        assert est.structure_params == rows * 7

    def test_vocab_strings_counted_in_total(self):
        vocab = make_vocab(["aa", "b"])
        cfg = make_config(vocab, REGIME_STANDARD, dim=2)
        est = memory_estimate(cfg, vocab)
        want = sum(len(t.encode()) for t in vocab.tokens)
        assert est.vocab_string_bytes == want
        assert est.total_bytes == est.payload_bytes + want

    def test_properties_consistent(self):
        est = MemoryEstimate(embedding_params=10, bias_params=5,
                             context_params=3, structure_params=2,
                             vocab_string_bytes=11)
        assert est.parameter_count == 20
        assert est.payload_bytes == 80
        assert est.megabytes == 80 / 1e6


class TestSentenceBatches:
    @pytest.mark.parametrize("regime", [REGIME_STANDARD, REGIME_CLASS, REGIME_TREE])
    def test_sentence_is_the_sum_of_its_token_queries(self, regime):
        vocab = make_vocab(list("abcdefg"), counts=[13, 8, 5, 3, 2, 1, 1])
        D = 6
        params = make_params(vocab, regime, order=3, dim=D, seed=150,
                             num_classes=3, dtype=np.float32)
        sentence = ["a", "g", "b", "zzz", "a", "c", "f", "e"]
        insts = list(zip(*instance_arrays([sentence], vocab, 3)))
        for unnormalised, single in scoring_modes(params):
            batch_macs, single_macs = MacCounter(), MacCounter()
            got = score_sentence(params, sentence, vocab, unnormalised, batch_macs)
            parts = [single(params, ctx, target, single_macs) for ctx, target in insts]
            assert abs(got - sum(parts)) <= 1e-5 * len(parts)
            assert batch_macs == single_macs

    def test_tree_sentence_macs_count_true_depths(self):
        vocab = make_vocab(list("abcdefg"), counts=[64, 32, 16, 8, 4, 2, 1])
        D = 4
        params = make_params(vocab, REGIME_TREE, order=3, dim=D, seed=151)
        tree = params.config.tree
        sentence = list("agbfa")
        targets = instance_arrays([sentence], vocab, 3)[1].tolist()
        assert len({tree.depth(t) for t in targets}) > 1
        macs = MacCounter()
        score_sentence(params, sentence, vocab, macs=macs)
        assert macs.output == sum(tree.depth(t) * D for t in targets)

    def test_tree_scoring_builds_only_its_batch_paths(self, tmp_path):
        """Perplexity on a freshly loaded tree model walks its batch's paths
        from the leaves up, and its scores are within float32 rounding of
        the reference distribution, which goes down from the root over
        every internal node."""
        vocab = make_vocab([f"w{i}" for i in range(40)], counts=list(range(80, 0, -2)))
        params = make_params(vocab, REGIME_TREE, order=3, dim=6, seed=177, dtype=np.float32)
        save_model(tmp_path / "tree.bin", params, vocab)
        loaded, vocab = load_model(tmp_path / "tree.bin")
        rng = np.random.default_rng(178)
        sentences = [[f"w{i}" for i in rng.integers(0, 40, size=rng.integers(1, 15))]
                     for _ in range(30)]
        report = perplexity(loaded, sentences, vocab)
        layer = loaded.config.layout()
        contexts, targets = instance_arrays(sentences, vocab, 3)
        assert evaluation._batch_width(loaded) > len(targets)  # one batch
        P = project_batch(loaded, contexts)[0]
        want = np.log(layer.distribution(loaded, P)[np.arange(len(targets)), targets])
        got = score_instances(loaded, contexts, targets)
        np.testing.assert_allclose(got, want, rtol=0, atol=2e-6)
        assert report.total_log_prob == math.fsum(got.tolist())


class TestQueryBenchmark:
    def test_standard_macs_are_analytic(self):
        vocab = make_vocab(list("abcdef"), counts=[6, 5, 4, 3, 2, 1])
        D = 5
        params = make_params(vocab, REGIME_STANDARD, order=3, dim=D, seed=121)
        contexts = np.array([[3, 4], [5, 6], [7, 8]])
        report = query_benchmark(params, contexts)
        support = len(vocab) - 1
        np.testing.assert_allclose(report.macs_per_query,
                                   2 * D + support * D)
        np.testing.assert_allclose(report.macs_per_query_unnormalised,
                                   2 * D + D)
        assert report.queries == 3

    def test_tree_macs_average_the_query_depths(self):
        vocab = make_vocab(list("abcd"), counts=[9, 3, 2, 1])
        D = 4
        params = make_params(vocab, REGIME_TREE, order=3, dim=D, seed=122)
        layout = params.config.layout()
        words = layout.support[np.arange(6) % len(layout.support)]  # round-robin
        contexts = np.tile(np.array([[3, 4]]), (6, 1))
        report = query_benchmark(params, contexts)
        tree = params.config.tree
        want = np.mean([2 * D + tree.depth(int(w)) * D for w in words])
        np.testing.assert_allclose(report.macs_per_query, want)

    def test_rejects_empty_queries(self):
        vocab = make_vocab(list("ab"))
        params = make_params(vocab, REGIME_STANDARD, seed=123)
        with pytest.raises(DataError):
            query_benchmark(params, np.empty((0, 2)))
