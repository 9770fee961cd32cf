"""Vocabulary construction, instance extraction and unigram statistics."""
import collections
import tracemalloc

import numpy as np
import pytest

from snlm.corpus import (
    BOS_ID,
    BOS_TOKEN,
    EOS_ID,
    EOS_TOKEN,
    UNK_ID,
    UNK_TOKEN,
    Vocabulary,
    build_vocabulary,
    instance_arrays,
    read_sentences,
    unigram_distribution,
    unigram_from_counts,
)
from snlm.errors import DataError
from snlm.synthetic import markov_corpus


class TestVocabulary:
    def test_specials_occupy_reserved_ids(self):
        vocab = build_vocabulary([["a", "a", "b"]])
        assert vocab.tokens[UNK_ID] == UNK_TOKEN
        assert vocab.tokens[BOS_ID] == BOS_TOKEN
        assert vocab.tokens[EOS_ID] == EOS_TOKEN
        assert vocab.id_of("a") == 3
        assert vocab.id_of("b") == 4
        assert len(vocab) == 5

    def test_counts_are_corpus_occurrences(self):
        vocab = build_vocabulary([["a", "a", "b"], ["b", "a"]])
        assert vocab.counts[vocab.id_of("a")] == 3
        assert vocab.counts[vocab.id_of("b")] == 2
        # markers never occur inside a sentence line
        assert vocab.counts[BOS_ID] == 0
        assert vocab.counts[EOS_ID] == 0
        assert vocab.counts[UNK_ID] == 0
        assert vocab.counts.sum() == 5

    def test_literal_sentence_start_counts_as_unk(self):
        vocab = build_vocabulary([["x", BOS_TOKEN, "y"], ["y", "x"]])
        assert vocab.tokens[3:] == ["x", "y"]
        np.testing.assert_array_equal(vocab.counts, [1, 0, 0, 2, 2])

    def test_literal_sentence_end_counts_as_unk(self):
        vocab = build_vocabulary([["a", EOS_TOKEN, "b"], [EOS_TOKEN, BOS_TOKEN]])
        assert vocab.tokens[3:] == ["a", "b"]
        np.testing.assert_array_equal(vocab.counts, [3, 0, 0, 1, 1])

    def test_content_sorted_by_count_then_token(self):
        rng = np.random.default_rng(7)
        words = [f"w{i:02d}" for i in range(20)]
        sentences = []
        for _ in range(200):
            sentences.append(list(rng.choice(words, size=rng.integers(1, 9))))
        vocab = build_vocabulary(sentences)
        truth = collections.Counter(t for s in sentences for t in s)
        got = [(int(-vocab.counts[i]), vocab.tokens[i]) for i in range(3, len(vocab))]
        assert got == sorted(got)
        for tok, n in truth.items():
            assert vocab.counts[vocab.id_of(tok)] == n

    def test_min_count_folds_mass_into_unk(self):
        sentences = [["a"] * 5 + ["b"] * 2 + ["c"]]
        vocab = build_vocabulary(sentences, min_count=2)
        assert "c" not in vocab.tokens
        assert vocab.counts[UNK_ID] == 1
        assert vocab.counts.sum() == 8
        assert vocab.lookup("c") == UNK_ID

    def test_max_size_keeps_most_frequent(self):
        sentences = [["a"] * 5, ["b"] * 3, ["c"] * 2, ["d"]]
        vocab = build_vocabulary(sentences, max_size=2)
        assert len(vocab) == 5
        assert set(vocab.tokens) == {UNK_TOKEN, BOS_TOKEN, EOS_TOKEN, "a", "b"}
        assert vocab.counts[UNK_ID] == 3
        assert vocab.counts.sum() == 11

    def test_id_of_unknown_raises_lookup_falls_back(self):
        vocab = build_vocabulary([["a"]])
        with pytest.raises(KeyError):
            vocab.id_of("zzz")
        assert vocab.lookup("zzz") == UNK_ID

    def test_round_trip_every_id(self):
        vocab = build_vocabulary([["a", "b", "c", "d"]])
        for i in range(len(vocab)):
            assert vocab.id_of(vocab.token_of(i)) == i

    def test_save_load_round_trip(self, tmp_path):
        vocab = build_vocabulary([["a", "a", "b"]])
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        again = Vocabulary.load(path)
        assert again.tokens == vocab.tokens
        np.testing.assert_array_equal(again.counts, vocab.counts)

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            build_vocabulary([])


class TestReadSentences:
    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("a b\n\n  \nc\n")
        assert list(read_sentences(path)) == [["a", "b"], ["c"]]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DataError):
            list(read_sentences(tmp_path / "nope.txt"))


def _instances(sentence, vocab, n):
    """One sentence's instances as (context list, target) pairs."""
    contexts, targets = instance_arrays([sentence], vocab, n)
    return list(zip(contexts.tolist(), targets.tolist()))


class TestExtractInstances:
    """The instances of one sentence, hand-checked."""

    def test_trigram_windows_most_recent_first(self):
        vocab = build_vocabulary([["a", "b"]])
        a, b = vocab.id_of("a"), vocab.id_of("b")
        got = _instances(["a", "b"], vocab, n=3)
        assert got == [
            ([BOS_ID, BOS_ID], a),
            ([a, BOS_ID], b),
            ([b, a], EOS_ID),
        ]

    def test_instance_count_is_length_plus_one(self):
        vocab = build_vocabulary([["a", "b", "c"]])
        rng = np.random.default_rng(3)
        for _ in range(20):
            sent = list(rng.choice(["a", "b", "c"], size=rng.integers(1, 12)))
            inst = _instances(sent, vocab, n=4)
            assert len(inst) == len(sent) + 1
            assert inst[-1][1] == EOS_ID

    def test_oov_tokens_become_unk(self):
        vocab = build_vocabulary([["a"]])
        inst = _instances(["q", "a"], vocab, n=2)
        assert inst[0][1] == UNK_ID
        assert inst[1][0][0] == UNK_ID

    def test_literal_sentence_start_becomes_unk(self):
        vocab = build_vocabulary([["a", BOS_TOKEN, "b"]])
        inst = _instances(["a", BOS_TOKEN, "b"], vocab, n=2)
        assert [t for _, t in inst] == [vocab.id_of("a"), UNK_ID,
                                        vocab.id_of("b"), EOS_ID]
        assert inst[2][0] == [UNK_ID]

    def test_literal_sentence_end_becomes_unk(self):
        vocab = build_vocabulary([["a", EOS_TOKEN, "b"]])
        inst = _instances(["a", EOS_TOKEN, "b"], vocab, n=2)
        assert [t for _, t in inst] == [vocab.id_of("a"), UNK_ID,
                                        vocab.id_of("b"), EOS_ID]
        assert inst[2][0] == [UNK_ID]

    def test_arrays_shape_and_dtype(self):
        vocab = build_vocabulary([["a", "b"]])
        ctx, tgt = instance_arrays([["a", "b"], ["b"]], vocab, n=3)
        assert ctx.shape == (5, 2) and ctx.dtype == np.int32
        assert tgt.shape == (5,) and tgt.dtype == np.int32

    def test_order_below_two_rejected(self):
        vocab = build_vocabulary([["a"]])
        with pytest.raises(DataError):
            instance_arrays([["a"]], vocab, n=1)

    def test_no_sentences_rejected(self):
        vocab = build_vocabulary([["a"]])
        with pytest.raises(DataError):
            instance_arrays([], vocab, n=3)


def _instances_by_loop(sentences, vocab, n):
    """Per-token instances: each target with its n-1 predecessors, most
    recent first, <s> before the sentence start; markers in text read <unk>."""
    contexts, targets = [], []
    for sent in sentences:
        ids = [UNK_ID if t in (BOS_TOKEN, EOS_TOKEN) else vocab.lookup(t) for t in sent]
        for i in range(len(ids) + 1):
            targets.append(ids[i] if i < len(ids) else EOS_ID)
            contexts.append([ids[i - j] if i - j >= 0 else BOS_ID for j in range(1, n)])
    return contexts, targets


class TestInstanceArrays:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_a_per_token_loop(self, n):
        rng = np.random.default_rng(40 + n)
        words = ["a", "b", "c", "d", "oov", BOS_TOKEN, EOS_TOKEN, UNK_TOKEN]
        vocab = build_vocabulary([["a", "b", "c", "d", "a", "b"]])
        for _ in range(10):
            sentences = [list(rng.choice(words, size=rng.integers(0, 9)))
                         for _ in range(rng.integers(1, 6))]
            sentences.insert(int(rng.integers(len(sentences) + 1)), [])
            ctx, tgt = instance_arrays(sentences, vocab, n)
            want_ctx, want_tgt = _instances_by_loop(sentences, vocab, n)
            assert ctx.dtype == np.int32 and tgt.dtype == np.int32
            assert ctx.shape == (len(want_tgt), n - 1)
            assert ctx.tolist() == want_ctx
            assert tgt.tolist() == want_tgt

    def test_traced_peak_is_under_twice_the_result(self):
        """At order 5, ``snlm train``'s default, the arrays built on the way
        (the token list, the id stream, the kept window starts) stay under
        the result's own bytes, and both results own their C-ordered data."""
        sentences = markov_corpus(20_000, vocab_size=5000, branching=20, seed=1)
        vocab = build_vocabulary(sentences)
        tracemalloc.start()
        try:
            ctx, tgt = instance_arrays(sentences, vocab, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * (ctx.nbytes + tgt.nbytes)
        assert ctx.flags.c_contiguous and ctx.flags.owndata and tgt.flags.owndata


class TestUnigram:
    def test_sums_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            counts = rng.integers(0, 50, size=rng.integers(2, 30))
            if counts.sum() == 0:
                continue
            probs = unigram_from_counts(counts.astype(float))
            assert probs.dtype == np.float64
            assert abs(probs.sum() - 1.0) < 1e-9

    def test_excluded_ids_have_exactly_zero_mass(self):
        # counts (3, 1, 2) without <s> (id 1) renormalise to (0.6, 0, 0.4)
        assert BOS_ID == 1
        probs = unigram_from_counts(np.array([3.0, 1.0, 2.0]))
        assert probs[1] == 0.0
        np.testing.assert_allclose(probs, [0.6, 0.0, 0.4], atol=1e-12)

    def test_vocab_unigram_masks_sentence_start(self):
        vocab = build_vocabulary([["a", "b", "a"]])
        probs = unigram_distribution(vocab)
        assert probs[BOS_ID] == 0.0
        assert probs[vocab.id_of("a")] > probs[vocab.id_of("b")]

    def test_all_zero_without_smoothing_rejected(self):
        with pytest.raises(DataError):
            unigram_from_counts(np.zeros(4))

    def test_bad_counts_rejected(self):
        for counts in ([], [[1.0, 2.0]], [1.0, -1.0], [1.0, np.inf], [1.0, np.nan]):
            with pytest.raises(DataError):
                unigram_from_counts(np.array(counts, dtype=float))
