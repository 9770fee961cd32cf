"""Frequency binning, exchange clustering and Huffman trees."""
import collections
import hashlib
import heapq
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from snlm.corpus import BOS_ID, EOS_ID, build_vocabulary
from snlm.errors import DataError
from snlm.partitioning import (
    MAX_TREE_DEPTH,
    VocabularyTree,
    WordClassing,
    brown_clustering,
    class_bigram_objective,
    frequency_binning,
    huffman_tree,
)
from snlm.synthetic import markov_corpus, template_corpus

from conftest import assert_depths_walk_up, caterpillar, make_vocab, min_wpl


class TestWordClassing:
    def test_members_partition_words(self):
        cl = WordClassing(np.array([0, 1, 0, 2, 1]), 3)
        got = [list(m) for m in cl.members]
        assert got == [[0, 2], [1, 4], [3]]

    def test_rejects_empty_class(self):
        with pytest.raises(DataError, match="class 1 has no words"):
            WordClassing(np.array([0, 0, 2]), 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(DataError):
            WordClassing(np.array([0, 5]), 2)

    @pytest.mark.parametrize("class_of,k,message", [
        ([-1, 0, 1], 2, "class id out of range"),
        ([0, 1, 2], 2, "class id out of range"),
        ([3, 0, 3, 5, 0, 5], 6, "every class must be non-empty; class 1 has no words"),
        ([1, 2, 2, 1], 3, "every class must be non-empty; class 0 has no words"),
        ([0, 0, 1, 1], 3, "every class must be non-empty; class 2 has no words")])
    def test_rejection_names_the_first_fault(self, class_of, k, message):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            WordClassing(np.array(class_of), k)

    def test_save_load_round_trip(self, tmp_path):
        vocab = build_vocabulary([["a", "b", "c"]])
        cl = WordClassing(np.array([0, 1, 0, 1, 0, 1]), 2)
        path = tmp_path / "classes.tsv"
        cl.save(path, vocab)
        again = WordClassing.load(path, vocab)
        np.testing.assert_array_equal(again.class_of, cl.class_of)
        assert again.num_classes == 2

    def test_load_rejects_a_word_listed_twice(self, tmp_path):
        vocab = build_vocabulary([["a", "b"]])
        path = tmp_path / "classes.tsv"
        lines = [f"{t}\t{i % 2}" for i, t in enumerate(vocab.tokens)]
        path.write_text("\n".join(lines[:3] + [f"{vocab.tokens[1]}\t0"] + lines[3:]) + "\n")
        with pytest.raises(DataError, match=re.escape(f"{path}:4: word '{vocab.tokens[1]}' "
                                                      "is listed twice")):
            WordClassing.load(path, vocab)

    def test_load_rejects_missing_word(self, tmp_path):
        vocab = build_vocabulary([["a", "b"]])
        path = tmp_path / "classes.tsv"
        path.write_text("a\t0\nb\t1\n")  # specials absent
        with pytest.raises(DataError):
            WordClassing.load(path, vocab)


class TestFrequencyBinning:
    def test_equal_mass_example(self):
        # mass (1/2, 1/4, 1/8, 1/8) with two bins: the 1/2 word sits alone
        cl = frequency_binning(np.array([0.5, 0.25, 0.125, 0.125]), 2)
        assert list(cl.class_of) == [0, 1, 1, 1]

    def test_uniform_four_words_four_bins(self):
        cl = frequency_binning(np.ones(4), 4)
        assert sorted(cl.class_of) == [0, 1, 2, 3]

    def test_single_bin(self):
        cl = frequency_binning(np.array([3.0, 1.0, 2.0]), 1)
        assert list(cl.class_of) == [0, 0, 0]

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            probs = rng.random(rng.integers(4, 40))
            k = int(rng.integers(1, len(probs) + 1))
            base = frequency_binning(probs, k)
            for scale in (1e-6, 3.0, 1e8):
                again = frequency_binning(probs * scale, k)
                np.testing.assert_array_equal(again.class_of, base.class_of)

    def test_every_bin_used_and_frequency_contiguous(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(5, 60))
            probs = rng.random(n)
            k = int(rng.integers(2, n + 1))
            cl = frequency_binning(probs, k)
            assert cl.num_classes == k
            assert len(np.unique(cl.class_of)) == k
            # bins are contiguous runs when words are sorted by mass
            order = np.lexsort((np.arange(n), -probs))
            seq = cl.class_of[order]
            assert (np.diff(seq) >= 0).all()

    def test_rejects_bad_num_classes(self):
        with pytest.raises(DataError):
            frequency_binning(np.ones(3), 0)
        with pytest.raises(DataError):
            frequency_binning(np.ones(3), 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(DataError, match="non-finite weight"):
            frequency_binning(np.array([0.5, bad, 0.2, 0.3]), 2)


def _objective_oracle(sentences, vocab, classing):
    """Class-bigram likelihood term, recomputed with plain Counters."""
    T = collections.Counter()
    left = collections.Counter()
    gen = collections.Counter()
    for sent in sentences:
        ids = [BOS_ID] + [vocab.lookup(t) for t in sent] + [EOS_ID]
        for a, b in zip(ids, ids[1:]):
            T[classing.class_of[a], classing.class_of[b]] += 1
            left[classing.class_of[a]] += 1
            gen[classing.class_of[b]] += 1
    f = sum(v * math.log(v) for v in T.values())
    f -= sum(v * math.log(v) for v in left.values())
    f -= sum(v * math.log(v) for v in gen.values())
    return f


class TestClassBigramObjective:
    def test_matches_counter_oracle(self):
        sentences = [["a", "b", "a"], ["b", "c"], ["c", "a", "b", "b"]]
        vocab = build_vocabulary(sentences)
        rng = np.random.default_rng(2)
        for _ in range(10):
            assign = rng.integers(0, 3, size=len(vocab))
            assign[:3] = [0, 1, 2]  # keep all classes occupied
            cl = WordClassing(assign, 3)
            got = class_bigram_objective(sentences, vocab, cl)
            want = _objective_oracle(sentences, vocab, cl)
            np.testing.assert_allclose(got, want, rtol=1e-12)


def _exchange_oracle(sentences, vocab, num_classes, sweeps, words=None):
    """Greedy exchange sweeps that score every candidate move by recomputing
    the whole objective with ``_objective_oracle``."""
    V = len(vocab)
    movable = sorted(words) if words is not None else list(range(V))
    gen = collections.Counter(vocab.lookup(t) for sent in sentences for t in sent)
    gen[EOS_ID] += len(sentences)
    ranked = sorted(movable, key=lambda w: (-gen[w], w))
    assign = np.empty(V, dtype=np.int64)
    assign[ranked] = np.arange(len(ranked)) % num_classes
    frozen = [w for w in range(V) if w not in movable]
    assign[frozen] = num_classes + np.arange(len(frozen))
    total = num_classes + len(frozen)

    def objective(trial):
        return _objective_oracle(sentences, vocab, WordClassing(trial, total))

    for _ in range(sweeps):
        moved = False
        for w in ranked:
            a = assign[w]
            if (assign == a).sum() == 1:
                continue
            scores = []
            for b in range(num_classes):
                trial = assign.copy()
                trial[w] = b
                scores.append(objective(trial))
            best = int(np.argmax(scores))
            if scores[best] > scores[a] + 1e-9:
                assign[w] = best
                moved = True
        if not moved:
            break
    return assign


def _random_corpus(seed):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(14)]
    weights = 1.0 / np.arange(1, 15)
    return [list(rng.choice(words, size=rng.integers(1, 8), p=weights / weights.sum()))
            for _ in range(30)]


class TestBrownClustering:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("sweeps", [1, 2])
    def test_matches_recomputing_oracle(self, seed, sweeps):
        sentences = _random_corpus(seed)
        vocab = build_vocabulary(sentences)
        subset = set(range(2, len(vocab), 2))
        for words, k in ((None, 4), (subset, 3)):
            got = brown_clustering(sentences, vocab, k, max_iterations=sweeps, words=words)
            want = _exchange_oracle(sentences, vocab, k, sweeps, words)
            np.testing.assert_array_equal(got.class_of, want)

    def test_classes_are_pinned(self):
        """sha256 of class_of as int64 bytes, recorded from the per-cell-group
        implementation: bitwise equality at a size the oracle cannot reach."""
        sentences = markov_corpus(20_000, vocab_size=2000, branching=10, seed=301)
        vocab = build_vocabulary(sentences)
        cases = [
            (45, 1, None, "b37f141a62aac2aef6de5b1f5f5931bb35eb5329712714d569cd857c897659f9"),
            (45, 2, None, "9df87543801399169c20eae2bfd7e5c1b7a1ec344c2dcdf4f6955ec8b414a18b"),
            (20, 1, set(range(3, 203)),
             "a294843fc8564bbe808d6a5d9f77a8108472f41eaa5bbdb32605b2834928efd5"),
        ]
        for k, sweeps, words, digest in cases:
            cl = brown_clustering(sentences, vocab, k, max_iterations=sweeps, words=words)
            got = hashlib.sha256(np.asarray(cl.class_of, dtype=np.int64).tobytes())
            assert got.hexdigest() == digest, (k, sweeps, words is not None)

    def test_recovers_interchangeable_pairs(self):
        sentences = template_corpus(400, seed=1)
        vocab = build_vocabulary(sentences)
        ids = {t: vocab.id_of(t) for t in "abcd"}
        cl = brown_clustering(sentences, vocab, num_classes=2,
                              words=set(ids.values()))
        assert cl.class_of[ids["a"]] == cl.class_of[ids["b"]]
        assert cl.class_of[ids["c"]] == cl.class_of[ids["d"]]
        assert cl.class_of[ids["a"]] != cl.class_of[ids["c"]]

    def test_objective_never_decreases_with_more_sweeps(self):
        sentences = template_corpus(120, seed=3)
        vocab = build_vocabulary(sentences)
        values = []
        for iters in range(5):
            cl = brown_clustering(sentences, vocab, num_classes=3,
                                  max_iterations=iters)
            values.append(class_bigram_objective(sentences, vocab, cl))
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-9

    def test_improves_on_initialization(self):
        sentences = template_corpus(200, seed=4)
        vocab = build_vocabulary(sentences)
        start = brown_clustering(sentences, vocab, 3, max_iterations=0)
        done = brown_clustering(sentences, vocab, 3, max_iterations=20)
        f0 = class_bigram_objective(sentences, vocab, start)
        f1 = class_bigram_objective(sentences, vocab, done)
        assert f1 > f0

    def test_every_class_stays_occupied(self):
        sentences = [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]]
        vocab = build_vocabulary(sentences)
        for k in (1, 2, 3):
            cl = brown_clustering(sentences, vocab, k)
            assert cl.num_classes == k
            assert len(np.unique(cl.class_of)) == k

    def test_restricted_words_stay_frozen(self):
        sentences = template_corpus(100, seed=6)
        vocab = build_vocabulary(sentences)
        movable = {vocab.id_of(t) for t in "abcd"}
        cl = brown_clustering(sentences, vocab, 2, words=movable)
        frozen = [w for w in range(len(vocab)) if w not in movable]
        # each frozen word keeps a singleton class above the exchange range
        seen = [int(cl.class_of[w]) for w in frozen]
        assert len(set(seen)) == len(seen)
        assert min(seen) >= 2
        for w in movable:
            assert cl.class_of[w] in (0, 1)

    def test_deterministic(self):
        sentences = template_corpus(150, seed=8)
        vocab = build_vocabulary(sentences)
        a = brown_clustering(sentences, vocab, 3)
        b = brown_clustering(sentences, vocab, 3)
        np.testing.assert_array_equal(a.class_of, b.class_of)

    def test_frozen_classes_cost_no_square_memory(self):
        sentences = markov_corpus(8_000, vocab_size=1_000, branching=10, seed=1)
        vocab = build_vocabulary(sentences)
        tracemalloc.start()
        try:
            cl = brown_clustering(sentences, vocab, 3, max_iterations=1,
                                  words=range(3, 33))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cl.num_classes == len(vocab) - 27
        # a dense classes x classes float64 count matrix alone is 4x this bound
        assert peak < cl.num_classes ** 2 * 8 / 4

    def test_literal_sentence_start_reads_as_unk(self):
        base = template_corpus(80, seed=9)
        marked = [s[:1] + ["<s>"] + s[1:] for s in base]
        unk = [s[:1] + ["<unk>"] + s[1:] for s in base]
        vocab, want_vocab = build_vocabulary(marked), build_vocabulary(unk)
        assert vocab.tokens == want_vocab.tokens
        np.testing.assert_array_equal(vocab.counts, want_vocab.counts)
        got = brown_clustering(marked, vocab, 3)
        want = brown_clustering(unk, want_vocab, 3)
        np.testing.assert_array_equal(got.class_of, want.class_of)
        assert class_bigram_objective(marked, vocab, got) \
            == class_bigram_objective(unk, want_vocab, want)


def _wpl(tree, counts):
    return sum(max(int(counts[w]), 1) * tree.depth(w) for w in counts)


def heap_huffman(counts):
    """Reference Huffman build on a binary heap: (left, right) of each merged
    node in creation order. Entries are (weight, node id), leaves numbered
    in ascending word-id order, so ties go to the lower node id."""
    words = sorted(counts)
    heap = [(max(int(counts[w]), 1), i) for i, w in enumerate(words)]
    heapq.heapify(heap)
    pairs, nxt = [], len(words)
    while len(heap) > 1:
        w1, n1 = heapq.heappop(heap)
        w2, n2 = heapq.heappop(heap)
        pairs.append((n1, n2))
        heapq.heappush(heap, (w1 + w2, nxt))
        nxt += 1
    return pairs


class TestHuffmanTree:
    def test_depth_example(self):
        # counts 5,2,1,1 code at depths 1,2,3,3 for a path length of 15
        tree = huffman_tree({0: 5, 1: 2, 2: 1, 3: 1})
        depths = [tree.depth(w) for w in range(4)]
        assert depths == [1, 2, 3, 3]
        assert _wpl(tree, {0: 5, 1: 2, 2: 1, 3: 1}) == 15

    def test_two_words(self):
        tree = huffman_tree({4: 10, 9: 1})
        assert tree.num_nodes == 3
        assert tree.depth(4) == 1 and tree.depth(9) == 1

    def test_uniform_eight_words_is_complete(self):
        tree = huffman_tree({w: 3 for w in range(8)})
        assert all(tree.depth(w) == 3 for w in range(8))

    def test_zero_counts_keep_their_leaves(self):
        tree = huffman_tree({0: 0, 1: 5, 2: 0})
        assert sorted(tree.words) == [0, 1, 2]
        assert all(tree.depth(w) >= 1 for w in range(3))

    def test_depth_bounded_by_leaves_minus_one(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            counts = {w: int(c) for w, c in enumerate(rng.integers(0, 30, n))}
            tree = huffman_tree(counts)
            assert max(tree.depth(w) for w in counts) <= n - 1

    def test_matches_exhaustive_optimum(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            weights = [int(w) for w in rng.integers(1, 9, n)]
            tree = huffman_tree(dict(enumerate(weights)))
            got = _wpl(tree, dict(enumerate(weights)))
            assert got == min_wpl(tuple(sorted(weights)))

    def test_node_layout_invariants(self):
        tree = huffman_tree({3: 7, 5: 1, 8: 2, 11: 4})
        # leaves first in ascending word-id order, root last
        assert list(tree.leaf_word[:4]) == [3, 5, 8, 11]
        assert tree.root == tree.num_nodes - 1
        assert tree.parent[tree.root] == -1

    def test_deterministic(self):
        counts = {w: c for w, c in enumerate([2, 2, 2, 2, 5])}
        a, b = huffman_tree(counts), huffman_tree(counts)
        for x, y in zip((a.parent, a.left, a.right, a.leaf_word),
                        (b.parent, b.left, b.right, b.leaf_word)):
            np.testing.assert_array_equal(x, y)

    def test_single_word_rejected(self):
        with pytest.raises(DataError):
            huffman_tree({0: 3})

    def test_builds_the_heap_reference_tree(self):
        """Equal node for node to a heap build, on counts with many ties,
        zero counts among them, and sparse word ids."""
        rng = np.random.default_rng(11)
        for trial in range(300):
            n = int(rng.integers(2, 60 if trial % 10 else 3000))
            ids = rng.choice(4 * n, size=n, replace=False)
            top = int(rng.choice([2, 5, 40, 10**6]))
            counts = {int(w): int(c) for w, c in zip(ids, rng.integers(0, top, n))}
            tree = huffman_tree(counts)
            got = list(zip(tree.left[n:].tolist(), tree.right[n:].tolist()))
            assert got == heap_huffman(counts)
            kids = np.array(got).ravel()
            np.testing.assert_array_equal(tree.parent[kids], np.repeat(np.arange(n, 2 * n - 1), 2))

    def test_negative_count_rejected(self):
        with pytest.raises(DataError, match="negative count for word 1"):
            huffman_tree({0: 5, 1: -3, 2: 2})


class TestVocabularyTree:
    def test_path_walks_root_to_leaf(self):
        tree = huffman_tree({0: 5, 1: 2, 2: 1, 3: 1})
        path = [int(tree.leaf_of[3])]
        while tree.parent[path[0]] >= 0:
            path.insert(0, int(tree.parent[path[0]]))
        assert path[0] == tree.root and tree.leaf_word[path[-1]] == 3
        assert len(path) - 1 == tree.depth(3) == 3
        assert tree.node_depth[path].tolist() == [0, 1, 2, 3]
        for up, node in zip(path, path[1:]):
            assert node in (tree.left[up], tree.right[up])

    def test_depths_and_leaves_walk_up_the_parent_links(self):
        rng = np.random.default_rng(176)
        for size in (2, 3, 17, 200):
            ids = rng.choice(3 * size, size=size, replace=False)
            counts = rng.integers(0, 50, size=size) ** 2  # ties and zero counts
            assert_depths_walk_up(huffman_tree(dict(zip(ids.tolist(), counts.tolist()))))
        for size in (2, 3, 40, MAX_TREE_DEPTH + 1):
            assert_depths_walk_up(VocabularyTree(*caterpillar(rng.permutation(size))))

    def test_depth_reads_the_leaf_depth(self):
        tree = VocabularyTree(*caterpillar([5, 2, 7, 3]))
        assert [tree.depth(w) for w in range(8)] == [0, 0, 3, 1, 0, 3, 0, 2]

    def test_save_load_round_trip(self, tmp_path):
        sentences = [["a", "b", "a", "c", "d", "a", "b"]]
        vocab = build_vocabulary(sentences)
        counts = {w: max(int(vocab.counts[w]), 1) for w in range(len(vocab))
                  if w != BOS_ID}
        tree = huffman_tree(counts)
        path = tmp_path / "tree.txt"
        tree.save(path, vocab)
        again = VocabularyTree.load(path, vocab)
        np.testing.assert_array_equal(again.parent, tree.parent)
        np.testing.assert_array_equal(again.left, tree.left)
        np.testing.assert_array_equal(again.right, tree.right)
        np.testing.assert_array_equal(again.leaf_word, tree.leaf_word)
        assert_depths_walk_up(again)

    def test_depth_is_bounded(self):
        deepest = VocabularyTree(*caterpillar(range(MAX_TREE_DEPTH + 1)))
        assert deepest.max_depth == MAX_TREE_DEPTH
        for leaves in (MAX_TREE_DEPTH + 2, 4 * MAX_TREE_DEPTH):  # past what depths resolve
            with pytest.raises(DataError, match=f"deeper than {MAX_TREE_DEPTH}"):
                VocabularyTree(*caterpillar(range(leaves)))

    # each change to a valid tree, (node, field, value), breaks one link rule:
    # parent 4 holds leaves 0 and 1, node 5 leaves 2 and 3, the root 6 both
    VALID = dict(parent=[4, 4, 5, 5, 6, 6, -1], left=[-1, -1, -1, -1, 0, 2, 4],
                 right=[-1, -1, -1, -1, 1, 3, 5], leaf_word=[10, 11, 12, 13, -1, -1, -1])

    @pytest.mark.parametrize("changes,message", [
        ([(6, "parent", 5)], "root must be the last node"),
        ([(4, "leaf_word", 14)], "node count mismatch"),
        ([(4, "left", 7)], "node id out of range"),
        ([(2, "parent", -2)], "the only orphan"),
        ([(0, "left", 1)], "leaves cannot have children"),
        ([(5, "right", -1)], "internal nodes need two children"),
        ([(4, "right", 0)], "two children must differ"),
        ([(1, "parent", 5)], "parent/child links disagree"),
        ([(1, "leaf_word", 10)], "word labels two leaves"),
        # nodes 4 and 5 hold each other, and the root holds leaves 1 and 2
        ([(0, "parent", 4), (1, "parent", 6), (2, "parent", 6), (3, "parent", 5),
          (4, "parent", 5), (5, "parent", 4), (4, "left", 0), (4, "right", 5),
          (5, "left", 4), (5, "right", 3), (6, "left", 1), (6, "right", 2)],
         "root does not reach"),
    ])
    def test_each_broken_link_rule_is_named(self, changes, message):
        VocabularyTree(**self.VALID)
        fields = {k: np.array(v) for k, v in self.VALID.items()}
        for node, field, value in changes:
            fields[field][node] = value
        with pytest.raises(DataError, match=message):
            VocabularyTree(**fields)

    def test_rejects_orphan_non_root(self):
        with pytest.raises(DataError):
            VocabularyTree(parent=np.array([-1, 2, -1]),
                           left=np.array([-1, -1, 0]),
                           right=np.array([-1, -1, 1]),
                           leaf_word=np.array([7, 8, -1]))

    def test_rejects_a_word_on_two_leaves(self):
        with pytest.raises(DataError, match="two leaves"):
            VocabularyTree(parent=np.array([2, 2, -1]),
                           left=np.array([-1, -1, 0]),
                           right=np.array([-1, -1, 1]),
                           leaf_word=np.array([5, 5, -1]))

    def test_rejects_even_node_count(self):
        with pytest.raises(DataError):
            VocabularyTree(parent=np.array([2, 2, -1, 2]),
                           left=np.array([-1, -1, 0, -1]),
                           right=np.array([-1, -1, 1, -1]),
                           leaf_word=np.array([0, 1, -1, 2]))
