"""Projection, scoring and the three normalization regimes."""
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    enumerate_log_probs,
    make_config,
    make_params,
    make_vocab,
    relu_project,
    zero_params,
)
from snlm import model
from snlm.corpus import BOS_ID, Vocabulary
from snlm.errors import DataError
from snlm.model import (
    MacCounter,
    ModelConfig,
    ModelParameters,
    REGIME_CLASS,
    REGIME_STANDARD,
    REGIME_TREE,
    RowPlan,
    _lse_rows,
    _scores,
    full_distribution,
    init_parameters,
    log_prob,
    log_probs_batch,
    project_batch,
    project_context,
    unnormalised_log_score,
)
from snlm.partitioning import VocabularyTree, WordClassing


def specials_only_vocab():
    # support is exactly {<unk>, </s>}: the smallest two-outcome model
    return Vocabulary.from_counts({})


class TestProjection:
    def test_matches_reference_loop(self):
        vocab = make_vocab(list("abcde"))
        for diagonal in (True, False):
            params = make_params(vocab, order=4, dim=6, diagonal=diagonal, seed=2)
            ctx = np.array([3, 0, 5])
            got = project_context(params, ctx)
            np.testing.assert_allclose(got, relu_project(params, ctx), atol=1e-12)

    @pytest.mark.parametrize("m", [1, 700])
    @pytest.mark.parametrize("diagonal", [True, False])
    def test_batch_matches_an_independent_per_position_loop(self, diagonal, m):
        """One gather of every position's rows gives what adding the positions
        one at a time, in order, gives, within 1e-6. (With diagonal transforms
        it is bitwise equal where numpy's einsum does not fuse multiply and
        add, as on x86.)"""
        vocab = make_vocab([f"w{i}" for i in range(60)])
        params = make_params(vocab, order=5, dim=24, diagonal=diagonal, seed=8,
                             scale=0.1, dtype=np.float32)
        ctx = np.random.default_rng(9).integers(0, len(vocab), size=(m, 4)).astype(np.int32)
        acc = np.zeros((m, 24), dtype=np.float32)
        for j in range(4):
            q = params.Q[ctx[:, j]]
            acc += q * params.C[j] if diagonal else q @ params.C[j].T
        want = np.maximum(acc, 0)
        P, active = project_batch(params, ctx)
        assert P.dtype == np.float32
        assert np.abs(P - want).max() <= 1e-6
        np.testing.assert_array_equal(active, P > 0)

    def test_equal_transforms_make_positions_interchangeable(self):
        vocab = make_vocab(list("abc"))
        params = make_params(vocab, order=3, dim=4, seed=1)
        params.C[1][...] = params.C[0]
        a = project_context(params, np.array([3, 4]))
        b = project_context(params, np.array([4, 3]))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_opposed_embeddings_cancel_to_zero(self):
        vocab = make_vocab(list("ab"))
        params = make_params(vocab, order=3, dim=5, seed=3)
        params.C[1][...] = params.C[0]
        params.Q[4][...] = -params.Q[3]
        p = project_context(params, np.array([3, 4]))
        np.testing.assert_array_equal(p, np.zeros(5))

    def test_output_is_nonnegative(self):
        vocab = make_vocab(list("abcdef"))
        rng = np.random.default_rng(0)
        for seed in range(5):
            params = make_params(vocab, order=3, dim=8, seed=seed)
            ctx = rng.integers(0, len(vocab), size=2)
            assert (project_context(params, ctx) >= 0).all()

    def test_diagonal_equals_full_with_diagonal_matrix(self):
        vocab = make_vocab(list("abc"))
        diag = make_params(vocab, order=3, dim=4, diagonal=True, seed=5)
        full = make_params(vocab, order=3, dim=4, diagonal=False, seed=5)
        full.Q[...] = diag.Q
        for j in range(2):
            full.C[j][...] = np.diag(diag.C[j])
        ctx = np.array([3, 5])
        np.testing.assert_allclose(project_context(diag, ctx),
                                   project_context(full, ctx), atol=1e-12)

    def test_rectifier_gradient_is_zero_at_zero(self):
        vocab = make_vocab(list("ab"))
        params = zero_params(vocab, order=3, dim=4)
        _, active = project_batch(params, np.array([[3, 4], [4, 3]]))
        assert not active.any()

    def test_mac_accounting(self):
        vocab = make_vocab(list("abc"))
        for diagonal, per in ((True, 7), (False, 49)):
            params = make_params(vocab, order=4, dim=7, diagonal=diagonal)
            macs = MacCounter()
            project_context(params, np.array([3, 4, 5]), macs)
            assert macs.projection == 3 * per
            assert macs.output == 0

    @pytest.mark.parametrize("diagonal", [True, False])
    def test_take_gather_matches_fancy_indexing_bitwise(self, diagonal):
        """``project_batch`` gathers Q's rows with ``np.take``: the bits of
        the 2-D fancy-index gather, negative ids read alike and an id past
        the table refused alike."""
        vocab = make_vocab([f"w{i}" for i in range(40)])
        V = len(vocab)
        params = make_params(vocab, order=4, dim=6, diagonal=diagonal, seed=7,
                             dtype=np.float32)
        rng = np.random.default_rng(8)
        for contexts in (rng.integers(-V, V, size=(300, 3)).astype(np.int32),
                         rng.integers(0, V, size=(5, 3)), np.zeros((0, 3), dtype=np.int32)):
            got = project_batch(params, contexts)
            want = model.project_gathered(params, params.Q[contexts])
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                np.testing.assert_array_equal(g, w)
        with pytest.raises(IndexError):
            params.Q[np.array([[0, V, 1]])]
        with pytest.raises(IndexError):
            project_batch(params, np.array([[0, V, 1]]))

    def test_wrong_context_length_rejected(self):
        vocab = make_vocab(list("ab"))
        params = make_params(vocab, order=3)
        with pytest.raises(DataError):
            project_context(params, np.array([3]))


class TestScore:
    def test_score_is_dot_plus_bias(self):
        vocab = make_vocab(list("abcd"))
        params = make_params(vocab, order=3, dim=6, seed=7)
        p = project_context(params, np.array([3, 4]))
        for w in range(len(vocab)):
            want = float(np.dot(params.R[w], p)) + float(params.b[w])
            got = unnormalised_log_score(params, np.array([3, 4]), w)
            assert abs(got - want) < 1e-12

    def test_zero_projection_leaves_bias(self):
        vocab = make_vocab(list("ab"))
        params = make_params(vocab, order=3, dim=4, seed=8)
        params.Q[...] = 0.0
        for w in range(len(vocab)):
            got = unnormalised_log_score(params, np.array([3, 4]), w)
            assert abs(got - float(params.b[w])) < 1e-12

    def test_unnormalised_mac_cost_is_one_output_row(self):
        vocab = make_vocab(list("ab"))
        params = make_params(vocab, order=3, dim=9)
        macs = MacCounter()
        unnormalised_log_score(params, np.array([3, 4]), 3, macs)
        assert macs.output == 9
        assert macs.projection == 2 * 9


class TestStandardRegime:
    def test_two_outcome_closed_form(self):
        params = make_params(specials_only_vocab(), REGIME_STANDARD,
                             order=2, dim=4, seed=11)
        ctx = np.array([2])
        p = project_context(params, ctx)
        phi_unk, phi_eos = (float(params.R[w] @ p + params.b[w]) for w in (0, 2))
        want = 1.0 / (1.0 + math.exp(phi_eos - phi_unk))
        got = math.exp(log_prob(params, ctx, 0))
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_bias_shift_leaves_distribution(self):
        vocab = make_vocab(list("abcd"))
        params = make_params(vocab, seed=13)
        ctx = np.array([3, 5])
        before = full_distribution(params, ctx)
        params.b += 7.25
        after = full_distribution(params, ctx)
        np.testing.assert_allclose(after, before, atol=1e-12)

    def test_sentence_start_is_excluded(self):
        vocab = make_vocab(list("ab"))
        params = make_params(vocab, seed=14)
        ctx = np.array([3, 4])
        assert log_prob(params, ctx, BOS_ID) == -math.inf
        assert full_distribution(params, ctx)[BOS_ID] == 0.0


class TestClassFactoredRegime:
    def test_single_class_matches_standard_bitwise(self):
        vocab = make_vocab(list("abcde"))
        std = make_params(vocab, REGIME_STANDARD, order=3, dim=5, seed=21)
        cls = make_params(vocab, REGIME_CLASS, order=3, dim=5, seed=21,
                          class_of=np.zeros(len(vocab), dtype=int))
        for arr, src in zip((cls.Q, cls.R, cls.b), (std.Q, std.R, std.b)):
            arr[...] = src
        for j in range(2):
            cls.C[j][...] = std.C[j]
        ctx = np.array([4, 7])
        for w in range(len(vocab)):
            if w == BOS_ID:
                continue
            assert log_prob(cls, ctx, w) == log_prob(std, ctx, w)

    def test_singleton_class_costs_only_the_class_term(self):
        vocab = make_vocab(list("abc"))
        # word "a" (id 3) sits alone; its within-class factor is exactly 1
        params = make_params(vocab, REGIME_CLASS, seed=22,
                             class_of=[0, 0, 0, 1, 0, 0])
        ctx = np.array([4, 5])
        p = project_context(params, ctx)
        psi = params.S @ p + params.t
        want = float(psi[1] - np.logaddexp(psi[0], psi[1]))
        np.testing.assert_allclose(log_prob(params, ctx, 3), want, rtol=1e-12)

    def test_dead_class_gets_no_mass(self):
        vocab = make_vocab(list("ab"))
        # class 2 holds only <s>, which is never predicted
        params = make_params(vocab, REGIME_CLASS, seed=23,
                             class_of=[0, 2, 1, 0, 1])
        dist = full_distribution(params, np.array([3, 4]))
        assert abs(dist.sum() - 1.0) < 1e-12
        assert dist[BOS_ID] == 0.0

    def test_layout_matches_the_per_class_construction(self):
        """members_eff, class_sizes and pos_in_class, built from one sort,
        equal what a loop over each class's sorted members gives."""
        rng = np.random.default_rng(24)
        for trial in range(30):
            V = int(rng.integers(3, 60))
            K = int(rng.integers(1, V + 1))
            class_of = np.concatenate([rng.permutation(K),
                                       rng.integers(0, K, V - K)])
            rng.shuffle(class_of)
            cfg = ModelConfig(order=2, dim=2, regime=REGIME_CLASS, vocab_size=V,
                              classing=WordClassing(class_of, K))
            layer = cfg.layout()
            members = [np.flatnonzero(class_of == c) for c in range(K)]
            want = [m[m != BOS_ID] for m in members]
            assert [m.tolist() for m in cfg.classing.members] == \
                [m.tolist() for m in members]
            assert [m.tolist() for m in layer.members_eff] == [m.tolist() for m in want]
            assert all(m.dtype == np.int64 for m in layer.members_eff)
            np.testing.assert_array_equal(layer.class_sizes, [len(m) for m in want])
            pos = np.full(V, -1)
            for m in want:
                pos[m] = np.arange(len(m))
            np.testing.assert_array_equal(layer.pos_in_class, pos)

    @pytest.mark.parametrize("K", [134, 300, 70_000])
    def test_unordered_classing_sorts_like_an_id_keyed_sort(self, K):
        """An unordered classing, of 8-, 16- and 32-bit class ids, gives the
        members of an argsort keyed by class and then word id."""
        rng = np.random.default_rng(K)
        V = max(3 * K, 17_745)
        class_of = np.concatenate([np.arange(K), rng.integers(0, K, V - K)])
        rng.shuffle(class_of)
        cfg = ModelConfig(order=2, dim=2, regime=REGIME_CLASS, vocab_size=V,
                          classing=WordClassing(class_of, K))
        order = np.lexsort((np.arange(V), class_of))
        order = order[order != BOS_ID]
        want = np.split(order, np.searchsorted(class_of[order], np.arange(1, K)))
        got = cfg.layout().members_eff
        assert len(got) == K
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @staticmethod
    def random_classing(rng, V):
        """Class 0 holds only <s>, classes 1 and 2 one word each, and every
        other word falls in one of classes 3..K-1, each used."""
        K = int(rng.integers(4, V))
        rest = np.flatnonzero(np.arange(V) != BOS_ID)
        rng.shuffle(rest)
        class_of = np.zeros(V, dtype=np.int64)
        class_of[rest[:2]] = [1, 2]
        dealt = np.concatenate([np.arange(3, K), rng.integers(3, K, len(rest) - K + 1)])
        class_of[rest[2:]] = dealt
        return class_of

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_log_probs_match_the_per_class_distribution(self, dtype, tol):
        """The flat word pass against ``distribution``'s per-class softmaxes,
        in unsorted batches and batches of one, with single-member classes
        and an <s>-only class."""
        rng = np.random.default_rng(25)
        for trial in range(24):
            V = int(rng.integers(8, 70))
            vocab = make_vocab([f"w{i}" for i in range(V - 3)])
            class_of = self.random_classing(rng, V)
            params = make_params(vocab, REGIME_CLASS, dim=6, seed=26 + trial,
                                 dtype=dtype, class_of=class_of)
            layer = params.config.layout()
            assert 1 in layer.class_sizes and 0 in layer.class_sizes
            m = 1 if trial % 4 == 0 else int(rng.integers(2, 40))
            contexts = rng.integers(0, V, size=(m, 2))
            targets = rng.choice(layer.support, size=m)
            P, _ = project_batch(params, contexts)
            want = np.log(layer.distribution(params, P)[np.arange(m), targets])
            got = layer.log_probs(params, P, targets, np.arange(m))
            assert got.dtype == np.float64
            np.testing.assert_allclose(got, want, rtol=0, atol=tol)

    def test_backward_reads_only_classes_of_several_words(self):
        """``backward`` gives R rows for the members of the target classes
        that hold more than one word, and the log-likelihood that
        ``log_probs`` sums to."""
        rng = np.random.default_rng(27)
        vocab = make_vocab([f"w{i}" for i in range(30)])
        class_of = self.random_classing(rng, len(vocab))
        params = make_params(vocab, REGIME_CLASS, dim=6, seed=28, class_of=class_of)
        layer = params.config.layout()
        contexts = rng.integers(0, len(vocab), size=(25, 2))
        targets = rng.choice(layer.support, size=25)
        targets[:2] = np.flatnonzero(np.isin(class_of, [1, 2]))
        P, _ = project_batch(params, contexts)
        loglik, gP, grads = layer.backward(params, P, targets)
        classes = [c for c in np.unique(class_of[targets]) if layer.class_sizes[c] > 1]
        want = np.concatenate([layer.members_eff[c] for c in classes])
        assert sorted(grads["R"].rows.tolist()) == sorted(want.tolist())
        assert gP.shape == P.shape
        logp = layer.log_probs(params, P, targets, np.arange(len(P)))
        np.testing.assert_allclose(loglik, logp.sum(), rtol=1e-12)


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_member_runs_are_slices_with_equal_bits(self, dtype):
        """A class whose members are one run of ids keeps them as a slice,
        so that its rows of R and b are views; ``log_probs``, ``backward``
        and ``distribution`` give the bits that index arrays give."""
        vocab = make_vocab([f"w{i}" for i in range(40)])
        V = len(vocab)
        class_of = np.repeat(np.arange(6), [5, 9, 1, 8, 12, V - 35])  # <s> in class 0
        class_of[[10, 30]] = class_of[[30, 10]]  # classes 1 and 4 are no run
        params = make_params(vocab, REGIME_CLASS, dim=6, seed=29, dtype=dtype,
                             class_of=class_of)
        layer = params.config.layout()
        assert ([isinstance(r, slice) for r in layer.member_rows]
                == [False, False, True, True, False, True])
        for rows, mem in zip(layer.member_rows, layer.members_eff):
            np.testing.assert_array_equal(np.arange(V)[rows], mem)
        rng = np.random.default_rng(30)
        P, _ = project_batch(params, rng.integers(0, V, size=(60, 2)))
        targets = rng.choice(layer.support, size=60)

        def passes():
            loglik, gP, grads = layer.backward(params, P, targets)
            return ([layer.log_probs(params, P, targets, np.arange(60)),
                     layer.distribution(params, P),
                     np.float64(loglik), gP]
                    + [a for g in grads.values() for a in (g.rows, g.values, g.bias)])

        got = passes()
        layer.member_rows = list(layer.members_eff)
        want = passes()
        assert len(got) == len(want) == 10
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)


class TestTreeFactoredRegime:
    def test_two_leaf_closed_form(self):
        params = make_params(specials_only_vocab(), REGIME_TREE,
                             order=2, dim=3, seed=31)
        params.S[...] = 0.0
        params.t[...] = [math.log(3.0), math.log(1.0)]
        dist = full_distribution(params, np.array([2]))
        np.testing.assert_allclose(dist, [0.75, 0.0, 0.25], atol=1e-12)

    def test_mirrored_tree_keeps_distribution(self):
        """Swapping every node's children, and moving its vector, negated,
        to its new left child, keeps the distribution bitwise."""
        vocab = make_vocab(list("abcd"), counts=[8, 4, 2, 1])
        params = make_params(vocab, REGIME_TREE, seed=32)
        tree = params.config.tree
        mirrored = VocabularyTree(tree.parent.copy(), tree.right.copy(),
                                  tree.left.copy(), tree.leaf_word.copy())
        cfg = ModelConfig(order=3, dim=params.config.dim, regime=REGIME_TREE,
                          diagonal=True, vocab_size=len(vocab), tree=mirrored)
        flipped = init_parameters(cfg, seed=0, dtype=np.float64)
        for (_, dst), (_, src) in zip(flipped.arrays(), params.arrays()):
            dst[...] = src
        inner = tree.leaf_word < 0
        left, right = tree.left[inner], tree.right[inner]
        flipped.S[right], flipped.t[right] = -params.S[left], -params.t[left]
        flipped.S[left], flipped.t[left] = 0.0, 0.0
        ctx = np.array([5, 3])
        np.testing.assert_array_equal(full_distribution(flipped, ctx),
                                      full_distribution(params, ctx))

    def test_two_level_tree_equals_class_factored(self):
        vocab = make_vocab(["a", "b"], counts=[2, 1])
        cls = make_params(vocab, REGIME_CLASS, order=3, dim=4, seed=33,
                          class_of=[0, 0, 1, 0, 1])
        tree = VocabularyTree(
            parent=np.array([4, 5, 4, 5, 6, 6, -1]),
            left=np.array([-1, -1, -1, -1, 0, 1, 4]),
            right=np.array([-1, -1, -1, -1, 2, 3, 5]),
            leaf_word=np.array([0, 2, 3, 4, -1, -1, -1]))
        cfg = ModelConfig(order=3, dim=4, regime=REGIME_TREE, diagonal=True,
                          vocab_size=len(vocab), tree=tree)
        trp = init_parameters(cfg, seed=0, dtype=np.float64)
        trp.Q[...] = cls.Q
        for j in range(2):
            trp.C[j][...] = cls.C[j]
        # each node's vector, in its left child's row, is the difference of
        # the two sides' class model rows; the right children's rows stay 0
        trp.S[...], trp.t[...] = 0.0, 0.0
        trp.S[0], trp.t[0] = cls.R[0] - cls.R[3], cls.b[0] - cls.b[3]  # leaves 0 | 2
        trp.S[1], trp.t[1] = cls.R[2] - cls.R[4], cls.b[2] - cls.b[4]  # leaves 1 | 3
        trp.S[4], trp.t[4] = cls.S[0] - cls.S[1], cls.t[0] - cls.t[1]  # classes 0 | 1
        ctx = np.array([3, 4])
        np.testing.assert_allclose(full_distribution(trp, ctx),
                                   full_distribution(cls, ctx), atol=1e-12)


class TestFullDistribution:
    def test_zero_parameters_are_uniform_over_support(self):
        vocab = make_vocab(["a"])
        params = zero_params(vocab, REGIME_STANDARD)
        dist = full_distribution(params, np.array([3, 3]))
        np.testing.assert_allclose(dist, [1 / 3, 0.0, 1 / 3, 1 / 3], atol=1e-15)

    def test_sums_to_one_across_regimes(self):
        vocab = make_vocab(list("abcdefg"), counts=[13, 8, 5, 3, 2, 1, 1])
        rng = np.random.default_rng(40)
        for regime in (REGIME_STANDARD, REGIME_CLASS, REGIME_TREE):
            for seed in range(3):
                params = make_params(vocab, regime, order=3, dim=6, seed=seed,
                                     num_classes=3)
                ctx = rng.integers(0, len(vocab), size=2)
                dist = full_distribution(params, ctx)
                assert abs(dist.sum() - 1.0) < 1e-12
                assert (dist >= 0).all()
                assert dist[BOS_ID] == 0.0

    def test_matches_plain_python_enumeration(self):
        vocab = make_vocab(list("abcde"), counts=[9, 6, 4, 2, 1])
        rng = np.random.default_rng(41)
        for regime in (REGIME_STANDARD, REGIME_CLASS, REGIME_TREE):
            params = make_params(vocab, regime, order=3, dim=5, seed=42,
                                 num_classes=3)
            for _ in range(3):
                ctx = rng.integers(0, len(vocab), size=2)
                want = enumerate_log_probs(params, ctx)
                got = full_distribution(params, ctx)
                np.testing.assert_allclose(got, want, atol=1e-12)

    def test_log_prob_agrees_with_distribution(self):
        vocab = make_vocab(list("abcd"), counts=[5, 3, 2, 1])
        for regime in (REGIME_STANDARD, REGIME_CLASS, REGIME_TREE):
            params = make_params(vocab, regime, seed=43)
            ctx = np.array([3, 6])
            dist = full_distribution(params, ctx)
            for w in range(len(vocab)):
                if w == BOS_ID:
                    continue
                np.testing.assert_allclose(math.exp(log_prob(params, ctx, w)),
                                           dist[w], rtol=1e-10)


class TestBatchLogProbs:
    def test_matches_single_queries(self):
        vocab = make_vocab(list("abcdef"), counts=[9, 7, 4, 3, 2, 1])
        rng = np.random.default_rng(50)
        contexts = rng.integers(0, len(vocab), size=(12, 2)).astype(np.int32)
        targets = rng.choice([0, 2, 3, 4, 5, 6, 7, 8], size=12).astype(np.int32)
        for regime in (REGIME_STANDARD, REGIME_CLASS, REGIME_TREE):
            params = make_params(vocab, regime, seed=51, num_classes=3)
            got = log_probs_batch(params, contexts, targets)
            assert got.dtype == np.float64
            want = [log_prob(params, contexts[i], int(targets[i]))
                    for i in range(12)]
            np.testing.assert_allclose(got, want, rtol=1e-10)

    @staticmethod
    def mixed_classes(vocab):
        """<s> alone in class 0, the next four words alone in classes 1-4,
        the rest dealt over classes 5-7."""
        class_of = np.zeros(len(vocab), dtype=int)
        others = [w for w in range(len(vocab)) if w != BOS_ID]
        for pos, w in enumerate(others):
            class_of[w] = 1 + pos if pos < 4 else 5 + pos % 3
        return class_of

    @staticmethod
    def every_target(vocab, seed, reps=5):
        """(contexts, targets): each word but <s> as a target ``reps`` times."""
        rng = np.random.default_rng(seed)
        support = np.array([w for w in range(len(vocab)) if w != BOS_ID])
        targets = np.tile(support, reps)
        return rng.integers(0, len(vocab), size=(len(targets), 2)).astype(np.int32), targets

    @pytest.mark.parametrize("regime", [REGIME_STANDARD, REGIME_CLASS])
    def test_float32_scores_match_the_float64_parameters(self, regime):
        vocab = make_vocab([f"w{i}" for i in range(40)])
        params = make_params(vocab, regime, dim=16, seed=53, dtype=np.float32,
                             class_of=self.mixed_classes(vocab))
        ctx, tgt = self.every_target(vocab, seed=53)
        got = log_probs_batch(params, ctx, tgt)
        want = log_probs_batch(params.astype(np.float64), ctx, tgt)
        assert got.dtype == np.float64 and np.isfinite(got).all()
        assert np.abs(got - want).max() <= 2e-6

    @pytest.mark.parametrize("regime", [REGIME_STANDARD, REGIME_CLASS])
    def test_float64_scores_match_a_softmax_reference(self, regime):
        vocab = make_vocab([f"w{i}" for i in range(40)])
        params = make_params(vocab, regime, dim=16, seed=54,
                             class_of=self.mixed_classes(vocab))
        ctx, tgt = self.every_target(vocab, seed=54)
        P, _ = project_batch(params, ctx)
        at = np.arange(len(tgt))
        if regime == REGIME_STANDARD:
            scores = _scores(P, params.R, params.b)
            scores[:, BOS_ID] = -np.inf
            want = scores[at, tgt] - _lse_rows(scores)
        else:
            layer = params.config.layout()
            psi = _scores(P, params.S, params.t)
            psi[:, ~layer.class_valid] = -np.inf
            want = psi[at, layer.class_of[tgt]] - _lse_rows(psi)
            for i, w in enumerate(tgt):
                mem = layer.members_eff[layer.class_of[w]]
                word = _scores(P[i:i + 1], params.R[mem], params.b[mem])
                want[i] += word[0, layer.pos_in_class[w]] - _lse_rows(word)[0]
        np.testing.assert_allclose(log_probs_batch(params, ctx, tgt), want,
                                   rtol=0, atol=1e-12)

    def test_sentence_start_target_is_impossible(self):
        vocab = make_vocab(list("ab"))
        params = make_params(vocab, seed=52)
        got = log_probs_batch(params, np.array([[3, 4]], dtype=np.int32),
                              np.array([BOS_ID], dtype=np.int32))
        assert got[0] == -math.inf


class TestStandardBlocks:
    """Standard scoring in column blocks of R, combined by the online
    normaliser, against the one-pass float64 ``distribution``."""

    @staticmethod
    def blocked(monkeypatch, params, words):
        """Make the layer score in blocks of ``words`` columns."""
        itemsize = params.dtype.itemsize
        monkeypatch.setattr(model, "_STANDARD_BLOCK_BYTES", words * itemsize * params.config.dim)
        assert params.config.layout().block_words(itemsize) == words

    @staticmethod
    def check(params, contexts, targets, tol):
        got = log_probs_batch(params, contexts, targets)
        P, _ = project_batch(params, contexts)
        dist = params.config.layout().distribution(params, P)
        want = np.log(dist[np.arange(len(targets)), targets])
        assert got.dtype == np.float64
        assert np.abs(got - want).max() <= tol

    @pytest.mark.parametrize("words", [2, 3, 7])
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    def test_few_word_blocks_match_the_distribution(self, monkeypatch, words, dtype, tol):
        vocab = make_vocab([f"w{i}" for i in range(20)])
        params = make_params(vocab, dim=6, seed=80, dtype=dtype)
        self.blocked(monkeypatch, params, words)
        ctx, tgt = TestBatchLogProbs.every_target(vocab, seed=80, reps=3)
        self.check(params, ctx, tgt, tol)
        for i in range(0, len(tgt), 5):  # batches of one
            self.check(params, ctx[i:i + 1], tgt[i:i + 1], tol)

    @pytest.mark.parametrize("first", [60.0, -60.0])
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12),
                                           (np.float32, 2 * np.spacing(np.float32(60)))])
    def test_block_maxima_far_apart(self, monkeypatch, first, dtype, tol):
        """Biases of +-60 alternate block by block, so neighbouring block
        maxima differ by more than 88 nats, past where a float32 ``exp``
        underflows; the blocks are combined in float64. In float32 the
        reference's own scores are rounded at that magnitude, hence two
        float32 spacings at 60 as the bound."""
        vocab = make_vocab([f"w{i}" for i in range(21)])
        params = make_params(vocab, dim=6, seed=81, dtype=dtype)
        self.blocked(monkeypatch, params, 4)
        params.b += np.where(np.arange(len(vocab)) // 4 % 2, -first, first).astype(dtype)
        ctx, tgt = TestBatchLogProbs.every_target(vocab, seed=81, reps=2)
        P, _ = project_batch(params, ctx)
        scores = _scores(P, params.R, params.b)
        scores[:, BOS_ID] = -np.inf
        maxima = [scores[:, lo:lo + 4].max(axis=1) for lo in range(0, len(vocab), 4)]
        assert (np.abs(np.diff(maxima, axis=0)) > 88).all()
        self.check(params, ctx, tgt, tol)
        self.check(params, ctx[:1], tgt[:1], tol)

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    def test_vocabulary_smaller_than_one_block(self, dtype, tol):
        vocab = make_vocab(list("abcdef"))
        params = make_params(vocab, dim=6, seed=82, dtype=dtype)
        layer = params.config.layout()
        assert model._STANDARD_BLOCK_BYTES // (dtype().itemsize * 6) > len(vocab)
        assert layer.block_words(dtype().itemsize) == len(vocab)
        ctx, tgt = TestBatchLogProbs.every_target(vocab, seed=82)
        self.check(params, ctx, tgt, tol)
        self.check(params, ctx[:1], tgt[:1], tol)

    def test_block_width_and_row_bytes(self, monkeypatch):
        """A block covers ``_STANDARD_BLOCK_BYTES`` of R, at least two words
        and at most the vocabulary; a query's row bytes are one block's row."""
        vocab = make_vocab([f"w{i}" for i in range(12_000)])
        layer = make_config(vocab, dim=100).layout()
        assert layer.block_words() == 6_144 and layer.row_bytes() == 4 * 6_144
        assert layer.block_words(8) == 3_072 and layer.row_bytes(8) == 8 * 3_072
        monkeypatch.setattr(model, "_STANDARD_BLOCK_BYTES", 1)
        assert layer.block_words() == 2 and layer.row_bytes() == 8


class TestTreeWalk:
    """``TreeLayer.log_probs`` walks each path from its leaf to the root, in
    depth order and in row slabs."""

    @staticmethod
    def queries(seed):
        vocab = make_vocab(list("abcdefgh"), counts=[128, 64, 32, 16, 8, 4, 2, 1])
        params = make_params(vocab, REGIME_TREE, order=3, dim=4, seed=seed)
        rng = np.random.default_rng(seed + 1)
        support = params.config.layout().support
        words = rng.choice(support, size=60)
        contexts = rng.integers(0, len(vocab), size=(len(words), 2))
        return params, contexts, words

    def test_slabs_match_one_slab_and_enumeration(self, monkeypatch):
        params, contexts, words = self.queries(72)
        tree, D = params.config.tree, params.config.dim
        assert len({tree.depth(w) for w in words}) >= 6
        one_macs = MacCounter()
        one = log_probs_batch(params, contexts, words, one_macs)
        want = [math.log(enumerate_log_probs(params, c)[w]) for c, w in zip(contexts, words)]
        np.testing.assert_allclose(one, want, rtol=1e-10)
        assert one_macs.output == D * sum(tree.depth(w) for w in words)
        for rows in (1, 7):  # 60 queries in 60 and in 9 slabs
            monkeypatch.setattr(model, "_SLAB_BYTES", rows * params.dtype.itemsize * D)
            macs = MacCounter()
            np.testing.assert_array_equal(log_probs_batch(params, contexts, words, macs), one)
            assert macs == one_macs

    @pytest.mark.parametrize("diagonal", [True, False])
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-10), (np.float32, 2e-6)])
    def test_walk_distribution_and_enumeration_agree_at_mixed_depths(self, dtype, tol,
                                                                     diagonal):
        """Skewed counts put the leaves at many depths. The walk up from the
        leaves, ``distribution``'s pass down from the root and the
        plain-Python enumeration give every query the same log-prob."""
        vocab = make_vocab(list("abcdefg"), counts=[64, 32, 16, 8, 4, 2, 1])
        params = make_params(vocab, REGIME_TREE, order=3, dim=4, diagonal=diagonal,
                             seed=71, dtype=dtype)
        tree = params.config.tree
        rng = np.random.default_rng(70)
        words = rng.permutation([w for w in range(len(vocab)) if w != BOS_ID] * 2)
        assert len({tree.depth(w) for w in words}) >= 5
        assert min(tree.depth(w) for w in words) < tree.max_depth
        contexts = rng.integers(0, len(vocab), size=(len(words), 2))
        got = log_probs_batch(params, contexts, words)
        dist = params.config.layout().distribution(params, project_batch(params, contexts)[0])
        np.testing.assert_allclose(got, np.log(dist[np.arange(len(words)), words]),
                                   rtol=0, atol=tol)
        want = [math.log(enumerate_log_probs(params, c)[w]) for c, w in zip(contexts, words)]
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)

    def test_backward_in_blocks_matches_one_block(self, monkeypatch):
        """``backward`` reads and writes only the rows of the vectors of the
        nodes on the targets' paths, none of them a right child's, and holds
        them as read; over blocks of 1 and 7 queries, whose row sums are then
        added up, it gives one block's gradient."""
        params, contexts, words = self.queries(74)
        layer, tree = params.config.layout(), params.config.tree
        paths = set()
        for w in words.tolist():  # each node's vector is in its left child's row
            node = int(tree.leaf_of[w])
            while node != tree.root:
                node = int(tree.parent[node])
                paths.add(int(tree.left[node]))
        P = project_batch(params, contexts)[0]
        loglik, gP, grads = layer.backward(params, P, words)
        one = grads["S"]
        np.testing.assert_array_equal(one.rows, sorted(paths))
        assert not np.isin(one.rows, layer.unused_rows).any()
        for block in (None, 1, 7):  # 60 queries in 1, 60 and 9 blocks
            if block:
                monkeypatch.setattr(model, "_TREE_BLOCK", block)
            got_loglik, got_gP, got = layer.backward(params, P, words)
            np.testing.assert_array_equal(got["S"].held[0], params.S[one.rows])
            np.testing.assert_array_equal(got["S"].held[1], params.t[one.rows])
            np.testing.assert_allclose(got_loglik, loglik, rtol=1e-12)
            np.testing.assert_allclose(got_gP, gP, rtol=1e-12, atol=1e-15)
            np.testing.assert_array_equal(got["S"].rows, one.rows)
            np.testing.assert_allclose(got["S"].values, one.values, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(got["S"].bias, one.bias, rtol=1e-12, atol=1e-15)

    def test_batch_of_one(self):
        params, contexts, words = self.queries(73)
        D = params.config.dim
        for c, w in zip(contexts[:8], words[:8]):
            macs = MacCounter()
            got = log_probs_batch(params, c[None], np.array([w]), macs)
            assert got.shape == (1,)
            np.testing.assert_allclose(got[0], math.log(enumerate_log_probs(params, c)[w]),
                                       rtol=1e-10)
            assert macs.output == D * params.config.tree.depth(w)


class TestOutputMacCosts:
    def test_per_regime_costs(self):
        vocab = make_vocab(list("abcdefg"), counts=[13, 8, 5, 3, 2, 1, 1])
        D = 6
        ctx = np.array([3, 4])

        std = make_params(vocab, REGIME_STANDARD, dim=D, seed=60)
        macs = MacCounter()
        log_prob(std, ctx, 3, macs)
        assert macs.output == 9 * D  # support = 10 words minus <s>

        cls = make_params(vocab, REGIME_CLASS, dim=D, seed=60, num_classes=3)
        macs = MacCounter()
        w = 3
        log_prob(cls, ctx, w, macs)
        layout = cls.config.layout()
        c = int(cls.config.classing.class_of[w])
        assert macs.output == (3 + len(layout.members_eff[c])) * D

        tre = make_params(vocab, REGIME_TREE, dim=D, seed=60)
        macs = MacCounter()
        log_prob(tre, ctx, w, macs)
        assert macs.output == tre.config.tree.depth(w) * D

    def test_normalization_cost_ordering(self):
        # big-vocabulary ranking: unnormalised < tree < class < standard
        vocab = make_vocab([f"w{i:03d}" for i in range(120)],
                           counts=[120 - i for i in range(120)])
        D = 8
        ctx = np.array([3, 4])
        costs = {}
        for regime in (REGIME_STANDARD, REGIME_CLASS, REGIME_TREE):
            params = make_params(vocab, regime, dim=D, seed=61,
                                 num_classes=11)
            macs = MacCounter()
            log_prob(params, ctx, 10, macs)
            costs[regime] = macs.output
        macs = MacCounter()
        params = make_params(vocab, REGIME_STANDARD, dim=D, seed=61)
        unnormalised_log_score(params, ctx, 10, macs)
        costs["unnormalised"] = macs.output
        assert (costs["unnormalised"] < costs[REGIME_TREE]
                < costs[REGIME_CLASS] < costs[REGIME_STANDARD])


class TestRowGrad:
    def test_segment_sum_equals_one_reduceat_over_all_groups(self):
        """A gradient's rows are summed by ``RowPlan.sum``, bitwise one
        ``reduceat`` over each row's entries in input order."""
        rng = np.random.default_rng(190)
        for trial in range(40):
            m = int(rng.integers(1, 300))
            rows = rng.integers(0, int(rng.integers(1, 2 * m + 2)), size=m)
            values = rng.normal(size=(m, 7)).astype(np.float32)
            bias = rng.normal(size=m).astype(np.float32)
            order = np.argsort(rows, kind="stable")
            ids, starts = np.unique(rows[order], return_index=True)
            plan = RowPlan(rows)
            np.testing.assert_array_equal(plan.rows, ids)
            np.testing.assert_array_equal(plan.first, order[starts])
            got = plan.sum(values)
            assert got.dtype == np.float32
            assert np.array_equal(got, np.add.reduceat(values[order], starts, axis=0))
            assert np.array_equal(plan.sum(bias), np.add.reduceat(bias[order], starts))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weighted_rows_match_the_float64_products(self, dtype):
        """A dense weight block's rows are ``W.T @ P`` with bias ``W.sum(0)``,
        and its pull on P is ``W @ rows``: against those products in float64,
        in P's dtype, holding the rows it was given."""
        rng = np.random.default_rng(191)
        W, P = rng.normal(size=(50, 9)).astype(dtype), rng.normal(size=(50, 6)).astype(dtype)
        held = rng.normal(size=(9, 6)).astype(dtype), rng.normal(size=9).astype(dtype)
        rows = rng.permutation(20)[:9]
        g, pull = model._weighted_rows(W, P, rows, held)
        assert g.rows is rows and g.held is held
        W64 = W.astype(np.float64)
        for got, want in ((g.values, W64.T @ P), (g.bias, W64.sum(axis=0)),
                          (pull, W64 @ held[0])):
            assert got.dtype == dtype
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5 * np.abs(want).max())

    def test_weighted_rows_sum_float64_weights_before_the_cast(self):
        """float64 weights against float32 rows, as the class-NCE block has
        them: the bias is bitwise the float64 column sums, cast."""
        rng = np.random.default_rng(192)
        W = rng.normal(size=(200, 7))
        P = rng.normal(size=(200, 5)).astype(np.float32)
        held = rng.normal(size=(7, 5)).astype(np.float32), np.zeros(7, np.float32)
        g, pull = model._weighted_rows(W, P, np.arange(7), held)
        assert g.bias.tobytes() == W.sum(axis=0).astype(np.float32).tobytes()
        assert g.values.dtype == pull.dtype == np.float32


class TestDistinctRows:
    """``_distinct_rows``, by which ``log_probs_batch`` projects each
    distinct context once, against ``np.unique(axis=0)``."""

    @staticmethod
    def assert_matches_unique(a):
        rows, inverse = model._distinct_rows(a)
        want_rows, want_inverse = np.unique(a, axis=0, return_inverse=True)
        np.testing.assert_array_equal(rows, want_rows)
        np.testing.assert_array_equal(inverse, want_inverse.reshape(-1))
        np.testing.assert_array_equal(rows[inverse], a)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_rows_match_np_unique(self, seed):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(2, 400)), int(rng.integers(1, 6)))
        high = int(rng.choice([2, 5, 1 << 20]))
        self.assert_matches_unique(
            rng.integers(-high, high, size=shape).astype(np.int32))

    def test_edge_cases_match_np_unique(self):
        rng = np.random.default_rng(180)
        self.assert_matches_unique(np.zeros((0, 4), dtype=np.int32))
        self.assert_matches_unique(np.array([[3, -1, 7]], dtype=np.int32))
        self.assert_matches_unique(np.full((25, 3), 9, dtype=np.int32))
        distinct = rng.permutation(np.arange(60, dtype=np.int32)).reshape(20, 3)
        self.assert_matches_unique(distinct)
        assert len(model._distinct_rows(distinct)[0]) == 20

    def test_packing_limits_match_np_unique(self):
        """Ids at both ends of int32 take 32 bits, a key to each column; ids
        of 21 bits fill a key with three columns; 1 and 8 columns, no rows,
        and every row equal."""
        rng = np.random.default_rng(183)
        info = np.iinfo(np.int32)
        ends = np.array([info.min, info.min + 1, -1, 0, 1, info.max - 1, info.max],
                        dtype=np.int32)
        for cols in (1, 8):
            for a in (rng.choice(ends, size=(40, cols)),
                      rng.integers(0, 1 << 21, size=(40, cols)).astype(np.int32),
                      rng.integers(0, 17_680, size=(40, cols)).astype(np.int32)):
                self.assert_matches_unique(a[rng.integers(0, 40, size=300)])
            self.assert_matches_unique(np.zeros((0, cols), dtype=np.int32))
            for value in (info.min, 0, info.max):
                self.assert_matches_unique(np.full((30, cols), value, dtype=np.int32))


class TestLogSumExp:
    def test_row_slabs_are_bitwise_one_pass_without_a_copy(self, monkeypatch):
        """A (64, 17,745) float32 block, with a -inf column and a row of -inf,
        in slabs of about ``_SLAB_BYTES`` against one pass over every row: the
        same bits, and a traced peak under half the block, where one pass
        makes a second block of differences."""
        rng = np.random.default_rng(193)
        X = rng.normal(0.0, 4.0, (64, 17_745)).astype(np.float32)
        X[:, BOS_ID] = -np.inf
        X[5] = -np.inf
        before = X.copy()
        tracemalloc.start()
        try:
            with np.errstate(divide="ignore"):  # the row of -inf takes log(0)
                got = _lse_rows(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert X.tobytes() == before.tobytes()
        monkeypatch.setattr(model, "_SLAB_BYTES", X.nbytes)
        with np.errstate(divide="ignore"):
            want = _lse_rows(X)
        assert got.dtype == np.float64 and got[5] == -np.inf
        assert got.tobytes() == want.tobytes()
        assert peak < X.nbytes / 2


class TestInitParameters:
    def test_initial_model_reproduces_target_unigram(self):
        vocab = make_vocab(list("abcd"), counts=[8, 4, 2, 1])
        probs = np.zeros(len(vocab))
        probs[2:] = np.array([1, 8, 4, 2, 1], dtype=float) / 16.0
        for regime in (REGIME_STANDARD, REGIME_CLASS, REGIME_TREE):
            cfg = make_config(vocab, regime, order=3, dim=4, num_classes=2)
            params = init_parameters(cfg, seed=0, unigram=probs, dtype=np.float64)
            params.Q[...] = 0.0  # kill the random context signal
            dist = full_distribution(params, np.array([3, 4]))
            np.testing.assert_allclose(dist, probs, atol=1e-7)

    def test_context_transforms_average_the_positions(self):
        vocab = make_vocab(list("ab"))
        cfg = make_config(vocab, REGIME_STANDARD, order=5, dim=3)
        params = init_parameters(cfg, seed=1)
        for j in range(4):
            np.testing.assert_allclose(params.C[j], 0.25, atol=1e-7)

    def test_same_seed_same_draw(self):
        vocab = make_vocab(list("abc"))
        cfg = make_config(vocab, REGIME_STANDARD)
        a = init_parameters(cfg, seed=9)
        b = init_parameters(cfg, seed=9)
        for (_, x), (_, y) in zip(a.arrays(), b.arrays()):
            np.testing.assert_array_equal(x, y)

    def test_default_storage_is_float32(self):
        vocab = make_vocab(list("ab"))
        params = init_parameters(make_config(vocab), seed=0)
        assert all(a.dtype == np.float32 for _, a in params.arrays())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("diagonal", [True, False])
    @pytest.mark.parametrize("regime", [REGIME_STANDARD, REGIME_CLASS, REGIME_TREE])
    def test_draws_bitwise_as_one_normal_draw_per_table(self, monkeypatch, regime,
                                                        diagonal, dtype):
        """Blocks of 4 rows, of which 11 rows of Q and R and 18 of a tree's S
        are no multiple, against one ``rng.normal(0.0, 0.1, shape)`` per table
        cast to the dtype, in the order Q, R, S, with S's unused rows zeroed
        after the whole draw; the other arrays as their formulas give them."""
        vocab = make_vocab([f"w{i}" for i in range(8)])
        cfg = make_config(vocab, regime, order=4, dim=5, diagonal=diagonal, num_classes=3)
        monkeypatch.setattr(model, "_DRAW_BYTES", 4 * 8 * 5)
        probs = np.arange(len(vocab), dtype=np.float64)
        probs[BOS_ID] = 0
        probs /= probs.sum()
        got = init_parameters(cfg, seed=4, unigram=probs, dtype=dtype)
        layer, V = cfg.layout(), len(vocab)
        rng = np.random.default_rng(4)
        Q, R, S = (rng.normal(0.0, 0.1, shape).astype(dtype)
                   for shape in ((V, 5), (V, 5), (layer.rows, 5)))
        S[layer.unused_rows] = 0
        C = (np.ones(5) if diagonal else np.eye(5)) * (1.0 / 3)
        want = ModelParameters(cfg, Q, R, np.log(np.maximum(probs, 1e-10)).astype(dtype),
                               [C.astype(dtype)] * 3, S, layer.start_values(probs).astype(dtype))
        assert len(Q) % 4 and (regime != REGIME_TREE or len(S) % 4)
        for (name, a), (_, b) in zip(got.arrays(), want.arrays()):
            assert a.dtype == dtype and a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("regime", [REGIME_STANDARD, REGIME_CLASS, REGIME_TREE])
    def test_peak_is_the_parameters_and_the_draw_block(self, regime):
        """Each array is made once, in its dtype: at 9.6 MB of Q and R the
        traced peak is at most the parameters' bytes and two draw blocks,
        where a float64 draw cast afterwards would take twice the tables."""
        V, D = 6_000, 200
        counts = np.arange(V)
        counts[BOS_ID] = 0
        cfg = ModelConfig(order=4, dim=D, regime=regime, vocab_size=V,
                          **model.OUTPUT_LAYERS[regime].default_structure(counts))
        cfg.layout()
        probs = counts / counts.sum()
        tracemalloc.start()
        try:
            params = init_parameters(cfg, seed=1, unigram=probs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        nbytes = sum(a.nbytes for _, a in params.arrays())
        assert params.Q.nbytes + params.R.nbytes >= 8e6
        assert peak <= nbytes + 2 * model._DRAW_BYTES


REGIMES = (REGIME_STANDARD, REGIME_CLASS, REGIME_TREE)


class TestParameterShapes:
    @staticmethod
    def fields(params):
        return dict(Q=params.Q, R=params.R, b=params.b, C=params.C, S=params.S, t=params.t)

    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("diagonal", [True, False])
    def test_every_wrong_shape_is_rejected(self, regime, diagonal):
        vocab = make_vocab(list("abcde"))
        params = make_params(vocab, regime, order=4, dim=3, diagonal=diagonal)
        V, D, rows = len(vocab), 3, params.config.layout().rows
        good = self.fields(params)
        ModelParameters(params.config, **good)  # the unchanged arrays are accepted
        other_C = np.zeros((D, D) if diagonal else D)
        bad = [("Q", np.zeros((V + 1, D))), ("Q", np.zeros((V, D + 1))),
               ("R", np.zeros((V, D - 1))), ("b", np.zeros(V - 1)), ("b", np.zeros((V, 1))),
               ("C", params.C + [params.C[0]]), ("C", params.C[:-1]),
               ("C", params.C[:-1] + [other_C]),
               ("S", np.zeros((rows + 1, D))), ("t", np.zeros(rows + 1))]
        if regime != REGIME_STANDARD:  # a standard model's S of rows + 1 is (1, D)
            bad += [("S", None), ("t", None)]
        for name, value in bad:
            with pytest.raises(DataError):
                ModelParameters(params.config, **{**good, name: value})

    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("diagonal", [True, False])
    def test_arrays_follow_parameter_shapes(self, regime, diagonal):
        from snlm.model import parameter_shapes
        vocab = make_vocab(list("abcde"))
        params = make_params(vocab, regime, order=4, dim=3, diagonal=diagonal)
        shapes = parameter_shapes(params.config)
        assert [name for name, _ in shapes] == ["Q", "R", "b", "C0", "C1", "C2", "S", "t"]
        assert [(n, a.shape) for n, a in params.arrays()] == \
            [(n, shape) for n, shape in shapes if math.prod(shape)]


class TestConfigValidation:
    def test_class_regime_needs_classing(self):
        vocab = make_vocab(list("ab"))
        cfg = ModelConfig(order=3, dim=4, regime=REGIME_CLASS,
                          vocab_size=len(vocab))
        with pytest.raises(DataError):
            cfg.validate()

    def test_tree_must_cover_the_support(self):
        vocab = make_vocab(list("abc"))
        from snlm.partitioning import huffman_tree
        bad = huffman_tree({0: 1, 2: 1, 3: 1})  # misses words 4 and 5
        cfg = ModelConfig(order=3, dim=4, regime=REGIME_TREE,
                          vocab_size=len(vocab), tree=bad)
        with pytest.raises(DataError):
            cfg.validate()

    def test_structure_of_another_regime_rejected(self):
        """A ModelConfig takes only the structure its layer names; another
        regime's is refused with the field and the regime, not dropped."""
        vocab = make_vocab(list("abc"))
        given = {"classing": make_config(vocab, REGIME_CLASS).classing,
                 "tree": make_config(vocab, REGIME_TREE).tree}
        for regime in (REGIME_STANDARD, REGIME_CLASS, REGIME_TREE):
            own = model.OUTPUT_LAYERS[regime].structure
            mine = {own: given[own]} if own else {}
            for field in set(given) - {own}:
                with pytest.raises(DataError, match=f"{regime} regime reads no {field}"):
                    ModelConfig(order=3, dim=4, regime=regime, vocab_size=len(vocab),
                                **mine, **{field: given[field]})
            ModelConfig(order=3, dim=4, regime=regime, vocab_size=len(vocab), **mine).validate()
            counts = np.maximum(vocab.counts, 1)
            assert list(model.OUTPUT_LAYERS[regime].default_structure(counts)) == list(mine)

    def test_order_below_two_rejected(self):
        with pytest.raises(DataError):
            ModelConfig(order=1, dim=4, vocab_size=5)


class TestDefaultStructure:
    @pytest.mark.parametrize("regime", [REGIME_STANDARD, REGIME_CLASS, REGIME_TREE])
    def test_equals_what_snlm_train_built_by_hand(self, regime):
        """Each layer's ``default_structure`` against the structure
        ``snlm train`` built inline before the layers owned it: ceil(sqrt(|V|))
        frequency bins of the target unigram, the Huffman tree of the target
        counts over every word but ``<s>``, and nothing for a standard model."""
        from snlm.corpus import build_vocabulary, instance_arrays
        from snlm.partitioning import frequency_binning, huffman_tree
        from snlm.synthetic import markov_corpus
        from snlm.training import empirical_unigram
        sentences = markov_corpus(2000, vocab_size=300, branching=6, seed=7)
        vocab = build_vocabulary(sentences)
        targets = instance_arrays(sentences, vocab, 4)[1]
        V = len(vocab)
        counts = np.bincount(targets, minlength=V)
        got = model.OUTPUT_LAYERS[regime].default_structure(counts)
        want = {REGIME_STANDARD: {},
                REGIME_CLASS: {"classing": frequency_binning(
                    empirical_unigram(targets, V), math.ceil(math.sqrt(V)))},
                REGIME_TREE: {"tree": huffman_tree(
                    {w: int(counts[w]) for w in range(V) if w != BOS_ID})}}[regime]
        assert list(got) == list(want)
        if regime == REGIME_CLASS:
            assert got["classing"].num_classes == want["classing"].num_classes
            np.testing.assert_array_equal(got["classing"].class_of, want["classing"].class_of)
        if regime == REGIME_TREE:
            for field in ("parent", "left", "right", "leaf_word"):
                np.testing.assert_array_equal(getattr(got["tree"], field),
                                              getattr(want["tree"], field))
        ModelConfig(order=4, dim=3, regime=regime, vocab_size=V, **got).validate()


def test_starting_parameters_refuse_an_unknown_regime():
    with pytest.raises(DataError, match="unknown regime 'softmax'"):
        model.starting_parameters(np.array([3, 4, 3]), 5, 3, 2, "softmax")


def test_only_the_model_module_compares_regimes():
    """Every regime rule is a fact that an output layer states: no module of
    ``snlm`` but ``model.py`` tests a regime (``regime ==``, ``regime !=``,
    ``== REGIME_*``, in either order)."""
    compares = re.compile(r"regime\s*[!=]=|[!=]=\s*REGIME_|REGIME_\w+\s*[!=]=")
    found = [f"{path.name}:{n}: {line.strip()}"
             for path in sorted(Path(model.__file__).parent.glob("*.py"))
             if path.name != "model.py"
             for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if compares.search(line)]
    assert found == []
