"""Gradients, noise sampling and the SGD loop."""
import collections
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import make_config, make_params, make_vocab, numeric_gradient, zero_params
from snlm import training
from snlm.corpus import BOS_ID, build_vocabulary, instance_arrays
from snlm.errors import DataError, TrainingDivergedError
from snlm.evaluation import perplexity_from_instances, perplexity_of
from snlm.model import (
    MacCounter,
    ModelConfig,
    ModelParameters,
    REGIME_CLASS,
    REGIME_STANDARD,
    REGIME_TREE,
    init_parameters,
    log_probs_batch,
    project_batch,
    project_context,
)
from snlm.partitioning import WordClassing
from snlm.synthetic import cyclic_corpus, markov_corpus
from snlm.training import (
    Gradients,
    NoiseTable,
    TrainingConfig,
    empirical_unigram,
    ml_gradient,
    ml_objective,
    nce_gradient,
    nce_objective,
    squared_norm,
    train,
)


def grad_vector(grads, params):
    return np.concatenate([a.ravel().astype(np.float64)
                           for _, a in grads.dense(params).arrays()])


class TestEmpiricalUnigram:
    def test_counts_targets(self):
        probs = empirical_unigram(np.array([2, 3, 3, 5]), 6)
        np.testing.assert_allclose(probs, [0, 0, 0.25, 0.5, 0, 0.25])

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            empirical_unigram(np.array([], dtype=int), 4)


class TestNoiseTable:
    def setup_method(self):
        self.probs = np.array([0.1, 0.0, 0.2, 0.4, 0.2, 0.1])
        self.class_of = np.array([0, 1, 0, 2, 2, 0])

    def test_frequencies_match_probabilities(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        probs = np.array([0.5, 0.25, 0.125, 0.0625, 0.0625])
        table = NoiseTable(probs, np.random.default_rng(123))
        draws = table.draw(np.zeros(4000, dtype=np.int64), 10).ravel()
        observed = np.bincount(draws, minlength=5)
        result = scipy_stats.chisquare(observed, probs * len(draws))
        assert result.pvalue > 1e-3

    def test_frequencies_match_each_group(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        table = NoiseTable(self.probs, np.random.default_rng(124), self.class_of)
        for c, members in ((0, [0, 2, 5]), (2, [3, 4])):
            draws = table.draw(np.full(4000, c), 10).ravel()
            observed = np.bincount(draws, minlength=6)[members]
            want = self.probs[members] / self.probs[members].sum()
            assert observed.sum() == len(draws)
            result = scipy_stats.chisquare(observed, want * len(draws))
            assert result.pvalue > 1e-3

    def test_zero_probability_never_drawn(self):
        table = NoiseTable(np.array([0.4, 0.0, 0.6, 0.0]), np.random.default_rng(7))
        draws = table.draw(np.zeros(2000, dtype=np.int64), 10)
        assert set(np.unique(draws)) <= {0, 2}
        grouped = NoiseTable(self.probs, np.random.default_rng(8),
                             np.array([0, 0, 0, 1, 1, 1]))
        draws = grouped.draw(np.tile([0, 1], 1000), 10)
        assert 1 not in draws

    def test_same_seed_same_stream(self):
        draws = [NoiseTable(self.probs, np.random.default_rng(5), self.class_of)
                 .draw(np.array([0, 2, 0, 0, 2]), 20) for _ in range(2)]
        np.testing.assert_array_equal(*draws)

    def test_rejects_zero_mass(self):
        with pytest.raises(DataError):
            NoiseTable(np.zeros(3), np.random.default_rng(0))
        with pytest.raises(DataError):
            NoiseTable(np.zeros(3), np.random.default_rng(0), np.array([0, 1, 1]))

    def test_empty_group_draw_rejected(self):
        table = NoiseTable(self.probs, np.random.default_rng(2), self.class_of)
        with pytest.raises(DataError):
            table.draw(np.array([0, 1]), k=2)

    def test_log_probs_are_within_group_conditionals(self):
        table = NoiseTable(self.probs, np.random.default_rng(0), self.class_of)
        np.testing.assert_allclose(table.mass, [0.4, 0.0, 0.6], atol=1e-12)
        np.testing.assert_allclose(np.exp(table.log_probs),
                                   [0.25, 0.0, 0.5, 2 / 3, 1 / 3, 0.25],
                                   atol=1e-12)
        assert table.log_probs[1] == -np.inf
        flat = NoiseTable(self.probs * 3, np.random.default_rng(0))
        np.testing.assert_allclose(np.exp(flat.log_probs), self.probs, atol=1e-12)

    def test_word_draws_stay_in_their_group(self):
        table = NoiseTable(self.probs, np.random.default_rng(1), self.class_of)
        groups = np.array([0, 2, 2, 0, 0])
        words = table.draw(groups, k=20)
        assert words.shape == (5, 20)
        for row, c in zip(words, groups):
            assert (self.class_of[row] == c).all()

    def test_slots_enumerate_to_the_exact_conditionals(self):
        """A draw picks a slot of its group uniformly, then keeps the slot's
        item with probability q or takes its alias: summing both outcomes
        over every slot must give P_n(item | group)."""
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n, groups = int(rng.integers(1, 60)), int(rng.integers(1, 8))
            group_of = rng.integers(0, groups, size=n)
            probs = rng.random(n) * (rng.random(n) < 0.8)  # zero-mass items
            probs[group_of == seed % groups] = 0.0         # a zero-mass group
            if not probs.sum() > 0:
                probs[-1] = 1.0
            table = NoiseTable(probs, rng, group_of)
            got = np.zeros(n)
            for lo, size in zip(table.offset, table.size):
                for s in range(lo, lo + size):
                    assert lo <= table.alias[s] < lo + size
                    got[table.items[s]] += table.q[s] / size
                    got[table.items[table.alias[s]]] += (1.0 - table.q[s]) / size
            mass = np.bincount(group_of, weights=probs)[group_of]
            want = np.divide(probs, mass, out=np.zeros(n), where=mass > 0)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=seed)
            assert (table.size[np.bincount(group_of, weights=probs) == 0] == 0).all()

    def test_draws_are_pinned(self):
        """The draws of one fixed table and seed, as first recorded. Training
        outcomes (acceptance criterion 04 among them) depend on the exact
        draws, so a change to them must show here first."""
        probs = np.random.default_rng(2014).random(40)
        probs[[3, 17, 29]] = 0.0
        table = NoiseTable(probs, np.random.default_rng(7412), np.arange(40) % 6)
        draws = table.draw(np.arange(300) % 6, 12).astype(np.int64)
        assert hashlib.sha256(draws.tobytes()).hexdigest() == \
            "11a97f8e3b5f4cb31698c24fb681a45e1fadbadc86ff801e94e259a1c423218d"


def class_noise(probs, classing, seed):
    """(class table, word table) for class NCE, sharing one rng."""
    rng = np.random.default_rng(seed)
    words = NoiseTable(probs, rng, classing.class_of)
    return NoiseTable(words.mass, rng), words


def tiny_instances(vocab, order, seed, m=6):
    rng = np.random.default_rng(seed)
    contexts = rng.integers(0, len(vocab), size=(m, order - 1)).astype(np.int32)
    support = np.array([w for w in range(len(vocab)) if w != BOS_ID])
    targets = rng.choice(support, size=m).astype(np.int32)
    return contexts, targets


class TestMlGradient:
    def test_finite_differences(self):
        vocab = make_vocab(list("abcde"), counts=[7, 5, 3, 2, 1])
        for regime in (REGIME_STANDARD, REGIME_CLASS, REGIME_TREE):
            params = make_params(vocab, regime, order=3, dim=4, seed=70,
                                 num_classes=3, scale=0.4)
            contexts, targets = tiny_instances(vocab, 3, 71)
            grads, _ = ml_gradient(params, contexts, targets, l2=1e-3)
            want = numeric_gradient(
                lambda q: ml_objective(q, contexts, targets, l2=1e-3), params)
            got = grad_vector(grads, params)
            np.testing.assert_allclose(got, want, rtol=2e-5, atol=1e-7)

    def test_uniform_start_bias_gradient(self):
        vocab = make_vocab(list("abc"))
        params = zero_params(vocab)
        contexts = np.array([[3, 4]], dtype=np.int32)
        targets = np.array([3], dtype=np.int32)
        grads, _ = ml_gradient(params, contexts, targets)
        want = np.full(len(vocab), -0.2)  # support has 5 words
        want[BOS_ID] = 0.0
        want[3] += 1.0
        np.testing.assert_allclose(grads.dense(params).b, want, atol=1e-12)

    def test_repeating_an_instance_doubles_its_gradient(self):
        vocab = make_vocab(list("abcd"))
        params = make_params(vocab, REGIME_CLASS, seed=72, num_classes=2)
        ctx = np.array([[3, 5]], dtype=np.int32)
        tgt = np.array([4], dtype=np.int32)
        once, _ = ml_gradient(params, ctx, tgt, l2=0.0)
        twice, _ = ml_gradient(params, np.repeat(ctx, 2, 0),
                               np.repeat(tgt, 2), l2=0.0)
        np.testing.assert_allclose(grad_vector(twice, params),
                                   2 * grad_vector(once, params),
                                   rtol=1e-12, atol=1e-12)

    def test_rows_outside_the_batch_stay_zero(self):
        vocab = make_vocab(list("abcdef"), counts=[9, 7, 4, 3, 2, 1])
        params = make_params(vocab, REGIME_CLASS, seed=73, num_classes=3)
        contexts = np.array([[3, 4]], dtype=np.int32)
        targets = np.array([3], dtype=np.int32)
        grads, _ = ml_gradient(params, contexts, targets, l2=0.0)
        grads = grads.dense(params)
        touched_q = {3, 4}
        for w in range(len(vocab)):
            if w not in touched_q:
                np.testing.assert_array_equal(grads.Q[w], 0.0)
        # only words sharing the target's class can receive R gradient
        cls = params.config.classing.class_of
        for w in range(len(vocab)):
            if cls[w] != cls[3]:
                np.testing.assert_array_equal(grads.R[w], 0.0)

    def test_returned_value_is_the_log_likelihood(self):
        vocab = make_vocab(list("abc"))
        params = make_params(vocab, REGIME_TREE, seed=74)
        contexts, targets = tiny_instances(vocab, 3, 75)
        _, loglik = ml_gradient(params, contexts, targets)
        want = float(log_probs_batch(params, contexts, targets).sum())
        np.testing.assert_allclose(loglik, want, rtol=1e-12)

    def test_l2_adds_batch_scaled_decay(self):
        vocab = make_vocab(list("ab"))
        params = make_params(vocab, seed=76)
        contexts, targets = tiny_instances(vocab, 3, 77, m=4)
        plain, _ = ml_gradient(params, contexts, targets, l2=0.0)
        decayed, _ = ml_gradient(params, contexts, targets, l2=0.01)
        theta = np.concatenate([a.ravel().astype(np.float64)
                                for _, a in params.arrays()])
        np.testing.assert_allclose(grad_vector(decayed, params),
                                   grad_vector(plain, params) - 0.01 * 4 * theta,
                                   rtol=1e-6, atol=1e-9)

    def test_sentence_start_target_rejected(self):
        vocab = make_vocab(list("ab"))
        params = make_params(vocab, seed=78)
        with pytest.raises(DataError):
            ml_gradient(params, np.array([[3, 4]], dtype=np.int32),
                        np.array([BOS_ID], dtype=np.int32))


class TestNceGradient:
    def test_balanced_start_gives_coin_flip_objective(self):
        vocab = make_vocab(list("abcd"), counts=[4, 3, 2, 1])
        params = zero_params(vocab)
        contexts, targets = tiny_instances(vocab, 3, 80, m=5)
        probs = empirical_unigram(
            np.array([0, 2, 2, 3, 3, 3, 4, 4, 5, 6]), len(vocab))
        k = 3
        # phi(w) = log(k P_n(w)) makes every discrimination a fair coin
        for w in range(len(vocab)):
            if probs[w] > 0:
                params.b[w] = math.log(k * probs[w])
        table = NoiseTable(probs, np.random.default_rng(81))
        noise = table.draw(np.zeros(5, dtype=np.int64), k)
        value = nce_objective(params, contexts, targets, None, noise, (None, table.log_probs))
        want = (5 + 5 * k) * math.log(0.5)
        np.testing.assert_allclose(value, want, rtol=1e-12)
        # the observed column pushes up, the noise columns push down
        grads, _ = nce_gradient(params, contexts, targets, None, noise, (None, table.log_probs))
        grads = grads.dense(params)
        for i, w in enumerate(targets):
            contribution = 0.5 - 0.5 * np.count_nonzero(noise[i] == w)
            assert grads.b[w] != 0.0 or contribution == 0.0

    def test_finite_differences(self):
        vocab = make_vocab(list("abcd"), counts=[5, 3, 2, 1])
        for diagonal in (True, False):
            params = make_params(vocab, REGIME_STANDARD, order=3, dim=4,
                                 diagonal=diagonal, seed=82, scale=0.4)
            contexts, targets = tiny_instances(vocab, 3, 83, m=5)
            probs = empirical_unigram(targets, len(vocab))
            table = NoiseTable(probs, np.random.default_rng(84))
            noise = table.draw(np.zeros(5, dtype=np.int64), 2)
            grads, _ = nce_gradient(params, contexts, targets, None, noise,
                                    (None, table.log_probs), l2=1e-3)
            want = numeric_gradient(
                lambda q: nce_objective(q, contexts, targets, None, noise,
                                        (None, table.log_probs), l2=1e-3), params)
            np.testing.assert_allclose(grad_vector(grads, params), want,
                                       rtol=2e-5, atol=1e-7)

    def test_matches_scalar_enumeration(self):
        vocab = make_vocab(list("abc"))
        params = make_params(vocab, seed=85)
        contexts = np.array([[3, 4], [5, 2]], dtype=np.int32)
        targets = np.array([4, 3], dtype=np.int32)
        noise = np.array([[3, 5], [5, 4]])
        probs = np.array([0.1, 0.0, 0.1, 0.4, 0.2, 0.2])
        sampler_logs = np.log(np.where(probs > 0, probs, 1.0))
        value = nce_objective(params, contexts, targets, None, noise, (None, sampler_logs))
        want = 0.0
        for i in range(2):
            p = project_context(params, contexts[i])
            for col, w in enumerate([targets[i], *noise[i]]):
                phi = float(params.R[w] @ p + params.b[w])
                delta = phi - math.log(2 * probs[w])
                sig = 1.0 / (1.0 + math.exp(-delta))
                want += math.log(sig if col == 0 else 1.0 - sig)
        np.testing.assert_allclose(value, want, rtol=1e-10)

    def test_rows_outside_target_and_noise_stay_zero(self):
        vocab = make_vocab(list("abcdefgh"), counts=[9, 8, 7, 6, 5, 4, 3, 2])
        params = make_params(vocab, seed=86)
        contexts = np.array([[3, 4]], dtype=np.int32)
        targets = np.array([5], dtype=np.int32)
        noise = np.array([[6, 7]])
        probs = empirical_unigram(np.arange(2, len(vocab)), len(vocab))
        grads, _ = nce_gradient(params, contexts, targets, None, noise,
                                (None, np.log(np.where(probs > 0, probs, 1.0))))
        grads = grads.dense(params)
        for w in range(len(vocab)):
            if w not in {5, 6, 7}:
                np.testing.assert_array_equal(grads.R[w], 0.0)
                assert grads.b[w] == 0.0

    def test_output_cost_ignores_vocabulary_size(self):
        k = 4
        costs = {}
        for n_words in (10, 100):
            vocab = make_vocab([f"w{i}" for i in range(n_words)])
            params = make_params(vocab, seed=87, dim=6)
            contexts, targets = tiny_instances(vocab, 3, 88, m=8)
            probs = empirical_unigram(targets, len(vocab))
            table = NoiseTable(probs, np.random.default_rng(89))
            macs = MacCounter()
            nce_gradient(params, contexts, targets, None,
                         table.draw(np.zeros(8, dtype=np.int64), k),
                         (None, table.log_probs), macs=macs)
            costs[n_words] = (macs.output, macs.output_rows)
        assert costs[10] == costs[100]
        assert costs[100][1] == 8 * (1 + k)

    def test_ml_output_cost_scales_with_vocabulary(self):
        sizes = {}
        for n_words in (10, 100):
            vocab = make_vocab([f"w{i}" for i in range(n_words)])
            params = make_params(vocab, seed=90, dim=6)
            contexts, targets = tiny_instances(vocab, 3, 91, m=8)
            macs = MacCounter()
            ml_gradient(params, contexts, targets, macs=macs)
            sizes[n_words] = macs.output_rows
        assert sizes[10] == 8 * 12       # |support| = 12
        assert sizes[100] == 8 * 102

    def test_bad_noise_shape_rejected(self):
        vocab = make_vocab(list("ab"))
        params = make_params(vocab, seed=92)
        with pytest.raises(DataError):
            nce_gradient(params, np.array([[3, 4]], dtype=np.int32),
                         np.array([3], dtype=np.int32), None,
                         np.array([3, 4]), (None, np.zeros(len(vocab))))

    def test_objective_matches_the_logaddexp_form(self):
        """``_nce_terms``' value, ``min(+-delta, 0) - log1p(exp(-|delta|))``
        summed, against log-sigmoids by ``logaddexp``, within 1e-12 relative,
        with |delta| past 700 where exp(-|delta|) underflows; the score
        gradients are the sigmoid's bits as before."""
        rng = np.random.default_rng(93)
        for scale in (0.5, 30.0, 900.0):
            scores = rng.normal(0.0, scale, size=(64, 11))
            scores[0, :3] = [750.0, -760.0, 800.0]
            log_pn = rng.uniform(-12.0, -1.0, size=(64, 11))
            k = 10
            value, d = training._nce_terms(scores, log_pn, k)
            delta = scores - (math.log(k) + log_pn)
            want = (-np.logaddexp(0.0, -delta[:, 0]).sum()
                    - np.logaddexp(0.0, delta[:, 1:]).sum())
            assert abs(value - want) <= 1e-12 * abs(want)
            z = np.exp(-np.abs(delta))
            sig = np.where(delta >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
            want_d = -sig
            want_d[:, 0] += 1.0
            np.testing.assert_array_equal(d, want_d)


class TestClassFactoredNce:
    def test_finite_differences(self):
        vocab = make_vocab(list("abcde"), counts=[6, 5, 3, 2, 1])
        params = make_params(vocab, REGIME_CLASS, order=3, dim=4, seed=93,
                             num_classes=3, scale=0.4)
        contexts, targets = tiny_instances(vocab, 3, 94, m=5)
        probs = empirical_unigram(targets, len(vocab)) * 0.5 \
            + empirical_unigram(np.arange(2, len(vocab)), len(vocab)) * 0.5
        classes, words = class_noise(probs, params.config.classing, 95)
        log_pn = (classes.log_probs, words.log_probs)
        cnoise = classes.draw(np.zeros(5, dtype=np.int64), 2)
        cls = params.config.classing.class_of[targets].astype(np.int64)
        wnoise = words.draw(cls, 2)
        grads, _ = nce_gradient(params, contexts, targets, cnoise, wnoise, log_pn, l2=1e-3)
        want = numeric_gradient(
            lambda q: nce_objective(q, contexts, targets, cnoise,
                                    wnoise, log_pn, l2=1e-3), params)
        np.testing.assert_allclose(grad_vector(grads, params), want, rtol=2e-5, atol=1e-7)

    def test_single_class_partition_equals_flat_nce(self):
        vocab = make_vocab(list("abcd"), counts=[4, 3, 2, 1])
        cls = make_params(vocab, REGIME_CLASS, seed=96,
                          class_of=np.zeros(len(vocab), dtype=int))
        std = make_params(vocab, REGIME_STANDARD, seed=96)
        for arr, src in ((std.Q, cls.Q), (std.R, cls.R), (std.b, cls.b)):
            arr[...] = src
        for j in range(2):
            std.C[j][...] = cls.C[j]
        contexts, targets = tiny_instances(vocab, 3, 97, m=6)
        probs = empirical_unigram(targets, len(vocab))
        classes, words = class_noise(probs, cls.config.classing, 98)
        wnoise = words.draw(np.zeros(6, dtype=np.int64), 3)
        cnoise = np.empty((6, 0), dtype=np.int64)
        got, value_cls = nce_gradient(
            cls, contexts, targets, cnoise, wnoise, (classes.log_probs, words.log_probs))
        want, value_std = nce_gradient(std, contexts, targets, None, wnoise,
                                       (None, words.log_probs))
        got, want = got.dense(cls), want.dense(std)
        np.testing.assert_allclose(value_cls, value_std, rtol=1e-12)
        np.testing.assert_allclose(got.R, want.R, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(got.b, want.b, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(got.Q, want.Q, rtol=1e-9, atol=1e-12)
        np.testing.assert_array_equal(got.S, 0.0)

    def test_singleton_classes_reduce_to_class_level_nce(self):
        vocab = make_vocab(list("abcd"), counts=[4, 3, 2, 1])
        V = len(vocab)
        cls = make_params(vocab, REGIME_CLASS, seed=99,
                          class_of=np.arange(V, dtype=int))
        std = make_params(vocab, REGIME_STANDARD, seed=99)
        std.R[...] = cls.S
        std.b[...] = cls.t
        std.Q[...] = cls.Q
        for j in range(2):
            std.C[j][...] = cls.C[j]
        contexts, targets = tiny_instances(vocab, 3, 100, m=6)
        probs = empirical_unigram(targets, V)
        classes, words = class_noise(probs, cls.config.classing, 101)
        cnoise = classes.draw(np.zeros(6, dtype=np.int64), 3)
        wnoise = np.repeat(targets[:, None], 2, axis=1).astype(np.int64)
        got, value_cls = nce_gradient(
            cls, contexts, targets, cnoise, wnoise, (classes.log_probs, words.log_probs))
        want, value_std = nce_gradient(std, contexts, targets, None, cnoise,
                                       (None, classes.log_probs))
        got, want = got.dense(cls), want.dense(std)
        np.testing.assert_allclose(value_cls, value_std, rtol=1e-12)
        np.testing.assert_allclose(got.S, want.R, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(got.t, want.b, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(got.Q, want.Q, rtol=1e-9, atol=1e-12)
        # every word is its conditional's point mass: no word-level gradient
        np.testing.assert_array_equal(got.R, 0.0)
        np.testing.assert_array_equal(got.b, 0.0)

    @pytest.mark.parametrize("m", [1, 64, 1000])
    def test_class_level_rows_match_a_segment_sum_reference(self, monkeypatch, m):
        """The class-level block's S rows, t values and pull on P against the
        per-entry outer product and a segment sum, in float64."""
        vocab = make_vocab([f"w{i}" for i in range(30)], counts=list(range(30, 0, -1)))
        params = make_params(vocab, REGIME_CLASS, order=3, dim=5, seed=130,
                             num_classes=6, scale=0.3, dtype=np.float32)
        contexts, targets = tiny_instances(vocab, 3, 131, m=m)
        k = 4
        classes, words = class_noise(empirical_unigram(targets, len(vocab)),
                                     params.config.classing, 132)
        log_pn = (classes.log_probs, words.log_probs)
        cls = params.config.classing.class_of[targets].astype(np.int64)
        cnoise = classes.draw(np.zeros(m, dtype=np.int64), k)
        cnoise[0, 0] = cls[0]              # the target class is also a noise draw
        cnoise[-1, 1:] = cnoise[-1, 1]     # one noise class drawn k - 1 times
        pulls = []

        def spy(*args, _real=training._class_nce_backward):
            rows, pull = _real(*args)
            pulls.append(pull)
            return rows, pull
        monkeypatch.setattr(training, "_class_nce_backward", spy)
        grads, _ = nce_gradient(params, contexts, targets, cnoise, words.draw(cls, k), log_pn)

        P = project_batch(params, contexts)[0].astype(np.float64)
        S, t = params.S.astype(np.float64), params.t.astype(np.float64)
        ids = np.concatenate([cls[:, None], cnoise], axis=1)
        delta = np.einsum("mwd,md->mw", S[ids], P) + t[ids] - (math.log(k) + log_pn[0][ids])
        d = -1.0 / (1.0 + np.exp(-delta))
        d[:, 0] += 1.0
        values, bias = np.zeros_like(S), np.zeros_like(t)
        np.add.at(values, ids.ravel(), (d[:, :, None] * P[:, None, :]).reshape(-1, S.shape[1]))
        np.add.at(bias, ids.ravel(), d.ravel())
        rows = np.unique(ids)
        np.testing.assert_array_equal(grads.S.rows, rows)
        for got, want in ((grads.S.values, values[rows]), (grads.S.bias, bias[rows]),
                          (pulls[0], np.einsum("mw,mwd->md", d, S[ids]))):
            np.testing.assert_allclose(got, want, rtol=1e-5,
                                       atol=1e-5 * np.abs(want).max())

    def test_requires_class_model(self):
        """NCE runs over the output layer's partition, which a standard
        model has as one class and a tree model lacks: every NCE entry
        point refuses a tree model."""
        vocab = make_vocab(list("ab"))
        params = make_params(vocab, REGIME_TREE, seed=102)
        contexts, targets = np.array([[3, 4]], dtype=np.int32), np.array([3], dtype=np.int32)
        log_pn = np.zeros(len(vocab))
        calls = [lambda: nce_gradient(params, contexts, targets, None, np.array([[3]]),
                                      (None, log_pn)),
                 lambda: nce_objective(params, contexts, targets, np.array([[0]]),
                                       np.array([[3]]), (log_pn, log_pn)),
                 lambda: train(params, contexts, targets,
                               TrainingConfig(algorithm="nce", validation_fraction=0.0))]
        for call in calls:
            with pytest.raises(DataError, match="NCE applies to standard or class_factored"):
                call()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_standard_model_is_the_one_class_partition(self, dtype):
        """A standard model's partition is one class of every word but
        ``<s>``, with no class rows: ``nce_gradient`` with no class noise is
        bitwise flat NCE, one word-level block over every target, in its
        value and every RowGrad."""
        vocab = make_vocab(list("abcd"), counts=[4, 3, 2, 1])
        params = make_params(vocab, REGIME_STANDARD, seed=103, dtype=dtype)
        layer = params.config.layout()
        assert layer.rows == 0 and (layer.class_of == 0).all()
        assert layer.class_sizes.tolist() == [len(vocab) - 1]
        contexts, targets = tiny_instances(vocab, 3, 104, m=6)
        noise = NoiseTable(empirical_unigram(targets, len(vocab)), np.random.default_rng(105))
        wnoise = noise.draw(np.zeros(6, dtype=np.int64), 3)
        got, value = nce_gradient(
            params, contexts, targets, None, wnoise, (None, noise.log_probs), l2=1e-3)
        ids = np.concatenate([targets[:, None], wnoise], axis=1)
        flat = [("R", np.arange(6), ids, noise.log_probs[ids])]
        want, value_flat = training._nce(params, contexts, flat, 1e-3, None)
        assert value == value_flat
        assert len(got.R.rows) and len(got.Q.rows) and not len(got.S.rows)
        for (name, g), (_, w) in zip(got.tables(), want.tables()):
            for a, b in zip((g.rows, g.values, g.bias, *g.held),
                            (w.rows, w.values, w.bias, *w.held)):
                assert (a is None and b is None) or a.tobytes() == b.tobytes(), name
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got.C, want.C))

    def test_flat_nce_refuses_a_partition_of_more_than_one_class(self):
        vocab = make_vocab(list("abcd"))
        params = make_params(vocab, REGIME_CLASS, seed=106, num_classes=2)
        log_pn = np.zeros(len(vocab))
        with pytest.raises(DataError, match="more than one class needs class noise"):
            nce_gradient(params, np.array([[3, 4]], dtype=np.int32),
                         np.array([3], dtype=np.int32), None, np.array([[4]]), (None, log_pn))


class TestFloat32Gradients:
    """The ML and NCE gradients on float32 parameters, which gather, score,
    form their deltas and pull in float32 (only log-sum-exps and objective
    values are float64), against the same call on a float64 copy. The
    objective is within 1e-5 of the float64 value, relative; every row of
    Q, R/b and S/t and every transform gradient is within 1e-5 of the
    float64 row, relative to that row's largest entry (and 1e-7 absolute)."""

    @staticmethod
    def assert_rows_close(got, want):
        assert got.dtype == np.float32
        got, want = np.atleast_2d(got.T).T.astype(np.float64), np.atleast_2d(want.T).T
        scale = np.abs(want).max(axis=1, keepdims=True)
        assert (np.abs(got - want) <= 1e-5 * scale + 1e-7).all()

    def compare(self, fn, params, *args):
        got, value32 = fn(params, *args, l2=1e-3)
        want, value64 = fn(params.astype(np.float64), *args, l2=1e-3)
        assert abs(value32 - value64) <= 1e-5 * abs(value64)
        assert got.l2 == want.l2
        for (name, g), (_, w) in zip(got.tables(), want.tables()):
            np.testing.assert_array_equal(g.rows, w.rows, err_msg=name)
            self.assert_rows_close(g.values, w.values)
            if name != "Q":  # Q has no bias
                self.assert_rows_close(g.bias, w.bias)
        for gC, wC in zip(got.C, want.C):
            self.assert_rows_close(gC, wC)

    @pytest.mark.parametrize("m", [1, 200])
    @pytest.mark.parametrize("diagonal", [True, False])
    def test_nce_gradient(self, diagonal, m):
        vocab = make_vocab([f"w{i}" for i in range(40)], counts=list(range(40, 0, -1)))
        params = make_params(vocab, REGIME_STANDARD, order=4, dim=16, diagonal=diagonal,
                             seed=140, scale=0.3, dtype=np.float32)
        contexts, targets = tiny_instances(vocab, 4, 141, m=m)
        table = NoiseTable(empirical_unigram(targets, len(vocab)),
                           np.random.default_rng(142))
        noise = table.draw(np.zeros(m, dtype=np.int64), 5)
        self.compare(nce_gradient, params, contexts, targets, None, noise,
                     (None, table.log_probs))

    @pytest.mark.parametrize("m", [1, 200])
    @pytest.mark.parametrize("diagonal", [True, False])
    def test_class_factored_nce_gradient(self, diagonal, m):
        vocab = make_vocab([f"w{i}" for i in range(40)], counts=list(range(40, 0, -1)))
        params = make_params(vocab, REGIME_CLASS, order=4, dim=16, diagonal=diagonal,
                             seed=143, num_classes=6, scale=0.3, dtype=np.float32)
        contexts, targets = tiny_instances(vocab, 4, 144, m=m)
        classes, words = class_noise(empirical_unigram(targets, len(vocab)),
                                     params.config.classing, 145)
        cls = params.config.classing.class_of[targets].astype(np.int64)
        self.compare(nce_gradient, params, contexts, targets,
                     classes.draw(np.zeros(m, dtype=np.int64), 5), words.draw(cls, 5),
                     (classes.log_probs, words.log_probs))

    @pytest.mark.parametrize("m", [1, 200])
    @pytest.mark.parametrize("diagonal", [True, False])
    @pytest.mark.parametrize("regime", [REGIME_STANDARD, REGIME_CLASS, REGIME_TREE])
    def test_ml_gradient(self, regime, diagonal, m):
        vocab = make_vocab([f"w{i}" for i in range(40)], counts=list(range(40, 0, -1)))
        params = make_params(vocab, regime, order=4, dim=16, diagonal=diagonal,
                             seed=146, num_classes=6, scale=0.3, dtype=np.float32)
        contexts, targets = tiny_instances(vocab, 4, 147, m=m)
        self.compare(ml_gradient, params, contexts, targets)


class TestTrainLoop:
    def test_fits_a_deterministic_corpus(self):
        sentences = cyclic_corpus(80)
        vocab = build_vocabulary(sentences)
        contexts, targets = instance_arrays(sentences, vocab, n=2)
        cfg = make_config(vocab, REGIME_STANDARD, order=2, dim=8)
        params = init_parameters(
            cfg, seed=4, unigram=empirical_unigram(targets, len(vocab)),
            dtype=np.float32)
        config = TrainingConfig(algorithm="ml_sgd", learning_rate=0.5,
                                minibatch_size=32, epochs=30, l2_strength=0.0,
                                rng_seed=3, validation_fraction=0.1)
        result = train(params, contexts, targets, config)
        assert result.epochs[-1].train_ppl < 1.05

    def test_same_seed_is_bit_reproducible(self):
        sentences = markov_corpus(600, vocab_size=12, seed=5)
        vocab = build_vocabulary(sentences)
        contexts, targets = instance_arrays(sentences, vocab, n=3)
        runs = []
        for _ in range(2):
            params = make_params(vocab, REGIME_CLASS, order=3, dim=6,
                                 num_classes=3, seed=50, dtype=np.float32)
            config = TrainingConfig(algorithm="nce", learning_rate=0.2,
                                    minibatch_size=16, epochs=3,
                                    noise_samples=4, rng_seed=9)
            train(params, contexts, targets, config)
            runs.append(params)
        for (_, a), (_, b) in zip(runs[0].arrays(), runs[1].arrays()):
            np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        sentences = markov_corpus(400, vocab_size=10, seed=6)
        vocab = build_vocabulary(sentences)
        contexts, targets = instance_arrays(sentences, vocab, n=3)
        finals = []
        for seed in (1, 2):
            params = make_params(vocab, REGIME_STANDARD, order=3, dim=5,
                                 seed=60, dtype=np.float32)
            config = TrainingConfig(algorithm="nce", epochs=2, rng_seed=seed,
                                    minibatch_size=16, noise_samples=3)
            train(params, contexts, targets, config)
            finals.append(params.R.copy())
        assert not np.array_equal(finals[0], finals[1])

    def test_learning_rate_halves_after_validation_regressions(self):
        sentences = markov_corpus(500, vocab_size=10, seed=7)
        vocab = build_vocabulary(sentences)
        contexts, targets = instance_arrays(sentences, vocab, n=3)
        params = make_params(vocab, REGIME_STANDARD, order=3, dim=5, seed=61,
                             dtype=np.float32)
        config = TrainingConfig(algorithm="ml_sgd", learning_rate=0.8,
                                minibatch_size=8, epochs=8, rng_seed=11)
        result = train(params, contexts, targets, config)
        records = result.epochs
        assert len(records) == 8
        for prev, cur, nxt in zip(records, records[1:], records[2:]):
            if cur.valid_ppl > prev.valid_ppl:
                assert nxt.learning_rate == cur.learning_rate / 2
            else:
                assert nxt.learning_rate == cur.learning_rate

    def test_divergence_raises(self):
        sentences = markov_corpus(300, vocab_size=8, seed=8)
        vocab = build_vocabulary(sentences)
        contexts, targets = instance_arrays(sentences, vocab, n=3)
        params = make_params(vocab, REGIME_STANDARD, order=3, dim=5, seed=62,
                             dtype=np.float32)
        config = TrainingConfig(algorithm="ml_sgd", learning_rate=5e4,
                                minibatch_size=8, epochs=5, rng_seed=1)
        with pytest.raises(TrainingDivergedError), np.errstate(all="ignore"):
            train(params, contexts, targets, config)

    def test_tree_right_child_rows_stay_zero(self):
        """The right children's rows of S and t are not parameters: fresh
        parameters and a tree ML ``train()`` with L2 leave each exactly 0."""
        sentences = markov_corpus(400, vocab_size=60, seed=13)
        vocab = build_vocabulary(sentences)
        contexts, targets = instance_arrays(sentences, vocab, n=3)
        cfg = make_config(vocab, REGIME_TREE, order=3, dim=5)
        params = init_parameters(cfg, seed=64, unigram=empirical_unigram(targets, len(vocab)))
        tree = cfg.tree
        right, left = tree.right[tree.leaf_word < 0], tree.left[tree.leaf_word < 0]
        assert (params.S[left] != 0).all() and (params.t[left] != 0).any()
        assert (params.S[right] == 0).all() and (params.t[right] == 0).all()
        start = params.copy()
        train(params, contexts, targets,
              TrainingConfig(algorithm="ml_sgd", learning_rate=0.5, minibatch_size=8,
                             epochs=2, l2_strength=0.01, rng_seed=65))
        assert (params.S[left] != start.S[left]).all()
        assert (params.S[right] == 0).all() and (params.t[right] == 0).all()

    def test_tree_models_refuse_nce(self):
        vocab = make_vocab(list("ab"))
        params = make_params(vocab, REGIME_TREE, seed=63, dtype=np.float32)
        with pytest.raises(DataError):
            train(params, np.array([[3, 4]], dtype=np.int32),
                  np.array([3], dtype=np.int32),
                  TrainingConfig(algorithm="nce", validation_fraction=0.0))

    def test_train_ppl_scores_the_first_training_instances(self, monkeypatch):
        sentences = markov_corpus(5000, vocab_size=40, seed=21)
        vocab = build_vocabulary(sentences)
        contexts, targets = instance_arrays(sentences, vocab, n=3)
        config = TrainingConfig(minibatch_size=256, epochs=1, rng_seed=22)
        start = make_params(vocab, REGIME_CLASS, order=3, dim=4, seed=23,
                            num_classes=5, scale=0.1, dtype=np.float32)
        # the seeded split train() makes: its first spawned generator's permutation
        N = len(targets)
        perm = np.random.default_rng(np.random.SeedSequence(22).spawn(3)[0]).permutation(N)
        train_idx = perm[int(round(N * config.validation_fraction)):]
        first = train_idx[:training.TRAIN_PPL_INSTANCES]
        assert len(train_idx) > len(first) == 4096

        sampled = start.copy()
        stats = train(sampled, contexts, targets, config).epochs[0]
        assert stats.train_ppl == perplexity_of(*perplexity_from_instances(
            sampled, contexts[first], targets[first]))

        monkeypatch.setattr(training, "TRAIN_PPL_INSTANCES", N)
        full = start.copy()
        full_stats = train(full, contexts, targets, config).epochs[0]
        for (name, a), (_, b) in zip(sampled.arrays(), full.arrays()):
            assert a.tobytes() == b.tobytes(), name
        assert full_stats.train_ppl == perplexity_of(*perplexity_from_instances(
            full, contexts[train_idx], targets[train_idx]))
        assert full_stats.train_ppl != stats.train_ppl
        assert full_stats.valid_ppl == stats.valid_ppl

    @pytest.mark.parametrize("field", ["learning_rate", "l2_strength"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_optimizer_settings_rejected(self, monkeypatch, field, value):
        params, contexts, targets = sparse_step_setup(REGIME_CLASS)
        calls = record_gradient_calls(monkeypatch)
        with pytest.raises(DataError, match=field):
            train(params, contexts, targets, TrainingConfig(**{field: value}))
        assert calls == []

    @pytest.mark.parametrize("lr,l2", [(1.0, 1.0), (1.0, 5.0), (0.5, 4.0)])
    def test_step_decay_at_or_below_zero_rejected(self, monkeypatch, lr, l2):
        """A step's decay is 1 - lr * l2, so lr * l2 >= 1 would flip or zero
        every row: refused before any gradient, naming both fields."""
        params, contexts, targets = sparse_step_setup(REGIME_CLASS)
        calls = record_gradient_calls(monkeypatch)
        with pytest.raises(DataError, match="learning_rate times l2_strength must be < 1"):
            train(params, contexts, targets,
                  TrainingConfig(learning_rate=lr, l2_strength=l2))
        assert calls == []

    def test_divergence_names_its_step_and_warns_nothing(self, monkeypatch):
        """A step that overflows is reported once, as the non-finite gradient
        it leads to, with its epoch and step; numpy warns nothing before it."""
        params, contexts, targets = sparse_step_setup(REGIME_CLASS, instances=200)
        calls = record_gradient_calls(monkeypatch)
        config = TrainingConfig(algorithm="nce", learning_rate=1e30, l2_strength=0.0,
                                minibatch_size=8, epochs=2, noise_samples=2,
                                rng_seed=3, validation_fraction=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergedError) as err:
                train(params, contexts, targets, config)
        assert 1 < len(calls) <= 25
        assert f"non-finite gradient in epoch 1, step {len(calls)};" in str(err.value)

    def test_epoch_seconds_split_into_training_and_evaluation(self, tmp_path):
        sentences = markov_corpus(300, vocab_size=8, seed=9)
        vocab = build_vocabulary(sentences)
        contexts, targets = instance_arrays(sentences, vocab, n=3)
        params = make_params(vocab, REGIME_CLASS, order=3, dim=4, seed=64,
                             dtype=np.float32)
        log = tmp_path / "train.log"
        config = TrainingConfig(algorithm="nce", epochs=2, rng_seed=2,
                                learning_rate=0.05, noise_samples=3)
        result = train(params, contexts, targets, config, log_file=log)
        lines = log.read_text().strip().split("\n")
        for ep, line in zip(result.epochs, lines):
            assert ep.train_seconds > 0 and ep.eval_seconds > 0
            assert ep.seconds == ep.train_seconds + ep.eval_seconds
            assert line.split("\t")[4] == f"{ep.seconds:.3f}"

    def test_epoch_log_lines(self, tmp_path):
        sentences = markov_corpus(200, vocab_size=6, seed=9)
        vocab = build_vocabulary(sentences)
        contexts, targets = instance_arrays(sentences, vocab, n=2)
        params = make_params(vocab, REGIME_STANDARD, order=2, dim=4, seed=64,
                             dtype=np.float32)
        log = tmp_path / "train.log"
        config = TrainingConfig(algorithm="ml_sgd", epochs=3, rng_seed=2,
                                learning_rate=0.05)
        train(params, contexts, targets, config, log_file=log)
        lines = log.read_text().strip().split("\n")
        assert len(lines) == 3
        for i, line in enumerate(lines, 1):
            fields = line.split("\t")
            assert len(fields) == 5
            assert int(fields[0]) == i
            float(fields[1]), float(fields[2]), float(fields[3])

    def test_gradient_pass_macs_are_counted(self):
        sentences = cyclic_corpus(10)
        vocab = build_vocabulary(sentences)
        contexts, targets = instance_arrays(sentences, vocab, n=2)
        params = make_params(vocab, REGIME_STANDARD, order=2, dim=4, seed=65,
                             dtype=np.float32)
        config = TrainingConfig(algorithm="ml_sgd", epochs=2, rng_seed=1,
                                minibatch_size=50, validation_fraction=0.0)
        result = train(params, contexts, targets, config)
        n, sup, D = len(targets), 6, 4
        assert result.macs.output == 2 * 3 * n * sup * D
        assert result.macs.output_rows == 2 * n * sup
        assert result.macs.projection == 2 * 3 * n * 1 * D

    def test_nce_trained_scores_are_nearly_self_normalizing(self):
        sentences = markov_corpus(6000, vocab_size=30, branching=4, seed=10)
        vocab = build_vocabulary(sentences)
        contexts, targets = instance_arrays(sentences, vocab, n=3)
        params = make_params(vocab, REGIME_STANDARD, order=3, dim=16, seed=66,
                             scale=0.05, dtype=np.float32)
        probs = empirical_unigram(targets, len(vocab))
        params.b[...] = np.log(np.where(probs > 0, probs, 1e-10))
        config = TrainingConfig(algorithm="nce", learning_rate=0.3,
                                minibatch_size=32, epochs=6, noise_samples=10,
                                rng_seed=12)
        train(params, contexts, targets, config)
        layout = params.config.layout()
        rng = np.random.default_rng(67)
        zs = []
        for i in rng.choice(len(contexts), size=60, replace=False):
            p = project_context(params, contexts[i])
            scores = (params.R[layout.support] @ p
                      + params.b[layout.support]).astype(np.float64)
            mx = scores.max()
            zs.append(mx + math.log(np.exp(scores - mx).sum()))
        mean_log_z = float(np.mean(zs))
        assert abs(mean_log_z) < 0.5


GRADIENT_FUNCTIONS = ("ml_gradient", "nce_gradient")


def record_gradient_calls(monkeypatch, poison_call=None):
    """Wrap the gradient functions train() calls and keep each call's inputs.

    Call number ``poison_call`` (1-based) gets a NaN in its C gradient.
    """
    calls = []
    for name in GRADIENT_FUNCTIONS:
        def wrapper(params, *args, _fn=getattr(training, name), **kwargs):
            kwargs.pop("macs", None)
            calls.append((_fn, [np.copy(a) if isinstance(a, np.ndarray) else a
                                for a in args], kwargs))
            grads, value = _fn(params, *args, **kwargs)
            if len(calls) == poison_call:
                grads.C[0][...] = np.nan
            return grads, value
        monkeypatch.setattr(training, name, wrapper)
    return calls


def dense_replay(params, calls, rates):
    """The reference step: dense gradient with its L2 term, applied to every
    parameter, ``theta += (lr / m) * g``."""
    for (fn, args, kwargs), lr in zip(calls, rates):
        grads, _ = fn(params, *args, **kwargs)
        step = lr / len(args[1])
        for (_, p), (_, g) in zip(params.arrays(), grads.dense(params).arrays()):
            p += step * g


def sparse_step_setup(regime, diagonal=True, instances=24, runs=False):
    """A small model and its first instances; with ``runs`` its five
    classes are runs of ids, as frequency binning makes them."""
    sentences = markov_corpus(400, vocab_size=60, seed=13)
    vocab = build_vocabulary(sentences)
    contexts, targets = instance_arrays(sentences, vocab, n=3)
    class_of = np.arange(len(vocab)) * 5 // len(vocab) if runs else None
    params = make_params(vocab, regime, order=3, dim=5, diagonal=diagonal,
                         seed=120, num_classes=5, scale=0.3, class_of=class_of)
    return params, contexts[:instances], targets[:instances]


# Steps that read their rows through the decayed view; the NCE cases are
# named by their regime alone.
VIEW_CASES = [pytest.param(REGIME_STANDARD, "nce", id=REGIME_STANDARD),
              pytest.param(REGIME_CLASS, "nce", id=REGIME_CLASS),
              *(pytest.param(regime, "ml_sgd", id=f"{regime}-ml_sgd")
                for regime in (REGIME_STANDARD, REGIME_CLASS, REGIME_TREE))]


class TestSparseStep:
    CASES = [(REGIME_STANDARD, "ml_sgd"), (REGIME_STANDARD, "nce"),
             (REGIME_CLASS, "ml_sgd"), (REGIME_CLASS, "nce"),
             (REGIME_TREE, "ml_sgd")]

    @pytest.mark.parametrize("diagonal", [True, False])
    @pytest.mark.parametrize("regime,algorithm", CASES)
    def test_matches_a_dense_reference_step(self, monkeypatch, regime,
                                            algorithm, diagonal):
        params, contexts, targets = sparse_step_setup(regime, diagonal)
        start = params.copy()
        calls = record_gradient_calls(monkeypatch)
        config = TrainingConfig(algorithm=algorithm, learning_rate=0.5,
                                minibatch_size=4, epochs=2, l2_strength=0.05,
                                noise_samples=2, rng_seed=4,
                                validation_fraction=0.0)
        result = train(params, contexts, targets, config)
        per_epoch = len(calls) // 2
        assert per_epoch == 6
        rates = [ep.learning_rate for ep in result.epochs for _ in range(per_epoch)]
        dense_replay(start, calls, rates)
        for (name, got), (_, want) in zip(params.arrays(), start.arrays()):
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-12,
                                       err_msg=name)

    @pytest.mark.parametrize("poison_call", [None, 3])
    def test_class_ml_steps_read_member_runs_as_slices(self, monkeypatch, poison_call):
        """Classes whose members are runs of ids, so that class/ML steps read
        their rows of R as slices of the table. A whole run, and one cut by a
        diverging step, leave what the dense replay of their finished steps
        leaves: a slice read brings no row current in the table itself."""
        params, contexts, targets = sparse_step_setup(REGIME_CLASS, runs=True)
        # all but the class of <s>, whose other members are not one run
        assert [isinstance(r, slice) for r in params.config.layout().member_rows] \
            == [False] + [True] * 4
        start = params.copy()
        calls = record_gradient_calls(monkeypatch, poison_call=poison_call)
        config = TrainingConfig(algorithm="ml_sgd", learning_rate=0.5, minibatch_size=4,
                                epochs=2, l2_strength=0.05, rng_seed=7,
                                validation_fraction=0.0)
        if poison_call is None:
            result = train(params, contexts, targets, config)
            rates = [ep.learning_rate for ep in result.epochs for _ in range(len(calls) // 2)]
        else:
            with pytest.raises(TrainingDivergedError):
                train(params, contexts, targets, config)
            calls, rates = calls[:poison_call - 1], [0.5] * (poison_call - 1)
        dense_replay(start, calls, rates)
        for (name, got), (_, want) in zip(params.arrays(), start.arrays()):
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("regime", [REGIME_STANDARD, REGIME_CLASS])
    def test_rows_no_step_reads_stay_bitwise_unchanged(self, monkeypatch, regime):
        params, contexts, targets = sparse_step_setup(regime, instances=12)
        start = params.copy()
        calls = record_gradient_calls(monkeypatch)
        config = TrainingConfig(algorithm="nce", learning_rate=0.5,
                                minibatch_size=4, epochs=1, l2_strength=0.0,
                                noise_samples=2, rng_seed=5,
                                validation_fraction=0.0)
        train(params, contexts, targets, config)
        read = {"Q": set(), "R": set(), "S": set()}
        cls = params.config.layout().class_of
        for _, args, _ in calls:  # class NCE for both: a standard model has no class noise
            read["Q"].update(args[0].ravel().tolist())
            read["R"].update(args[1].tolist() + args[3].ravel().tolist())
            if args[2] is not None:
                read["S"].update(cls[args[1]].tolist() + args[2].ravel().tolist())
        tables = {"Q": ("Q",), "R": ("R", "b"), "S": ("S", "t")}
        untouched = 0
        for table, names in tables.items():
            for name in names:
                got, was = getattr(params, name), getattr(start, name)
                if got is None:
                    continue
                rows = [r for r in range(len(got)) if r not in read[table]]
                untouched += len(rows)
                assert got[rows].tobytes() == was[rows].tobytes(), name
        assert untouched > 0

    @pytest.mark.parametrize("regime", [REGIME_STANDARD, REGIME_CLASS, REGIME_TREE])
    def test_apply_is_one_gather_step_and_leaves_the_gradient(self, regime):
        """``apply`` writes ``row * decay + scale * g`` to each row the
        gradient holds, bitwise as that expression in the table's float32,
        and changes no array of the gradient."""
        params, contexts, targets = sparse_step_setup(regime)
        params = params.astype(np.float32)
        grads, _ = training.ml_gradient(params, contexts, targets, l2=0.05)
        kept = [a.copy() for _, g in grads.tables() for a in (g.values, g.bias)
                if a is not None]
        want = params.copy()
        scale = 0.5 / len(targets)
        decay = 1.0 - scale * grads.l2
        for name, g in grads.tables():
            for table, grad in zip(training._row_tables(want)[name], (g.values, g.bias)):
                if table is not None:
                    table[g.rows] = table[g.rows] * decay + scale * grad
        for Cj, gC in zip(want.C, grads.C):
            Cj[...] = Cj * decay + scale * gC
        training._SparseSGD(params).apply(grads, scale)
        for (name, got), (_, ref) in zip(params.arrays(), want.arrays()):
            assert got.tobytes() == ref.tobytes(), name
        after = [a for _, g in grads.tables() for a in (g.values, g.bias) if a is not None]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(after, kept))

    @pytest.mark.parametrize("regime,algorithm", VIEW_CASES)
    def test_an_nce_step_reads_each_table_once_and_apply_gathers_nothing(
            self, monkeypatch, regime, algorithm):
        """Each NCE step reads Q, R and (class models) S through
        ``ModelParameters.rows`` once, and ``apply`` updates the rows the
        gradient holds without reading any table, on ML steps too."""
        params, contexts, targets = sparse_step_setup(regime)
        reads, gathers = collections.Counter(), []

        def rows(self, name, ids, _real=ModelParameters.rows):
            reads[name] += 1
            return _real(self, name, ids)

        class Counted(np.ndarray):
            def __getitem__(self, key):
                gathers.append(key)
                return super().__getitem__(key)

            def take(self, *args, **kwargs):
                gathers.append(args)
                return super().take(*args, **kwargs)

        def apply(sgd, grads, scale, _real=training._SparseSGD.apply):
            tables = sgd.tables
            sgd.tables = {name: tuple(a if a is None else a.view(Counted) for a in pair)
                          for name, pair in tables.items()}
            try:
                _real(sgd, grads, scale)
            finally:
                sgd.tables = tables

        monkeypatch.setattr(ModelParameters, "rows", rows)
        monkeypatch.setattr(training._SparseSGD, "apply", apply)
        calls = record_gradient_calls(monkeypatch)
        config = TrainingConfig(algorithm=algorithm, learning_rate=0.5, minibatch_size=4,
                                epochs=2, l2_strength=0.05, noise_samples=2,
                                rng_seed=4, validation_fraction=0.0)
        train(params, contexts, targets, config)
        steps = len(calls)
        assert steps == 12
        want = {"Q": steps, "R": steps}
        if regime == REGIME_CLASS:
            want["S"] = steps
        if algorithm == "nce":
            assert reads == want
        else:  # ML layers read per class run or tree block, but Q once
            assert reads["Q"] == steps
        assert gathers == []

    def test_tree_training_leaves_the_unused_rows_zero(self):
        """The rows of S and t that hold no node's vector are never read
        nor written: after ML training with decay they are still 0."""
        params, contexts, targets = sparse_step_setup(REGIME_TREE)
        unused = params.config.layout().unused_rows
        assert len(unused)
        start = params.copy()
        config = TrainingConfig(algorithm="ml_sgd", learning_rate=0.5, minibatch_size=4,
                                epochs=2, l2_strength=0.05, rng_seed=4,
                                validation_fraction=0.0)
        train(params, contexts, targets, config)
        assert not np.array_equal(params.S, start.S)
        np.testing.assert_array_equal(params.S[unused], 0.0)
        np.testing.assert_array_equal(params.t[unused], 0.0)

    def test_divergence_leaves_the_flushed_state(self, monkeypatch):
        params, contexts, targets = sparse_step_setup(REGIME_CLASS)
        start = params.copy()
        calls = record_gradient_calls(monkeypatch, poison_call=3)
        config = TrainingConfig(algorithm="nce", learning_rate=0.5,
                                minibatch_size=4, epochs=1, l2_strength=0.05,
                                noise_samples=2, rng_seed=6,
                                validation_fraction=0.0)
        with pytest.raises(TrainingDivergedError):
            train(params, contexts, targets, config)
        assert len(calls) == 3
        dense_replay(start, calls[:2], [0.5, 0.5])
        for (name, got), (_, want) in zip(params.arrays(), start.arrays()):
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-12,
                                       err_msg=name)


def owing_sgd(params, step=6, decay=0.9):
    """A ``_SparseSGD`` after ``step`` steps at ``decay``, in which row r of
    every table is current through step ``step - r % 3``: rows 0, 3, ...
    owe nothing, the others one or two steps of decay."""
    sgd = training._SparseSGD(params)
    sgd.step, sgd.decay = step, decay
    for last in sgd.last.values():
        last[:] = step - np.arange(len(last)) % 3
    return sgd


class TestDecayedView:
    """The parameters as a step reads them: ``rows`` hands out each row as
    ``flush`` would leave it, bitwise, and writes nothing."""

    @pytest.mark.parametrize("name", ["Q", "R", "S"])
    def test_rows_equal_catch_up_then_a_gather(self, name):
        """Rows read by ids or by a slice, against a gather after ``flush``
        (which multiplies the rows already current by 1.0)."""
        params = sparse_step_setup(REGIME_CLASS)[0].astype(np.float32)
        n = len(params.tables()[name][0])
        ids = np.array([1, 0, 2, 1, 1, n - 1, 0])  # stale, current and repeated rows
        run = slice(1, n)  # read as a view of the table, then scaled
        sgd = owing_sgd(params)
        before = params.copy()
        got = [sgd.view().rows(name, i) for i in (ids, run)]
        for (a, x), (_, y) in zip(params.arrays(), before.arrays()):
            assert x.tobytes() == y.tobytes(), a
        assert all(np.array_equal(last, 6 - np.arange(len(last)) % 3)
                   for last in sgd.last.values())
        sgd.flush()
        M, bias = params.tables()[name]
        for i, (rows, values) in zip((ids, run), got):
            assert rows.tobytes() == M[i].tobytes()
            assert (values is None) if bias is None else values.tobytes() == bias[i].tobytes()
        assert not np.array_equal(M[ids], before.tables()[name][0][ids])

    def test_plain_rows_are_a_bounds_checked_gather(self):
        """Ids are gathered, with a bounds check; a slice gives views."""
        params = sparse_step_setup(REGIME_CLASS)[0]
        ids = np.array([3, 0, 3])
        for name, (M, bias) in params.tables().items():
            got = params.rows(name, ids)
            assert got[0].tobytes() == M[ids].tobytes()
            assert (got[1] is None) if bias is None else got[1].tobytes() == bias[ids].tobytes()
            with pytest.raises(IndexError):
                params.rows(name, np.array([len(M)]))
            view = params.rows(name, slice(1, 3))
            assert view[0].base is M and (view[1] is None or view[1].base is bias)

    @pytest.mark.parametrize("regime,algorithm", VIEW_CASES)
    def test_apply_on_held_rows_writes_what_the_gather_path_writes(self, regime, algorithm):
        """A step from the rows the gradient holds, against the same step
        after ``flush``, gathering the rows from the tables:
        ``M[rows] * decay + scale * g``."""
        params, contexts, targets = sparse_step_setup(regime)
        params = params.astype(np.float32)
        reference = params.copy()
        sgd = owing_sgd(params)
        owing_sgd(reference).flush()
        noise = NoiseTable(empirical_unigram(targets, params.config.vocab_size),
                           np.random.default_rng(150))
        if algorithm == "ml_sgd":
            grads, _ = ml_gradient(sgd.view(), contexts, targets, l2=0.05)
        elif regime == REGIME_CLASS:
            classes, words = class_noise(empirical_unigram(targets, params.config.vocab_size),
                                         params.config.classing, 151)
            cls = params.config.classing.class_of[targets].astype(np.int64)
            grads, _ = nce_gradient(
                sgd.view(), contexts, targets, classes.draw(np.zeros(len(targets), np.int64), 3),
                words.draw(cls, 3), (classes.log_probs, words.log_probs), l2=0.05)
        else:
            grads, _ = nce_gradient(sgd.view(), contexts, targets, None,
                                    noise.draw(np.zeros(len(targets), np.int64), 3),
                                    (None, noise.log_probs), l2=0.05)
        assert len(grads.Q.rows) and len(grads.R.rows) + len(grads.S.rows)
        scale = 0.5 / len(targets)
        decay = 1.0 - scale * grads.l2
        last = {name: rows.copy() for name, rows in sgd.last.items()}
        for name, g in grads.tables():
            for table, grad in zip(training._row_tables(reference)[name], (g.values, g.bias)):
                if table is not None:
                    table[g.rows] = table[g.rows] * decay + scale * grad
            last[name][g.rows] = 7
        for Cj, gC in zip(reference.C, grads.C):
            Cj[...] = Cj * decay + scale * gC
        before = params.copy()
        sgd.apply(grads, scale)
        tables = [training._row_tables(p) for p in (params, reference, before)]
        for name, g in grads.tables():
            unread = np.ones(len(tables[0][name][0]), dtype=bool)
            unread[g.rows] = False
            for got, want, was in zip(*(t[name] for t in tables)):
                if got is not None:  # the rows the step did not read still owe their decay
                    assert got[g.rows].tobytes() == want[g.rows].tobytes(), name
                    assert got[unread].tobytes() == was[unread].tobytes(), name
        for got, want in zip(params.C, reference.C):
            assert got.tobytes() == want.tobytes()
        for name in sgd.last:
            np.testing.assert_array_equal(sgd.last[name], last[name])


def traced_peak(run) -> int:
    """The traced peak of what ``run()`` allocates."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFootprint:
    """A training run holds the model, the caller's instance arrays and
    bounded scratch: no copy of the instances, no table-sized temporaries."""

    def test_train_makes_no_copy_of_the_instances(self):
        """At order 10 on 200,000 instances, 1% held out, a copy of the
        training split alone would trace 1.1x the contexts' bytes; ``train``
        gathers only the validation split, its perplexity instances and each
        batch."""
        rng = np.random.default_rng(160)
        N, V = 200_000, 40
        config = ModelConfig(order=10, dim=4, regime=REGIME_STANDARD, vocab_size=V)
        params = init_parameters(config, seed=1)
        contexts = rng.integers(0, V, (N, 9)).astype(np.int32)
        targets = rng.integers(BOS_ID + 1, V, N).astype(np.int32)
        tconf = TrainingConfig(algorithm="nce", epochs=1, minibatch_size=512, rng_seed=3,
                               validation_fraction=0.01)
        peak = traced_peak(lambda: train(params, contexts, targets, tconf))
        assert peak < contexts.nbytes

    def test_standard_ml_apply_updates_a_held_view_in_place(self):
        """A standard/ML step holds all of R as a view of the table: ``apply``
        updates it there, with one R-sized temporary (``scale * g``), where
        a product and a scatter would take two."""
        rng = np.random.default_rng(161)
        V = 20_000
        params = init_parameters(ModelConfig(order=3, dim=50, regime=REGIME_STANDARD,
                                             vocab_size=V), seed=2)
        contexts = rng.integers(0, V, (8, 2)).astype(np.int32)
        targets = rng.integers(BOS_ID + 1, V, 8).astype(np.int32)
        grads, _ = ml_gradient(params, contexts, targets, l2=0.05)
        assert grads.R.held[0].base is params.R
        sgd = training._SparseSGD(params)
        assert traced_peak(lambda: sgd.apply(grads, 0.01)) < 1.5 * params.R.nbytes
