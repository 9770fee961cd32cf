"""Release gate: ten numbered checks the toolkit must pass before shipping.

Each test prints a one-line verdict (run with ``-s`` to see them), so the
suite's output doubles as a sign-off sheet. The checks lean on independent
oracles: plain enumeration for distributions, central finite differences
for gradients, exhaustive search for trees and clusterings, and exact
expectations for the sampled objective.
"""
import itertools
import math

import numpy as np
import pytest

from snlm.corpus import BOS_ID, build_vocabulary, instance_arrays, unigram_distribution
from snlm.evaluation import memory_estimate, perplexity
from snlm.model import (
    MacCounter,
    ModelConfig,
    REGIME_CLASS,
    REGIME_STANDARD,
    REGIME_TREE,
    full_distribution,
    init_parameters,
    log_prob,
    log_probs_batch,
    project_context,
    unnormalised_log_score,
)
from snlm.modelfile import save_model, load_model
from snlm.partitioning import (
    WordClassing,
    brown_clustering,
    class_bigram_objective,
    frequency_binning,
    huffman_tree,
)
from snlm.synthetic import markov_corpus, template_corpus
from snlm.training import (
    NoiseTable,
    TrainingConfig,
    empirical_unigram,
    ml_gradient,
    nce_gradient,
    train,
)

from conftest import make_config, make_params, make_vocab, min_wpl, numeric_gradient


def _verdict(number, name, detail):
    print(f"criterion {number:02d} {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def markov_setup():
    # one 100-word 100k-token corpus shared by the two training analogs
    sentences = markov_corpus(100_000, vocab_size=100, branching=5, seed=1)
    vocab = build_vocabulary(sentences)
    contexts, targets = instance_arrays(sentences, vocab, n=3)
    unigram = empirical_unigram(targets, len(vocab))
    return vocab, contexts, targets, unigram


def test_criterion_01_every_regime_normalizes():
    worst = 0.0
    for total in (7, 50, 500):
        words = [f"w{i:03d}" for i in range(total - 3)]
        counts = [total - i for i in range(total - 3)]
        vocab = make_vocab(words, counts)
        num_classes = max(2, int(math.isqrt(total)))
        for regime in (REGIME_STANDARD, REGIME_CLASS, REGIME_TREE):
            for seed in range(10):
                params = make_params(vocab, regime, dim=8, seed=seed,
                                     scale=1.0, num_classes=num_classes)
                rng = np.random.default_rng(1000 * total + seed)
                for ctx in rng.integers(0, total, size=(10, 2)):
                    dist = full_distribution(params, ctx)
                    assert dist.dtype == np.float64
                    assert dist[BOS_ID] == 0.0
                    dev = abs(float(dist.sum()) - 1.0)
                    assert dev <= 1e-6
                    worst = max(worst, dev)
    _verdict(1, "normalization", f"300 draws/regime, max |sum-1| = {worst:.2e}")


def test_criterion_02_analytic_gradients_match_finite_differences():
    vocab = make_vocab([f"w{i}" for i in range(9)], counts=[9 - i for i in range(9)])
    assert len(vocab) == 12
    contexts = np.array([[3, 1], [4, 3], [11, 10], [0, 2], [3, 3]], dtype=np.int32)
    targets = np.array([4, 2, 0, 11, 5], dtype=np.int32)

    support = np.array([w for w in range(12) if w != BOS_ID])
    probs = np.zeros(12)
    probs[support] = (np.arange(len(support)) + 1.0)
    probs /= probs.sum()
    log_pn = np.where(probs > 0, np.log(np.maximum(probs, 1e-300)), -np.inf)

    rng = np.random.default_rng(17)
    word_noise = rng.choice(support, size=(len(targets), 3)).astype(np.int32)

    def ml_case(regime):
        params = make_params(vocab, regime, order=3, dim=7, seed=31,
                             scale=0.6, num_classes=3)
        fn = lambda ps: float(log_probs_batch(ps, contexts, targets).sum())
        grads, _ = ml_gradient(params, contexts, targets, l2=0.0)
        return params, fn, grads

    def nce_case():
        params = make_params(vocab, REGIME_STANDARD, order=3, dim=7, seed=32,
                             scale=0.6)
        fn = lambda ps: float(nce_gradient(ps, contexts, targets, None, word_noise,
                                           (None, log_pn), l2=0.0)[1])
        grads, _ = nce_gradient(params, contexts, targets, None, word_noise,
                                (None, log_pn), l2=0.0)
        return params, fn, grads

    def class_nce_case():
        params = make_params(vocab, REGIME_CLASS, order=3, dim=7, seed=33,
                             scale=0.6, num_classes=3)
        class_of = params.config.classing.class_of
        rng = np.random.default_rng(5)
        words = NoiseTable(probs, rng, class_of)
        classes = NoiseTable(words.mass, rng)
        class_noise = class_of[word_noise]
        args = (contexts, targets, class_noise, word_noise,
                (classes.log_probs, words.log_probs))
        fn = lambda ps: float(nce_gradient(ps, *args, l2=0.0)[1])
        grads, _ = nce_gradient(params, *args, l2=0.0)
        return params, fn, grads

    cases = [
        ("ml standard", *ml_case(REGIME_STANDARD)),
        ("ml class", *ml_case(REGIME_CLASS)),
        ("ml tree", *ml_case(REGIME_TREE)),
        ("nce", *nce_case()),
        ("class nce", *class_nce_case()),
    ]
    worst = 0.0
    for label, params, fn, grads in cases:
        analytic = dict(grads.dense(params).arrays())
        numeric = numeric_gradient(fn, params, step=1e-5)
        pos = 0
        for name, arr in params.arrays():
            gn = numeric[pos:pos + arr.size].reshape(arr.shape)
            pos += arr.size
            ga = analytic[name]
            scale = max(np.linalg.norm(ga), np.linalg.norm(gn))
            if scale < 1e-10:
                assert np.max(np.abs(ga)) < 1e-10, (label, name)
                continue
            rel = np.linalg.norm(ga - gn) / scale
            assert rel <= 1e-4, (label, name, rel)
            worst = max(worst, rel)
        assert pos == len(numeric)
    _verdict(2, "gradient suite", f"5 objectives, max rel err = {worst:.2e}")


def test_criterion_03_nce_gradient_approaches_ml_gradient():
    vocab = make_vocab(["a"], counts=[3])
    assert len(vocab) == 4
    cfg = make_config(vocab, REGIME_STANDARD, order=3, dim=5)
    unigram = np.array([0.25, 0.0, 0.25, 0.5])
    support = np.array([w for w in range(4) if w != BOS_ID])
    log_pn = np.full(4, -np.inf)
    log_pn[support] = np.log(unigram[support])
    contexts = np.array([[3, 2]], dtype=np.int32)
    targets = np.array([3], dtype=np.int32)

    finals = []
    for seed in (1, 2, 3):
        params = init_parameters(cfg, seed=3, unigram=unigram, dtype=np.float64)
        rng = np.random.default_rng(seed)
        for _, arr in params.arrays():
            arr += rng.normal(0.0, 0.8, size=arr.shape)
        # move to the self-normalized point: there the large-k limit of the
        # noise-contrastive gradient is exactly the likelihood gradient
        p = project_context(params, contexts[0])
        z = sum(math.exp(params.R[w] @ p + params.b[w]) for w in support)
        params.b -= math.log(z)

        gml, _ = ml_gradient(params, contexts, targets, l2=0.0)
        vml = np.concatenate([g.ravel() for _, g in gml.dense(params).arrays()])

        curve = []
        for k in (1, 4, 16, 64):
            acc = None
            for w in support:
                # expectation in closed form: the objective is additive over
                # noise slots, so enumerating one repeated outcome per word
                # and mixing with its noise probability is exact
                noise = np.full((1, k), w, dtype=np.int32)
                g, _ = nce_gradient(params, contexts, targets, None, noise,
                                    (None, log_pn), l2=0.0)
                v = np.concatenate([a.ravel() for _, a in g.dense(params).arrays()])
                acc = unigram[w] * v if acc is None else acc + unigram[w] * v
            cos = float(acc @ vml / (np.linalg.norm(acc) * np.linalg.norm(vml)))
            curve.append(cos)
        for lo, hi in zip(curve, curve[1:]):
            assert hi >= lo - 1e-12, curve
        assert curve[-1] >= 0.99, curve
        finals.append(curve[-1])
    _verdict(3, "sampled gradient limit",
             "cosine at k=64: " + ", ".join(f"{c:.5f}" for c in finals))


def test_criterion_04_nce_matches_ml_at_a_fifth_of_the_macs(markov_setup):
    vocab, contexts, targets, unigram = markov_setup
    epochs = 4
    results = {}
    for algorithm in ("ml_sgd", "nce"):
        cfg = ModelConfig(order=3, dim=16, regime=REGIME_STANDARD,
                          diagonal=True, vocab_size=len(vocab))
        params = init_parameters(cfg, seed=11, unigram=unigram)
        tc = TrainingConfig(algorithm=algorithm, learning_rate=0.3,
                            minibatch_size=64, epochs=epochs,
                            l2_strength=1e-6, noise_samples=10, rng_seed=5)
        results[algorithm] = train(params, contexts, targets, tc)

    ml_ppl = results["ml_sgd"].epochs[-1].valid_ppl
    nce_ppl = results["nce"].epochs[-1].valid_ppl
    gap = abs(nce_ppl - ml_ppl) / ml_ppl
    assert gap <= 0.05, (ml_ppl, nce_ppl)

    ml_macs = results["ml_sgd"].macs.output / epochs
    nce_macs = results["nce"].macs.output / epochs
    assert nce_macs <= ml_macs / 5.0
    _verdict(4, "sampled training matches exact",
             f"valid ppl {nce_ppl:.3f} vs {ml_ppl:.3f} (gap {gap:.1%}), "
             f"output MACs/epoch ratio {nce_macs / ml_macs:.3f}")


def test_criterion_05_diagonal_contexts_hold_up(markov_setup):
    vocab, contexts, targets, unigram = markov_setup
    classing = frequency_binning(unigram_distribution(vocab), 11)
    dim = 16
    results = {}
    for diagonal in (True, False):
        cfg = ModelConfig(order=3, dim=dim, regime=REGIME_CLASS,
                          diagonal=diagonal, vocab_size=len(vocab),
                          classing=classing)
        params = init_parameters(cfg, seed=11, unigram=unigram)
        tc = TrainingConfig(algorithm="nce", learning_rate=0.3,
                            minibatch_size=64, epochs=4, l2_strength=1e-6,
                            noise_samples=10, rng_seed=5)
        results[diagonal] = train(params, contexts, targets, tc)

    full_ppl = results[False].epochs[-1].valid_ppl
    diag_ppl = results[True].epochs[-1].valid_ppl
    gap = abs(diag_ppl - full_ppl) / full_ppl
    assert gap <= 0.10, (diag_ppl, full_ppl)

    ratio = results[False].macs.projection / results[True].macs.projection
    assert ratio >= dim / 2.0
    _verdict(5, "diagonal contexts",
             f"valid ppl {diag_ppl:.3f} vs {full_ppl:.3f} (gap {gap:.1%}), "
             f"projection MACs cut {ratio:.1f}x")


def test_criterion_06_huffman_trees_are_optimal():
    checked = 0
    for size in range(2, 7):
        for counts in itertools.combinations_with_replacement(range(1, 6), size):
            tree = huffman_tree(dict(enumerate(counts)))
            got = sum(c * tree.depth(w) for w, c in enumerate(counts))
            assert got == min_wpl(tuple(sorted(counts))), counts
            checked += 1
    _verdict(6, "tree optimality", f"{checked} count multisets, all at optimum")


def test_criterion_07_exchange_clustering_separates_where_binning_cannot():
    sentences = template_corpus(500, seed=0)
    vocab = build_vocabulary(sentences)
    a, b, c, d = (vocab.id_of(w) for w in "abcd")
    movable = {a, b, c, d}

    got = brown_clustering(sentences, vocab, 2, words=movable)
    assert got.class_of[a] == got.class_of[b]
    assert got.class_of[c] == got.class_of[d]
    assert got.class_of[a] != got.class_of[c]

    # exhaustive check: of all 7 bipartitions of {a, b, c, d} (others held
    # as frozen singletons), the recovered one maximizes the objective
    def bipartition_classing(group):
        assign = np.zeros(len(vocab), dtype=np.int32)
        nxt = 2
        for w in range(len(vocab)):
            if w in movable:
                assign[w] = 0 if w in group else 1
            else:
                assign[w] = nxt
                nxt += 1
        return WordClassing(assign, nxt)

    others = [w for w in sorted(movable) if w != a]
    scored = []
    for r in range(3):
        for rest in itertools.combinations(others, r):
            group = frozenset({a, *rest})
            obj = class_bigram_objective(sentences, vocab,
                                         bipartition_classing(group))
            scored.append((obj, group))
    scored.sort(reverse=True)
    assert scored[0][1] == frozenset({a, b})
    assert scored[0][0] > scored[1][0]
    assert abs(class_bigram_objective(sentences, vocab, got)
               - scored[0][0]) < 1e-9

    binned = frequency_binning(unigram_distribution(vocab), 2)
    groups = {binned.class_of[w] for w in (a, b, c, d)}
    # the two frequent fillers soak up the first equal-mass bin, so the
    # interchangeable pairs end up lumped together: no separation
    assert len(groups) == 1
    _verdict(7, "clustering separation",
             "exchange recovers {a,b}|{c,d} at the objective optimum; "
             "equal-mass bins leave all four words in one class")


def test_criterion_08_memory_estimate_matches_serialized_payload(tmp_path):
    big = ModelConfig(order=5, dim=500, regime=REGIME_CLASS, diagonal=True,
                      vocab_size=105_500,
                      classing=WordClassing(np.arange(105_500) % 325, 325))
    est = memory_estimate(big)
    assert est.parameter_count == 105_770_325
    assert abs(est.megabytes - 423.0) <= 2.0

    rng = np.random.default_rng(8)
    tested = 0
    for regime in (REGIME_STANDARD, REGIME_CLASS, REGIME_TREE):
        for diagonal in (True, False):
            n_words = int(rng.integers(5, 40))
            vocab = make_vocab([f"w{i}" for i in range(n_words)])
            params = make_params(vocab, regime, order=int(rng.integers(2, 5)),
                                 dim=int(rng.integers(3, 20)),
                                 diagonal=diagonal, seed=tested,
                                 num_classes=3)
            sizes = save_model(tmp_path / f"m{tested}.snlm", params, vocab)
            want = memory_estimate(params.config).payload_bytes
            assert sizes["payload"] == want
            tested += 1
    _verdict(8, "memory accounting",
             f"{est.megabytes:.2f} MB payload for the reference config; "
             f"{tested} serialized payloads match their estimates exactly")


def test_criterion_09_training_is_deterministic_and_round_trips(tmp_path):
    sentences = markov_corpus(6000, vocab_size=30, seed=2)
    heldout = sentences[-100:]
    vocab = build_vocabulary(sentences)
    contexts, targets = instance_arrays(sentences, vocab, n=3)
    classing = frequency_binning(unigram_distribution(vocab), 6)
    cfg = ModelConfig(order=3, dim=8, regime=REGIME_CLASS, diagonal=True,
                      vocab_size=len(vocab), classing=classing)
    tc = TrainingConfig(algorithm="nce", learning_rate=0.2, minibatch_size=32,
                        epochs=3, l2_strength=1e-6, noise_samples=5, rng_seed=3)

    runs = []
    for _ in range(2):
        params = init_parameters(cfg, seed=7,
                                 unigram=empirical_unigram(targets, len(vocab)))
        runs.append(train(params, contexts, targets, tc).params)
    for (name_a, arr_a), (_, arr_b) in zip(runs[0].arrays(), runs[1].arrays()):
        assert arr_a.tobytes() == arr_b.tobytes(), name_a

    path = tmp_path / "model.snlm"
    save_model(path, runs[0], vocab)
    loaded, vocab_back = load_model(path)
    for (name_a, arr_a), (_, arr_b) in zip(runs[0].arrays(), loaded.arrays()):
        assert arr_a.tobytes() == arr_b.tobytes(), name_a
    assert vocab_back.tokens == vocab.tokens
    assert list(vocab_back.counts) == list(vocab.counts)

    before = perplexity(runs[0], heldout, vocab)
    after = perplexity(loaded, heldout, vocab_back)
    assert before.perplexity == after.perplexity
    assert before.total_log_prob == after.total_log_prob
    _verdict(9, "determinism and round trip",
             f"two runs bitwise identical; ppl {before.perplexity:.4f} "
             "unchanged by save/load")


def test_criterion_10_query_cost_ranks_the_four_regimes():
    total = 10_003
    words = [f"w{i:05d}" for i in range(total - 3)]
    counts = [total // (i + 1) + 1 for i in range(total - 3)]
    vocab = make_vocab(words, counts)
    dim = 100
    rng = np.random.default_rng(12)
    contexts = rng.integers(0, total, size=(20, 2))
    support = np.array([w for w in range(total) if w != BOS_ID])
    queries = rng.choice(support, size=20)

    costs = {}
    for regime in (REGIME_STANDARD, REGIME_CLASS, REGIME_TREE):
        cfg = make_config(vocab, regime, order=3, dim=dim, num_classes=100)
        params = init_parameters(cfg, seed=0)
        macs = MacCounter()
        for ctx, w in zip(contexts, queries):
            log_prob(params, ctx, int(w), macs)
        costs[regime] = macs.total / len(queries)

    cfg = make_config(vocab, REGIME_STANDARD, order=3, dim=dim)
    params = init_parameters(cfg, seed=0)
    macs = MacCounter()
    for ctx, w in zip(contexts, queries):
        unnormalised_log_score(params, ctx, int(w), macs)
    costs["unnormalised"] = macs.total / len(queries)

    assert (costs["unnormalised"] < costs[REGIME_TREE]
            < costs[REGIME_CLASS] < costs[REGIME_STANDARD])
    _verdict(10, "query cost ordering",
             "MACs/query " + " < ".join(
                 f"{costs[k]:.0f}" for k in
                 ("unnormalised", REGIME_TREE, REGIME_CLASS, REGIME_STANDARD)))
