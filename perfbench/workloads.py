"""The benchmark's workloads: seeded inputs, set-up, one measured operation, checks.

Every workload drives snlm's public entry points the way ``snlm train``,
``snlm ppl``, ``snlm score`` and ``snlm classes --method brown`` do, on
inputs made by ``snlm.synthetic.markov_corpus`` from the workload seed.
"""

from __future__ import annotations

import hashlib
import math
import os
import time

import numpy as np

import oracle
import snlm  # entry points are called as snlm.f so that a traced run sees them
from snlm import (BOS_ID, REGIME_CLASS, REGIME_STANDARD, REGIME_TREE,
                  MacCounter, ModelConfig, TrainingConfig)
from snlm.synthetic import markov_corpus
from snlm.training import empirical_unigram

ORDER = 5

# Shapes of the ROADMAP baseline (|V| about 17.7k for the language models,
# |V| about 2k and K = 45 for clustering); SMOKE keeps every code path at a
# size that runs in about a second.
FULL = dict(lm_tokens=60_000, lm_vocab=20_000, lm_branching=20,
            heldout_tokens=4_000, train_instances=8_192, dim=100,
            nbest_sources=40, nbest_hyps=25, nbest_bad_share=0.02,
            cluster_tokens=20_000, cluster_vocab=2_000, cluster_branching=10,
            cluster_classes=45, cluster_sweeps=1, oracle_sentences=12,
            oracle_entries=40)
SMOKE = dict(lm_tokens=3_000, lm_vocab=400, lm_branching=8,
             heldout_tokens=300, train_instances=640, dim=16,
             nbest_sources=5, nbest_hyps=6, nbest_bad_share=0.1,
             cluster_tokens=2_000, cluster_vocab=150, cluster_branching=5,
             cluster_classes=8, cluster_sweeps=1, oracle_sentences=4,
             oracle_entries=10)

REGIMES = {"standard": REGIME_STANDARD, "class": REGIME_CLASS, "tree": REGIME_TREE}

# Per-layer counts a traced run reports on every workload (0 where the
# workload does not do that work), with their units.
LAYER_COUNTS = {"training.macs_per_inst": "MAC",
                "training.ns_per_mac": "ns",
                "training.useful_row_share": "ratio"}
for _r in REGIMES:
    LAYER_COUNTS[f"evaluation.macs_per_query.{_r}"] = "MAC"
    LAYER_COUNTS[f"evaluation.ns_per_mac.{_r}"] = "ns"

TOLERANCE = 1e-4  # per scored token, float32 model against the float64 oracle


def _count(sentences) -> int:
    """Prediction events: every token plus one ``</s>`` per sentence."""
    return sum(len(s) + 1 for s in sentences)


def _digest(params) -> str:
    h = hashlib.sha256()
    for a in [params.Q, params.R, params.b, *params.C, params.S, params.t]:
        if a is not None:
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def lm_corpus(size, seed):
    """Training sentences and the held-out sentences that continue the chain."""
    sents = markov_corpus(size["lm_tokens"] + size["heldout_tokens"],
                          vocab_size=size["lm_vocab"],
                          branching=size["lm_branching"], seed=seed)
    produced = 0
    for cut, sent in enumerate(sents):
        produced += len(sent)
        if produced >= size["lm_tokens"]:
            break
    return sents[:cut + 1], sents[cut + 1:]


def build_model(train_sents, regime, dim, seed, path=None):
    """What ``snlm train`` does before its first step, with the CLI defaults."""
    vocab = snlm.build_vocabulary(train_sents)
    contexts, targets = snlm.instance_arrays(train_sents, vocab, ORDER)
    probs = empirical_unigram(targets, len(vocab))
    classing = tree = None
    if regime == REGIME_CLASS:
        classing = snlm.frequency_binning(probs, math.ceil(math.sqrt(len(vocab))))
    elif regime == REGIME_TREE:
        counts = np.bincount(targets, minlength=len(vocab))
        tree = snlm.huffman_tree({w: int(counts[w]) for w in range(len(vocab))
                             if w != BOS_ID})
    config = ModelConfig(order=ORDER, dim=dim, regime=regime, diagonal=True,
                         vocab_size=len(vocab), classing=classing, tree=tree)
    params = snlm.init_parameters(config, seed=seed, unigram=probs)
    if path is not None:
        snlm.save_model(path, params, vocab)
    return vocab, contexts, targets, params


class Workload:
    """Base: ``setup`` is timed as set-up, ``op`` is one measured operation.

    ``make_inputs`` generates the inputs from the seed; ``describe`` names
    their sizes. ``op`` returns a dict with at least ``items``, the work it
    did, and ``seconds``, the time spent in snlm calls only. ``check`` gets every op result, returns (op index or None for all,
    message) pairs for the failures it finds, and fills ``report`` with
    (name, value, unit) lines printed next to the metrics.
    """

    item = "items"

    def __init__(self, size, seed, workdir):
        self.size, self.seed, self.workdir = size, seed, workdir
        self.report = []

    def layer_counts(self, results) -> dict:
        return {}


class TrainClassNCE(Workload):
    """One epoch of ``train()`` with the default CLI model on a fixed slice."""

    item = "instances"

    def make_inputs(self):
        self.train_sents, self.heldout = lm_corpus(self.size, self.seed)

    def setup(self):
        self.vocab, ctx, tgt, self.params0 = build_model(
            self.train_sents, REGIME_CLASS, self.size["dim"], self.seed)
        n = self.size["train_instances"]
        self.ctx, self.tgt = ctx[:n], tgt[:n]
        self.tconf = TrainingConfig(algorithm="nce", epochs=1, rng_seed=self.seed)
        n_valid = int(round(n * self.tconf.validation_fraction))
        self.n_train = n - n_valid
        self.batches = math.ceil(self.n_train / self.tconf.minibatch_size)

    def describe(self):
        K = self.params0.config.classing.num_classes
        return (f"|V|={len(self.vocab)} K={K} D={self.size['dim']} order={ORDER} "
                f"instances={len(self.tgt)} (trained {self.n_train}) batch=64 k=10")

    def op(self):
        self.trained = None  # one trained copy alive at a time
        params = self.params0.copy()
        macs = MacCounter()
        tick = time.perf_counter()
        snlm.train(params, self.ctx, self.tgt, self.tconf, macs=macs)
        seconds = time.perf_counter() - tick
        self.trained = params
        return {"items": self.n_train, "seconds": seconds, "digest": _digest(params),
                "macs": macs.total, "rows": macs.output_rows}

    def check(self, results):
        fails = [(i, "trained parameters differ from the first run")
                 for i, r in enumerate(results) if r["digest"] != results[0]["digest"]]
        heldout = oracle.instances(self.heldout, self.vocab.tokens, ORDER)
        data = self.ctx.astype(np.int64), self.tgt.astype(np.int64)
        lp = {(name, state): oracle.log_probs(params, *arrays)
              for name, arrays in (("heldout", heldout), ("slice", data))
              for state, params in (("before", self.params0), ("after", self.trained))}
        ppl = {key: math.exp(-v.mean()) for key, v in lp.items()}
        self.report = [(f"train_{name}_ppl" + ("_before" if state == "before" else ""),
                        value, "ppl") for (name, state), value in ppl.items()]
        # One short epoch moves held-out perplexity by under 1%, so the check
        # is that the training slice itself got more likely.
        if not ppl["slice", "after"] < ppl["slice", "before"]:
            fails.append((None, "training did not lower the perplexity of its own data"))
        rep = snlm.perplexity(self.trained, self.heldout, self.vocab)
        if abs(rep.total_log_prob - lp["heldout", "after"].sum()) > TOLERANCE * len(heldout[1]):
            fails.append((None, "perplexity() disagrees with the oracle on held-out text"))
        return fails

    def layer_counts(self, results):
        r = results[-1]
        cfg = self.params0.config
        swept = self.batches * (2 * cfg.vocab_size + cfg.classing.num_classes)
        return {"training.macs_per_inst": r["macs"] / self.n_train,
                "training.ns_per_mac":
                    float(np.median([x["seconds"] * 1e9 / x["macs"] for x in results])),
                "training.useful_row_share": r["rows"] / swept}


class PplHeldout(Workload):
    """``load_model`` then ``perplexity()`` of held-out text, one regime."""

    item = "queries"

    def __init__(self, size, seed, workdir, regime):
        super().__init__(size, seed, workdir)
        self.regime = regime
        self.path = os.path.join(workdir, f"{regime}.snlm")

    def make_inputs(self):
        self.train_sents, self.heldout = lm_corpus(self.size, self.seed)

    def setup(self):
        self.vocab = build_model(self.train_sents, REGIMES[self.regime],
                                 self.size["dim"], self.seed, self.path)[0]

    def describe(self):
        return (f"regime={self.regime} |V|={len(self.vocab)} D={self.size['dim']} "
                f"order={ORDER} held-out queries={_count(self.heldout)}")

    def op(self):
        self.loaded = None  # one loaded model alive at a time
        tick = time.perf_counter()
        params, vocab = snlm.load_model(self.path)
        load_s = time.perf_counter() - tick
        macs = MacCounter()
        tick = time.perf_counter()
        rep = snlm.perplexity(params, self.heldout, vocab, macs=macs)
        ppl_s = time.perf_counter() - tick
        self.loaded = params
        return {"items": rep.token_count, "seconds": load_s + ppl_s,
                "total": rep.total_log_prob, "load_s": load_s, "ppl_s": ppl_s,
                "macs": macs.total}

    def check(self, results):
        last = results[-1]
        self.report = [("load_s", float(np.median([x["load_s"] for x in results])), "s"),
                       (f"macs_per_query_{self.regime}", last["macs"] / last["items"], "MAC"),
                       ("heldout_ppl", math.exp(-last["total"] / last["items"]), "ppl")]
        fails = [(i, "perplexity differs from the first run")
                 for i, r in enumerate(results) if r["total"] != results[0]["total"]]
        fails += [(i, "wrong query count") for i, r in enumerate(results)
                  if r["items"] != _count(self.heldout)]
        rng = np.random.default_rng([self.seed, 7])
        picks = rng.choice(len(self.heldout), size=min(self.size["oracle_sentences"],
                                                       len(self.heldout)), replace=False)
        for s in picks:
            sent = self.heldout[s]
            ctx, tgt = oracle.instances([sent], self.vocab.tokens, ORDER)
            want = oracle.log_probs(self.loaded, ctx, tgt).sum()
            got = snlm.perplexity(self.loaded, [sent], self.vocab).total_log_prob
            if abs(got - want) > TOLERANCE * len(tgt):
                fails.append((None, f"held-out sentence {s}: log P {got:.6f}, "
                                    f"oracle {want:.6f}"))
        return fails

    def layer_counts(self, results):
        r = results[-1]
        return {f"evaluation.macs_per_query.{self.regime}": r["macs"] / r["items"],
                f"evaluation.ns_per_mac.{self.regime}":
                    float(np.median([x["ppl_s"] * 1e9 / x["macs"] for x in results]))}


def nbest_lines(sources, words, hyps, bad_share, rng):
    """n-best lines whose hypotheses differ from the source by 1-3 words.

    Returns (lines, 1-based numbers of the malformed lines, tokens scored).
    """
    lines, bad, tokens = [], [], 0
    for sid, src in enumerate(sources):
        for h in range(hyps):
            hyp = list(src)
            if h:
                for pos in rng.choice(len(hyp), size=min(len(hyp), 1 + h % 3),
                                      replace=False):
                    hyp[pos] = words[rng.integers(len(words))]
            if rng.random() < bad_share:
                # no separator, or an empty sentence id
                lines.append(" ".join(hyp) if rng.random() < 0.5
                             else f" ||| {' '.join(hyp)} ||| 0")
                bad.append(len(lines))
            else:
                lines.append(f"{sid} ||| {' '.join(hyp)} ||| {-h}")
                tokens += len(hyp) + 1
    return lines, bad, tokens


class RescoreNbest(Workload):
    """``load_model`` then ``score_nbest()`` on the class model."""

    item = "tokens"

    def __init__(self, size, seed, workdir, unnormalised):
        super().__init__(size, seed, workdir)
        self.unnormalised = unnormalised
        self.path = os.path.join(workdir, "class.snlm")
        self.nbest_path = os.path.join(workdir, "nbest.txt")

    def make_inputs(self):
        self.train_sents, heldout = lm_corpus(self.size, self.seed)
        rng = np.random.default_rng([self.seed, 3])
        sources = [s for s in heldout if len(s) >= 3][:self.size["nbest_sources"]]
        words = sorted({w for s in self.train_sents for w in s})
        lines, self.bad, self.tokens = nbest_lines(
            sources, words, self.size["nbest_hyps"], self.size["nbest_bad_share"], rng)
        bad = set(self.bad)
        self.good = [(i + 1, ln) for i, ln in enumerate(lines) if i + 1 not in bad]
        with open(self.nbest_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    def setup(self):
        self.vocab = build_model(self.train_sents, REGIME_CLASS,
                                 self.size["dim"], self.seed, self.path)[0]

    def describe(self):
        mode = "unnormalised" if self.unnormalised else "normalised"
        return (f"{mode} |V|={len(self.vocab)} lines={len(self.good) + len(self.bad)} "
                f"malformed={len(self.bad)} tokens={self.tokens}")

    def op(self):
        self.loaded = self.entries = None  # one loaded model alive at a time
        tick = time.perf_counter()
        params, vocab = snlm.load_model(self.path)
        with open(self.nbest_path, encoding="utf-8") as fh:
            entries, errors = snlm.score_nbest(params, fh, vocab,
                                               unnormalised=self.unnormalised)
        seconds = time.perf_counter() - tick
        self.loaded, self.entries = params, entries
        return {"items": self.tokens, "seconds": seconds,
                "scores": [e.score for e in entries],
                "lines": [e.line_no for e in entries],
                "errors": [line_no for line_no, _ in errors]}

    def check(self, results):
        fails = []
        for i, r in enumerate(results):
            if r["errors"] != self.bad:
                fails.append((i, f"malformed lines reported at {r['errors']}, "
                                 f"injected at {self.bad}"))
            if r["lines"] != [n for n, _ in self.good]:
                fails.append((i, "scored lines differ from the well-formed ones"))
            if r["scores"] != results[0]["scores"]:
                fails.append((i, "scores differ from the first run"))
        rng = np.random.default_rng([self.seed, 5])
        score = oracle.raw_scores if self.unnormalised else oracle.log_probs
        n = min(self.size["oracle_entries"], len(self.entries))
        for k in rng.choice(len(self.entries), size=n, replace=False):
            hyp = self.good[k][1].split(" ||| ")[1].split()
            ctx, tgt = oracle.instances([hyp], self.vocab.tokens, ORDER)
            want = score(self.loaded, ctx, tgt).sum()
            got = self.entries[k].score
            if abs(got - want) > TOLERANCE * len(tgt):
                fails.append((None, f"line {self.good[k][0]}: score {got:.6f}, "
                                    f"oracle {want:.6f}"))
        return fails


class ClusterBrown(Workload):
    """``brown_clustering`` for a fixed number of exchange sweeps."""

    item = "words"

    def make_inputs(self):
        self.sents = markov_corpus(self.size["cluster_tokens"],
                                   vocab_size=self.size["cluster_vocab"],
                                   branching=self.size["cluster_branching"],
                                   seed=self.seed)

    def setup(self):
        self.vocab = snlm.build_vocabulary(self.sents)

    def describe(self):
        return (f"|V|={len(self.vocab)} K={self.size['cluster_classes']} "
                f"sweeps={self.size['cluster_sweeps']} tokens={_count(self.sents)}")

    def op(self):
        K, sweeps = self.size["cluster_classes"], self.size["cluster_sweeps"]
        tick = time.perf_counter()
        classing = snlm.brown_clustering(self.sents, self.vocab, K, max_iterations=sweeps)
        seconds = time.perf_counter() - tick
        return {"items": len(self.vocab) * sweeps, "seconds": seconds,
                "class_of": np.array(classing.class_of, dtype=np.int64)}

    def check(self, results):
        K = self.size["cluster_classes"]
        tokens = self.vocab.tokens
        start = oracle.initial_exchange_classes(self.sents, tokens, K)
        start_objective = oracle.class_bigram_objective(self.sents, tokens, start)
        fails = []
        for i, r in enumerate(results):
            sizes = np.bincount(r["class_of"], minlength=K)
            if len(sizes) != K or (sizes == 0).any():
                fails.append((i, f"class sizes {sizes.tolist()} are not {K} non-empty classes"))
            elif not np.array_equal(r["class_of"], results[0]["class_of"]):
                fails.append((i, "classes differ from the first run"))
        objective = oracle.class_bigram_objective(self.sents, tokens,
                                                  results[0]["class_of"])
        self.report = [("cluster_objective", objective, "nats"),
                       ("cluster_objective_start", start_objective, "nats")]
        if objective < start_objective - 1e-9 * abs(start_objective):
            fails.append((None, f"objective {objective:.3f} is below the "
                                f"initial assignment's {start_objective:.3f}"))
        return fails


WORKLOADS = {
    "train-class-nce": TrainClassNCE,
    "ppl-heldout-standard": lambda *a: PplHeldout(*a, "standard"),
    "ppl-heldout-class": lambda *a: PplHeldout(*a, "class"),
    "ppl-heldout-tree": lambda *a: PplHeldout(*a, "tree"),
    "rescore-nbest-norm": lambda *a: RescoreNbest(*a, False),
    "rescore-nbest-unnorm": lambda *a: RescoreNbest(*a, True),
    "cluster-brown": ClusterBrown,
}

# The name each workload's rate goes by in the ROADMAP and in the printed report.
RATE_NAMES = {
    "train-class-nce": "train_inst_per_s",
    "ppl-heldout-standard": "ppl_qps_standard",
    "ppl-heldout-class": "ppl_qps_class",
    "ppl-heldout-tree": "ppl_qps_tree",
    "rescore-nbest-norm": "nbest_tok_per_s_norm",
    "rescore-nbest-unnorm": "nbest_tok_per_s_unnorm",
    "cluster-brown": "cluster_words_per_s",
}
