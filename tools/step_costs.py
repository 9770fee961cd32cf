"""Training step costs per regime and algorithm, at the ROADMAP *Baseline* shape.

Usage::

    OPENBLAS_NUM_THREADS=1 python3 tools/step_costs.py [--dim 500]
    python3 tools/step_costs.py --smoke

The *Baseline* shape is ``markov_corpus(60_000, vocab_size=20000,
branching=20, seed=1)`` (|V| 17,680), order 5, D 100, batch 64, k 10 and one
epoch of ``train()``, as ``snlm train`` sets a model up: classes binned by
frequency into ceil(sqrt(|V|)) bins, a Huffman tree over target counts.
``--smoke`` is a small corpus of the same kind (D 8), timed once, for
checking that the tool runs. ``--dim`` sets D for every row in place of the
shape's.

Each row is one ``train()`` epoch (diagonal transforms unless named full):

* ``MACs/inst``: the epoch's analytic training MACs per training instance;
* ``step inst/s``: training instances over the epoch's step time
  (``EpochStats.train_seconds``, the steps and the flush, without the
  perplexity passes), the fastest of ``REPEATS`` epochs from the same
  start;
* ``ns/MAC``: step time over MACs;
* ``calls/step``: function calls, Python and builtin as cProfile counts them,
  made by an epoch outside its perplexity passes, less those of a run with no
  epoch, over the number of steps, on the first ``CALL_INSTANCES``
  instances of the timed model, whose structure is built from every
  target;
* ``epoch/steps``: that epoch's whole time over its step time;
* ``peak/params``: the traced peak (``tracemalloc``) of one more, untimed
  epoch of the timed model on the first ``CALL_INSTANCES`` instances, over
  the parameters' bytes. The parameters and the instances exist before the
  trace starts, so this is what the epoch holds beyond them.

The last line is the diagonal-to-full step-speed ratio of class NCE at that
D, next to the ratio of their MACs.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from snlm import training  # noqa: E402
from snlm.corpus import build_vocabulary, instance_arrays, unigram_from_counts  # noqa: E402
from snlm.model import (OUTPUT_LAYERS, REGIME_CLASS, REGIME_STANDARD,  # noqa: E402
                        REGIME_TREE, MacCounter, ModelConfig, init_parameters)
from snlm.synthetic import markov_corpus  # noqa: E402
from snlm.training import TrainingConfig, train  # noqa: E402

SHAPES = {"baseline": dict(tokens=60_000, vocab=20_000, branching=20, dim=100),
          "smoke": dict(tokens=1_200, vocab=150, branching=5, dim=8)}
ORDER, BATCH, K_NOISE = 5, 64, 10
REPEATS = 3  # timed epochs per row at the Baseline shape; the fastest counts
CALL_INSTANCES = 6_400  # 95 steps: counting every call is slow
# (label, regime, algorithm, diagonal)
RUNS = [("standard / nce", REGIME_STANDARD, "nce", True),
        ("standard / ml_sgd", REGIME_STANDARD, "ml_sgd", True),
        ("class / nce", REGIME_CLASS, "nce", True),
        ("class / ml_sgd", REGIME_CLASS, "ml_sgd", True),
        ("tree / ml_sgd", REGIME_TREE, "ml_sgd", True),
        ("class / nce, full", REGIME_CLASS, "nce", False)]


def make_params(vocab, targets, regime, diagonal, dim):
    """Fresh parameters set up as ``snlm train`` sets them up."""
    counts = np.bincount(targets, minlength=len(vocab))
    config = ModelConfig(order=ORDER, dim=dim, regime=regime, diagonal=diagonal,
                         vocab_size=len(vocab),
                         **OUTPUT_LAYERS[regime].default_structure(counts))
    return init_parameters(config, seed=1, unigram=unigram_from_counts(counts))


def count_calls(run) -> int:
    """Calls ``run()`` makes outside ``training._ppl``, the perplexity passes."""
    ppl, state = training._ppl.__code__, {"calls": 0, "skip": 0}

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is ppl:
            state["skip"] += 1
        elif event == "return" and frame.f_code is ppl:
            state["skip"] -= 1
        elif event in ("call", "c_call") and not state["skip"]:
            state["calls"] += 1

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return state["calls"]


def measure(label, regime, algorithm, diagonal, data, dim, repeats) -> dict:
    vocab, contexts, targets = data
    config = TrainingConfig(algorithm=algorithm, minibatch_size=BATCH,
                            noise_samples=K_NOISE, epochs=1, rng_seed=1)
    params = make_params(vocab, targets, regime, diagonal, dim)
    epochs = []
    for _ in range(repeats):
        macs = MacCounter()
        epochs.append(train(params.copy(), contexts, targets, config, macs=macs).epochs[0])
    epoch = min(epochs, key=lambda e: e.train_seconds)
    n_train = len(targets) - int(round(len(targets) * config.validation_fraction))

    ctx, tgt = contexts[:CALL_INSTANCES], targets[:CALL_INSTANCES]
    n_calls = len(tgt) - int(round(len(tgt) * config.validation_fraction))
    calls = {}
    for n_epochs in (0, 1):
        run_config = dataclasses.replace(config, epochs=n_epochs)
        calls[n_epochs] = count_calls(lambda: train(params.copy(), ctx, tgt, run_config))
    traced = params.copy()
    tracemalloc.start()
    try:
        train(traced, ctx, tgt, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"label": label, "macs_per_inst": macs.total / n_train,
            "inst_per_s": n_train / epoch.train_seconds,
            "ns_per_mac": epoch.train_seconds * 1e9 / macs.total,
            "calls_per_step": (calls[1] - calls[0]) / math.ceil(n_calls / BATCH),
            "epoch_over_steps": epoch.seconds / epoch.train_seconds,
            "peak_over_params": peak / sum(a.nbytes for _, a in params.arrays())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="a small corpus, for a quick check")
    parser.add_argument("--dim", type=int, help="D of every row (default: the shape's)")
    args = parser.parse_args(argv)

    shape = SHAPES["smoke" if args.smoke else "baseline"]
    dim = shape["dim"] if args.dim is None else args.dim
    sentences = markov_corpus(shape["tokens"], vocab_size=shape["vocab"],
                              branching=shape["branching"], seed=1)
    vocab = build_vocabulary(sentences)
    contexts, targets = instance_arrays(sentences, vocab, ORDER)
    print(f"|V| {len(vocab)}, {len(targets)} instances, order {ORDER}, D {dim}, "
          f"batch {BATCH}, k {K_NOISE}, one epoch")
    print(f"{'regime / algorithm':<20} {'MACs/inst':>10} {'step inst/s':>12} "
          f"{'ns/MAC':>7} {'calls/step':>11} {'epoch/steps':>12} {'peak/params':>12}")
    rows = {}
    for run in RUNS:
        tick = time.perf_counter()
        r = rows[run[0]] = measure(*run, (vocab, contexts, targets), dim,
                                   1 if args.smoke else REPEATS)
        print(f"{r['label']:<20} {r['macs_per_inst']:>10,.0f} {r['inst_per_s']:>12,.0f} "
              f"{r['ns_per_mac']:>7.2f} {r['calls_per_step']:>11,.0f} "
              f"{r['epoch_over_steps']:>11.2f}x {r['peak_over_params']:>11.2f}x"
              f"   ({time.perf_counter() - tick:.1f} s)",
              flush=True)
    diag, full = rows["class / nce"], rows["class / nce, full"]
    print(f"class NCE, diagonal over full: {diag['inst_per_s'] / full['inst_per_s']:.2f}x "
          f"the step speed for {full['macs_per_inst'] / diag['macs_per_inst']:.1f}x "
          f"fewer MACs, at D {dim}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
