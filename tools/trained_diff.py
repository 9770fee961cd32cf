"""Trained-bytes comparison: the parent commit against the working tree.

Usage::

    python3 tools/trained_diff.py --parent HEAD~1
    python3 tools/trained_diff.py --smoke

Each side trains every (regime, algorithm) pair, in float32 and in float64,
on ``markov_corpus(6000, vocab_size=800, branching=8, seed=3)``: order 4,
D 16, two epochs of ``train()`` with l2 1e-3, k 5 and the other
``TrainingConfig`` defaults, from ``init_parameters`` at seed 1 and with
training rng seed 2. Both sides get the same instances and the same default
structures (``OutputLayer.default_structure``, built in the working tree),
so that only training and initialisation differ between them.

The parent is exported with ``git archive``, as ``tools/bench_pairs.py``
does. Each side runs in its own process, with its own ``src`` and
``perfbench`` first on the path and one BLAS thread, as the benchmark runs.

For each pair and dtype the output gives the MAC counts and ``output_rows``
of the two sides, and for each parameter array either "bitwise equal" or the
largest absolute and relative difference (relative to the larger magnitude
of the two values) and the rows where they fall. Last come the trained
digests of the ``train-class-nce`` workload at seeds 1 and 2, as
``perfbench/workloads.py`` computes them. The exit code is 0 when every
array, count and digest is equal, 1 otherwise.

``--smoke`` uses the working tree as both sides (no git needed), a smaller
corpus and the benchmark's smoke shape, for checking that the tool runs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent

CORPUS = {"full": dict(num_tokens=6000, vocab_size=800, branching=8, seed=3),
          "smoke": dict(num_tokens=1500, vocab_size=150, branching=5, seed=3)}
ORDER, DIM, INIT_SEED = 4, 16, 1
TRAINING = dict(epochs=2, l2_strength=1e-3, noise_samples=5, rng_seed=2)
PAIRS = [("standard", "nce"), ("standard", "ml_sgd"), ("class_factored", "nce"),
         ("class_factored", "ml_sgd"), ("tree_factored", "ml_sgd")]
DTYPES = ("float32", "float64")
DIGEST_SEEDS = (1, 2)


def make_setup(path: Path, shape: str) -> None:
    """Write the instances, unigram and default structures both sides train from."""
    sys.path.insert(0, str(ROOT / "src"))
    from snlm.corpus import build_vocabulary, instance_arrays, unigram_from_counts
    from snlm.model import OUTPUT_LAYERS
    from snlm.synthetic import markov_corpus

    sentences = markov_corpus(**CORPUS[shape])
    vocab = build_vocabulary(sentences)
    contexts, targets = instance_arrays(sentences, vocab, ORDER)
    counts = np.bincount(targets, minlength=len(vocab))
    classing = OUTPUT_LAYERS["class_factored"].default_structure(counts)["classing"]
    tree = OUTPUT_LAYERS["tree_factored"].default_structure(counts)["tree"]
    np.savez(path, contexts=contexts, targets=targets, unigram=unigram_from_counts(counts),
             class_of=classing.class_of, num_classes=classing.num_classes,
             tree=np.stack([tree.parent, tree.left, tree.right, tree.leaf_word]))


def run_side(tree: Path, setup_path: Path, out_path: Path, shape: str) -> None:
    """Train every pair with the snlm of ``tree`` and write the trained arrays,
    the MAC counts and the ``train-class-nce`` digests to ``out_path``."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import snlm
    import workloads

    setup = np.load(setup_path)
    structure = {"standard": {},
                 "class_factored": {"classing": snlm.WordClassing(
                     setup["class_of"], int(setup["num_classes"]))},
                 "tree_factored": {"tree": snlm.VocabularyTree(*setup["tree"])}}
    arrays, macs = {}, {}
    for regime, algorithm in PAIRS:
        config = snlm.ModelConfig(order=ORDER, dim=DIM, regime=regime, diagonal=True,
                                  vocab_size=len(setup["unigram"]), **structure[regime])
        for dtype in DTYPES:
            params = snlm.init_parameters(config, seed=INIT_SEED, unigram=setup["unigram"],
                                          dtype=np.dtype(dtype))
            counter = snlm.MacCounter()
            snlm.train(params, setup["contexts"], setup["targets"],
                       snlm.TrainingConfig(algorithm=algorithm, **TRAINING), macs=counter)
            key = f"{regime} {algorithm} {dtype}"
            macs[key] = [counter.projection, counter.output, counter.output_rows]
            arrays.update({f"{key} {name}": a for name, a in params.arrays()})
    digests = []
    with tempfile.TemporaryDirectory() as workdir:
        for seed in DIGEST_SEEDS:
            wl = workloads.TrainClassNCE(workloads.SMOKE if shape == "smoke"
                                         else workloads.FULL, seed, workdir)
            wl.make_inputs()
            wl.setup()
            digests.append(wl.op()["digest"])
    np.savez(out_path, **arrays, _counts=json.dumps({"macs": macs, "digests": digests}))


def difference(parent: np.ndarray, change: np.ndarray) -> str:
    """"bitwise equal", or the largest absolute and relative differences and
    their rows (a 1-D array's rows are its entries)."""
    if parent.shape != change.shape:
        return f"shapes differ: {parent.shape} against {change.shape}"
    if parent.dtype == change.dtype and parent.tobytes() == change.tobytes():
        return "bitwise equal"
    a, b = parent.astype(np.float64), change.astype(np.float64)
    gap = np.abs(a - b)
    scale = np.maximum(np.abs(a), np.abs(b))
    rel = np.divide(gap, scale, out=np.zeros_like(gap), where=scale > 0)
    width = a.shape[1] if a.ndim == 2 else 1
    at_abs, at_rel = int(gap.argmax()) // width, int(rel.argmax()) // width
    return (f"max abs {gap.max():.3g} at row {at_abs}, "
            f"max rel {rel.max():.3g} at row {at_rel}")


def compare(parent: dict, change: dict) -> bool:
    """Print the comparison of two sides' results; True when all are equal."""
    counts = {side: json.loads(str(r["_counts"])) for side, r in
              (("parent", parent), ("change", change))}
    equal = True
    for key, want in counts["parent"]["macs"].items():
        got = counts["change"]["macs"][key]
        equal &= got == want
        print(f"{key}: MACs (projection, output, output_rows) "
              + ("equal " + str(want) if got == want else f"parent {want}, change {got}"))
        for name in (n for n in parent if n.startswith(key + " ")):
            verdict = difference(parent[name], change[name])
            equal &= verdict == "bitwise equal"
            print(f"{name}: {verdict}")
    for seed, want, got in zip(DIGEST_SEEDS, counts["parent"]["digests"],
                               counts["change"]["digests"]):
        equal &= got == want
        print(f"train-class-nce seed {seed} digest: parent {want[:16]}, change {got[:16]}, "
              + ("equal" if got == want else "DIFFERENT"))
    return equal


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="commit to compare against")
    parser.add_argument("--smoke", action="store_true",
                        help="the working tree as both sides, at a small size")
    parser.add_argument("--side", nargs=3, metavar=("TREE", "SETUP", "OUT"),
                        help=argparse.SUPPRESS)  # one side's training, in its own process
    args = parser.parse_args(argv)
    shape = "smoke" if args.smoke else "full"
    if args.side:
        run_side(*map(Path, args.side), shape)
        return 0
    if not args.smoke and not args.parent:
        parser.error("give --parent <commit>, or --smoke")

    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        trees = {"parent": ROOT, "change": ROOT}
        if not args.smoke:
            sys.path.insert(0, str(TOOLS))
            from bench_pairs import export_commit
            print(f"parent {export_commit(args.parent, tmp)}")
            trees["parent"] = tmp / "tree"
        make_setup(tmp / "setup.npz", shape)
        results = {}
        for side, tree in trees.items():
            out = tmp / f"{side}.npz"
            subprocess.run([sys.executable, __file__, "--side", str(tree), str(tmp / "setup.npz"),
                            str(out)] + (["--smoke"] if args.smoke else []),
                           check=True, env=env)
            with np.load(out) as f:
                results[side] = dict(f)
    return 0 if compare(results["parent"], results["change"]) else 1


if __name__ == "__main__":
    sys.exit(main())
