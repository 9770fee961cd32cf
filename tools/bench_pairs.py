"""Before/after benchmark pairs: the parent commit against the working tree.

Usage::

    python3 tools/bench_pairs.py --parent HEAD~1 --out BENCH_6.json \\
        --pairs 10 --workloads rescore-nbest-norm --first-seed 311

For each workload and each pair i, ``perfbench/run.py --trace 0`` runs once
on an export of the parent commit (``git archive`` into a temporary
directory) and once on the working tree, both at seed ``first_seed + i``
and with the run length from ``BENCHMARK.json``. Which side runs first
alternates from pair to pair, so that drift of the machine's speed falls on
both sides alike.

The output JSON holds, per workload and per end-to-end metric of
``BENCHMARK.json``, each side's median and quartiles and every run's value,
the number of pairs in which the change is better, the ratio of the medians,
and each side's failed and attempted operation counts. It is rewritten after
every pair, so an interrupted run keeps the pairs it finished.

Each metric also gets a regression verdict against its ``bound``, which
``BENCHMARK.json`` states relative to the parent's median:
``worse_than_bound`` when the change's median is worse than the parent's by
more than the bound, and ``unresolved`` when either side's quartile spread
(q3 - q1 over the median) is wider than the bound, so that the runs cannot
tell. A metric's ``gain_shown`` is true when at least ``GAIN_PAIRS`` (10)
pairs were run, the change is better in at least nine of every ten pairs
(a tie counts for neither side) and the medians differ, in the change's
favour, by more than the parent's quartile spread (q3 - q1): three pairs
won of three cannot tell a gain from the machine's drift. One verdict line
per workload is printed once its pairs are done.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GAIN_PAIRS = 10  # the fewest pairs that can show a gain


def export_commit(commit: str, dest: Path) -> str:
    """Write the files of ``commit`` under ``dest``; returns its full hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{commit}^{{commit}}"],
                         cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()
    archive = dest / "parent.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                       check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "tree", filter="data")
    archive.unlink()
    return sha


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one end-to-end run in the checkout ``tree``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed} in {tree} failed:\n"
                           f"{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1])


def summary(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def report(runs: dict, metrics: list) -> dict:
    """Per-metric comparison of the paired runs of one workload."""
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        side = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in runs}
        better = sum((c > p) if higher else (c < p)
                     for p, c in zip(side["parent"], side["change"]))
        parent, change = summary(side["parent"]), summary(side["change"])
        bound, ratio = metric["bound"], change["median"] / parent["median"]
        gain = (change["median"] - parent["median"]) * (1 if higher else -1)
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "bound": bound, "parent": parent, "change": change,
                     "change_to_parent": ratio, "pairs_change_better": better,
                     "worse_than_bound": ratio < 1 - bound if higher else ratio > 1 + bound,
                     "unresolved": any((s["q3"] - s["q1"]) / s["median"] > bound
                                       for s in (parent, change)),
                     "gain_shown": (len(side["parent"]) >= GAIN_PAIRS
                                    and 10 * better >= 9 * len(side["parent"])
                                    and gain > parent["q3"] - parent["q1"])}
    for s in runs:
        out[f"{s}_operations"] = {"attempted": sum(r["attempted"] for r in runs[s]),
                                  "failed": sum(r["failed"] for r in runs[s])}
    return out


def verdict(name: str, rep: dict, metrics: list) -> str:
    """One line naming the workload's metrics that are worse than their
    bound or unresolved, and those whose gain is shown."""
    flags = [f"{m['name']} {flag}" for m in metrics
             for flag in ("worse_than_bound", "unresolved") if rep[m["name"]][flag]]
    gains = [m["name"] for m in metrics if rep[m["name"]]["gain_shown"]]
    return (f"{name}: {', '.join(flags) or 'every metric within its bound'}"
            f"; gain shown: {', '.join(gains) or 'none'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default="all",
                        help="comma-separated names, or 'all'")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = ([w["name"] for w in bench["workloads"]] if args.workloads == "all"
             else args.workloads.split(","))
    out_path = Path(args.out).resolve()
    result = json.loads(out_path.read_text()) if out_path.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        sha = export_commit(args.parent, Path(tmp))
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
        result.update({"parent": sha, "change": f"working tree on {head}",
                       "seconds": bench["run_seconds"]})
        result.setdefault("workloads", {})
        trees = {"parent": Path(tmp) / "tree", "change": ROOT}
        for name in names:
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                seed = args.first_seed + i
                sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in sides:
                    runs[side].append(run_once(trees[side], name, seed,
                                               bench["run_seconds"]))
                result["workloads"][name] = {
                    "seeds": [args.first_seed, seed],
                    **report(runs, bench["end_to_end"])}
                out_path.write_text(json.dumps(result, indent=1) + "\n")
                items = result["workloads"][name]["items_per_s"]
                print(f"{name} pair {i + 1}/{args.pairs}: items_per_s parent "
                      f"{items['parent']['median']:.4g}, change "
                      f"{items['change']['median']:.4g}", flush=True)
            print(verdict(name, result["workloads"][name], bench["end_to_end"]),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
