"""snlm benchmark: one workload per run, end-to-end or traced.

Usage::

    python3 perfbench/run.py --workload ppl-heldout-class --seed 1 \\
        --seconds 10 --trace 0

The run makes its inputs from ``--seed``, sets up (timed, several times),
warms up with one operation, then repeats the workload's operation for
``--seconds`` seconds in a closed loop on one thread. It prints each metric as
``name value unit`` and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median set-up
time), ``items_per_s`` (median work rate of the operations) and
``peak_rss_mb``. The two timings are scaled by the speed of a reference
kernel timed next to each set-up and operation (see ``Reference``); the run
also prints them as timed. ``--trace 1`` alternates untraced and traced
operations and reports per-function call counts and self times, MAC counts
and the tracing overhead.

``--smoke`` shrinks every input so that a run takes about a second.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 100
REFERENCE_SHARE = 0.1  # reference-kernel time per second of measured work


class Reference:
    """A fixed kernel, independent of snlm, timed next to the program's work.

    The machines this runs on are shared, and their speed shifts by a third
    from one minute to the next, for snlm and for this kernel alike. The
    end-to-end timings are therefore scaled to a machine on which one kernel
    call takes ``NOMINAL_S`` (about what it takes on the 2-CPU box the
    benchmark was written on): ``seconds * NOMINAL_S / kernel seconds``.
    """

    NOMINAL_S = 0.008

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.table = rng.normal(size=(4000, 100)).astype(np.float32)
        self.rows = rng.integers(0, 4000, size=2000)

    def _kernel(self):
        # interpreter work and small numpy gathers, the mix snlm spends on
        acc = 0
        for i in range(60_000):
            acc += i * i % 7
        for _ in range(20):
            acc += float((self.table[self.rows] @ self.table[0]).sum())
        return acc

    def speed(self, budget):
        """Nominal over measured kernel time, from calls filling ``budget`` s."""
        times = []
        deadline = time.perf_counter() + budget
        while not times or time.perf_counter() < deadline:
            tick = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - tick)
        return self.NOMINAL_S / statistics.median(times)


def _import_snlm():
    """Import snlm from this checkout's ``src``; None when it is not there."""
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import snlm
    except ImportError:
        return None
    if Path(snlm.__file__).resolve().parent.parent != SRC:
        return None
    return snlm


def _setup(wl, ref):
    """(median set-up seconds, the same scaled to the nominal machine)."""
    times, scaled = [], []
    while (len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS) \
            and len(times) < SETUP_MAX_REPEATS:
        tick = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - tick)
        scaled.append(times[-1] * ref.speed(REFERENCE_SHARE * times[-1]))
    return statistics.median(times), statistics.median(scaled)


class Ops:
    """Runs a workload's operation and counts failures."""

    def __init__(self, wl):
        self.wl = wl
        self.results = []   # result dicts of the ops that returned
        self.raised = 0

    def run_one(self):
        """The result of one operation, or None when it raised."""
        try:
            result = self.wl.op()
        except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
            traceback.print_exc()
            self.raised += 1
            return None
        self.results.append(result)
        return result

    def verdict(self):
        """(attempted, failed, messages) after the workload's checks."""
        attempted = len(self.results) + self.raised
        if not self.results:
            return attempted, attempted, ["every operation raised"]
        try:
            found = self.wl.check(self.results)
        except Exception:  # noqa: BLE001 - a check that raises fails the run
            found = [(None, traceback.format_exc())]
        bad = {i for i, _ in found}
        failed = attempted if None in bad else self.raised + len(bad)
        return attempted, failed, [msg for _, msg in found]


def run_plain(wl, seconds):
    """(ops, end-to-end metrics, unscaled medians) of an untraced run."""
    ref = Reference()
    raw_setup_s, setup_s = _setup(wl, ref)
    print(f"input: {wl.describe()}")
    ops = Ops(wl)
    ops.run_one()  # warm-up, checked but not timed into the rate
    first = len(ops.results)
    deadline = time.perf_counter() + seconds
    while True:
        result = ops.run_one()
        if result is not None:
            result["speed"] = ref.speed(REFERENCE_SHARE * result["seconds"])
        if time.perf_counter() >= deadline:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    timed = ops.results[first:]
    rates = [r["items"] / r["seconds"] for r in timed] or [0.0]
    scaled = [r["items"] / r["seconds"] / r["speed"] for r in timed] or [0.0]
    metrics = {"setup_s": (setup_s, "s"),
               "items_per_s": (statistics.median(scaled), "1/s"),
               "peak_rss_mb": (rss_mb, "MB")}
    unscaled = {"setup_s": raw_setup_s, "items_per_s": statistics.median(rates),
                "speed": statistics.median(r["speed"] for r in timed) if timed else 0.0,
                "operations": len(timed)}
    return ops, metrics, unscaled


def run_traced(wl, seconds, spans_path):
    from tracing import SPAN_NAMES, Tracer
    import workloads

    tracer = Tracer()
    with tracer:
        wl.setup()
    print(f"input: {wl.describe()}")
    ops = Ops(wl)
    ops.run_one()  # warm-up
    # Untraced and traced operations alternate, so that drift over the run
    # does not land on one side of the overhead.
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(ops.run_one())
        with tracer:
            traced.append(ops.run_one())
    tracer.write(spans_path)
    pairs = [(u, t) for u, t in zip(untraced, traced) if u and t]

    metrics = {}
    for name, (calls, self_s) in tracer.summary().items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    counts = dict.fromkeys(workloads.LAYER_COUNTS, 0.0)
    if pairs:
        counts.update(wl.layer_counts([u for u, _ in pairs]))
    for name, value in counts.items():
        metrics[name] = (value, workloads.LAYER_COUNTS[name])
    metrics["trace_overhead_s"] = (sum(t["seconds"] - u["seconds"] for u, t in pairs), "s")
    metrics["trace_wall_s"] = (tracer.wall_s, "s")
    for name in tracer.absent:
        print(f"absent: {name}")
    # Methods are grouped by class, so training.Gradients is one line.
    groups = {}
    for name in SPAN_NAMES:
        key = name.rsplit(".", 1)[0] if name.count(".") > 1 else name
        groups[key] = groups.get(key, 0.0) + metrics[f"{name}.self_s"][0]
    for key, self_s in sorted(groups.items(), key=lambda kv: -kv[1])[:8]:
        if self_s > 0:
            print(f"self-time share {self_s / tracer.wall_s:7.2%}  {key}")
    return ops, metrics


def main(argv=None) -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if _import_snlm() is None:
        print(f"error: snlm sources not found under {SRC}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    out = HERE / "out"
    workdir = out / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        size = workloads.SMOKE if args.smoke else workloads.FULL
        wl = workloads.WORKLOADS[args.workload](size, args.seed, str(workdir))
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
        wl.make_inputs()
        if args.trace:
            ops, metrics = run_traced(wl, args.seconds,
                                      out / f"spans-{args.workload}.tsv")
        else:
            ops, metrics, unscaled = run_plain(wl, args.seconds)
        attempted, failed, messages = ops.verdict()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in messages:
        print(f"check failed: {msg}")
    if not args.trace:
        print(f"{workloads.RATE_NAMES[args.workload]} {unscaled['items_per_s']:.6g} "
              f"{wl.item}/s over {unscaled['operations']} operations, as timed")
        print(f"machine speed {unscaled['speed']:.4g} x nominal; as timed, "
              f"setup_s {unscaled['setup_s']:.6g} s")
    for name, value, unit in wl.report:
        print(f"{name} {value:.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_share {failed / attempted:.6g} ({failed} of {attempted})")
    print(f"correct {str(failed == 0).lower()}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
