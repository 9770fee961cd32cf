"""Smoke-size runs of every workload; they check the output, not the timings.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]


def run(workload, trace, cwd=ROOT, seconds="0.5"):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0, proc.stdout
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_all_printed(workload):
    proc = run(workload, 0)
    out = result(proc)
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())
    lines = proc.stdout.splitlines()
    for name, unit in want.items():
        assert any(ln.startswith(f"{name} ") and ln.endswith(f" {unit}") for ln in lines)
    assert any(ln.startswith("failed_share 0 ") for ln in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_per_layer_metrics(workload):
    out = result(run(workload, 1))
    metrics = out["metrics"]
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == want
    self_total = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    assert 0 < self_total <= metrics["trace_wall_s"]["value"]
    assert sum(v["value"] for k, v in metrics.items() if k.endswith(".calls")) > 0


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")


def test_absent_function_is_reported_not_fatal(monkeypatch):
    import snlm  # noqa: F401 - the tracer patches loaded snlm modules
    import tracing

    traced = tracing.TRACED + (("model", "no_such_function"),)
    monkeypatch.setattr(tracing, "TRACED", traced)
    monkeypatch.setattr(tracing, "SPAN_NAMES",
                        tuple(f"{m}.{q}" for m, q in traced))
    original = snlm.build_vocabulary
    tracer = tracing.Tracer()
    for _ in range(2):
        with tracer:
            snlm.build_vocabulary([["a", "b"]])
    assert tracer.absent == ["model.no_such_function"]
    summary = tracer.summary()
    assert summary["model.no_such_function"] == (0, 0.0)
    assert summary["corpus.build_vocabulary"][0] == 2
    assert snlm.build_vocabulary is original


def test_checks_catch_a_wrong_score(tmp_path):
    import workloads

    wl = workloads.WORKLOADS["rescore-nbest-norm"](workloads.SMOKE, 3, str(tmp_path))
    wl.make_inputs()
    wl.setup()
    results = [wl.op()]
    assert wl.check(results) == []
    wl.loaded.R *= 1.5
    assert any(i is None for i, _ in wl.check(results))
    results[0]["errors"] = results[0]["errors"] + [len(wl.good) + len(wl.bad) + 1]
    assert any(i == 0 for i, _ in wl.check(results))
