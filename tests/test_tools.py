"""The measurement scripts under tools/."""
import importlib.util
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_step_costs_smoke_prints_every_row(capsys):
    step_costs = load_tool("step_costs")
    assert step_costs.main(["--smoke", "--dim", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert ", D 6," in lines[0]
    rows = {line[:20].strip(): line[20:].split() for line in lines[2:-1]}
    assert list(rows) == [label for label, *_ in step_costs.RUNS]
    for label, fields in rows.items():
        macs, inst_per_s, ns_per_mac, calls = (float(f.replace(",", "")) for f in fields[:4])
        assert macs > 0 and inst_per_s > 0 and ns_per_mac > 0 and calls > 0, label
    assert lines[-1].startswith("class NCE, diagonal over full:")
    assert lines[-1].endswith("fewer MACs, at D 6")


def test_trained_diff_smoke_finds_the_working_tree_equal_to_itself(capfd):
    trained_diff = load_tool("trained_diff")
    assert trained_diff.main(["--smoke"]) == 0
    lines = capfd.readouterr().out.splitlines()
    keys = [f"{r} {a} {d}" for r, a in trained_diff.PAIRS for d in trained_diff.DTYPES]
    assert [line.split(":")[0] for line in lines if "MACs" in line] == keys
    arrays = [line for line in lines if "MACs" not in line
              and not line.startswith("train-class-nce")]
    assert len(arrays) >= 6 * len(keys)
    assert all(line.endswith(": bitwise equal") for line in arrays)
    digests = [line for line in lines if line.startswith("train-class-nce seed")]
    assert len(digests) == 2 and all(line.endswith(", equal") for line in digests)


def test_trained_diff_reports_the_largest_differences_and_their_rows():
    trained_diff = load_tool("trained_diff")
    parent = np.arange(12, dtype=np.float32).reshape(4, 3)
    change = parent.copy()
    assert trained_diff.difference(parent, change) == "bitwise equal"
    change[2, 1] += 0.5   # largest absolute difference, in row 2
    change[0, 1] = 1.25   # largest relative difference (0.2), in row 0
    assert trained_diff.difference(parent, change) == \
        "max abs 0.5 at row 2, max rel 0.2 at row 0"
    assert trained_diff.difference(parent.astype(np.float64), parent) != "bitwise equal"


METRICS = [{"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
           {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]


def runs_of(parent, change, setup=1.0):
    """Synthetic paired runs: items_per_s as given, setup_s fixed."""
    def run(items):
        return {"metrics": {"items_per_s": {"value": items}, "setup_s": {"value": setup}},
                "attempted": 10, "failed": 0}
    return {"parent": [run(v) for v in parent], "change": [run(v) for v in change]}


PARENT = [100, 101, 99, 102, 98, 100, 101, 99, 100, 100]  # q3 - q1 = 1.5


def test_report_shows_a_gain_won_in_nine_of_ten_pairs():
    bench_pairs = load_tool("bench_pairs")
    lost = [120, 121, 119, 122, 118, 120, 121, 119, 120, 90]
    tied = [120, 121, 119, 122, 118, 120, 121, 119, 120, 100]
    for change in (lost, tied):
        rep = bench_pairs.report(runs_of(PARENT, change), METRICS)
        items = rep["items_per_s"]
        assert items["pairs_change_better"] == 9 and items["gain_shown"]
        assert not items["worse_than_bound"] and not items["unresolved"]
        assert rep["setup_s"]["pairs_change_better"] == 0  # ten ties
        assert not rep["setup_s"]["gain_shown"]
        assert rep["change_operations"] == {"attempted": 100, "failed": 0}


def test_report_needs_nine_wins_and_a_gap_wider_than_the_parent_spread():
    bench_pairs = load_tool("bench_pairs")
    eight = [120, 121, 119, 122, 118, 120, 121, 119, 100, 100]  # two ties
    narrow = [v + 0.5 for v in PARENT]  # wins every pair, by less than q3 - q1
    for change in (eight, narrow):
        rep = bench_pairs.report(runs_of(PARENT, change), METRICS)
        assert not rep["items_per_s"]["gain_shown"]
    assert bench_pairs.report(runs_of(PARENT, narrow), METRICS)[
        "items_per_s"]["pairs_change_better"] == 10


def test_report_shows_no_gain_from_fewer_than_ten_pairs():
    """Three pairs won of three, by far more than the parent's spread, show
    no gain: too few pairs to tell one from the machine's drift."""
    bench_pairs = load_tool("bench_pairs")
    rep = bench_pairs.report(runs_of(PARENT[:3], [120, 121, 119]), METRICS)
    items = rep["items_per_s"]
    assert items["pairs_change_better"] == 3 and not items["gain_shown"]
    assert not items["worse_than_bound"]


def test_lower_is_better_gain_and_verdict_line():
    bench_pairs = load_tool("bench_pairs")
    runs = runs_of([100] * 10, [60] * 10)
    for i, r in enumerate(runs["parent"]):
        r["metrics"]["setup_s"]["value"] = 1.0 + 0.01 * i
    for r in runs["change"]:
        r["metrics"]["setup_s"]["value"] = 0.5
    rep = bench_pairs.report(runs, METRICS)
    assert rep["setup_s"]["gain_shown"] and rep["setup_s"]["pairs_change_better"] == 10
    assert rep["items_per_s"]["worse_than_bound"] and not rep["items_per_s"]["gain_shown"]
    assert (bench_pairs.verdict("w", rep, METRICS)
            == "w: items_per_s worse_than_bound; gain shown: setup_s")
    same = bench_pairs.report(runs_of([100] * 10, [100] * 10), METRICS)
    assert (bench_pairs.verdict("w", same, METRICS)
            == "w: every metric within its bound; gain shown: none")


SAMPLE_MODULE = '''"""A module docstring,
over two lines."""

import os  # a comment after code


# a comment line
def f(x):
    """A function docstring."""
    s = """a string
that is no docstring"""
    return (x +
            len(s))
'''


def test_code_lines_counts_a_known_module_and_totals_the_package(tmp_path, capsys):
    code_lines = load_tool("code_lines")
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE_MODULE)
    # code: the import, the def, both lines of the string and of the return
    assert code_lines.count(path) == (13, 6)
    assert code_lines.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["module", "lines", "code"]
    rows = {f[0]: [int(v.replace(",", "")) for v in f[1:]] for f in map(str.split, lines[1:])}
    names = [p.name for p in sorted((code_lines.ROOT / code_lines.PACKAGE).glob("*.py"))]
    assert list(rows) == names + ["total"]
    total = rows.pop("total")
    assert total == [sum(r[0] for r in rows.values()), sum(r[1] for r in rows.values())]
    assert 0 < total[1] < total[0]
