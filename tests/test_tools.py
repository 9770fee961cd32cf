"""The measurement scripts under tools/."""
import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_step_costs_smoke_prints_every_row(capsys):
    step_costs = load_tool("step_costs")
    assert step_costs.main(["--smoke"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = {line[:20].strip(): line[20:].split() for line in lines[2:-1]}
    assert list(rows) == [label for label, *_ in step_costs.RUNS]
    for label, fields in rows.items():
        macs, inst_per_s, ns_per_mac, calls = (float(f.replace(",", "")) for f in fields[:4])
        assert macs > 0 and inst_per_s > 0 and ns_per_mac > 0 and calls > 0, label
    assert lines[-1].startswith("class NCE, diagonal over full:")
