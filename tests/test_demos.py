"""The demos run end to end. Demo 04, the slowest (NCE against exact
training, several seconds), is left out."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["01_vocabulary_and_instances", "02_word_classes",
                                  "03_output_regimes", "05_nbest_rescoring",
                                  "06_model_size_and_speed"])
def test_demo_exits_zero(name, tmp_path):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
