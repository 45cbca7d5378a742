"""Each demo script runs to completion against the library in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SLOW = {"05_regime_ensemble.py"}


@pytest.mark.parametrize("demo", [
    pytest.param(d, id=d.stem,
                 marks=[pytest.mark.slow] if d.name in SLOW else [])
    for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
