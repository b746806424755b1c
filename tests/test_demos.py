"""The runtime and every demo run with numpy blocked from import.

numpy is a test dependency only; each case runs in a fresh interpreter
where `import numpy` raises ImportError.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
BLOCK_NUMPY = "import sys; sys.modules['numpy'] = None\n"


def run_without_numpy(code: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", BLOCK_NUMPY + code, *argv],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_without_numpy(demo):
    done = run_without_numpy(
        "import runpy; runpy.run_path(sys.argv[1], run_name='__main__')", str(demo))
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_cli_runs_without_numpy(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"segments": [
        {"duration_s": 0.05, "q_src_lpm": 50.0},
        {"duration_s": 0.05, "q_src_lpm": 150.0},
    ]}))
    done = run_without_numpy(
        "from flowhand.cli import main\n"
        "assert main(['validate']) == 0\n"
        "assert main(['simulate', sys.argv[1]]) == 0\n", str(scenario))
    assert done.returncode == 0, done.stderr
    assert "checks passed" in done.stdout
    assert done.stdout.count(",C,") == 5
