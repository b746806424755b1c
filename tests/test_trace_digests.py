"""Byte identity of simulate CSVs against the benchmark's recorded digests.

`bench/workloads.py` generates the seed-0 scenario pools and
`bench/reference.json` holds the SHA-256 of every CSV the program must
write for them.  Every `long_holds` and `segment_churn` op runs here
through `flowhand.cli.main`; so do the seed-1 pools, whose CSVs are
compared with the harness's own rebuild, `bench/checks.expected_csv`.
A tiny benchmark run per workload checks the harness end to end;
nothing under `bench/` is written.
"""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flowhand.cli import main

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def bench_module(name: str):
    """Import a module of `bench/` without writing bytecode there."""
    sys.path.insert(0, str(BENCH))
    dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = dont_write_bytecode


@pytest.fixture(scope="module")
def workloads():
    return bench_module("workloads")


@pytest.fixture(scope="module")
def checks():
    return bench_module("checks")


@pytest.fixture(scope="module")
def digests():
    return json.loads((BENCH / "reference.json").read_text())["digests"]


@pytest.mark.parametrize("workload", ["long_holds", "segment_churn"])
def test_simulate_csv_matches_recorded_digest(workload, workloads, digests, tmp_path, capsys):
    ops = workloads.generate(workload, 0, tmp_path)
    assert ops
    for op in ops:
        assert op.kind == "simulate"
        assert main(op.argv) == 0, capsys.readouterr().err
        got = hashlib.sha256(Path(op.outputs[0]).read_bytes()).hexdigest()
        assert got == digests[workload][op.pos], f"op {op.pos}: {op.rows} rows"


@pytest.mark.parametrize("workload", ["long_holds", "segment_churn"])
def test_simulate_csv_matches_rebuilt_trace_beyond_seed_0(workload, workloads, checks,
                                                          tmp_path, capsys):
    # the harness rebuilds each seed-1 CSV from the per-command rows of
    # bench/reference.json, formatting the time with format(t, ".6g")
    ref = checks.load_reference()
    ops = workloads.generate(workload, 1, tmp_path)
    assert ops
    for op in ops:
        assert main(op.argv) == 0, capsys.readouterr().err
        want = checks.expected_csv(workloads.ScenarioSpec.load(op.scenario), ref)
        assert Path(op.outputs[0]).read_bytes() == want, f"op {op.pos}: {op.rows} rows"


@pytest.mark.parametrize("workload", ["long_holds", "segment_churn", "design_sweep"])
def test_tiny_benchmark_run_is_correct(workload):
    # three passes over a few small ops, every command in one process;
    # generated files go to .bench_out/ at the root of the checkout
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--tiny",
         "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] > 0
