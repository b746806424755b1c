"""Byte identity of simulate CSVs against the benchmark's recorded digests.

`bench/workloads.py` generates the seed-0 scenario pools and
`bench/reference.json` holds the SHA-256 of every CSV the program must
write for them.  Every `long_holds` op and the `segment_churn` ops of up
to 300 segments run here through `flowhand.cli.main`; nothing under
`bench/` is written.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from flowhand.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
CHURN_MAX_SEGMENTS = 300


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


@pytest.fixture(scope="module")
def digests():
    return json.loads((BENCH / "reference.json").read_text())["digests"]


@pytest.mark.parametrize("workload", ["long_holds", "segment_churn"])
def test_simulate_csv_matches_recorded_digest(workload, workloads, digests, tmp_path, capsys):
    ops = workloads.generate(workload, 0, tmp_path)
    if workload == "segment_churn":
        ops = [op for op in ops if op.segments <= CHURN_MAX_SEGMENTS]
    assert ops
    for op in ops:
        assert op.kind == "simulate"
        assert main(op.argv) == 0, capsys.readouterr().err
        got = hashlib.sha256(Path(op.outputs[0]).read_bytes()).hexdigest()
        assert got == digests[workload][op.pos], f"op {op.pos}: {op.rows} rows"
