"""Self-test of the benchmark at tiny sizes: python3 -m pytest bench -q"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from checks import DEFAULT_SEED, expected_csv, load_reference  # noqa: E402


def declared(kind):
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def pool_files(workload, seed, tmp_path):
    tmp_path.mkdir()
    ops = workloads.generate(workload, seed, tmp_path, tiny=True)
    files = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
    return [op.argv for op in ops], files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_depends_only_on_seed(workload, tmp_path):
    a = pool_files(workload, 5, tmp_path / "a")
    b = pool_files(workload, 5, tmp_path / "b")
    c = pool_files(workload, 6, tmp_path / "c")
    strip = lambda pool, d: (json.dumps(pool[0]).replace(str(tmp_path / d), ""), pool[1])
    assert strip(a, "a") == strip(b, "b")
    assert strip(a, "a") != strip(c, "c")


@pytest.mark.parametrize("workload", ["long_holds", "segment_churn"])
def test_rebuilt_traces_match_recorded_digests(workload, tmp_path):
    ref = load_reference()
    ops = workloads.generate(workload, DEFAULT_SEED, tmp_path)
    rebuilt = [hashlib.sha256(expected_csv(workloads.ScenarioSpec.load(op.scenario), ref))
               .hexdigest() for op in ops]
    assert rebuilt == ref["digests"][workload]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = declared("per_layer" if trace == "1" else "end_to_end")
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_wrong_trace_fails_the_check(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    from flowhand.cli import main
    from checks import Checker, call

    golden = ROOT / "tests" / "data" / "table1_golden.txt"
    op = workloads.generate("long_holds", 3, tmp_path, tiny=True)[0]
    result = call(main, op.argv)
    assert Checker(main, "long_holds", 3, True, tmp_path, golden).check(op, *result) is None
    out = Path(op.outputs[0])
    out.write_bytes(out.read_bytes()[:-2] + b"x\n")
    assert Checker(main, "long_holds", 3, True, tmp_path, golden).check(op, *result) is not None


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "long_holds", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
