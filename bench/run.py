"""flowhand benchmark: one closed-loop client running CLI commands in process.

    python3 bench/run.py --workload long_holds --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, one after another

Each op is one `flowhand.cli.main([...])` call with stdout and stderr
captured, sent only after the previous one returned (one client, one
process, no extra threads).  The run sends whole passes over the
workload's seeded op pool, at least MIN_PASSES of them, until another
pass would end after `--seconds` of op wall time.  Every op's output is
checked (see checks.py); a wrong output, an unexpected exit code or an
exception out of `main` counts the op as failed.

Times are reported at reference speed.  The machine is shared: a
neighbour on the same core slows every instruction by up to ~1.8x, for
seconds to minutes at a time.  So a short, fixed slice of interpreter
work (`calibrate`) runs just before and just after each op and each
cold-start probe, and the measured wall time is scaled by
CALIBRATION_REF_S over the mean of the two.  The raw op wall time goes
to stderr.

--trace 0 prints the end-to-end metrics.  --trace 1 sends one pass
untraced, then the same pass with spans recorded around the public
functions of every layer (see spans.py), and prints the per-layer
metrics and the tracing overhead.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

The program is imported from `src/` of the checkout that holds this
directory; the run exits 2 without a result if it is not there.
Generated inputs and outputs live in `.bench_out/` of the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import workloads
from checks import Checker, call
from spans import Tracer, install

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "table1_golden.txt"
OUT = ROOT / ".bench_out"
WALL_LIMIT_S = 120.0           # stop sending passes after this much wall time
SETUP_PROBES = 11
CALIBRATION_ROWS = 600
CALIBRATION_REF_S = 550e-6     # calibrate() on an uncontended core of the reference machine
MIN_PASSES = 3

# A fresh interpreter imports the CLI and builds the default system, as
# every `flowhand` command does.  Prints where it imported from and the
# two durations.
PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import flowhand.cli
t1 = time.perf_counter()
flowhand.config.load_system()
t2 = time.perf_counter()
print(flowhand.__file__, t1 - t0, t2 - t1)
"""


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked."""


def cold_start(importtime: bool) -> tuple[float, float, float]:
    """(import s, first load_system s, numpy import s) from one fresh interpreter."""
    cmd = [sys.executable, "-E", "-s"] + (["-X", "importtime"] if importtime else [])
    proc = subprocess.run(cmd + ["-c", PROBE, str(SRC)], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    if proc.returncode != 0:
        raise SetupError(f"cold-start probe failed: {proc.stderr.strip()[-500:]}")
    path, import_s, load_s = proc.stdout.split()
    if not Path(path).resolve().is_relative_to(SRC):
        raise SetupError(f"probe imported flowhand from {path}, not from {SRC}")
    numpy_s = 0.0
    for line in proc.stderr.splitlines():
        # "import time:  self [us] | cumulative | imported package"
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "numpy":
            numpy_s = int(parts[1]) * 1e-6
    return float(import_s), float(load_s), numpy_s


def import_program():
    """flowhand.cli.main, imported from this checkout's src/."""
    if not (SRC / "flowhand" / "__init__.py").is_file():
        raise SetupError(f"no program at {SRC / 'flowhand'}")
    if not GOLDEN.is_file():
        raise SetupError(f"missing {GOLDEN}")
    sys.path.insert(0, str(SRC))
    import flowhand.cli
    if not Path(flowhand.cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"imported flowhand from {flowhand.cli.__file__}, not from {SRC}")
    return flowhand.cli.main


def calibrate() -> float:
    """Seconds a fixed slice of interpreter work takes right now.

    The work resembles the program's own (float formatting, small
    objects, joins), so a neighbour that slows one slows the other alike.
    """
    start = perf_counter()
    rows = []
    for i in range(CALIBRATION_ROWS):
        rows.append(",".join((format(i * 0.37, ".6g"), format(i * 1.5e-3, ".6g"), "B")))
    "\n".join(rows)
    return perf_counter() - start


def timed(fn, *args):
    """(result, wall seconds, scale): wall seconds times scale is the
    reference-speed duration, from calibrations just before and after."""
    before = calibrate()
    start = perf_counter()
    result = fn(*args)
    elapsed = perf_counter() - start
    return result, elapsed, 2.0 * CALIBRATION_REF_S / (before + calibrate())


def pin_to_one_cpu() -> None:
    """Keep the run, its probes and its calibrations on one core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Client:
    """Sends ops one at a time, times them, checks them, counts failures."""

    def __init__(self, main, checker: Checker):
        self.main = main
        self.checker = checker
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failures: list[str] = []

    def _call(self, argv):
        tracer = self.tracer
        if tracer is None:
            return call(self.main, argv)
        tracer.enabled = True
        try:
            return call(self.main, argv)
        finally:
            tracer.enabled = False

    def send(self, op) -> tuple[float, float]:
        """(wall seconds, scale) of one op."""
        for path in op.outputs:
            Path(path).unlink(missing_ok=True)
        gc.collect()                   # every op starts from the same collector state
        if self.tracer is not None:
            self.tracer.op = op.pos
        result, elapsed, scale = timed(self._call, op.argv)
        try:
            reason = self.checker.check(op, *result)
        except RuntimeError as exc:    # the check's own simulation broke
            reason = str(exc)
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"op {op.pos} ({' '.join(op.argv[:3])}): {reason}")
        return elapsed, scale

    def one_pass(self, ops) -> list[tuple[float, float]]:
        return [self.send(op) for op in ops]


def warm_up(client: Client, ops) -> None:
    """One op of each kind, so lazy imports and first-call costs are paid."""
    first = {}
    for op in ops:
        first.setdefault(op.kind, op)
    for op in first.values():
        call(client.main, op.argv)
    gc.collect()
    gc.freeze()                        # the collector skips what exists before the ops


def wall_s(samples) -> float:
    return sum(wall for wall, _ in samples)


def reference_s(samples) -> float:
    return sum(wall * scale for wall, scale in samples)


def end_to_end(ops, passes, setup: list[float]) -> dict:
    latencies = [wall * scale for p in passes for wall, scale in p]
    sim = [wall * scale for p in passes for op, (wall, scale) in zip(ops, p) if op.rows]
    rows = len(passes) * sum(op.rows for op in ops)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_p90_ms": (1e3 * statistics.quantiles(latencies, n=10)[8], "ms"),
        "rows_per_s": (rows / sum(sim), "rows/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(ops, tracer: Tracer, traced, untraced, probes) -> dict:
    # self times are scaled to reference speed like the op latencies
    scale = reference_s(traced) / wall_s(traced)
    metrics = {name: (value * scale if unit == "s" else value, unit)
               for name, (value, unit) in tracer.layer_metrics().items()}
    rows = sum(op.rows for op in ops)
    segments = sum(op.segments for op in ops)
    thresholds = 2 * tracer.calls[tracer.names.index("scenario.state_thresholds")]
    metrics["scenario.rows"] = (rows, "count")
    metrics["scenario.rows_per_segment"] = (rows / segments if segments else 0.0, "rows/segment")
    metrics["fcs.classify_state_calls_per_threshold"] = (
        tracer.classify_in_thresholds / thresholds if thresholds else 0.0, "calls/threshold")
    metrics["system.default_system_calls_per_op"] = (
        tracer.calls[tracer.names.index("system.default_system")] / len(ops), "calls/op")
    metrics["init.import_s"] = (statistics.median(i - n for i, _, n in probes), "s")
    metrics["init.numpy_import_s"] = (statistics.median(n for _, _, n in probes), "s")
    metrics["init.first_load_s"] = (statistics.median(f for _, f, _ in probes), "s")
    metrics["trace.overhead_ratio"] = (reference_s(traced) / reference_s(untraced), "ratio")
    return metrics


def probe_setup(count: int, importtime: bool) -> list[tuple[float, float, float]]:
    """Cold starts at reference speed, one after another, none alongside an op."""
    cold_start(importtime)             # compiles bytecode, warms the page cache
    probes = []
    for _ in range(count):
        times, _, scale = timed(cold_start, importtime)
        probes.append(tuple(t * scale for t in times))
    return probes


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    main = import_program()
    pin_to_one_cpu()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=OUT))
    try:
        ops = workloads.generate(workload, seed, workdir, tiny=tiny)
        setup = probe_setup(1 if tiny else SETUP_PROBES, importtime=trace)
        client = Client(main, Checker(main, workload, seed, tiny, workdir, GOLDEN))
        warm_up(client, ops)
        if trace:
            untraced = client.one_pass(ops)
            client.tracer = tracer = Tracer()
            install(tracer)
            client.main = tracer.wrap("cli.main", main)
            traced = client.one_pass(ops)
            metrics = per_layer(ops, tracer, traced, untraced, setup)
            tracer.write(OUT / f"spans-{workload}")
            raw_s = wall_s(untraced + traced)
        else:
            began = perf_counter()
            passes = [client.one_pass(ops)]
            while ((len(passes) < MIN_PASSES
                    or sum(map(wall_s, passes)) + wall_s(passes[-1]) <= seconds)
                   and perf_counter() - began + wall_s(passes[-1]) <= WALL_LIMIT_S):
                passes.append(client.one_pass(ops))
            metrics = end_to_end(ops, passes, [i + f for i, f, _ in setup])
            raw_s = sum(map(wall_s, passes))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in client.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"{client.attempted} ops took {raw_s:.3f} s of wall time", file=sys.stderr)
    return {"correct": not client.failures, "attempted": client.attempted,
            "failed": len(client.failures),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def run_all(args) -> dict:
    """Every workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd + (["--tiny"] if args.tiny else []), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise SetupError(f"{workload} exited {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
        merged["metrics"][f"{workload}.failed_ops_ratio"] = {
            "value": result["failed"] / result["attempted"], "unit": "ratio"}
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few small ops per workload (self-test)")
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for name, metric in result["metrics"].items():
        print(f"{name:<48} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'failed_ops_ratio':<48} {result['failed'] / result['attempted']:>16.6g} "
          f"({result['failed']} of {result['attempted']} ops)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
