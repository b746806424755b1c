"""Seeded op pools for the three benchmark workloads.

An op is one `flowhand` command line, run in process through
`flowhand.cli.main`.  `generate(workload, seed, workdir)` writes the
scenario files the pool needs into `workdir` and returns the ops in the
order the client sends them.  The same workload, seed and size give the
same files and the same command lines; the program sees nothing else.

Sizes are stratified, not sampled: the row-count ladder of
`long_holds`, the segment-count ladder of `segment_churn` and the op
mix of `design_sweep` are fixed, and the seed only draws commands,
events, hold lengths, sweep values, targets and the op order.  That
keeps the latency percentiles comparable across seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("long_holds", "segment_churn", "design_sweep")

EVENTS = ("grasp", "lift", "place", "pivot")

# Source-flow commands [L/min].  MOTION is the 0-50 finger-motion band
# (states A and B), INJECT the single full-open command (state C).  The
# warning gap between them holds B commands (GAP_B) and commands past
# the 118 L/min pinch-off (GAP_C).  No command sits within 2 L/min of a
# state flip, so a change of rounding at a flip cannot move a trace.
MOTION = tuple(2.5 * i for i in range(21))
GAP_B = (60.0, 75.0, 90.0, 105.0)
GAP_C = (125.0, 135.0)
INJECT = 150.0
PALETTE = MOTION + GAP_B + GAP_C + (INJECT,)
STATE_A = tuple(q for q in MOTION if q < 8.1)
STATE_B = tuple(q for q in MOTION if q > 8.1)

# In-range sweep keys: every value keeps all three thresholds inside
# the search ceilings and the A/B/C order monotone in the source flow.
SWEEP_KEYS = {
    "fcs.alpha": (0.95, 0.995),
    "fcs.epsilon": (2.0, 3.5),
    "fcs.s3_mm2": (9.0, 14.0),
    "fcs.gamma": (0.3, 0.6),
    "fcs.q_ab_lpm": (5.0, 20.0),
    "venturi.s_out_mm2": (14.0, 17.5),
    "venturi.h_t_mm": (40.0, 70.0),
    "finger.p_max_kpa": (25.0, 45.0),
}
SWEEP_VALUES = 10

# Full-size and tiny (self-test) shapes.
SHAPES = {
    False: {
        "long_holds": {"ops": 100, "rows": (250, 25_000), "segments": (6, 48)},
        "segment_churn": {"ops": 200, "segments": (60, 2_400)},
        "design_sweep": {"sweep": 180, "sweep_scenario": 180, "design": 216,
                         "infeasible": 24, "validate": 120, "table1": 80},
    },
    True: {
        "long_holds": {"ops": 6, "rows": (50, 500), "segments": (2, 6)},
        "segment_churn": {"ops": 6, "segments": (10, 100)},
        "design_sweep": {"sweep": 2, "sweep_scenario": 2, "design": 2,
                         "infeasible": 1, "validate": 1, "table1": 1},
    },
}
TIMESTEP = 0.01
SWEEP_SCENARIO_SEGMENTS = 6
SWEEP_SCENARIO_STEPS = 20


@dataclass
class ScenarioSpec:
    """What a scenario file holds: the timestep and (q_lpm, steps, event) per segment."""

    timestep: float
    segments: list[tuple[float, int, str | None]]

    @property
    def rows(self) -> int:
        return sum(steps for _, steps, _ in self.segments)

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioSpec":
        raw = json.loads(Path(path).read_text())
        dt = raw["timestep_s"]
        return cls(dt, [(seg["q_src_lpm"], round(seg["duration_s"] / dt), seg.get("event"))
                        for seg in raw["segments"]])


@dataclass
class Op:
    pos: int                   # position in the pool
    kind: str                  # simulate, sweep, design-search, validate, table1
    argv: list[str]
    rows: int = 0              # trace rows the op simulates
    segments: int = 0          # scenario segments the op simulates
    expect_rc: int = 0
    scenario: str | None = None   # scenario file; the op list keeps no copy
    outputs: list[str] = field(default_factory=list)   # files the op writes
    detail: dict = field(default_factory=dict)


def _ladder(lo: float, hi: float, n: int) -> list[int]:
    if n == 1:
        return [round(lo)]
    return [round(lo * (hi / lo) ** (i / (n - 1))) for i in range(n)]


def _scene(rng: random.Random) -> dict:
    return {"object_width_mm": round(rng.uniform(20.0, 70.0), 1),
            "object_mass_kg": round(rng.uniform(0.02, 0.2), 3)}


def write_scenario(path: Path, spec: ScenarioSpec, scene: dict | None, name: str) -> None:
    segments = []
    for q, steps, event in spec.segments:
        seg = {"duration_s": steps * spec.timestep, "q_src_lpm": q}
        if event is not None:
            seg["event"] = event
        segments.append(seg)
    raw = {"name": name, "timestep_s": spec.timestep, "segments": segments}
    if scene is not None:
        raw["scene"] = scene
    path.write_text(json.dumps(raw))


def _split(rows: int, n: int, rng: random.Random) -> list[int]:
    """`rows` timesteps over `n` holds of roughly equal length (+-40 %)."""
    weights = [rng.uniform(0.6, 1.4) for _ in range(n)]
    total = sum(weights)
    steps = [max(1, int(rows * w / total)) for w in weights]
    for i in range(rows - sum(steps)):
        steps[i % n] += 1
    return steps


def _long_holds(rng, shape, workdir: Path) -> list[Op]:
    n = shape["ops"]
    plan = list(zip(_ladder(*shape["rows"], n), _ladder(*shape["segments"], n)))
    rng.shuffle(plan)
    out = str(workdir / "trace.csv")
    ops = []
    for pos, (rows, n_seg) in enumerate(plan):
        # every op gets the same mix: 15 % injection holds, motion
        # commands spread over the band, events on a quarter of the holds
        n_inject, n_event = round(0.15 * n_seg), round(0.25 * n_seg)
        motion = rng.sample(MOTION, len(MOTION))
        commands = [INJECT] * n_inject + [motion[i % len(motion)] for i in range(n_seg - n_inject)]
        events = [rng.choice(EVENTS) for _ in range(n_event)] + [None] * (n_seg - n_event)
        rng.shuffle(commands)
        rng.shuffle(events)
        segs = list(zip(commands, _split(rows, n_seg, rng), events))
        spec = ScenarioSpec(TIMESTEP, segs)
        path = workdir / f"long_{pos}.json"
        write_scenario(path, spec, _scene(rng), f"long_{pos}")
        ops.append(Op(pos, "simulate", ["simulate", str(path), "--out", out],
                      rows=spec.rows, segments=len(segs), scenario=str(path), outputs=[out]))
    return ops


def _churn_command(rng: random.Random) -> float:
    draw = rng.random()
    if draw < 0.3:
        return rng.choice(STATE_A)
    if draw < 0.8:
        return rng.choice(GAP_B) if rng.random() < 0.1 else rng.choice(STATE_B)
    return rng.choice(GAP_C) if rng.random() < 0.2 else INJECT


def _segment_churn(rng, shape, workdir: Path) -> list[Op]:
    plan = _ladder(*shape["segments"], shape["ops"])
    rng.shuffle(plan)
    out = str(workdir / "trace.csv")
    ops = []
    for pos, n_seg in enumerate(plan):
        segs = [(_churn_command(rng), 1,
                 rng.choice(EVENTS) if rng.random() < 0.4 else None)
                for _ in range(n_seg)]
        spec = ScenarioSpec(TIMESTEP, segs)
        path = workdir / f"churn_{pos}.json"
        write_scenario(path, spec, _scene(rng), f"churn_{pos}")
        ops.append(Op(pos, "simulate", ["simulate", str(path), "--out", out],
                      rows=spec.rows, segments=n_seg, scenario=str(path), outputs=[out]))
    return ops


def _sweep_op(rng, workdir: Path, index: int, with_scenario: bool) -> Op:
    key = rng.choice(sorted(SWEEP_KEYS))
    lo, hi = SWEEP_KEYS[key]
    values = [f"{rng.uniform(lo, hi):.4g}" for _ in range(SWEEP_VALUES)]
    argv = ["sweep", "--param", key, "--values", ",".join(values)]
    op = Op(0, "sweep", argv, detail={"param": key, "values": values})
    if with_scenario:
        segs = [(INJECT if rng.random() < 0.2 else rng.choice(MOTION + GAP_B),
                 SWEEP_SCENARIO_STEPS,
                 rng.choice(EVENTS) if rng.random() < 0.3 else None)
                for _ in range(SWEEP_SCENARIO_SEGMENTS)]
        spec = ScenarioSpec(TIMESTEP, segs)
        scene = _scene(rng)
        path = workdir / f"sweep_{index}.json"
        write_scenario(path, spec, scene, f"sweep_{index}")
        argv += ["--scenario", str(path)]
        op.scenario = str(path)
        op.detail["scene"] = scene
        op.rows = SWEEP_VALUES * spec.rows
        op.segments = SWEEP_VALUES * len(segs)
    return op


def _design_op(rng, workdir: Path, feasible: bool) -> Op:
    q_ab = round(rng.uniform(4.0, 20.0), 2)
    q_bc = round(rng.uniform(90.0, 140.0), 2)
    q2 = round(rng.uniform(20.0, min(80.0, 0.9 * q_bc)), 2)
    if not feasible:
        # either the lever would block before it rotates, or the
        # injection line would need more than the whole jet flow
        if rng.random() < 0.5:
            q_ab = round(q_bc + rng.uniform(1.0, 20.0), 2)
        else:
            q2 = round(q_bc + rng.uniform(1.0, 20.0), 2)
    tuned = str(workdir / "tuned.json")
    argv = ["design-search", "--q-ab", f"{q_ab:g}", "--q-bc", f"{q_bc:g}",
            "--q2", f"{q2:g}", "--out", tuned]
    return Op(0, "design-search", argv, expect_rc=0 if feasible else 1, outputs=[tuned])


def _design_sweep(rng, shape, workdir: Path) -> list[Op]:
    ops = []
    for i in range(shape["sweep"] + shape["sweep_scenario"]):
        ops.append(_sweep_op(rng, workdir, i, with_scenario=i >= shape["sweep"]))
    ops += [_design_op(rng, workdir, True) for _ in range(shape["design"])]
    ops += [_design_op(rng, workdir, False) for _ in range(shape["infeasible"])]
    ops += [Op(0, "validate", ["validate"]) for _ in range(shape["validate"])]
    ops += [Op(0, "table1", ["table1"]) for _ in range(shape["table1"])]
    rng.shuffle(ops)
    for pos, op in enumerate(ops):
        op.pos = pos
    return ops


def generate(workload: str, seed: int, workdir: Path, tiny: bool = False) -> list[Op]:
    """The op pool of one workload for one seed; writes its input files."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; know {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    shape = SHAPES[tiny][workload]
    build = {"long_holds": _long_holds, "segment_churn": _segment_churn,
             "design_sweep": _design_sweep}[workload]
    return build(rng, shape, Path(workdir))
