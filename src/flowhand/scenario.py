"""Quasi-static scenario execution, sweeps, design search, and validation.

A scenario is a piecewise-constant source-flow command with optional
task events (grasp, lift, place, pivot) at segment starts.  The model
is quasi-static: every output is a pure function of the segment's
command plus two pieces of carried state, the latched finger pressure
and the fingertip friction regime.  Both evolve per segment, so the
timestep controls trace density only; values at shared timestamps are
identical across timesteps, and no event can fall between samples: a
segment that covers no sample is rejected.

The finger pressure latches because pinch-off seals the finger line:
whatever air is in the chamber stays there while the switch is in the
blocked state, and the command maps to a fresh pressure again once the
line reopens.

Also here: closed-form threshold extraction (the simulated
counterparts of the bench-measured flip points), parameter sweeps over
any config key, inverse design from target thresholds, and the
prototype-table validation report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .config import ConfigError, _number, apply_override, read_json
from .core import (
    PhysConstants,
    lpm_to_m3s,
    m3s_to_lpm,
    m_to_mm,
    mm_to_m,
    pa_to_kpa,
)
from .fcs import (
    FcsConfig,
    FcsState,
    blocking_force,
    calibrate_s3,
    lever_flip_flow,
    pinch_crossings,
    steady_outputs,
)
from .finger import FingerConfig, chamber_pressure, bending_radius, mean_displacement, posture, tip_force
from .system import (
    INJECTION_COMMAND_LPM,
    MOTION_MAX_LPM,
    PrototypeSpec,
    SystemConfig,
    TABLE1,
    blocking_curve,
    default_system,
    listed_inversion_s3,
)
from .tasks import (
    FrictionState,
    FrictionTracker,
    GraspScene,
    PlacementOutcome,
    can_grasp,
    pivot_feasible,
    placement_disturbance,
    placement_slip,
)
from .venturi import (
    InfeasibleDesignError,
    activation_threshold,
    injection_active,
    lubricant_column,
    q2_activation_threshold,
    size_orifice,
)

EVENTS = ("grasp", "lift", "place", "pivot")

CSV_HEADER = "t,q_src_lpm,q1_lpm,q2_lpm,q_exhaust_lpm,state,p_f_kpa,r_mm,f_tip_n,injection,friction"

_EPS = 1e-9
STATE_CEILING = lpm_to_m3s(150.0)    # supply ceiling for the state flips
# closed-form thresholds land on target to rounding; a 1 L/min gate alone
# would pass a 0.5 L/min target at twice its value
DESIGN_REL_TOLERANCE = 1e-6
# twice the 1M-row scenario the performance targets are set for; keeps a
# runaway duration/timestep from exhausting memory
MAX_ROWS = 2_000_000


class SimulationError(RuntimeError):
    """A non-finite value appeared in the trace; carries where and what."""


@dataclass(frozen=True)
class Segment:
    """One piecewise-constant command: hold q_src for duration seconds."""

    duration: float
    q_src: float               # m^3/s
    event: str | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ValueError(f"segment duration must be > 0, got {self.duration}")
        if not (math.isfinite(self.q_src) and self.q_src >= 0):
            raise ValueError(f"segment q_src must be >= 0, got {self.q_src}")
        if self.event is not None and self.event not in EVENTS:
            raise ValueError(f"unknown event {self.event!r}; know {EVENTS}")


@dataclass(frozen=True)
class Scenario:
    name: str
    segments: tuple[Segment, ...]
    timestep: float = 0.01

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("scenario needs at least one segment")
        if not (math.isfinite(self.timestep) and self.timestep > 0):
            raise ValueError(f"timestep must be > 0, got {self.timestep}")
        duration = self.duration()
        if duration / self.timestep > MAX_ROWS:
            raise ValueError(f"{duration:g} s at timestep {self.timestep:g} s is "
                             f"{duration / self.timestep:.4g} rows, over the cap of {MAX_ROWS}")

    def duration(self) -> float:
        return sum(seg.duration for seg in self.segments)

    def warnings(self) -> list[str]:
        """Controller-contract violations: the valve driver does 0-50 for
        motion plus the single full-open injection command."""
        out = []
        for i, seg in enumerate(self.segments):
            q = m3s_to_lpm(seg.q_src)
            if MOTION_MAX_LPM < q < INJECTION_COMMAND_LPM:
                out.append(
                    f"segment {i}: q_src {q:g} L/min is between the motion band "
                    f"(0-{MOTION_MAX_LPM:g}) and the injection command "
                    f"({INJECTION_COMMAND_LPM:g})")
            elif q > INJECTION_COMMAND_LPM:
                out.append(
                    f"segment {i}: q_src {q:g} L/min exceeds the source maximum "
                    f"({INJECTION_COMMAND_LPM:g})")
        return out


def load_scenario(source: dict | str) -> tuple[Scenario, GraspScene | None]:
    """Scenario file: name, timestep_s, segments, optional scene.

    Segments are objects with duration_s, q_src_lpm, and an optional
    event; the scene gives object_width_mm and object_mass_kg for the
    task events.  Unknown keys are errors carrying the key path.
    """
    raw = read_json(source)
    for key in raw:
        if key not in ("name", "timestep_s", "segments", "scene"):
            raise ConfigError(f"unknown scenario key '{key}'")
    name = raw.get("name", "scenario")
    if not isinstance(name, str):
        raise ConfigError(f"name: expected a string, got {name!r}")
    timestep = _number(raw.get("timestep_s", 0.01), "timestep_s")

    if "segments" not in raw or not isinstance(raw["segments"], list) or not raw["segments"]:
        raise ConfigError("segments: expected a non-empty list")
    segments = []
    for i, seg in enumerate(raw["segments"]):
        path = f"segments[{i}]"
        if not isinstance(seg, dict):
            raise ConfigError(f"{path}: expected an object")
        for key in seg:
            if key not in ("duration_s", "q_src_lpm", "event"):
                raise ConfigError(f"unknown scenario key '{path}.{key}'")
        if "duration_s" not in seg or "q_src_lpm" not in seg:
            raise ConfigError(f"{path}: needs duration_s and q_src_lpm")
        event = seg.get("event")
        if event is not None and event not in EVENTS:
            raise ConfigError(f"{path}.event: unknown event {event!r}; know {EVENTS}")
        try:
            segments.append(Segment(
                duration=_number(seg["duration_s"], f"{path}.duration_s"),
                q_src=lpm_to_m3s(_number(seg["q_src_lpm"], f"{path}.q_src_lpm")),
                event=event,
            ))
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    scene = None
    if "scene" in raw:
        s = raw["scene"]
        if not isinstance(s, dict):
            raise ConfigError("scene: expected an object")
        for key in s:
            if key not in ("object_width_mm", "object_mass_kg"):
                raise ConfigError(f"unknown scenario key 'scene.{key}'")
        if "object_width_mm" not in s or "object_mass_kg" not in s:
            raise ConfigError("scene: needs object_width_mm and object_mass_kg")
        try:
            scene = GraspScene(
                object_width=mm_to_m(_number(s["object_width_mm"], "scene.object_width_mm")),
                object_mass=_number(s["object_mass_kg"], "scene.object_mass_kg"),
            )
        except ValueError as exc:
            raise ConfigError(f"scene: {exc}") from exc

    try:
        scenario = Scenario(name=name, segments=tuple(segments), timestep=timestep)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return scenario, scene


@dataclass(frozen=True)
class StepRecord:
    t: float
    q_src: float               # m^3/s
    q1: float
    q2: float
    q_exhaust: float
    state: FcsState
    p_f: float                 # Pa
    r: float                   # m, inf when straight
    f_tip: float               # N
    injection: bool
    friction: FrictionState
    event: str | None = None


@dataclass(frozen=True)
class SimTrace:
    """Per-step records plus the outcomes of any task events."""

    name: str
    records: tuple[StepRecord, ...]
    grasp_ok: bool | None = None
    lift_ok: bool | None = None
    place_outcome: PlacementOutcome | None = None
    disturbance_proxy: float | None = None
    pivot_ok: bool | None = None

    def state_sequence(self) -> list[FcsState]:
        """Visited states with consecutive repeats collapsed."""
        out: list[FcsState] = []
        for rec in self.records:
            if not out or out[-1] is not rec.state:
                out.append(rec.state)
        return out

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for rec in self.records:
            lines.append(",".join((
                _fmt(rec.t),
                _fmt(m3s_to_lpm(rec.q_src)),
                _fmt(m3s_to_lpm(rec.q1)),
                _fmt(m3s_to_lpm(rec.q2)),
                _fmt(m3s_to_lpm(rec.q_exhaust)),
                rec.state.name,
                _fmt(pa_to_kpa(rec.p_f)),
                _fmt(m_to_mm(rec.r)),
                _fmt(rec.f_tip),
                "1" if rec.injection else "0",
                rec.friction.value,
            )))
        return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return format(x, ".6g")


def run_scenario(
    scenario: Scenario,
    system: SystemConfig | None = None,
    scene: GraspScene | None = None,
) -> SimTrace:
    """Execute a scenario; reruns are bit-identical.

    Each segment is evaluated once (quasi-statics) and its values are
    stamped onto every timestep it covers; the latched pressure and the
    friction regime carry across segments.  Task events fire at segment
    start; grasp, lift, and place need a scene.  A place event releases
    the object, which wipes the lubricant, so friction resets for the
    following segments.  A segment that covers no timestep sample is a
    ConfigError.
    """
    system = system or default_system()
    consts = system.consts
    tracker = FrictionTracker()
    p_latch = 0.0
    records: list[StepRecord] = []
    results: dict = {}

    dt = scenario.timestep
    k = 0
    start = 0.0
    for i, seg in enumerate(scenario.segments):
        end = start + seg.duration
        out = steady_outputs(seg.q_src, system.fcs, consts)
        if out.state is not FcsState.C:
            p_latch = chamber_pressure(seg.q_src, system.finger)
        p_f = p_latch
        h_l = lubricant_column(seg.q_src, out.q2, system.venturi, consts)
        injecting = injection_active(h_l, system.venturi.h_t)
        friction = tracker.record(injecting)
        f_tip = tip_force(p_f, system.finger)
        r = bending_radius(p_f, system.finger)

        for name, value in (("q1", out.q1), ("q2", out.q2),
                            ("q_exhaust", out.q_exhaust), ("p_f", p_f),
                            ("f_tip", f_tip)):
            if not math.isfinite(value):
                raise SimulationError(
                    f"{name} is {value} in segment {i} (t={start:g} s)")
        if math.isnan(r):
            raise SimulationError(f"r is nan in segment {i} (t={start:g} s)")

        if seg.event is not None:
            _run_event(seg.event, i, scene, f_tip, tracker, system, consts, results)

        first = True
        while k * dt < end - _EPS:
            records.append(StepRecord(
                t=k * dt, q_src=seg.q_src, q1=out.q1, q2=out.q2,
                q_exhaust=out.q_exhaust, state=out.state, p_f=p_f, r=r,
                f_tip=f_tip, injection=injecting, friction=friction,
                event=seg.event if first else None,
            ))
            first = False
            k += 1
        if first:
            raise ConfigError(
                f"segment {i} (t={start:g} s, {seg.duration:g} s long) covers no "
                f"sample at timestep {dt:g} s")
        start = end

    return SimTrace(name=scenario.name, records=tuple(records), **results)


def _run_event(event, index, scene, f_tip, tracker, system, consts, results) -> None:
    hand = system.hand
    if event in ("grasp", "lift", "place") and scene is None:
        raise ConfigError(f"segment {index}: event '{event}' needs a scene")
    if event == "grasp":
        results["grasp_ok"] = can_grasp(
            scene, f_tip, hand, consts, mu=hand.mu(tracker.state))
    elif event == "lift":
        held = placement_slip(scene, f_tip, hand, tracker.state, consts)
        results["lift_ok"] = held is PlacementOutcome.HELD_FIXED
    elif event == "place":
        outcome = placement_slip(scene, f_tip, hand, tracker.state, consts)
        results["place_outcome"] = outcome
        results["disturbance_proxy"] = placement_disturbance(outcome)
        tracker.release()      # object gone, lubricant wiped with it
    elif event == "pivot":
        results["pivot_ok"] = pivot_feasible(hand.mu(tracker.state), hand)


def injection_displacement(trace: SimTrace, cfg: FingerConfig) -> float | None:
    """Mean mark displacement [m] between the posture just before the
    first injection and the final injecting posture; None if the trace
    never injects."""
    first = next((i for i, r in enumerate(trace.records) if r.injection), None)
    if first is None:
        return None
    p_before = trace.records[first - 1].p_f if first > 0 else 0.0
    p_after = next(r.p_f for r in reversed(trace.records) if r.injection)
    return mean_displacement(posture(p_before, cfg), posture(p_after, cfg))


def state_thresholds(cfg: FcsConfig, consts: PhysConstants) -> tuple[float | None, float | None]:
    """Source flows [m^3/s] at the A -> B and B -> C flips, in closed form.

    B -> C is the pinch crossing above the lever flip, or the flip itself
    when the lever blocks as it rotates; more than one such crossing
    makes the state non-monotone in the flow, a ConfigError.  None where
    a flip does not happen below the 150 L/min supply ceiling.
    """
    q_ab = lever_flip_flow(cfg, consts)
    seen = [q for q in pinch_crossings(cfg, consts) if q > q_ab]
    if len(seen) > 1:
        at = ", ".join(f"{m3s_to_lpm(q):.6g}" for q in seen)
        raise ConfigError(f"fcs.f_block_knots: the pinch force crosses the blocking force at "
                          f"{at} L/min, so the state is not monotone in the source flow")
    q_bc = seen[0] if seen else q_ab
    return tuple(q if q <= STATE_CEILING else None for q in (q_ab, q_bc))


# --- parameter sweeps -------------------------------------------------

SWEEP_HEADER = "param,value,q_ab_lpm,q_bc_lpm,activation_lpm"
SWEEP_SCENARIO_COLUMNS = ",final_state,injected,max_p_f_kpa"


@dataclass(frozen=True)
class SweepRow:
    param: str
    value: float
    q_ab_lpm: float | None
    q_bc_lpm: float | None
    activation_lpm: float | None
    final_state: FcsState | None = None
    injected: bool | None = None
    max_p_f_kpa: float | None = None


def sweep(
    param: str,
    values,
    system: SystemConfig | None = None,
    scenario: Scenario | None = None,
    scene: GraspScene | None = None,
) -> list[SweepRow]:
    """Threshold summary per value of one config key ('section.key').

    Each value is applied through the config layer (so units and
    recalibration rules hold), then the three operating thresholds are
    extracted; with a scenario, a run per value adds its final state,
    whether injection ever fired, and the peak finger pressure.  Rows
    keep the input order.
    """
    base = system or default_system()
    rows = []
    for value in values:
        sys_i = apply_override(base, param, value)
        q_ab, q_bc = state_thresholds(sys_i.fcs, sys_i.consts)
        act = activation_threshold(sys_i.venturi, sys_i.fcs, sys_i.consts)
        row = SweepRow(
            param=param, value=float(value),
            q_ab_lpm=None if q_ab is None else m3s_to_lpm(q_ab),
            q_bc_lpm=None if q_bc is None else m3s_to_lpm(q_bc),
            activation_lpm=None if act is None else m3s_to_lpm(act),
        )
        if scenario is not None:
            trace = run_scenario(scenario, sys_i, scene)
            row = replace(
                row,
                final_state=trace.records[-1].state,
                injected=any(r.injection for r in trace.records),
                max_p_f_kpa=pa_to_kpa(max(r.p_f for r in trace.records)),
            )
        rows.append(row)
    return rows


def sweep_csv(rows: list[SweepRow], with_scenario: bool = False) -> str:
    """The sweep as CSV; empty cells where a threshold does not exist."""

    def cell(x) -> str:
        return "" if x is None else _fmt(x)

    header = SWEEP_HEADER + (SWEEP_SCENARIO_COLUMNS if with_scenario else "")
    lines = [header]
    for r in rows:
        cols = [r.param, _fmt(r.value), cell(r.q_ab_lpm), cell(r.q_bc_lpm),
                cell(r.activation_lpm)]
        if with_scenario:
            cols += ["" if r.final_state is None else r.final_state.name,
                     "" if r.injected is None else ("1" if r.injected else "0"),
                     cell(r.max_p_f_kpa)]
        lines.append(",".join(cols))
    return "\n".join(lines) + "\n"


# --- inverse design ---------------------------------------------------

@dataclass(frozen=True)
class DesignTargets:
    """Operating points to hit, in L/min: the two state flips and the
    injection-line flow at which injection starts."""

    q_ab_lpm: float
    q_bc_lpm: float
    q2_activation_lpm: float


@dataclass(frozen=True)
class DesignReport:
    """Achieved thresholds next to the targets, L/min.

    `achieved` is read back from the tuned config in closed form and must
    be within both `tolerance_lpm` and DESIGN_REL_TOLERANCE of each target."""

    targets: DesignTargets
    achieved: tuple[float, float, float]
    tolerance_lpm: float

    def within_tolerance(self) -> bool:
        goals = (self.targets.q_ab_lpm, self.targets.q_bc_lpm,
                 self.targets.q2_activation_lpm)
        return all(abs(a - g) <= min(self.tolerance_lpm, DESIGN_REL_TOLERANCE * g)
                   for a, g in zip(self.achieved, goals))


def design_search(
    targets: DesignTargets,
    system: SystemConfig | None = None,
    tolerance_lpm: float = 1.0,
) -> tuple[SystemConfig, DesignReport]:
    """Tune jet area, lever onset, injection fraction, and orifice so the
    simulated thresholds hit the targets.

    Keeps the base split ratio, lever arm ratio, and blocking curve;
    solves the four free parameters in closed form, then reads the
    thresholds back from the tuned config and gates them on the absolute
    and the relative tolerance.  Raises InfeasibleDesignError naming the
    binding constraint when no setting can work, and ConfigError for a
    base config with the full inlet model.
    """
    base = system or default_system()
    if not base.venturi.use_simplified_inlet:
        raise ConfigError("venturi.use_simplified_inlet: design-search sizes the orifice "
                          "under the simplified inlet only; set it to true")
    consts = base.consts
    fcs = base.fcs
    q_ab, q_bc, q2_act = (targets.q_ab_lpm, targets.q_bc_lpm,
                          targets.q2_activation_lpm)
    if not 0 < q_ab < q_bc:
        raise InfeasibleDesignError(
            f"targets need 0 < q_ab < q_bc, got {q_ab} and {q_bc} L/min: "
            "the lever must rotate before it can block")
    jet_at_bc = fcs.alpha * q_bc
    if not 0 < q2_act <= jet_at_bc:
        raise InfeasibleDesignError(
            f"q2 activation target {q2_act} L/min exceeds the jet flow at "
            f"pinch-off (alpha * q_bc = {jet_at_bc:.6g} L/min), so no "
            "injection fraction <= 1 can deliver it")

    f_need = blocking_force(lpm_to_m3s((1.0 - fcs.alpha) * q_bc), fcs.f_block_curve)
    s3 = calibrate_s3(fcs.epsilon, consts.rho_air, lpm_to_m3s(jet_at_bc), f_need)
    f_rot = consts.rho_air * (fcs.alpha * lpm_to_m3s(q_ab)) ** 2 / s3
    gamma = q2_act / jet_at_bc
    tuned_fcs = replace(fcs, s3=s3, f_rot=f_rot, gamma=gamma)
    s_out = size_orifice(lpm_to_m3s(q2_act), base.venturi, consts)
    tuned = replace(base, fcs=tuned_fcs,
                    venturi=replace(base.venturi, s_out=s_out))

    got = (*state_thresholds(tuned_fcs, consts), q2_activation_threshold(tuned.venturi, consts))
    if None in got:
        raise InfeasibleDesignError(f"verification lost a threshold: got {got}")
    achieved = tuple(m3s_to_lpm(q) for q in got)
    report = DesignReport(targets=targets, achieved=achieved, tolerance_lpm=tolerance_lpm)
    if not report.within_tolerance():
        raise InfeasibleDesignError(
            f"tuned config missed the targets: achieved {achieved}, "
            f"wanted within {tolerance_lpm} L/min and {DESIGN_REL_TOLERANCE:g} relative")
    return tuned, report


# --- prototype-table validation ---------------------------------------

@dataclass(frozen=True)
class Table1Row:
    label: str
    q3_lpm: float              # recomputed from the measured flows
    f1: float                  # recomputed pinch force [N]
    f1_listed: float
    f1_error: float            # |recomputed - listed| / listed
    f_block: float             # pooled-curve value at q1_max [N]
    listed_success: bool       # classification from the published forces
    model_success: bool        # classification from the recomputed force
    expected_success: bool


@dataclass(frozen=True)
class Table1Report:
    rows: tuple[Table1Row, ...]
    s3: float                  # nozzle area backed out of the reference row [m^2]

    def listed_matches(self) -> int:
        return sum(r.listed_success == r.expected_success for r in self.rows)

    def model_matches(self) -> int:
        return sum(r.model_success == r.expected_success for r in self.rows)

    def all_match(self) -> bool:
        return (self.listed_matches() == len(self.rows)
                and self.model_matches() == len(self.rows))

    def max_f1_error(self) -> float:
        return max(r.f1_error for r in self.rows)

    def to_text(self) -> str:
        """Fixed-column report for diffing against a golden file."""
        out = [f"{'label':<7}{'q3_lpm':>8}{'f1_N':>8}{'err_pct':>9}"
               f"{'fblock_N':>10}  {'listed':<9}{'model':<9}{'expected'}"]
        word = {True: "Success", False: "Failure"}
        for r in self.rows:
            out.append(
                f"{r.label:<7}{r.q3_lpm:>8.1f}{r.f1:>8.3f}"
                f"{100.0 * r.f1_error:>9.1f}{r.f_block:>10.3f}  "
                f"{word[r.listed_success]:<9}{word[r.model_success]:<9}"
                f"{word[r.expected_success]}")
        out.append(f"s3_mm2: {1e6 * self.s3:.3f}")
        out.append(f"listed classification: {self.listed_matches()}/{len(self.rows)}")
        out.append(f"model classification: {self.model_matches()}/{len(self.rows)}")
        return "\n".join(out) + "\n"


def validate_table1(
    specs: tuple[PrototypeSpec, ...] = TABLE1,
    consts: PhysConstants | None = None,
) -> Table1Report:
    """Recompute the prototype table from the measured flows.

    Per row: jet flow as the difference q_src_max - q1_max, pinch force
    from the jet momentum with the nozzle area backed out of the
    reference row's published values, blocking force from the pooled
    curve, and the success classification both ways (published forces
    vs recomputed).  Missing rows are an error.
    """
    consts = consts or PhysConstants()
    have = {s.label for s in specs}
    missing = {"A", "B", "C", "D"} - have
    if missing:
        raise ValueError(f"missing prototype rows: {sorted(missing)}")
    ref = next(s for s in specs if s.label == "A")
    s3 = listed_inversion_s3(ref, consts)
    curve = blocking_curve()
    rows = []
    for spec in specs:
        q3 = spec.q_src_max - spec.q1_max
        f1 = spec.epsilon * consts.rho_air * q3 ** 2 / s3
        f_block = curve(m3s_to_lpm(spec.q1_max))
        rows.append(Table1Row(
            label=spec.label,
            q3_lpm=m3s_to_lpm(q3),
            f1=f1,
            f1_listed=spec.f1_listed,
            f1_error=abs(f1 - spec.f1_listed) / spec.f1_listed,
            f_block=f_block,
            listed_success=spec.f1_listed >= spec.f_block_listed,
            model_success=f1 >= f_block,
            expected_success=spec.success,
        ))
    return Table1Report(rows=tuple(rows), s3=s3)
