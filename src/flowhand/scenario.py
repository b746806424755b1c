"""Quasi-static scenario execution, sweeps, design search, and validation.

A scenario is a piecewise-constant source-flow command with optional
task events (grasp, lift, place, pivot) at segment starts.  The model
is quasi-static: every output is a pure function of the segment's
command plus two pieces of carried state, the latched finger pressure
and the fingertip friction regime.  Both evolve per segment, so the
timestep controls trace density only; values at shared timestamps are
identical across timesteps, and no event can fall between samples: a
segment that covers no sample is rejected.

So a trace stores one SegmentRun per segment, the segment's outputs
plus the range of timesteps it covers, and never one object per step.
SimTrace.to_csv expands the rows while it writes them, at most
_WRITE_ROWS lines per write, formatting each distinct set of constant
columns once.  Its time column repeats too: for a short decimal
timestep of at most 0.1 s, such as 0.01, every row of one whole second
shares the second's digits str(s) and differs only in a fractional
suffix from a table, so one loop writes each run's stretch within one
second as one join of its suffixes, with the bytes a float formatted
per row would give and no time string made per row.

And since the hand has one input, a scenario of thousands of segments
repeats a few segments and reuses a few operating points: load_scenario
checks and builds each distinct segment once per file, run_scenario
evaluates each distinct command once per run, each in a table local to
the call, and only the latch, the friction regime and the events run
per segment.

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

import io
import math
from dataclasses import replace
from functools import cache
from typing import NamedTuple

from .config import ConfigError, _config_path, _float, _number, apply_override, read_json
from .core import (
    LPM_PER_M3S,
    PhysConstants,
    _Value,
    lpm_to_m3s,
    m3s_to_lpm,
    m_to_mm,
    mm_to_m,
    pa_to_kpa,
)
from .fcs import (
    FcsConfig,
    FcsOutputs,
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
    REFERENCE_LABEL,
    SystemConfig,
    TABLE1,
    blocking_curve,
    default_system,
    listed_inversion_s3,
    prototype,
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
    size_exhaust,
    size_orifice,
)

EVENTS = ("grasp", "lift", "place", "pivot")

CSV_HEADER = "t,q_src_lpm,q1_lpm,q2_lpm,q_exhaust_lpm,state,p_f_kpa,r_mm,f_tip_n,injection,friction"

_EPS = 1e-7     # of a timestep, so 1e-9 s at dt = 0.01 s
STATE_CEILING = lpm_to_m3s(150.0)    # supply ceiling for the state flips
# closed-form thresholds land on target to rounding; a 1 L/min gate alone
# would pass a 0.5 L/min target at twice its value
DESIGN_TOLERANCE_LPM = 1.0
DESIGN_REL_TOLERANCE = 1e-6
# twice the 1M-row scenario the performance targets are set for; a trace
# holds one run per segment however many rows it covers, so the cap
# bounds the run time and the CSV size of a runaway duration/timestep,
# not the memory
MAX_ROWS = 2_000_000


class SimulationError(RuntimeError):
    """A non-finite value appeared in the trace; carries where and what."""


class Segment(_Value):
    """One piecewise-constant command: hold q_src for duration seconds.

    duration [s] is finite and > 0, q_src [m^3/s] finite and >= 0, and
    event None or one of EVENTS.  An immutable value: assigning a field
    raises AttributeError, and equal segments compare and hash equal.
    """

    __slots__ = ("duration", "q_src", "event")

    def __init__(self, duration: float, q_src: float, event: str | None = None) -> None:
        if not 0.0 < duration < math.inf:
            raise ValueError(f"segment duration must be finite and > 0, got {duration}")
        if not 0.0 <= q_src < math.inf:
            raise ValueError(f"segment q_src must be finite and >= 0, got {q_src} m^3/s "
                             f"({q_src * LPM_PER_M3S:g} L/min)")
        if event is not None and event not in EVENTS:
            raise ValueError(f"unknown event {event!r}; know {EVENTS}")
        object.__setattr__(self, "duration", duration)
        # -0.0 becomes 0.0: it would print as -0, and run_scenario keys
        # commands by value, where -0.0 and 0.0 are the same key
        object.__setattr__(self, "q_src", q_src or 0.0)
        object.__setattr__(self, "event", event)


class Scenario(_Value):
    """Named segments, sampled every timestep seconds.

    At least one segment, a finite timestep > 0, and at most MAX_ROWS
    samples.  An immutable value: assigning a field raises
    AttributeError, and equal scenarios compare and hash equal.
    """

    __slots__ = ("name", "segments", "timestep")

    def __init__(self, name: str, segments: tuple[Segment, ...], timestep: float = 0.01) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "timestep", timestep)
        if not segments:
            raise ValueError("scenario needs at least one segment")
        if not 0.0 < timestep < math.inf:
            raise ValueError(f"timestep must be finite and > 0, got {timestep}")
        duration = self.duration()
        if duration / timestep > MAX_ROWS:
            raise ValueError(f"{duration:g} s at timestep {timestep:g} s is "
                             f"{duration / timestep:.4g} rows, over the cap of {MAX_ROWS}")

    def duration(self) -> float:
        return sum(seg.duration for seg in self.segments)

    def warnings(self) -> list[str]:
        """Controller-contract violations: the valve driver does 0-50 for
        motion plus the single full-open injection command.  One line per
        offending segment; a command that gave none is not checked again."""
        out = []
        quiet = set()          # commands that gave no warning
        for i, seg in enumerate(self.segments):
            if seg.q_src in quiet:
                continue
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
            else:
                quiet.add(seg.q_src)
        return out


def load_scenario(source: dict | str) -> tuple[Scenario, GraspScene | None]:
    """Scenario file: name, timestep_s, segments, optional scene.

    Segments are objects with duration_s, q_src_lpm, and an optional
    event; the scene gives object_width_mm and object_mass_kg for the
    task events.  Unknown keys are errors carrying the key path.

    Each distinct segment is checked and built once per file: a table
    local to the call maps a valid raw segment, its values typed, to the
    Segment built for it, and a repeat appends that same immutable object.
    A segment the table does not hold takes the full checks, so an error
    names the first offending segment.
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
    # (type(d), d, type(q), q, event) of a valid raw segment -> its Segment;
    # the types keep 1, 1.0 and true apart
    built: dict = {}
    for i, seg in enumerate(raw["segments"]):
        key = None
        # two keys, or three with an event; a missing duration_s or
        # q_src_lpm then reads as None, which no table entry holds
        if type(seg) is dict and len(seg) == 2 + ("event" in seg):
            d, q, event = seg.get("duration_s"), seg.get("q_src_lpm"), seg.get("event")
            key = (type(d), d, type(q), q, event)
            try:
                known = built.get(key)
            except TypeError:            # a list or an object as a value
                key = known = None
            if known is not None:
                segments.append(known)
                continue
        segment = _segment(seg, i)
        if key is not None:
            built[key] = segment
        segments.append(segment)

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


def _segment(seg, i: int) -> Segment:
    """Raw segment `i` checked and built; a ConfigError names what is wrong.

    Here the keys, the event and the type of each number are checked;
    Segment checks the values, each once."""
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
        return Segment(_float(seg["duration_s"], f"{path}.duration_s"),
                       _float(seg["q_src_lpm"], f"{path}.q_src_lpm") / LPM_PER_M3S,
                       event)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


class SegmentRun(NamedTuple):
    """One segment's outputs, held on the timesteps first .. stop-1."""

    first: int
    stop: int
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
    event: str | None


# a CSV row is its time text plus this tail of its run's columns
_ROW_TAIL = ",{:.6g},{:.6g},{:.6g},{:.6g},{},{:.6g},{:.6g},{:.6g},{},{}\n".format
# the most lines a streamed to_csv holds before it writes them out
_WRITE_ROWS = 4096


@cache
def _suffixes(e: int) -> tuple[str, ...]:
    """The fractional part of f / 10**e as %g prints it, for f < 10**e:
    "", ".01", ..., ".99" for e = 2.  Built on first use, once per e."""
    return ("",) + tuple("." + ("%0*d" % (e, f)).rstrip("0") for f in range(1, 10 ** e))


def _time_table(dt: float) -> tuple[int, int, tuple[str, ...], int] | None:
    """(m, scale, suffixes, stop) when dt is a short decimal m / scale,
    scale = 10**e, of at most 0.1 s; None otherwise.

    When repr(dt) is "0." and at most 4 digits, dt is the double nearest
    m / 10**e with e <= 4, and if it is at most 0.1, a whole second holds
    10 or more steps.  Then for the steps k < stop, where k * m < 10**6,
    "%.6g" % (k * dt) is str(s) + suffixes[f] for k * m = s * scale + f
    and suffixes = _suffixes(e).  That is exact.  The decimal
    k * m / 10**e has at most 6 significant digits, and the float k * dt
    is within 2**-52 relative of it, far inside the 5e-7 relative
    half-unit of %.6g's rounding, so %.6g prints the decimal; and
    10**-4 <= t < 10**6 for k > 0, so %g keeps fixed notation and strips
    the trailing zeros.
    """
    text = repr(dt)
    if text[:2] == "0." and text[2:].isdigit() and len(text) <= 6 and dt <= 0.1:
        m, e = int(text[2:]), len(text) - 2
        return m, 10 ** e, _suffixes(e), -(-1_000_000 // m)
    return None


class SimTrace(NamedTuple):
    """One run per segment plus the outcomes of any task events.

    Step k of the trace is at time k * timestep; a run covers the steps
    first .. stop-1, and the runs cover every step in order from step 0.
    """

    name: str
    timestep: float
    runs: tuple[SegmentRun, ...]
    grasp_ok: bool | None = None
    lift_ok: bool | None = None
    place_outcome: PlacementOutcome | None = None
    disturbance_proxy: float | None = None
    pivot_ok: bool | None = None

    def state_sequence(self) -> list[FcsState]:
        """Visited states with consecutive repeats collapsed."""
        out: list[FcsState] = []
        for run in self.runs:
            if not out or out[-1] is not run.state:
                out.append(run.state)
        return out

    def to_csv(self, out=None) -> str | None:
        """The trace as CSV, one row per step.

        The row of step k is its time "%.6g" % (k * dt) plus a tail of its
        run's constant columns, each distinct tail formatted once per
        call.  Equal fields give equal text except 0.0 and -0.0, and
        run_scenario stores no -0.0: Segment and the calibration curves
        drop the sign of zero.

        One loop writes each run in chunks, a chunk being the part of a
        run within one whole second and one write.  Where _time_table
        gives suffixes, a chunk of c rows in second s is the single join
        str(s) + (tail + str(s)).join(suffixes[f:f + c*m:m]) + tail, with
        no string made per row.  Elsewhere a chunk is its formatted
        times joined by its tail.  A one-row chunk is its time text plus
        its tail.  k, s and f carry from run to run, from step 0; a run
        that does not start at the step k is a ValueError.

        Given a text file, the rows are written to it as they are made,
        at most _WRITE_ROWS lines per write however long a run is, so
        memory does not grow with the row count, and None is returned.
        Otherwise the text is.
        """
        sink = io.StringIO() if out is None else out
        low = FrictionState.LOW
        dt = self.timestep
        # without a table, table_stop = 0 and every time is formatted; with
        # one, table_stop is where second 10**6 // scale starts, so no
        # chunk of the table crosses it
        m, scale, suffixes, table_stop = _time_table(dt) or (0, 0, (), 0)
        # the next step k, in the table in second s at k * m = s * scale + f
        k, s, f, sec = 0, 0, 0, "0"
        rows = [CSV_HEADER + "\n"]
        room = _WRITE_ROWS - 1          # lines the buffer takes before a write
        # the fields of a tail, run[2:12] -> the tail, in one table per
        # friction regime, HIGH or LOW, so that no key holds a
        # FrictionState, whose hash runs in Python
        tables: tuple[dict, dict] = ({}, {})
        for run in self.runs:
            if run.first != k:
                raise ValueError(f"a run starts at step {run.first}, not {k}: the runs "
                                 "must cover every step in order from step 0")
            tails = tables[run.friction is low]
            key = run[2:11]
            tail = tails.get(key)
            if tail is None:
                tail = tails[key] = _ROW_TAIL(
                    m3s_to_lpm(run.q_src), m3s_to_lpm(run.q1), m3s_to_lpm(run.q2),
                    m3s_to_lpm(run.q_exhaust), run.state.name, pa_to_kpa(run.p_f),
                    m_to_mm(run.r), run.f_tip, "1" if run.injection else "0",
                    run.friction.value)
            stop = run.stop
            while k < stop:
                c = stop - k
                if k < table_stop:
                    if c == 1:
                        rows.append(sec + suffixes[f] + tail)
                    else:
                        c = min(c, (scale - 1 - f) // m + 1, room)
                        rows += sec, (tail + sec).join(suffixes[f:f + c * m:m]), tail
                    f += c * m
                    if f >= scale:
                        s += 1
                        f -= scale
                        sec = str(s)
                elif c == 1:
                    rows.append("%.6g" % (k * dt) + tail)
                else:
                    c = min(c, room)
                    rows += tail.join(["%.6g" % (j * dt) for j in range(k, k + c)]), tail
                k += c
                room -= c
                if not room:
                    sink.write("".join(rows))
                    rows.clear()
                    room = _WRITE_ROWS
        sink.write("".join(rows))
        return sink.getvalue() if out is None else None


def _step_stop(first: int, end: float, dt: float) -> int:
    """The step after the last one of a segment that ends at `end`.

    The smallest k >= first with k * dt >= end - _EPS * dt, which is
    where stepping `while k * dt < end - _EPS * dt: k += 1` from `first`
    stops; the ceiling lands within one step of it and the float
    products settle it.  The tolerance is relative to the timestep, so
    a segment keeps its steps however small dt is.
    """
    edge = end - _EPS * dt
    if edge <= first * dt:
        return first
    k = math.ceil(edge / dt)
    while k * dt < edge:
        k += 1
    while k > first and (k - 1) * dt >= edge:
        k -= 1
    return max(k, first)


def run_scenario(
    scenario: Scenario,
    system: SystemConfig | None = None,
    scene: GraspScene | None = None,
) -> SimTrace:
    """Execute a scenario; reruns are bit-identical.

    Each segment becomes one SegmentRun: its outputs plus the range of
    timesteps it covers, in closed form.  Nothing is built per step;
    rows exist only while SimTrace.to_csv writes them.  The outputs are
    a pure function of the command and the latched pressure, so each
    distinct command is evaluated once, at its first segment, which is
    also where a non-finite output raises SimulationError.  The latched
    pressure and the friction regime carry across segments.  Task
    events fire at segment start; grasp, lift, and place need a scene.
    A place event releases the object, which wipes the lubricant, so
    friction resets for the following segments.  A segment that covers
    no timestep sample is a ConfigError.
    """
    system = system or default_system()
    consts = system.consts
    tracker = FrictionTracker()
    # q_src -> its OperatingPoint; in state C the latch holds the finger
    # outputs (p_f, f_tip, r) of the last command that reached the chamber
    points: dict = {}
    held = None
    runs: list[SegmentRun] = []
    results: dict = {}

    dt = scenario.timestep
    k = 0
    start = 0.0
    for i, seg in enumerate(scenario.segments):
        end = start + seg.duration
        point = points.get(seg.q_src)
        if point is None:
            try:
                point = points[seg.q_src] = operating_point(seg.q_src, system)
            except SimulationError as exc:
                raise SimulationError(f"{exc} in segment {i} (t={start:g} s)") from None
        out, injecting, finger = point
        if finger is not None:
            held = finger
        elif held is None:     # sealed before any air reached the chamber
            held = _finger_outputs(0.0, system.finger)
        p_f, f_tip, r = held
        friction = tracker.record(injecting)

        if seg.event is not None:
            _run_event(seg.event, i, scene, f_tip, tracker, system, consts, results)

        stop = _step_stop(k, end, dt)
        if stop == k:
            raise ConfigError(
                f"segment {i} (t={start:g} s, {seg.duration:g} s long) covers no "
                f"sample at timestep {dt:g} s")
        runs.append(SegmentRun(k, stop, seg.q_src, out.q1, out.q2, out.q_exhaust,
                               out.state, p_f, r, f_tip, injecting, friction, seg.event))
        k = stop
        start = end

    return SimTrace(name=scenario.name, timestep=dt, runs=tuple(runs), **results)


def _check_finite(*values: tuple[str, float]) -> None:
    for name, value in values:
        if not math.isfinite(value):
            raise SimulationError(f"{name} is {value}")


class OperatingPoint(NamedTuple):
    """One command's switch outputs, whether it injects, and its finger
    outputs (p_f, f_tip, r): None in state C, whose sealed chamber keeps
    the pressure an earlier command put there."""

    out: FcsOutputs
    injecting: bool
    finger: tuple[float, float, float] | None


def operating_point(q_src: float, system: SystemConfig) -> OperatingPoint:
    """The command q_src [m^3/s] through the switch, the injector and the
    finger; SimulationError names a non-finite output."""
    out = steady_outputs(q_src, system.fcs, system.consts)
    p_f = None if out.state is FcsState.C else chamber_pressure(q_src, system.finger)
    h_l = lubricant_column(q_src, out.q2, system.venturi, system.consts)
    injecting = injection_active(h_l, system.venturi.h_t)
    _check_finite(("q1", out.q1), ("q2", out.q2), ("q_exhaust", out.q_exhaust))
    finger = None if p_f is None else _finger_outputs(p_f, system.finger)
    return OperatingPoint(out, injecting, finger)


def _finger_outputs(p_f: float, cfg: FingerConfig) -> tuple:
    """(p_f, f_tip, r) at chamber pressure p_f."""
    f_tip = tip_force(p_f, cfg)
    r = bending_radius(p_f, cfg)
    _check_finite(("p_f", p_f), ("f_tip", f_tip))
    if math.isnan(r):
        raise SimulationError("r is nan")
    return p_f, f_tip, r


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
    runs = trace.runs
    first = next((i for i, run in enumerate(runs) if run.injection), None)
    if first is None:
        return None
    # every run covers a step, so the step before the first injecting
    # one belongs to the run before it
    p_before = runs[first - 1].p_f if first > 0 else 0.0
    p_after = next(run.p_f for run in reversed(runs) if run.injection)
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


class SweepRow(NamedTuple):
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
    keep the input order.  An unknown key is a ConfigError, with or
    without values.
    """
    _config_path(param)
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
            runs = run_scenario(scenario, sys_i, scene).runs
            row = row._replace(
                final_state=runs[-1].state,
                injected=any(run.injection for run in runs),
                max_p_f_kpa=pa_to_kpa(max(run.p_f for run in runs)),
            )
        rows.append(row)
    return rows


def sweep_csv(rows: list[SweepRow], with_scenario: bool = False) -> str:
    """The sweep as CSV; empty cells where a threshold does not exist."""

    def cell(x) -> str:
        return "" if x is None else format(x, ".6g")

    header = SWEEP_HEADER + (SWEEP_SCENARIO_COLUMNS if with_scenario else "")
    lines = [header]
    for r in rows:
        cols = [r.param, cell(r.value), cell(r.q_ab_lpm), cell(r.q_bc_lpm),
                cell(r.activation_lpm)]
        if with_scenario:
            cols += ["" if r.final_state is None else r.final_state.name,
                     "" if r.injected is None else ("1" if r.injected else "0"),
                     cell(r.max_p_f_kpa)]
        lines.append(",".join(cols))
    return "\n".join(lines) + "\n"


# --- inverse design ---------------------------------------------------

class DesignTargets(NamedTuple):
    """Operating points to hit, in L/min: the two state flips and the
    injection-line flow at which injection starts."""

    q_ab_lpm: float
    q_bc_lpm: float
    q2_activation_lpm: float


class DesignReport(NamedTuple):
    """Achieved thresholds next to the targets, L/min.

    `achieved` is read back from the tuned config in closed form and must
    be within both DESIGN_TOLERANCE_LPM and DESIGN_REL_TOLERANCE of each target."""

    targets: DesignTargets
    achieved: tuple[float, float, float]

    def within_tolerance(self) -> bool:
        return all(map(_near, self.achieved, self.targets))


def _near(achieved: float, goal: float) -> bool:
    """achieved is within both design tolerances of goal [L/min]."""
    return abs(achieved - goal) <= min(DESIGN_TOLERANCE_LPM, DESIGN_REL_TOLERANCE * goal)


def design_search(
    targets: DesignTargets,
    system: SystemConfig | None = None,
) -> tuple[SystemConfig, DesignReport]:
    """Tune jet area, lever onset, injection fraction, and orifice so the
    simulated thresholds hit the targets.

    Keeps the base split ratio, lever arm ratio, and blocking curve;
    solves the four free parameters in closed form, then reads the
    thresholds back from the tuned config and gates them on the absolute
    and the relative tolerance.  The orifice is sized with the source
    flow equal to the q2 target, as q2_activation_threshold reads it
    back.  Under the full inlet model the exhaust area s_e is then
    solved so that the composed system, whose line carries gamma alpha
    of the source, starts injecting at q_bc; under both models the
    activation read back from the tuned config is gated on q_bc too.
    Raises InfeasibleDesignError naming the binding constraint when no
    setting can work, and ConfigError for a non-finite target.
    """
    base = system or default_system()
    consts = base.consts
    fcs = base.fcs
    q_ab, q_bc, q2_act = (targets.q_ab_lpm, targets.q_bc_lpm,
                          targets.q2_activation_lpm)
    for name, value in (("q_ab", q_ab), ("q_bc", q_bc), ("q2 activation", q2_act)):
        if not math.isfinite(value):
            raise ConfigError(f"{name} target {value} L/min is not a finite number")
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
    if not f_need > 0:
        raise InfeasibleDesignError(
            f"the blocking curve gives {f_need:g} N at the finger-line flow of the "
            f"q_bc target ({q_bc:g} L/min); pinch-off needs a positive blocking force")
    s3 = _tuned("jet area s3", targets,
                calibrate_s3(fcs.epsilon, consts.rho_air, lpm_to_m3s(jet_at_bc), f_need))
    f_rot = _tuned("lever onset f_rot", targets,
                   consts.rho_air * (fcs.alpha * lpm_to_m3s(q_ab)) ** 2 / s3)
    gamma = _tuned("injection fraction gamma", targets, q2_act / jet_at_bc)
    tuned_fcs = _admissible(fcs, s3=s3, f_rot=f_rot, gamma=gamma)
    venturi = _admissible(base.venturi, s_out=size_orifice(
        _tuned("q2 onset in m^3/s", targets, lpm_to_m3s(q2_act)), base.venturi, consts))
    if not venturi.use_simplified_inlet:
        venturi = _admissible(venturi, s_e=size_exhaust(lpm_to_m3s(q_bc), venturi,
                                                        tuned_fcs, consts))
    tuned = replace(base, fcs=tuned_fcs, venturi=venturi)

    # the composed system must also start injecting at the q_bc target
    got = (*state_thresholds(tuned_fcs, consts), q2_activation_threshold(venturi, consts),
           activation_threshold(venturi, tuned_fcs, consts))
    if None in got:
        raise InfeasibleDesignError(f"verification lost a threshold: got {got}")
    *achieved, act = map(m3s_to_lpm, got)
    report = DesignReport(targets=targets, achieved=tuple(achieved))
    if not (report.within_tolerance() and _near(act, q_bc)):
        raise InfeasibleDesignError(
            f"tuned config missed the targets: achieved {report.achieved}, injecting from "
            f"{act:g} L/min, wanted within {DESIGN_TOLERANCE_LPM} L/min and "
            f"{DESIGN_REL_TOLERANCE:g} relative")
    return tuned, report


def _admissible(cfg, **tuned):
    """cfg with the tuned fields; a value its checks reject is infeasible, as in _tuned."""
    try:
        return replace(cfg, **tuned)
    except ValueError as exc:
        raise InfeasibleDesignError(f"no admissible geometry hits the targets: {exc}") from None


def _tuned(name: str, targets: DesignTargets, value: float) -> float:
    """A tuned parameter, which must be positive and finite."""
    if not 0.0 < value < math.inf:
        how = "underflows to 0" if value == 0.0 else f"overflows to {value}"
        raise InfeasibleDesignError(
            f"{name} {how} for targets q_ab {targets.q_ab_lpm:g}, q_bc "
            f"{targets.q_bc_lpm:g} and q2 {targets.q2_activation_lpm:g} L/min; "
            "no finite geometry hits them")
    return value


# --- prototype-table validation ---------------------------------------

class Table1Row(NamedTuple):
    label: str
    q3_lpm: float              # recomputed from the measured flows
    f1: float                  # recomputed pinch force [N]
    f1_listed: float
    f1_error: float            # |recomputed - listed| / listed
    f_block: float             # pooled-curve value at q1_max [N]
    listed_success: bool       # classification from the published forces
    model_success: bool        # classification from the recomputed force
    expected_success: bool


class Table1Report(NamedTuple):
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


def validate_table1() -> Table1Report:
    """Recompute the prototype table from the measured flows.

    Per row: jet flow as the difference q_src_max - q1_max, pinch force
    from the jet momentum with the nozzle area backed out of the
    reference row's published values, blocking force from the pooled
    curve, and the success classification both ways (published forces
    vs recomputed).
    """
    consts = PhysConstants()
    s3 = listed_inversion_s3(prototype(REFERENCE_LABEL), consts)
    curve = blocking_curve()
    rows = []
    for spec in TABLE1:
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
