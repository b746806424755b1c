"""Quasi-static scenario execution, sweeps, design search, and validation.

A scenario is a piecewise-constant source-flow command with optional
task events (grasp, lift, place, pivot) at segment starts.  The model
is quasi-static: every output is a pure function of the segment's
command plus two pieces of carried state, the latched finger pressure
and the fingertip friction regime.  Both evolve per segment, so the
timestep controls trace density only; values at shared timestamps are
identical across timesteps, and no event can fall between samples: a
segment that covers no sample is rejected.

So a trace stores one run (stop, row) per segment, the step after the
segment's last one and an index into the trace's table of distinct
output rows, and never one object per step.  SimTrace.to_csv expands
the rows while it writes them, at most _WRITE_ROWS lines per write,
formatting each distinct flow and finger text once.  Its time column
repeats too: for a short decimal timestep of at most 0.1 s, such as
0.01, every row of one whole second shares the second's digits str(s)
and differs only in a fractional suffix from a table, so one loop
writes each run's stretch within one second as one join of its
suffixes, with the bytes a float formatted per row would give and no
time string made per row.

And since the hand has one input, a scenario of thousands of segments
repeats a few segments and reuses a few operating points.  So, in tables
local to the call, load_scenario builds each distinct segment once per
file, Scenario.warnings formats each distinct command's warning once,
and run_scenario evaluates each distinct command and adds each
(command, latch, friction) row once per run, the latch indexing the
distinct finger outputs.  Per segment run only table lookups, the
latch, the friction regime and one closed-form pass for all the stops,
_stops.  A trace reports one outcome per event kind, that of its last
event, so run_scenario decides at most four outcomes per run, after
its loop.

The finger pressure latches because pinch-off seals the finger line:
whatever air is in the chamber stays there while the switch is in the
blocked state, and the command maps to a fresh pressure again once the
line reopens.

Also here: parameter sweeps over any config key, which read the flips
with fcs.state_thresholds; design_search, which puts the sections that
system.solve_for_targets solves and checks into a system; and the
prototype-table validation report.
"""

from __future__ import annotations

import io
import math
from dataclasses import replace
from functools import cache
from itertools import accumulate, groupby
from typing import NamedTuple

from .config import (
    ConfigError,
    _CURVE,
    _KPA_CURVE,
    _TABLE,
    _config_path,
    _float,
    _number,
    apply_override,
    read_json,
)
from .core import (
    LPM_PER_M3S,
    PhysConstants,
    _Value,
    m3s_to_lpm,
    m_to_mm,
    mm_to_m,
    pa_to_kpa,
)
from .fcs import (
    FcsOutputs,
    FcsState,
    blocking_force,
    calibrate_s3,
    lever_force,
    state_thresholds,
    steady_outputs,
)
from .finger import FingerConfig, chamber_pressure, bending_radius, mean_displacement, posture, tip_force
from .system import (
    INJECTION_COMMAND_LPM,
    MOTION_MAX_LPM,
    REFERENCE_LABEL,
    DesignTargets,
    SystemConfig,
    TABLE1,
    blocking_curve,
    default_system,
    prototype,
    solve_for_targets,
)
from .tasks import (
    FrictionState,
    GraspScene,
    PlacementOutcome,
    can_grasp,
    pivot_feasible,
    placement_slip,
)
from .venturi import (
    activation_threshold,
    injection_active,
    lubricant_column,
)

EVENTS = ("grasp", "lift", "place", "pivot")

CSV_HEADER = "t,q_src_lpm,q1_lpm,q2_lpm,q_exhaust_lpm,state,p_f_kpa,r_mm,f_tip_n,injection,friction"

_EPS = 1e-7     # of a timestep, so 1e-9 s at dt = 0.01 s
# twice the 1M-row scenario the performance targets are set for; a trace
# holds one run per segment however many rows it covers, so the cap
# bounds the run time and the CSV size of a runaway duration/timestep,
# not the memory
MAX_ROWS = 2_000_000


class SimulationError(RuntimeError):
    """A non-finite value appeared in the trace; carries where and what."""


class Segment(_Value):
    """One piecewise-constant command: hold q_src for duration seconds.

    duration [s] finite and > 0, q_src [m^3/s] >= 0 and finite in L/min,
    event None or one of EVENTS.  An immutable value: assigning a field
    raises AttributeError, and equal segments compare and hash equal.
    """

    __slots__ = ("duration", "q_src", "event")

    def __init__(self, duration: float, q_src: float, event: str | None = None) -> None:
        if not 0.0 < duration < math.inf:
            raise ValueError(f"segment duration must be finite and > 0, got {duration}")
        if not 0.0 <= q_src * LPM_PER_M3S < math.inf:
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
        offending segment, "segment i: " and its command's text; a table
        local to the call checks and formats each distinct command once,
        "" for one that gives no warning.  The command prints with :g,
        or as its repr where :g would read as a band edge it is not."""
        out = []
        texts: dict = {}       # q_src -> its warning text, or ""
        for i, seg in enumerate(self.segments):
            text = texts.get(seg.q_src)
            if text is None:
                q = m3s_to_lpm(seg.q_src)
                shown = f"{q:g}"
                if float(shown) in (MOTION_MAX_LPM, INJECTION_COMMAND_LPM):
                    shown = repr(q)     # an edge itself never warns
                if MOTION_MAX_LPM < q < INJECTION_COMMAND_LPM:
                    text = (f"q_src {shown} L/min is between the motion band "
                            f"(0-{MOTION_MAX_LPM:g}) and the injection command "
                            f"({INJECTION_COMMAND_LPM:g})")
                elif q > INJECTION_COMMAND_LPM:
                    text = (f"q_src {shown} L/min exceeds the source maximum "
                            f"({INJECTION_COMMAND_LPM:g})")
                else:
                    text = ""
                texts[seg.q_src] = text
            if text:
                out.append(f"segment {i}: {text}")
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
    Segment checks the values, each once.  The key path segments[i] is
    formatted only into an error."""
    if not isinstance(seg, dict):
        raise ConfigError(f"segments[{i}]: expected an object")
    for key in seg:
        if key not in ("duration_s", "q_src_lpm", "event"):
            raise ConfigError(f"unknown scenario key 'segments[{i}].{key}'")
    if "duration_s" not in seg or "q_src_lpm" not in seg:
        raise ConfigError(f"segments[{i}]: needs duration_s and q_src_lpm")
    event = seg.get("event")
    if event is not None and event not in EVENTS:
        raise ConfigError(f"segments[{i}].event: unknown event {event!r}; know {EVENTS}")
    try:
        return Segment(_float(seg["duration_s"], "duration_s"),
                       _float(seg["q_src_lpm"], "q_src_lpm") / LPM_PER_M3S, event)
    except ConfigError as exc:          # "<key>: ...", from _float
        raise ConfigError(f"segments[{i}].{exc}") from None
    except ValueError as exc:
        raise ConfigError(f"segments[{i}]: {exc}") from exc


class TraceRow(NamedTuple):
    """One distinct set of a trace's outputs, the CSV columns after t."""

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


# a CSV row is its time text plus the tail of its run's row of outputs:
# the row's flow text, its finger text, its injection and its friction
_FLOW_TEXT = ",{:.6g},{:.6g},{:.6g},{:.6g},{}".format
_FINGER_TEXT = ",{:.6g},{:.6g},{:.6g},".format
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
    """One run (stop, row) per segment, the table of distinct outputs the
    runs index, and the outcomes of any task events.

    Step k of the trace is at time k * timestep; a run holds outputs[row]
    from the step the run before it stops at, or step 0, to stop - 1.
    Every row is held by a run.  The events stay on scenario.segments.
    """

    name: str
    timestep: float
    runs: tuple[tuple[int, int], ...]
    outputs: tuple[TraceRow, ...]
    grasp_ok: bool | None = None
    lift_ok: bool | None = None
    place_outcome: PlacementOutcome | None = None
    pivot_ok: bool | None = None

    def state_sequence(self) -> list[FcsState]:
        """Visited states with consecutive repeats collapsed."""
        return [state for state, _ in groupby(self.outputs[row].state for _, row in self.runs)]

    def to_csv(self, out=None) -> str | None:
        """The trace as CSV, one row per step.

        The row of step k is its time "%.6g" % (k * dt) plus the tail of
        its run's row of outputs, each tail made once per call from texts
        tabled by value: a flow text per distinct (q_src, q1, q2,
        q_exhaust, state), a finger text per distinct (p_f, r, f_tip),
        then the injection digit and the friction.  Fields that compare
        equal share a text, so 0.0 and -0.0 print as the first of them;
        run_scenario stores no -0.0, as Segment and the calibration
        curves drop the sign of zero.

        One loop writes each run in chunks, a chunk being the part of a
        run within one whole second and one write.  Where _time_table
        gives suffixes, a chunk of c rows in second s is the single join
        str(s) + (tail + str(s)).join(suffixes[f:f + c*m:m]) + tail, with
        no string made per row.  Elsewhere a chunk is its formatted
        times joined by its tail.  A one-row chunk in the table goes into
        the write buffer as its three texts, str(s), suffixes[f] and
        tail, unjoined.  k, s and f carry from run to run, from step 0; a run
        whose stop is at or before the step k covers no step, a
        ValueError.

        Given a text file, the rows are written to it as they are made,
        at most _WRITE_ROWS lines per write however long a run is, so
        memory does not grow with the row count, and None is returned.
        Otherwise the text is.
        """
        sink = io.StringIO() if out is None else out
        dt = self.timestep
        # without a table, table_stop = 0 and every time is formatted; with
        # one, table_stop is where second 10**6 // scale starts, so no
        # chunk of the table crosses it
        m, scale, suffixes, table_stop = _time_table(dt) or (0, 0, (), 0)
        # the next step k, in the table in second s at k * m = s * scale + f
        k, s, f, sec = 0, 0, 0, "0"
        rows = [CSV_HEADER + "\n"]
        room = _WRITE_ROWS - 1          # lines the buffer takes before a write
        flows: dict = {}
        fingers: dict = {}
        tails = []
        for q_src, q1, q2, q_exhaust, state, p_f, r, f_tip, injection, friction in self.outputs:
            flow = flows.get(key := (q_src, q1, q2, q_exhaust, state))
            if flow is None:
                flow = flows[key] = _FLOW_TEXT(m3s_to_lpm(q_src), m3s_to_lpm(q1), m3s_to_lpm(q2),
                                               m3s_to_lpm(q_exhaust), state.name)
            finger = fingers.get(key := (p_f, r, f_tip))
            if finger is None:
                finger = fingers[key] = _FINGER_TEXT(pa_to_kpa(p_f), m_to_mm(r), f_tip)
            tails.append(f"{flow}{finger}{'1' if injection else '0'},{friction.value}\n")
        for stop, row in self.runs:
            if stop <= k:
                raise ValueError(f"a run stops at step {stop}, not after step {k}: every "
                                 "run must cover at least one step")
            tail = tails[row]
            while k < stop:
                c = stop - k
                if k < table_stop:
                    if c == 1:
                        rows += sec, suffixes[f], tail
                    else:
                        c = min(c, (scale - 1 - f) // m + 1, room)
                        rows += sec, (tail + sec).join(suffixes[f:f + c * m:m]), tail
                    f += c * m
                    if f >= scale:
                        s += 1
                        f -= scale
                        sec = str(s)
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


_FRICTION = (FrictionState.HIGH, FrictionState.LOW)      # indexed by run_scenario's `low`


def _stops(ends, dt: float) -> list[int]:
    """The step after the last one of each segment, for segments that end
    at `ends` in turn, each from the step the one before it stops at.

    Stepping `while k * dt < end - _EPS * dt: k += 1` from the stop
    before stops at the larger of that stop and the smallest k with
    k * dt >= end - _EPS * dt, as k * dt grows with k.  The ceiling of
    (end - _EPS * dt) / dt lands within one step of that k, and one float
    product either way settles it.  The tolerance is relative to the
    timestep, so a segment keeps its steps however small dt is.
    """
    tol = _EPS * dt
    ceil = math.ceil
    stops = []
    k = 0
    for end in ends:
        edge = end - tol
        j = ceil(edge / dt)
        if j * dt < edge:
            j += 1
        elif (j - 1) * dt >= edge:
            j -= 1
        if j > k:
            k = j
        stops.append(k)
    return stops


def run_scenario(
    scenario: Scenario,
    system: SystemConfig | None = None,
    scene: GraspScene | None = None,
) -> SimTrace:
    """Execute a scenario; reruns are bit-identical.

    Each segment becomes one run (stop, row): the step after its last,
    from one _stops pass over the segment ends, and the index of its
    outputs in the trace's table.  Nothing is built per step; rows exist
    only while SimTrace.to_csv writes them.  Each distinct command is
    evaluated once, at its first segment, which is also where a
    non-finite output raises SimulationError; each distinct (command,
    latch, friction) adds one row.  The latched pressure and the
    friction regime carry across segments.  Friction starts HIGH, turns
    LOW at a segment that injects and stays LOW until a place event
    releases the object and wipes the lubricant: the place segment
    still reads LOW, the next one HIGH.  Task events fire at segment
    start, after its injection; grasp, lift, and place need a scene, and
    the last event of each kind wins, so only that one has its outcome
    decided, once, after the loop and from its segment's row.  At each
    segment a non-finite output is checked first, then an event's scene,
    then that the segment covers a timestep sample; the last two fail
    as a ConfigError.
    """
    system = system or default_system()
    consts = system.consts
    hand = system.hand
    dt = scenario.timestep
    # segment i starts at starts[i] and step steps[i] and stops before
    # step steps[i + 1]
    starts = [0.0, *accumulate(seg.duration for seg in scenario.segments)]
    steps = _stops(starts, dt)
    stops = steps[1:]
    # q_src -> (its switch outputs, whether it injects, its latch or None)
    points: dict = {}
    # the latch indexes fingers, the distinct finger outputs (p_f, f_tip,
    # r); in state C it holds those of the last command that reached the
    # chamber, or of the empty chamber before any did
    fingers = [_finger_outputs(0.0, system.finger)]
    latches = {fingers[0]: 0}
    latch = 0
    low = False                # friction is LOW
    rows: dict = {}            # (q_src, latch, low) -> its index in outputs
    outputs: list[TraceRow] = []
    last: dict = {}            # event -> the row of its last segment
    row_of: list[int] = []     # each segment's row, so far

    for seg, k, stop in zip(scenario.segments, steps, stops):
        q_src = seg.q_src
        point = points.get(q_src)
        if point is None:
            try:
                out, injecting, finger = operating_point(q_src, system)
            except SimulationError as exc:
                i = len(row_of)
                raise SimulationError(f"{exc} in segment {i} (t={starts[i]:g} s)") from None
            if finger is not None:
                latch_of = latches.setdefault(finger, len(fingers))
                if latch_of == len(fingers):
                    fingers.append(finger)
                finger = latch_of
            point = points[q_src] = out, injecting, finger
        out, injecting, finger = point
        if finger is not None:
            latch = finger
        if injecting:
            low = True

        event = seg.event
        if event is not None and scene is None and event != "pivot":
            raise ConfigError(f"segment {len(row_of)}: event '{event}' needs a scene")
        if stop == k:
            i = len(row_of)
            raise ConfigError(f"segment {i} (t={starts[i]:g} s, {seg.duration:g} s long) "
                              f"covers no sample at timestep {dt:g} s")
        row = rows.get(key := (q_src, latch, low))
        if row is None:
            row = rows[key] = len(outputs)
            p_f, f_tip, r = fingers[latch]
            outputs.append(TraceRow(q_src, out.q1, out.q2, out.q_exhaust, out.state, p_f, r,
                                    f_tip, injecting, _FRICTION[low]))
        row_of.append(row)
        if event is not None:
            last[event] = row
            if event == "place":   # object gone, lubricant wiped with it
                low = False

    # each reported outcome is decided once, from the row of its kind's
    # last event segment, which holds the latched f_tip and the friction
    # the event fired at (a place resets the friction after its row)
    outcomes = {}
    for event, row in last.items():
        f_tip, friction = outputs[row].f_tip, outputs[row].friction
        if event == "grasp":
            outcomes[event] = can_grasp(scene, f_tip, hand, consts, mu=hand.mu(friction))
        elif event == "pivot":
            outcomes[event] = pivot_feasible(hand.mu(friction), hand)
        else:
            result = placement_slip(scene, f_tip, hand, friction, consts)
            outcomes[event] = result is PlacementOutcome.HELD_FIXED if event == "lift" else result
    # the outcome fields follow EVENTS: grasp_ok, lift_ok, place_outcome, pivot_ok
    return SimTrace(scenario.name, dt, tuple(zip(stops, row_of)), tuple(outputs),
                    *map(outcomes.get, EVENTS))


def _check_finite(names: str, *values: float) -> None:
    """SimulationError naming the first value that is not finite; names
    holds the values' names, space-separated, and is read only then."""
    if not all(map(math.isfinite, values)):
        name, value = next((n, v) for n, v in zip(names.split(), values) if not math.isfinite(v))
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
    _check_finite("q1 q2 q_exhaust", out.q1, out.q2, out.q_exhaust)
    finger = None if p_f is None else _finger_outputs(p_f, system.finger)
    return OperatingPoint(out, injecting, finger)


def _finger_outputs(p_f: float, cfg: FingerConfig) -> tuple:
    """(p_f, f_tip, r) at chamber pressure p_f."""
    f_tip = tip_force(p_f, cfg)
    r = bending_radius(p_f, cfg)
    _check_finite("p_f f_tip", p_f, f_tip)
    if math.isnan(r):
        raise SimulationError("r is nan")
    return p_f, f_tip, r


def injection_displacement(trace: SimTrace, cfg: FingerConfig) -> float | None:
    """Mean mark displacement [m] between the posture just before the
    first injection and the final injecting posture; None if the trace
    never injects."""
    rows = [trace.outputs[row] for _, row in trace.runs]
    first = next((i for i, row in enumerate(rows) if row.injection), None)
    if first is None:
        return None
    # every run covers a step, so the step before the first injecting
    # one belongs to the run before it
    p_before = rows[first - 1].p_f if first > 0 else 0.0
    p_after = next(row.p_f for row in reversed(rows) if row.injection)
    return mean_displacement(posture(p_before, cfg), posture(p_after, cfg))


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
    keep the input order.  An unknown key, or one whose value is a list
    of knots, is a ConfigError, with or without values.

    apply_override hands back the sections a value does not touch as
    the same objects, so the two flips are evaluated once per distinct
    switch section and the onset once per distinct switch and injector
    pair: a venturi or finger key solves the flips once, a finger or
    hand key the onset too.
    """
    section, key = _config_path(param)
    if _TABLE[section][key][1] in (_CURVE, _KPA_CURVE):
        raise ConfigError(f"{param}: a list of knots cannot be swept; a sweep value is a number")
    base = system or default_system()
    consts = base.consts
    rows = []
    fcs = venturi = None
    for value in values:
        sys_i = apply_override(base, param, value)
        if sys_i.fcs is not fcs:
            fcs = sys_i.fcs
            flips = [None if q is None else m3s_to_lpm(q) for q in state_thresholds(fcs, consts)]
            venturi = None
        if sys_i.venturi is not venturi:
            venturi = sys_i.venturi
            act = activation_threshold(venturi, fcs, consts)
            act_lpm = None if act is None else m3s_to_lpm(act)
        row = (param, float(value), *flips, act_lpm)
        if scenario is not None:
            trace = run_scenario(scenario, sys_i, scene)
            outputs = trace.outputs          # each row is held by a run
            row += (outputs[trace.runs[-1][1]].state, any(o.injection for o in outputs),
                    pa_to_kpa(max(o.p_f for o in outputs)))
        rows.append(SweepRow(*row))
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

def design_search(
    targets: DesignTargets,
    system: SystemConfig | None = None,
) -> tuple[SystemConfig, tuple[float, float, float]]:
    """Tune jet area, lever onset, injection fraction, and orifice so the
    simulated thresholds hit the targets.

    solve_for_targets checks the targets, solves the four free
    parameters in closed form and reads the thresholds back; at the
    paper's anchors it gives default_system.  Returns the tuned system
    and the achieved (q_ab, q_bc, q2 onset) in L/min.  Raises
    InfeasibleDesignError naming the binding constraint when no setting
    can work, and ConfigError for a non-finite target.
    """
    base = system or default_system()
    fcs = base.fcs
    tuned_fcs, venturi, achieved = solve_for_targets(
        targets, fcs.alpha, fcs.epsilon, fcs.f_block_curve, base.venturi, base.consts)
    return replace(base, fcs=tuned_fcs, venturi=venturi), achieved


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
    consts, ref = PhysConstants(), prototype(REFERENCE_LABEL)
    s3 = calibrate_s3(ref.epsilon, consts.rho_air, ref.q3_listed, ref.f1_listed)
    curve = blocking_curve()
    rows = []
    for spec in TABLE1:
        q3 = spec.q_src_max - spec.q1_max
        f1 = spec.epsilon * lever_force(q3, s3, consts.rho_air)
        f_block = blocking_force(spec.q1_max, curve)
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
