"""Segment-run traces: closed-form step ranges, per-command operating
points and the streamed CSV.

A trace holds one run (stop, row) per segment and a table of distinct
output rows, and rows exist only while to_csv writes them.  The oracles
here are the per-step and per-segment forms the runs and their tables
replace: stepping `while k * dt < end - _EPS * dt` for the step ranges,
evaluating the whole chain for every segment, with one output row per
segment, for the runs, and formatting every column of every
`step_records(trace)` row for the CSV.
"""

import io
import math
from dataclasses import replace
from itertools import cycle

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import flowhand.scenario as scenario_module
from flowhand.config import ConfigError
from flowhand.core import PiecewiseLinearCurve, lpm_to_m3s, m3s_to_lpm, m_to_mm, pa_to_kpa
from flowhand.fcs import FcsState, steady_outputs
from flowhand.finger import FingerConfig, bending_radius, chamber_pressure, tip_force
from flowhand.scenario import (
    _EPS,
    _WRITE_ROWS,
    CSV_HEADER,
    EVENTS,
    MAX_ROWS,
    Scenario,
    Segment,
    SimTrace,
    SimulationError,
    TraceRow,
    _stops,
    load_scenario,
    run_scenario,
)
from flowhand.system import default_system
from flowhand.tasks import (
    FrictionState,
    GraspScene,
    PlacementOutcome,
    can_grasp,
    pivot_feasible,
    placement_slip,
)
from flowhand.venturi import injection_active, lubricant_column

from steps import step_records

oracle = settings(max_examples=80, deadline=None, derandomize=True, database=None)

TIMESTEPS = (0.003, 0.01, 0.1)
# palette commands in the three states, the warning gap and above it
COMMANDS = (0.0, 2.5, 5.0, 10.0, 30.0, 50.0, 75.0, 118.0, 125.0, 150.0, 180.0)
SCENE = GraspScene(object_width=0.05, object_mass=0.12)


def loop_stop(k: int, end: float, dt: float) -> int:
    while k * dt < end - _EPS * dt:
        k += 1
    return k


def row_by_row_csv(trace, start=0) -> str:
    """Every column of every step from `start` formatted on its own, as
    rows used to be."""

    def g(x: float) -> str:
        return format(x, ".6g")

    lines = [CSV_HEADER]
    for rec in step_records(trace, start=start):
        lines.append(",".join((
            g(rec.t), g(m3s_to_lpm(rec.q_src)), g(m3s_to_lpm(rec.q1)),
            g(m3s_to_lpm(rec.q2)), g(m3s_to_lpm(rec.q_exhaust)), rec.state.name,
            g(pa_to_kpa(rec.p_f)), g(m_to_mm(rec.r)), g(rec.f_tip),
            "1" if rec.injection else "0", rec.friction.value)))
    return "\n".join(lines) + "\n"


# --- step ranges ------------------------------------------------------

@st.composite
def boundaries(draw) -> tuple[int, float, float]:
    """(first, end, dt): ends on a multiple of dt, within _EPS * dt of one, or anywhere."""
    dt = draw(st.sampled_from(TIMESTEPS) | st.floats(1e-4, 1.0) | st.floats(1e-12, 1e-8))
    n = draw(st.integers(0, 20_000))
    offset = dt * draw(st.sampled_from((0.0, _EPS, -_EPS, 0.5 * _EPS, -0.5 * _EPS,
                                        2 * _EPS, -2 * _EPS, 1e-13, -1e-13))
                       | st.floats(-1.0, 1.0))
    end = n * dt + offset
    for _ in range(draw(st.integers(0, 2))):   # an ulp or two either way
        end = math.nextafter(end, draw(st.sampled_from((math.inf, -math.inf))))
    first = max(0, n - draw(st.integers(-2, 6)))
    return first, end, dt


@oracle
@given(boundaries())
@example((0, 0.3, 0.1))           # 3 * 0.1 rounds above 0.3
@example((0, 0.3 + 1e-9, 0.1))
@example((0, 0.03 - 1e-9, 0.01))
@example((5, 0.03, 0.01))         # already past the end: no step
# the ceiling alone is one step short here, and one step long below
@example((0, 0.060000001000000004, 0.01))
@example((30, 0.12000000100000001, 0.003))
@example((44_600, 1339.680000001, 0.03))
@example((99_000, 298.239000001, 0.003))
@example((0, 0.009000000300000002, 0.003))
@example((0, 0.015000000300000002, 0.003))
@example((0, 0.27000000300000004, 0.03))
@example((124, 3.870000003, 0.03))
@example((0, 1e-8, 1e-10))        # the tolerance scales with dt: 100 steps, not 90
def test_step_stop_matches_stepping_loop(case):
    # the start step is the stop of a segment that ends at first * dt
    first, end, dt = case
    assert _stops([first * dt, end], dt) == [first, loop_stop(first, end, dt)]


@oracle
@given(st.sampled_from(TIMESTEPS),
       st.lists(st.tuples(st.integers(1, 400), st.sampled_from((0.0, 0.5, -0.5, 1e-10))),
                min_size=1, max_size=30))
def test_accumulated_segment_ends_match_stepping_loop(dt, pieces):
    # segment ends come from a running sum of durations, as in run_scenario
    start, k = 0.0, 0
    ends, want = [], []
    for steps, frac in pieces:
        end = start + (steps + frac) * dt
        k = loop_stop(k, end, dt)
        ends.append(end)
        want.append(k)
        start = end
    assert _stops(ends, dt) == want


# --- the streamed CSV -------------------------------------------------

@st.composite
def scenarios(draw) -> Scenario:
    dt = draw(st.sampled_from(TIMESTEPS))
    n = draw(st.integers(1, 12))
    segments = []
    for _ in range(n):
        steps = draw(st.sampled_from((1, 1, 2, 3)) | st.integers(1, 300))
        segments.append(Segment(
            duration=steps * dt,
            q_src=lpm_to_m3s(draw(st.sampled_from(COMMANDS) | st.floats(0.0, 160.0))),
            event=draw(st.none() | st.sampled_from(EVENTS))))
    return Scenario("random", tuple(segments), timestep=dt)


@oracle
@given(scenarios())
def test_csv_matches_row_by_row_formatting(scenario):
    trace = run_scenario(scenario, scene=SCENE)
    assert len(trace.runs) == len(scenario.segments)
    text = trace.to_csv()
    assert text == row_by_row_csv(trace)
    assert text.count("\n") == 1 + len(step_records(trace))
    streamed = io.StringIO()
    assert trace.to_csv(streamed) is None
    assert streamed.getvalue() == text


def test_runs_cover_every_step_in_order():
    dt = 0.01
    segments = tuple(Segment(duration=steps * dt, q_src=lpm_to_m3s(30.0))
                     for steps in (1, 5000, 1, 3))
    trace = run_scenario(Scenario("cover", segments, timestep=dt))
    assert trace.runs == ((1, 0), (5001, 0), (5002, 0), (5005, 0))
    assert len(trace.outputs) == 1
    assert len(step_records(trace)) == 5005


def test_streamed_csv_flushes_long_traces_whole():
    # more rows than one write holds, so the rows leave in several
    # writes, none of them holding more than _WRITE_ROWS lines, even
    # when a single run covers all 150k rows
    for segments in ((Segment(100.0, lpm_to_m3s(50.0)), Segment(0.01, lpm_to_m3s(150.0))),
                     (Segment(1500.0, lpm_to_m3s(50.0)),)):
        writes = []

        class Sink:
            def write(self, text):
                writes.append(text)

        trace = run_scenario(Scenario("long", segments))
        trace.to_csv(Sink())
        lines = [text.count("\n") for text in writes]
        assert len(lines) > 1
        assert max(lines) <= _WRITE_ROWS
        assert sum(lines) == 1 + trace.runs[-1][0]
        assert "".join(writes) == trace.to_csv()


def held_scenario(dt: float, runs) -> Scenario:
    return Scenario("held", tuple(Segment(steps * dt, lpm_to_m3s(q)) for steps, q in runs),
                    timestep=dt)


@oracle
@given(dt=st.floats(1e-5, 10.0) | st.integers(1, 1000).map(float)
       | st.builds(lambda m, e: m / 10 ** e, st.integers(1, 10_000), st.integers(0, 4)),
       runs=st.lists(st.tuples(st.sampled_from((1, 1, 2)) | st.integers(1, 6000),
                               st.sampled_from(COMMANDS)), min_size=1, max_size=8))
@example(dt=1000.0, runs=[(2000, 30.0)])
@example(dt=1e-5, runs=[(1, 30.0), (5000, 150.0), (1, 0.0)])
def test_percent_formatted_times_match_format(dt, runs):
    # one-row runs next to runs that cross a write of _WRITE_ROWS rows;
    # the oracle formats the time with format(t, ".6g").  Lines are
    # compared, so a failure names the first differing row instead of
    # diffing the whole text.
    trace = run_scenario(held_scenario(dt, runs))
    text = trace.to_csv()
    assert text.splitlines(True) == row_by_row_csv(trace).splitlines(True)
    streamed = io.StringIO()
    assert trace.to_csv(streamed) is None
    assert streamed.getvalue().splitlines(True) == text.splitlines(True)


def cut_trace(dt: float, cuts) -> SimTrace:
    """A trace from step 0 of one held output row, a run ending at each cut."""
    outputs = run_scenario(held_scenario(0.01, [(1, 30.0)])).outputs
    return SimTrace("cuts", dt, tuple((stop, 0) for stop in sorted(set(cuts) - {0})), outputs)


def assert_streamed_times(trace, spans) -> None:
    """Streams trace.to_csv and checks each write as it comes: at most
    _WRITE_ROWS lines, and the row of each step k in the spans (lo, hi)
    starts with "%.6g" % (k * dt)."""
    dt, at = trace.timestep, -1         # the step of the write's first line; -1 is the header

    class Sink:
        def write(self, text):
            nonlocal at
            n = text.count("\n")
            assert n <= _WRITE_ROWS
            lines = None
            for lo, hi in spans:
                lo, hi = max(lo, at), min(hi, at + n)
                if lo < hi:
                    lines = lines or text.splitlines()
                    got = [line.split(",", 1)[0] for line in lines[lo - at:hi - at]]
                    assert got == ["%.6g" % (k * dt) for k in range(lo, hi)], (dt, lo, hi)
            at += n

    trace.to_csv(Sink())
    assert at == trace.runs[-1][0]


@pytest.mark.parametrize("dt", [0.01, 0.25])
def test_runs_that_do_not_cover_every_step_are_a_value_error(dt):
    # a row's time counts the steps written before it, in the table and
    # in the formatted times alike, and a run starts where the one before
    # it stops, so a run that covers no step, or steps back, would print
    # wrong times
    outputs = cut_trace(dt, [3]).outputs
    for runs, stop, k in ((((0, 0),), 0, 0), (((3, 0), (3, 0)), 3, 3),
                          (((3, 0), (6, 0), (4, 0)), 4, 6)):
        with pytest.raises(ValueError, match=f"^a run stops at step {stop}, not after step {k}: "):
            SimTrace("gap", dt, runs, outputs).to_csv()


def test_time_table_matches_format_at_every_step():
    assert_streamed_times(cut_trace(0.01, [MAX_ROWS + 1]), [(0, MAX_ROWS + 1)])


def windows(dt: float) -> list[tuple[int, int]]:
    """Steps within 2000 of each power of ten of the time and of
    k * m = 10**6 for dt = m / 10**e, where a table stops, and none past
    that, where the texts are the oracle's own; up to MAX_ROWS for a dt
    of more than 4 fractional digits.  Merged, in order."""
    centres = [round(10.0 ** p / dt) for p in range(-4, 10)]
    last = MAX_ROWS
    for e in range(5):           # dt = m / 10**e
        m = round(dt * 10 ** e, 6)
        if m.is_integer():
            last = -(-10 ** 6 // int(m)) + 2000
            centres.append(last - 2000)
            break
    out: list[tuple[int, int]] = []
    for c in sorted(centres):
        lo, hi = max(0, c - 2000), min(last, c + 2000) + 1
        if lo >= hi:
            continue
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


# short decimals up to 0.1, which take the table up to k * m = 10**6;
# then longer steps, 5 fractional digits and exponent form, which never do
TABLE_EDGE_TIMESTEPS = [0.001, 0.005, 0.03, 0.033, 0.1, 0.0001, 0.0003,
                        0.25, 1.0, 1.1, 2.5, 123.0, 0.00123, 1e-05]


@pytest.mark.parametrize("dt", TABLE_EDGE_TIMESTEPS)
def test_time_table_matches_format_near_its_edges(dt):
    # a one-row run at every step of each window, one run over each gap
    spans = windows(dt)
    assert_streamed_times(cut_trace(dt, [k for lo, hi in spans for k in range(lo, hi + 1)]),
                          spans)


@pytest.mark.parametrize("dt", TABLE_EDGE_TIMESTEPS)
def test_time_texts_from_a_start_step_match_the_whole_column(dt):
    # runs of 3 rows that start at every step of each window, over one
    # trace per offset, then runs of lengths that cycle through 1 ... 499,
    # across the windows' second and table edges
    spans = windows(dt)
    for offset in range(3):
        cuts = [k for lo, hi in spans for k in (lo, *range(lo + offset, hi, 3), hi)]
        assert_streamed_times(cut_trace(dt, cuts), spans)
    cuts = []
    for lo, hi in spans:
        k = lo
        for length in cycle((5, 2, 40, 7, 1, 499, 3, 11)):
            cuts.append(k)
            if k >= hi:
                break
            k = min(k + length, hi)
    assert_streamed_times(cut_trace(dt, cuts), spans)


@pytest.mark.parametrize("dt, runs, time", [
    (1000.0, [(2000, 30.0)], "1e+06"),
    (1e-5, [(1, 30.0), (5000, 150.0)], "1e-05"),
])
def test_times_in_exponent_form(dt, runs, time):
    times = [line.split(",", 1)[0] for line in
             run_scenario(held_scenario(dt, runs)).to_csv().splitlines()[1:]]
    assert time in times


def streamed_writes(trace) -> list[str]:
    writes = []

    class Sink:
        def write(self, text):
            writes.append(text)

    trace.to_csv(Sink())
    return writes


# each case holds runs long enough that to_csv writes a whole second of
# them in one join; (steps, command) per segment
JOINED = {
    # a second is 10**4 rows, so one second of this run spans three writes
    "one second over several writes": (0.0001, [(25_000, 30.0)]),
    # 3, 33 and 7 do not divide 100, 1000 and 10**4: the runs start at
    # every offset into a second
    "mid-second starts, dt = 0.03": (0.03, [(5, 30.0), (100, 150.0), (7, 0.0), (61, 30.0),
                                            (1, 150.0), (233, 5.0)]),
    "mid-second starts, dt = 0.033": (0.033, [(17, 30.0), (95, 150.0), (40, 0.0), (1, 30.0),
                                              (300, 5.0)]),
    "mid-second starts, dt = 0.0007": (0.0007, [(3, 30.0), (2000, 150.0), (1500, 0.0),
                                                (1, 30.0), (5000, 5.0)]),
    # k * m = 10**6 at step 1002 of dt = 0.0999: the run crosses into
    # the formatted times, and the rows after it stay there
    "a run across the table's end": (0.0999, [(990, 30.0), (40, 150.0), (1, 0.0), (40, 5.0)]),
    # the second carries from run to run, whatever their lengths
    "one-row runs after joined ones": (0.01, [(500, 30.0), (1, 150.0), (1, 0.0), (2, 30.0),
                                              (300, 5.0), (1, 150.0), (3, 0.0), (64, 5.0),
                                              (31, 30.0)]),
}


@pytest.mark.parametrize("dt, runs", JOINED.values(), ids=JOINED.keys())
def test_joined_runs_match_row_by_row_formatting(dt, runs):
    trace = run_scenario(held_scenario(dt, runs))
    stops = [stop for stop, _ in trace.runs]
    assert [b - a for a, b in zip([0] + stops, stops)] == [steps for steps, _ in runs]
    writes = streamed_writes(trace)
    assert max(text.count("\n") for text in writes) <= _WRITE_ROWS
    text = "".join(writes)
    assert text.splitlines(True) == row_by_row_csv(trace).splitlines(True)
    assert trace.to_csv() == text


def test_joined_run_across_a_million_steps_at_a_tenth_of_a_second():
    # at dt = 0.1 the table ends at step 10**6, inside the second run;
    # the rows around it against the oracle over those steps alone, and
    # every row before them against the time and the tail they must have
    trace = run_scenario(held_scenario(0.1, [(999_990, 30.0), (40, 150.0), (1, 0.0),
                                             (40, 5.0)]))
    assert_streamed_times(trace, [(0, 999_900)])
    lines = trace.to_csv().splitlines(True)
    assert lines[1 + 999_900:] == row_by_row_csv(trace, start=999_900).splitlines(True)[1:]
    assert {line.split(",", 1)[1] for line in lines[1:1 + 999_900]} == {
        lines[1 + 999_900].split(",", 1)[1]}


# --- one evaluation per distinct command ------------------------------

def per_segment_run_scenario(scenario, system, scene):
    """The reference for run_scenario: the whole chain evaluated for
    every segment, with no table of commands and one output row per
    segment, and the friction regime and the event outcomes written out
    here."""
    consts = system.consts
    hand = system.hand
    lubricated = False
    p_latch = 0.0
    runs = []
    outputs = []
    results = {}

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
        lubricated = lubricated or injecting
        friction = FrictionState.LOW if lubricated else FrictionState.HIGH
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

        if seg.event in ("grasp", "lift", "place") and scene is None:
            raise ConfigError(f"segment {i}: event '{seg.event}' needs a scene")
        mu = hand.mu_low if lubricated else hand.mu_high
        if seg.event == "grasp":
            results["grasp_ok"] = can_grasp(scene, f_tip, hand, consts, mu=mu)
        elif seg.event == "lift":
            results["lift_ok"] = (placement_slip(scene, f_tip, hand, friction, consts)
                                  is PlacementOutcome.HELD_FIXED)
        elif seg.event == "place":
            results["place_outcome"] = placement_slip(scene, f_tip, hand, friction, consts)
        elif seg.event == "pivot":
            results["pivot_ok"] = pivot_feasible(mu, hand)

        stop = loop_stop(k, end, dt)
        if stop == k:
            raise ConfigError(
                f"segment {i} (t={start:g} s, {seg.duration:g} s long) covers no "
                f"sample at timestep {dt:g} s")
        runs.append((stop, i))
        outputs.append(TraceRow(seg.q_src, out.q1, out.q2, out.q_exhaust, out.state, p_f, r,
                                f_tip, injecting, friction))
        # the release wipes the lubricant off after the place segment
        lubricated = lubricated and seg.event != "place"
        k = stop
        start = end

    return SimTrace(name=scenario.name, timestep=dt, runs=tuple(runs), outputs=tuple(outputs),
                    **results)


SYSTEM = default_system()
# f_tip overflows at every pressure above about 2 Pa, so only 0 L/min and
# pinch-off holds from an empty chamber get through; FingerConfig refuses
# such a gain, so it is set past the check to reach the runtime guard
RUNAWAY = replace(SYSTEM, finger=FingerConfig())
object.__setattr__(RUNAWAY.finger, "tipforce_gain", 1e308)
# a few commands per state, so they repeat: A below 8.1 L/min, C from 118;
# 118.0 itself sits on the flip, where rounding of s3 picks the state
PALETTE = {
    "A": (0.0, -0.0, 5.0),
    "B": (10.0, 30.0, 50.0, 75.0),
    "C": (118.0, 150.0, 180.0),
}


@st.composite
def repeating_scenarios(draw) -> Scenario:
    """Commands from PALETTE, often a C hold between two B commands, so
    the latched pressure of one B command is held under the next."""
    dt = draw(st.sampled_from(TIMESTEPS))
    commands = []
    for _ in range(draw(st.integers(1, 25))):
        if draw(st.booleans()):
            commands += [draw(st.sampled_from(PALETTE["B"]))] + [
                draw(st.sampled_from(PALETTE["C"])) for _ in range(draw(st.integers(1, 3)))]
        else:
            commands.append(draw(st.sampled_from(PALETTE[draw(st.sampled_from("ABC"))])))
    segments = tuple(
        Segment(duration=draw(st.sampled_from((1, 1, 2, 7))) * dt, q_src=lpm_to_m3s(q),
                event=draw(st.none() | st.none() | st.sampled_from(EVENTS)))
        for q in commands)
    return Scenario("repeating", segments, timestep=dt)


def outcome(run, *args):
    try:
        return run(*args)
    except SimulationError as exc:
        return exc


@oracle
@given(repeating_scenarios(), st.sampled_from((SYSTEM, RUNAWAY)))
@example(Scenario("latch", tuple(Segment(0.01, lpm_to_m3s(q)) for q in
                                 (30.0, 150.0, 50.0, 150.0, 30.0, 150.0, 0.0, -0.0, 150.0))),
         SYSTEM)
@example(Scenario("first-bad", tuple(Segment(0.01, lpm_to_m3s(q)) for q in
                                     (150.0, 0.0, 150.0, 30.0, 30.0))), RUNAWAY)
def test_runs_and_csv_match_per_segment_evaluation(scenario, system):
    got = outcome(run_scenario, scenario, system, SCENE)
    want = outcome(per_segment_run_scenario, scenario, system, SCENE)
    if isinstance(want, SimulationError):
        assert isinstance(got, SimulationError) and str(got) == str(want)
        return
    # repr tells -0.0 from 0.0, which == does not
    assert [(stop, repr(got.outputs[row])) for stop, row in got.runs] == [
        (stop, repr(want.outputs[row])) for stop, row in want.runs]
    assert repr(got._replace(runs=(), outputs=())) == repr(want._replace(runs=(), outputs=()))
    # the table holds each distinct row once, in order of first use
    assert len(set(got.outputs)) == len(got.outputs)
    assert list(dict.fromkeys(row for _, row in got.runs)) == list(range(len(got.outputs)))
    assert got.to_csv() == row_by_row_csv(want)


@settings(oracle, max_examples=20)
@given(repeating_scenarios(), st.data())
def test_splitting_segments_changes_no_row_and_no_outcome(scenario, data):
    # each segment that is not a place and covers n >= 2 steps is cut at a
    # drawn step 0 < j < n, or left whole (j = 0), into two whole-step
    # halves of its command, the event on the first; a place stays whole,
    # because the release after it would fall between its halves
    trace = run_scenario(scenario, SYSTEM, SCENE)
    dt = scenario.timestep
    segments = []
    first = 0
    for seg, (stop, _) in zip(scenario.segments, trace.runs):
        n, first = stop - first, stop
        j = 0 if seg.event == "place" or n < 2 else data.draw(st.integers(0, n - 1))
        segments += ((Segment(j * dt, seg.q_src, seg.event), Segment((n - j) * dt, seg.q_src))
                     if j else (seg,))
    assume(len(segments) > len(scenario.segments))
    split = run_scenario(Scenario(scenario.name, tuple(segments), timestep=dt), SYSTEM, SCENE)
    assert split.to_csv() == trace.to_csv()
    assert split._replace(runs=(), outputs=()) == trace._replace(runs=(), outputs=())


@pytest.mark.parametrize("commands, first_bad", [
    ((30.0,), 0),
    ((0.0, 150.0, 30.0, 30.0), 2),
    ((150.0, 0.0, 150.0, 0.0, 50.0, 0.0, 50.0), 4),
])
def test_runaway_output_names_first_offending_segment(commands, first_bad):
    dt = 0.01
    scenario = Scenario("runaway", tuple(Segment(dt, lpm_to_m3s(q)) for q in commands),
                        timestep=dt)
    with pytest.raises(SimulationError,
                       match=rf"^f_tip is inf in segment {first_bad} \(t={first_bad * dt:g} s\)$"):
        run_scenario(scenario, RUNAWAY)


def test_each_distinct_command_is_evaluated_once(monkeypatch):
    calls = {"steady_outputs": [], "lubricant_column": []}

    def counted(name, fn):
        def wrapper(q_src, *args):
            calls[name].append(q_src)
            return fn(q_src, *args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(scenario_module, name, counted(name, getattr(scenario_module, name)))
    commands = [lpm_to_m3s(q) for q in (0.0, 5.0, 30.0, 50.0, 150.0)]
    scenario = Scenario("churn", tuple(Segment(0.01, commands[i % 5]) for i in range(1000)))
    trace = run_scenario(scenario, SYSTEM)
    assert len(trace.runs) == 1000
    for name, seen in calls.items():
        assert sorted(seen) == sorted(commands), name


def test_each_distinct_event_outcome_is_decided_once(monkeypatch):
    # the task models run once per distinct (event, latched finger
    # outputs, friction); the keys come from the per-step records
    calls = {"can_grasp": 0, "placement_slip": 0, "pivot_feasible": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(scenario_module, name, counted(name, getattr(scenario_module, name)))
    commands = cycle(lpm_to_m3s(q) for q in (0.0, 30.0, 150.0, 5.0, 50.0, 150.0, 10.0))
    events = cycle(("grasp", None, "lift", "pivot", None, "place", "grasp", "pivot", "lift"))
    scenario = Scenario("churn", tuple(Segment(0.01, next(commands), next(events))
                                       for _ in range(1000)))
    trace = run_scenario(scenario, SYSTEM, SCENE)
    want = per_segment_run_scenario(scenario, SYSTEM, SCENE)
    assert trace._replace(runs=(), outputs=()) == want._replace(runs=(), outputs=())
    keys = {(rec.event, rec.p_f, rec.f_tip, rec.r, rec.friction)
            for rec in step_records(trace, scenario.segments) if rec.event}
    count = {event: sum(key[0] == event for key in keys) for event in EVENTS}
    assert calls == {"can_grasp": count["grasp"],
                     "placement_slip": count["lift"] + count["place"],
                     "pivot_feasible": count["pivot"]}
    assert 0 < sum(calls.values()) < 100       # of 778 events


def test_csv_prints_each_row_its_own_fields():
    # rows that share the flow fields but not the finger outputs, the
    # injection or the friction, and rows that share p_f but not the
    # state or the rest of the finger outputs: the texts are tabled by
    # value, so each row must still print every field of its own
    q, q1, q2, q_exhaust = lpm_to_m3s(30.0), 1e-5, 2e-4, 3e-4
    high, low = FrictionState.HIGH, FrictionState.LOW
    outputs = (
        TraceRow(q, q1, q2, q_exhaust, FcsState.B, 12920.0, 0.0637, 0.152, False, high),
        TraceRow(q, q1, q2, q_exhaust, FcsState.B, 12920.0, 0.0637, 0.152, False, low),
        TraceRow(q, q1, q2, q_exhaust, FcsState.B, 22610.0, 0.0364, 0.266, False, high),
        TraceRow(q, q1, q2, q_exhaust, FcsState.B, 12920.0, 0.0637, 0.152, True, high),
        TraceRow(q, q1, q2, q_exhaust, FcsState.C, 12920.0, 0.0637, 0.152, False, high),
        TraceRow(q, 0.0, q2, q_exhaust, FcsState.C, 12920.0, 0.0637, 0.152, False, high),
        TraceRow(q, q1, q2, q_exhaust, FcsState.B, 12920.0, 0.0637, 0.2, False, high),
        TraceRow(q, q1, q2, q_exhaust, FcsState.B, 12920.0, math.inf, 0.152, False, high),
        TraceRow(0.0, q1, q2, q_exhaust, FcsState.A, 12920.0, 0.0637, 0.152, False, high),
    )
    runs = ((1, 0), (3, 1), (4, 2), (5, 0), (7, 3), (8, 4), (9, 5), (10, 6), (12, 7),
            (13, 8), (14, 4), (15, 1))
    trace = SimTrace("by hand", 0.01, runs, outputs)
    text = trace.to_csv()
    assert text == row_by_row_csv(trace)
    assert len(set(line.split(",", 1)[1] for line in text.splitlines()[1:])) == len(outputs)


def test_negative_zero_command_prints_zero_flows():
    scenario, _ = load_scenario({"segments": [{"duration_s": 0.02, "q_src_lpm": -0.0}]})
    assert math.copysign(1.0, scenario.segments[0].q_src) == 1.0
    assert math.copysign(1.0, Segment(1.0, -0.0).q_src) == 1.0
    lines = run_scenario(scenario).to_csv().splitlines()
    assert lines[0].split(",")[1:5] == ["q_src_lpm", "q1_lpm", "q2_lpm", "q_exhaust_lpm"]
    assert len(lines) == 3
    for line in lines[1:]:
        assert line.split(",")[1:5] == ["0", "0", "0", "0"]


def test_negative_zero_pressure_knot_prints_zero():
    # 0 L/min maps onto the -0.0 knot, 5 L/min interpolates to 0.0; held
    # under pinch-off, the two made equal tails that printed differently
    pressure = PiecewiseLinearCurve(((0.0, -0.0), (10.0, -0.0), (50.0, 32300.0)))
    system = replace(SYSTEM, finger=FingerConfig(pressure_map=pressure))
    segments = tuple(Segment(0.01, lpm_to_m3s(q)) for q in (0.0, 150.0, 5.0, 150.0))
    trace = run_scenario(Scenario("zero", segments), system)
    text = trace.to_csv()
    assert text == row_by_row_csv(trace)
    for line in text.splitlines()[1:]:
        assert "-0" not in line.split(",")
