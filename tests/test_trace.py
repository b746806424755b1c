"""Segment-run traces: closed-form step ranges and the streamed CSV.

A trace holds one run per segment, and rows exist only while to_csv
writes them.  The oracles here are the per-step forms the runs replace:
stepping `while k * dt < end - _EPS` for the step ranges, and formatting
every column of every `trace.records` row for the CSV.
"""

import io
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowhand.core import lpm_to_m3s, m3s_to_lpm, m_to_mm, pa_to_kpa
from flowhand.scenario import (
    _EPS,
    CSV_HEADER,
    EVENTS,
    Scenario,
    Segment,
    _step_stop,
    run_scenario,
)
from flowhand.tasks import GraspScene

oracle = settings(max_examples=80, deadline=None, derandomize=True, database=None)

TIMESTEPS = (0.003, 0.01, 0.1)
# palette commands in the three states, the warning gap and above it
COMMANDS = (0.0, 2.5, 5.0, 10.0, 30.0, 50.0, 75.0, 118.0, 125.0, 150.0, 180.0)
SCENE = GraspScene(object_width=0.05, object_mass=0.12)


def loop_stop(k: int, end: float, dt: float) -> int:
    while k * dt < end - _EPS:
        k += 1
    return k


def row_by_row_csv(trace) -> str:
    """Every column of every step formatted on its own, as rows used to be."""

    def g(x: float) -> str:
        return format(x, ".6g")

    lines = [CSV_HEADER]
    for rec in trace.records:
        lines.append(",".join((
            g(rec.t), g(m3s_to_lpm(rec.q_src)), g(m3s_to_lpm(rec.q1)),
            g(m3s_to_lpm(rec.q2)), g(m3s_to_lpm(rec.q_exhaust)), rec.state.name,
            g(pa_to_kpa(rec.p_f)), g(m_to_mm(rec.r)), g(rec.f_tip),
            "1" if rec.injection else "0", rec.friction.value)))
    return "\n".join(lines) + "\n"


# --- step ranges ------------------------------------------------------

@st.composite
def boundaries(draw) -> tuple[int, float, float]:
    """(first, end, dt): ends on a multiple of dt, within _EPS of one, or anywhere."""
    dt = draw(st.sampled_from(TIMESTEPS) | st.floats(1e-4, 1.0))
    n = draw(st.integers(0, 20_000))
    offset = draw(st.sampled_from((0.0, _EPS, -_EPS, 0.5 * _EPS, -0.5 * _EPS,
                                   2 * _EPS, -2 * _EPS, 1e-15, -1e-15))
                  | st.floats(-dt, dt))
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
def test_step_stop_matches_stepping_loop(case):
    first, end, dt = case
    assert _step_stop(first, end, dt) == loop_stop(first, end, dt)


@oracle
@given(st.sampled_from(TIMESTEPS),
       st.lists(st.tuples(st.integers(1, 400), st.sampled_from((0.0, 0.5, -0.5, 1e-10))),
                min_size=1, max_size=30))
def test_accumulated_segment_ends_match_stepping_loop(dt, pieces):
    # segment ends come from a running sum of durations, as in run_scenario
    start, k = 0.0, 0
    for steps, frac in pieces:
        end = start + (steps + frac) * dt
        assert _step_stop(k, end, dt) == loop_stop(k, end, dt)
        k = loop_stop(k, end, dt)
        start = end


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
    assert text.count("\n") == 1 + len(trace.records)
    streamed = io.StringIO()
    assert trace.to_csv(streamed) is None
    assert streamed.getvalue() == text


def test_runs_cover_every_step_in_order():
    dt = 0.01
    segments = tuple(Segment(duration=steps * dt, q_src=lpm_to_m3s(30.0))
                     for steps in (1, 5000, 1, 3))
    trace = run_scenario(Scenario("cover", segments, timestep=dt))
    assert [(run.first, run.stop) for run in trace.runs] == [
        (0, 1), (1, 5001), (5001, 5002), (5002, 5005)]
    assert len(trace.records) == 5005


def test_streamed_csv_flushes_long_traces_whole():
    # more rows than one write holds, so the rows leave in several writes
    writes = []

    class Sink:
        def write(self, text):
            writes.append(text)

    trace = run_scenario(Scenario("long", (Segment(100.0, lpm_to_m3s(50.0)),
                                           Segment(0.01, lpm_to_m3s(150.0)))))
    trace.to_csv(Sink())
    assert len(writes) > 1
    assert "".join(writes) == trace.to_csv()
