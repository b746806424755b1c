"""Scenario runner, sweeps, design search, and prototype-table validation."""

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flowhand.scenario as scenario_module
import flowhand.system as system_module
from flowhand.config import ConfigError, _float, apply_override, load_system
from flowhand.core import LPM_PER_M3S, lpm_to_m3s, m3s_to_lpm, pa_to_kpa
from flowhand.fcs import FcsState
from flowhand.finger import FingerConfig
from flowhand.scenario import (
    CSV_HEADER,
    EVENTS,
    MAX_ROWS,
    DesignTargets,
    Scenario,
    Segment,
    SimulationError,
    SweepRow,
    design_search,
    injection_displacement,
    load_scenario,
    run_scenario,
    state_thresholds,
    sweep,
    sweep_csv,
    validate_table1,
)
from flowhand.system import default_system, prototype
from flowhand.tasks import FrictionState, GraspScene, PlacementOutcome
from flowhand.venturi import InfeasibleDesignError, activation_threshold

from steps import step_records

GOLDEN = Path(__file__).parent / "data" / "table1_golden.txt"


def seg(duration, q_lpm, event=None):
    return Segment(duration=duration, q_src=lpm_to_m3s(q_lpm), event=event)


def hold(q_lpm, duration=0.05):
    return Scenario("hold", (seg(duration, q_lpm),))


def test_segment_validation():
    with pytest.raises(ValueError):
        Segment(duration=0.0, q_src=1e-3)
    with pytest.raises(ValueError):
        Segment(duration=1.0, q_src=-1e-3)
    with pytest.raises(ValueError):
        Segment(duration=1.0, q_src=1e-3, event="jump")
    # 1e308 m^3/s is finite, but the trace would print inf L/min
    with pytest.raises(ValueError, match=r"\(inf L/min\)"):
        Segment(duration=0.01, q_src=1e308)
    assert m3s_to_lpm(Segment(duration=0.01, q_src=2.9e303).q_src) < math.inf


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario("empty", ())
    with pytest.raises(ValueError):
        Scenario("bad-dt", (seg(1.0, 10.0),), timestep=0.0)
    sc = Scenario("two", (seg(1.0, 10.0), seg(0.5, 20.0)))
    assert sc.duration() == pytest.approx(1.5)


def test_warnings_flag_off_contract_flows():
    sc = Scenario("w", (seg(1.0, 50.0), seg(1.0, 70.0), seg(1.0, 150.0), seg(1.0, 200.0)))
    warns = sc.warnings()
    assert len(warns) == 2
    assert "segment 1" in warns[0] and "between the motion band" in warns[0]
    assert "segment 3" in warns[1] and "exceeds the source maximum" in warns[1]


def test_load_scenario_full():
    scenario, scene = load_scenario({
        "name": "demo",
        "timestep_s": 0.02,
        "segments": [
            {"duration_s": 1.0, "q_src_lpm": 50.0, "event": "grasp"},
            {"duration_s": 0.5, "q_src_lpm": 150.0},
        ],
        "scene": {"object_width_mm": 50.0, "object_mass_kg": 0.12},
    })
    assert scenario.name == "demo"
    assert scenario.timestep == 0.02
    assert len(scenario.segments) == 2
    assert scenario.segments[0].event == "grasp"
    assert scenario.segments[1].q_src == pytest.approx(lpm_to_m3s(150.0), rel=1e-12)
    assert scene == GraspScene(object_width=0.050, object_mass=0.12)


def test_load_scenario_defaults():
    scenario, scene = load_scenario({"segments": [{"duration_s": 1.0, "q_src_lpm": 10.0}]})
    assert scenario.name == "scenario"
    assert scenario.timestep == 0.01
    assert scene is None


def test_load_scenario_key_errors():
    base = {"segments": [{"duration_s": 1.0, "q_src_lpm": 10.0}]}
    with pytest.raises(ConfigError, match="unknown scenario key 'tempo'"):
        load_scenario(dict(base, tempo=1))
    with pytest.raises(ConfigError, match=r"segments\[0\].durr"):
        load_scenario({"segments": [{"durr": 1.0, "q_src_lpm": 10.0}]})
    with pytest.raises(ConfigError, match=r"segments\[0\]: needs"):
        load_scenario({"segments": [{"duration_s": 1.0}]})
    with pytest.raises(ConfigError, match=r"segments\[0\].event"):
        load_scenario({"segments": [{"duration_s": 1.0, "q_src_lpm": 10.0, "event": "fly"}]})
    with pytest.raises(ConfigError, match="segments"):
        load_scenario({"segments": []})
    with pytest.raises(ConfigError, match="scene.object_width"):
        load_scenario(dict(base, scene={"object_width": 50.0, "object_mass_kg": 0.1}))
    with pytest.raises(ConfigError, match="scene: needs"):
        load_scenario(dict(base, scene={"object_mass_kg": 0.1}))


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(
        {"name": "f", "segments": [{"duration_s": 0.1, "q_src_lpm": 30.0}]}))
    scenario, _ = load_scenario(str(path))
    assert scenario.name == "f"


def per_segment_load(raw: dict) -> Scenario:
    """The segments of a raw scenario checked and built one by one, as
    load_scenario did before it kept a table of the segments it built."""
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
                duration=_float(seg["duration_s"], f"{path}.duration_s"),
                q_src=_float(seg["q_src_lpm"], f"{path}.q_src_lpm") / LPM_PER_M3S,
                event=event,
            ))
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    try:
        return Scenario(name="scenario", segments=tuple(segments), timestep=raw["timestep_s"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def per_segment_warnings(scenario: Scenario) -> list[str]:
    """Scenario.warnings with every segment checked on its own."""
    out = []
    for i, seg in enumerate(scenario.segments):
        q = m3s_to_lpm(seg.q_src)
        shown = repr(q) if f"{q:g}" in ("50", "150") else f"{q:g}"
        if 50.0 < q < 150.0:
            out.append(f"segment {i}: q_src {shown} L/min is between the motion band "
                       f"(0-50) and the injection command (150)")
        elif q > 150.0:
            out.append(f"segment {i}: q_src {shown} L/min exceeds the source maximum (150)")
    return out


# valid raw values, some equal as numbers but of different types
DURATIONS = (0.01, 0.02, 1, 1.0)
COMMANDS = (0, 0.0, -0.0, 1, 1.0, 5, 5.0, 70, 150.0, 200)


@st.composite
def valid_segments(draw) -> dict:
    seg = {"duration_s": draw(st.sampled_from(DURATIONS)),
           "q_src_lpm": draw(st.sampled_from(COMMANDS))}
    if draw(st.booleans()):
        seg["event"] = draw(st.sampled_from(("grasp", "pivot", None)))
    return seg


@st.composite
def spoiled(draw, seg: dict):
    """A copy of a valid raw segment with one fault, so that it can sit
    in a scenario next to the segment it was made from."""
    seg = dict(seg)
    key = draw(st.sampled_from(("duration_s", "q_src_lpm")))
    x = seg[key]
    how = draw(st.integers(0, 5))
    if how == 0:    # the same value as another type, or a value no number takes
        seg[key] = draw(st.sampled_from((x == 1, [x], str(x), -x, 0, -0.0, math.nan,
                                         math.inf, 10 ** 400)))
    elif how == 1:
        del seg[key]
    elif how == 2:
        seg["extra"] = x
    elif how == 3:
        seg["event"] = draw(st.sampled_from(("fly", "Grasp", 1, ["grasp"])))
    elif how == 4:
        return [seg["duration_s"], seg["q_src_lpm"]]
    else:
        seg[key] = {"value": x}
    return seg


@st.composite
def raw_scenarios(draw):
    """A few valid raw segments and faulty copies of them, repeated in a
    random order, each as a fresh dict the way a JSON parser hands them
    over."""
    valid = draw(st.lists(valid_segments(), min_size=1, max_size=5))
    palette = valid + [draw(spoiled(draw(st.sampled_from(valid))))
                       for _ in range(draw(st.integers(0, 3)))]
    picks = draw(st.lists(st.integers(0, len(palette) - 1), min_size=1, max_size=40))
    segments = [dict(palette[j]) if isinstance(palette[j], dict) else palette[j]
                for j in picks]
    # at 1e-6 s two 1 s segments pass the row cap
    return {"timestep_s": draw(st.sampled_from((0.01, 1e-6))), "segments": segments}


def repeat_after(first: dict, then) -> dict:
    return {"timestep_s": 0.01, "segments": [first, dict(first), then]}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(raw_scenarios())
# true equals 1 and hashes like it; an extra key or a list value must
# not reach the segment built from the valid values beside it
@example(repeat_after({"duration_s": 1, "q_src_lpm": 1}, {"duration_s": 1, "q_src_lpm": True}))
@example(repeat_after({"duration_s": 1, "q_src_lpm": 5}, {"duration_s": True, "q_src_lpm": 5}))
@example(repeat_after({"duration_s": 1.0, "q_src_lpm": 5.0},
                      {"duration_s": 1.0, "q_src_lpm": 5.0, "extra": 1}))
@example(repeat_after({"duration_s": 1.0, "q_src_lpm": 5.0, "event": None},
                      {"duration_s": 1.0, "event": None, "extra": 5.0}))
@example(repeat_after({"duration_s": 1.0, "q_src_lpm": 5.0}, {"duration_s": 1.0, "q_src_lpm": [5.0]}))
def test_load_scenario_matches_per_segment_load(raw):
    try:
        expected = per_segment_load(raw)
    except ConfigError as exc:
        with pytest.raises(ConfigError) as got:
            load_scenario(raw)
        assert str(got.value) == str(exc)
        return
    scenario, scene = load_scenario(raw)
    assert scene is None
    assert scenario == expected
    # repr tells -0.0 from 0.0
    assert repr(scenario) == repr(expected)
    assert scenario.warnings() == per_segment_warnings(expected)


def test_each_distinct_segment_is_built_once(monkeypatch, tmp_path):
    built = []

    def counted(*args, **kwargs):
        built.append((args, kwargs))
        return Segment(*args, **kwargs)

    monkeypatch.setattr(scenario_module, "Segment", counted)
    triples = [{"duration_s": 0.01, "q_src_lpm": 5.0},
               {"duration_s": 0.01, "q_src_lpm": 150.0, "event": "pivot"},
               {"duration_s": 0.02, "q_src_lpm": 5.0},
               {"duration_s": 1, "q_src_lpm": 30},
               {"duration_s": 1.0, "q_src_lpm": 30}]
    path = tmp_path / "churn.json"
    path.write_text(json.dumps({"segments": [triples[i % 5] for i in range(1000)]}))
    scenario, _ = load_scenario(str(path))
    assert len(built) == 5
    assert len(scenario.segments) == 1000
    assert scenario.segments[997] is scenario.segments[2]


def test_warnings_name_every_offending_segment_of_a_repeated_command():
    sc = Scenario("w", tuple(seg(1.0, q) for q in (70.0, 50.0, 70.0, 200.0, 50.0, 200.0)))
    warns = sc.warnings()
    assert [w.split(":")[0] for w in warns] == [f"segment {i}" for i in (0, 2, 3, 5)]


def test_warnings_start_just_past_the_band_edges():
    sc = Scenario("edges", tuple(seg(1.0, q) for q in (50.0, 150.0, 50.0001, 150.0001, 50.0,
                                                       50.0000001, 149.9999999)))
    gap = "is between the motion band (0-50) and the injection command (150)"
    assert sc.warnings() == [
        f"segment 2: q_src 50.0001 L/min {gap}",
        # :g keeps six digits, so a command that it would print as an
        # edge prints as its repr
        "segment 3: q_src 150.0001 L/min exceeds the source maximum (150)",
        f"segment 5: q_src 50.0000001 L/min {gap}",
        f"segment 6: q_src 149.9999999 L/min {gap}"]
    assert sc.warnings() == per_segment_warnings(sc)


def test_repeated_offending_command_warns_once_per_segment_in_order():
    sc = Scenario("r", tuple(seg(1.0, q) for q in (70.0, 70.0, 5.0, 200.0, 70.0, 200.0, 200.0)))
    gap = "q_src 70 L/min is between the motion band (0-50) and the injection command (150)"
    over = "q_src 200 L/min exceeds the source maximum (150)"
    assert sc.warnings() == [f"segment 0: {gap}", f"segment 1: {gap}", f"segment 3: {over}",
                             f"segment 4: {gap}", f"segment 5: {over}", f"segment 6: {over}"]
    assert sc.warnings() == per_segment_warnings(sc)


def test_zero_flow_is_state_a_everywhere():
    trace = run_scenario(hold(0.0, duration=0.1))
    assert len(step_records(trace)) == 10
    assert trace.state_sequence() == [FcsState.A]
    for rec in step_records(trace):
        assert rec.p_f == 0.0
        assert rec.q2 == 0.0
        assert not rec.injection
        assert rec.friction is FrictionState.HIGH
        assert rec.r == float("inf")


def test_clock_is_global_across_segments():
    trace = run_scenario(Scenario("clk", (seg(0.03, 10.0), seg(0.03, 20.0))))
    assert [round(r.t, 9) for r in step_records(trace)] == [
        0.0, 0.01, 0.02, 0.03, 0.04, 0.05]
    assert [m3s_to_lpm(r.q_src) for r in step_records(trace)[:3]] == pytest.approx([10.0] * 3)
    assert [m3s_to_lpm(r.q_src) for r in step_records(trace)[3:]] == pytest.approx([20.0] * 3)


def test_ramp_walks_the_three_states():
    trace = run_scenario(Scenario("ramp", (seg(0.05, 5.0), seg(0.05, 50.0), seg(0.05, 150.0))))
    assert trace.state_sequence() == [FcsState.A, FcsState.B, FcsState.C]


def test_flow_conservation_every_step():
    trace = run_scenario(Scenario(
        "mix", (seg(0.03, 5.0), seg(0.03, 30.0), seg(0.03, 50.0),
                seg(0.03, 118.5), seg(0.03, 150.0))))
    for rec in step_records(trace):
        total = rec.q1 + rec.q2 + rec.q_exhaust
        assert total == pytest.approx(rec.q_src, rel=1e-9, abs=1e-15)


def test_pressure_latches_through_state_c():
    trace = run_scenario(Scenario(
        "latch", (seg(0.05, 30.0), seg(0.05, 150.0), seg(0.05, 30.0))))
    # the line seals before the injection command arrives, so the chamber
    # keeps the 30 L/min pressure while the source jumps to 150
    assert {round(r.p_f, 6) for r in step_records(trace)} == {19380.0}
    c_rows = [r for r in step_records(trace) if r.state is FcsState.C]
    assert c_rows and all(r.injection for r in c_rows)
    assert all(r.q1 == 0.0 for r in c_rows)
    # lubricant stays on the fingertip after the command drops back
    assert step_records(trace)[-1].friction is FrictionState.LOW
    assert not step_records(trace)[-1].injection


def test_injection_from_rest_keeps_chamber_empty():
    trace = run_scenario(hold(150.0))
    assert trace.state_sequence() == [FcsState.C]
    assert all(r.p_f == 0.0 for r in step_records(trace))
    assert all(r.injection for r in step_records(trace))


def test_injection_displacement_none_without_injection():
    trace = run_scenario(hold(50.0))
    assert injection_displacement(trace, default_system().finger) is None


def test_injection_displacement_zero_for_latched_injection():
    trace = run_scenario(Scenario("proto", (seg(0.05, 50.0), seg(0.05, 150.0))))
    assert injection_displacement(trace, default_system().finger) == 0.0


def test_injection_displacement_nonzero_when_finger_moves():
    # lowering the test tube makes injection start inside the motion band,
    # where the chamber is still live, so the posture changes
    system = load_system({"venturi": {"h_t_mm": 10.0}})
    trace = run_scenario(
        Scenario("b-inject", (seg(0.05, 0.0), seg(0.05, 60.0))), system)
    assert any(r.injection and r.state is FcsState.B for r in step_records(trace))
    d = injection_displacement(trace, system.finger)
    assert d == pytest.approx(0.0390227, rel=1e-4)


def test_rerun_is_byte_identical():
    sc = Scenario("rep", (seg(0.04, 30.0), seg(0.04, 150.0), seg(0.04, 50.0)))
    a = run_scenario(sc).to_csv()
    b = run_scenario(sc).to_csv()
    assert a == b
    assert a.splitlines()[0] == CSV_HEADER


def test_known_row_format():
    trace = run_scenario(hold(50.0))
    assert trace.to_csv().splitlines()[1] == \
        "0,50,0.847458,18.6441,30.5085,B,32.3,25.4648,0.38,0,high"


def outcomes(trace) -> tuple:
    return trace.grasp_ok, trace.lift_ok, trace.place_outcome, trace.pivot_ok


# (steps of 0.02 s, L/min, event) per segment: commands in states A, B
# and C, so that C holds latch the pressure of a B command before them
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(1, 5),
                          st.sampled_from((0.0, 5.0, 10.0, 30.0, 50.0, 75.0, 118.0, 150.0))
                          | st.floats(0.0, 160.0),
                          st.none() | st.sampled_from(EVENTS)), min_size=1, max_size=12))
@example([(50, 30.0, None), (50, 150.0, None), (50, 50.0, None)])
def test_timestep_changes_density_not_values(pieces):
    # each 0.02 s and 0.01 s step is also a step of 0.005 s, with the same row
    segments = tuple(seg(n * 0.02, q, event) for n, q, event in pieces)
    scene = GraspScene(object_width=0.05, object_mass=0.12)
    fine, *coarser = (run_scenario(Scenario("dt", segments, timestep=dt), scene=scene)
                      for dt in (0.005, 0.01, 0.02))
    fine_recs = step_records(fine)
    for ratio, trace in zip((2, 4), coarser):
        recs = step_records(trace)
        assert len(fine_recs) == ratio * len(recs)
        for k, rec in enumerate(recs):
            twin = fine_recs[ratio * k]
            assert round(rec.t, 9) == round(twin.t, 9)
            assert replace(rec, t=twin.t) == twin
        assert outcomes(trace) == outcomes(fine)


def test_lubricated_place_slides_and_friction_resets():
    scene = GraspScene(object_width=0.05, object_mass=0.12)
    first = (
        seg(0.05, 50.0, event="grasp"),
        seg(0.05, 150.0),
        seg(0.05, 50.0, event="place"),
        seg(0.05, 50.0),
    )
    # a second cycle: inject, hold without injecting, place
    second = (seg(0.05, 150.0), seg(0.05, 50.0), seg(0.05, 50.0, event="place"),
              seg(0.05, 50.0))
    trace = run_scenario(Scenario("wet", first + second), scene=scene)
    assert trace.grasp_ok is True
    assert trace.place_outcome is PlacementOutcome.SLIDES_IN_GRIP
    # rows in each place segment still carry the lubricated state; the
    # release lands on the segment after it, the surface stays lubricated
    # through a hold that does not inject, and the next injection
    # lubricates it again
    assert [trace.outputs[row].friction.value for _, row in trace.runs] == [
        "high", "low", "low", "high", "low", "low", "low", "high"]
    # without the second injection the second place is dry and holds:
    # the first place wiped the surface, and the later place decides
    dry_second = run_scenario(Scenario("wet, then dry", first + second[1:]), scene=scene)
    assert dry_second.place_outcome is PlacementOutcome.HELD_FIXED


def test_dry_place_holds_and_disturbs():
    scene = GraspScene(object_width=0.05, object_mass=0.12)
    sc = Scenario("dry", (
        seg(0.05, 50.0, event="grasp"),
        seg(0.05, 50.0, event="lift"),
        seg(0.05, 50.0, event="place"),
    ))
    trace = run_scenario(sc, scene=scene)
    assert trace.grasp_ok is True
    assert trace.lift_ok is True
    assert trace.place_outcome is PlacementOutcome.HELD_FIXED


def test_pivot_needs_lubricant():
    scene = GraspScene(object_width=0.05, object_mass=0.12)
    wet = Scenario("wp", (seg(0.05, 50.0, event="grasp"), seg(0.05, 150.0),
                          seg(0.05, 50.0, event="pivot")))
    dry = Scenario("dp", (seg(0.05, 50.0, event="grasp"),
                          seg(0.05, 50.0, event="pivot")))
    assert run_scenario(wet, scene=scene).pivot_ok is True
    assert run_scenario(dry, scene=scene).pivot_ok is False


def test_pivot_event_runs_without_scene():
    trace = run_scenario(Scenario("p", (seg(0.05, 50.0, event="pivot"),)))
    assert trace.pivot_ok is False


def test_grasp_event_requires_scene():
    sc = Scenario("g", (seg(0.05, 50.0, event="grasp"),))
    with pytest.raises(ConfigError, match="needs a scene"):
        run_scenario(sc)


# no value, an empty knot list, one valid knot list
@pytest.mark.parametrize("values", [[], [[]], [[[1.7, 0.98], [10.5, 1.34]]]])
@pytest.mark.parametrize("param", ["fcs.f_block_knots", "finger.pressure_map_knots"])
def test_sweep_rejects_a_list_valued_key_before_any_value(param, values, monkeypatch):
    applied = []
    monkeypatch.setattr(scenario_module, "apply_override",
                        lambda *args: applied.append(args) or apply_override(*args))
    with pytest.raises(ConfigError, match=rf"^{param}: a list of knots cannot be swept"):
        sweep(param, values)
    assert applied == []


def test_event_stamped_on_first_row_only():
    sc = Scenario("e", (seg(0.03, 50.0, event="grasp"), seg(0.03, 50.0)))
    trace = run_scenario(sc, scene=GraspScene(object_width=0.05, object_mass=0.1))
    assert [r.event for r in step_records(trace, sc.segments)] == [
        "grasp", None, None, None, None, None]


def test_segment_without_a_sample_rejected():
    # 0.015 s to 0.018 s lies between the 0.01 s and 0.02 s samples
    sc = Scenario("gap", (seg(0.015, 20.0), seg(0.003, 150.0), seg(0.01, 20.0)))
    with pytest.raises(ConfigError, match=r"segment 1 \(t=0.015 s"):
        run_scenario(sc)


def test_row_cap_checked_before_any_row_exists():
    # only duration / timestep is computed; no row is built
    Scenario("half-cap", (seg(0.5 * MAX_ROWS * 0.01, 10.0),), timestep=0.01)
    with pytest.raises(ValueError, match="cap of 2000000"):
        Scenario("long", (seg(1e9, 10.0),), timestep=0.01)
    with pytest.raises(ConfigError, match="cap of 2000000"):
        load_scenario({"segments": [{"duration_s": 1e9, "q_src_lpm": 10.0}]})


def test_runaway_output_aborts():
    # FingerConfig refuses a tip force that overflows at p_max, so the
    # gain is set past that check to reach the runtime guard
    system = replace(default_system(), finger=FingerConfig())
    object.__setattr__(system.finger, "tipforce_gain", 1e308)
    with pytest.raises(SimulationError, match="f_tip"):
        run_scenario(hold(50.0), system)


def test_state_thresholds_reference():
    system = default_system()
    q_ab, q_bc = state_thresholds(system.fcs, system.consts)
    assert m3s_to_lpm(q_ab) == pytest.approx(8.1, abs=0.05)
    assert m3s_to_lpm(q_bc) == pytest.approx(118.0, abs=0.05)


def test_state_thresholds_are_exact():
    system = default_system()
    q_ab, q_bc = state_thresholds(system.fcs, system.consts)
    assert m3s_to_lpm(q_ab) == pytest.approx(8.1, rel=1e-9)
    assert m3s_to_lpm(q_bc) == pytest.approx(118.0, rel=1e-9)
    act = activation_threshold(system.venturi, system.fcs, system.consts)
    assert m3s_to_lpm(act) == pytest.approx(118.0, rel=1e-9)


def test_state_thresholds_can_be_absent():
    stiff = apply_override(default_system(), "fcs.f_rot_N", 1e6)
    q_ab, q_bc = state_thresholds(stiff.fcs, stiff.consts)
    assert q_ab is None and q_bc is None


def test_sweep_thresholds_per_value():
    rows = sweep("fcs.epsilon", [1.5, 2.6])
    assert [r.value for r in rows] == [1.5, 2.6]
    # the weak lever arm never reaches blocking below the supply ceiling
    assert rows[0].q_bc_lpm is None
    assert rows[1].q_bc_lpm == pytest.approx(118.0, abs=0.05)
    csv = sweep_csv(rows)
    lines = csv.splitlines()
    assert lines[0] == "param,value,q_ab_lpm,q_bc_lpm,activation_lpm"
    assert lines[1].split(",")[3] == ""          # empty cell, not a number
    assert lines[2].split(",")[0] == "fcs.epsilon"


def test_sweep_with_scenario_columns():
    sc = Scenario("proto", (seg(0.05, 50.0), seg(0.05, 150.0)))
    rows = sweep("venturi.h_t_mm", [55.0], scenario=sc)
    row = rows[0]
    assert row.final_state is FcsState.C
    assert row.injected is True
    assert row.max_p_f_kpa == pytest.approx(32.3, rel=1e-9)
    csv = sweep_csv(rows, with_scenario=True)
    assert csv.splitlines()[0].endswith(",final_state,injected,max_p_f_kpa")
    assert csv.splitlines()[1].endswith(",C,1,32.3")


def test_sweep_empty_values():
    assert sweep_csv(sweep("fcs.epsilon", [])) == \
        "param,value,q_ab_lpm,q_bc_lpm,activation_lpm\n"


def test_sweep_unknown_param():
    # with no values too: the key is checked before the first one
    for values in ([1.0], []):
        with pytest.raises(ConfigError, match="unknown config path"):
            sweep("fcs.alfa", values)


# the benchmark's in-range sweep keys and ranges (bench/workloads.py SWEEP_KEYS)
SWEEP_RANGES = {
    "fcs.alpha": (0.95, 0.995),
    "fcs.epsilon": (2.0, 3.5),
    "fcs.s3_mm2": (9.0, 14.0),
    "fcs.gamma": (0.3, 0.6),
    "fcs.q_ab_lpm": (5.0, 20.0),
    "venturi.s_out_mm2": (14.0, 17.5),
    "venturi.h_t_mm": (40.0, 70.0),
    "finger.p_max_kpa": (25.0, 45.0),
}
SWEEP_SCENARIO = Scenario("short", (seg(0.02, 50.0), seg(0.03, 150.0), seg(0.02, 5.0)))


def sweep_value_by_value(param, values, scenario=None):
    """sweep's rows with every threshold solved afresh for each value."""
    rows = []
    for value in values:
        system = apply_override(default_system(), param, value)
        q_ab, q_bc = state_thresholds(system.fcs, system.consts)
        act = activation_threshold(system.venturi, system.fcs, system.consts)
        row = SweepRow(param, float(value),
                       *(None if q is None else m3s_to_lpm(q) for q in (q_ab, q_bc, act)))
        if scenario is not None:
            trace = run_scenario(scenario, system)
            row = row._replace(final_state=trace.outputs[trace.runs[-1][1]].state,
                               injected=any(o.injection for o in trace.outputs),
                               max_p_f_kpa=pa_to_kpa(max(o.p_f for o in trace.outputs)))
        rows.append(row)
    return rows


def rows_or_message(route, param, values, scenario):
    try:
        return route(param, values, scenario=scenario)
    except ConfigError as exc:
        return f"ConfigError: {exc}"


@pytest.mark.parametrize("param", sorted(SWEEP_RANGES))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data(), scenario=st.sampled_from([None, SWEEP_SCENARIO]))
def test_sweep_matches_value_by_value(param, data, scenario):
    # solving a section's thresholds once per distinct section changes no row
    lo, hi = SWEEP_RANGES[param]
    values = data.draw(st.lists(st.floats(lo, hi), max_size=6))
    if data.draw(st.booleans()):    # a value out of range, which the key's checks may reject
        values.insert(data.draw(st.integers(0, len(values))),
                      data.draw(st.sampled_from([0, -1, 1e300])))
    assert (rows_or_message(sweep, param, values, scenario)
            == rows_or_message(sweep_value_by_value, param, values, scenario))


@pytest.mark.parametrize("param, flips, onsets", [
    ("venturi.h_t_mm", 1, 10), ("finger.p_max_kpa", 1, 1), ("fcs.alpha", 10, 10)])
def test_sweep_solves_each_section_once(param, flips, onsets, monkeypatch):
    calls = {"state_thresholds": 0, "activation_threshold": 0}

    def counted(name):
        real = getattr(scenario_module, name)

        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    for name in calls:
        monkeypatch.setattr(scenario_module, name, counted(name))
    lo, hi = SWEEP_RANGES[param]
    sweep(param, [lo + (hi - lo) * i / 9 for i in range(10)])
    assert calls == {"state_thresholds": flips, "activation_threshold": onsets}


def test_design_search_reproduces_reference():
    targets = DesignTargets(q_ab_lpm=8.1, q_bc_lpm=118.0, q2_activation_lpm=44.0)
    tuned, achieved = design_search(targets)
    assert achieved == pytest.approx((8.1, 118.0, 44.0), rel=1e-6)
    # the reference system is design search's own solve at the paper's anchors
    assert tuned == default_system()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(q_ab=st.floats(0.5, 40.0), q_bc=st.floats(45.0, 149.0), share=st.floats(0.02, 0.99),
       full_inlet=st.booleans())
def test_design_search_keeps_its_own_design(q_ab, q_bc, share, full_inlet):
    # a tuned system is a fixed point of the design search that made it,
    # under both inlet models
    base = load_system({"venturi": {"use_simplified_inlet": False, "p_src_kpa_abs": 101.4,
                                    "s_src_mm2": 20, "s_e_mm2": 30}} if full_inlet else None)
    targets = DesignTargets(q_ab, q_bc, share * min(100.0, base.fcs.alpha * q_bc))
    tuned, _ = design_search(targets, base)
    assert design_search(targets, tuned)[0] == tuned


@st.composite
def bench_targets(draw):
    """Targets in the benchmark's design-search ranges [L/min]."""
    q_bc = draw(st.floats(90.0, 140.0))
    return DesignTargets(draw(st.floats(4.0, 20.0)), q_bc,
                         draw(st.floats(20.0, min(80.0, 0.9 * q_bc))))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(targets=bench_targets())
def test_design_search_lever_onset_is_the_q_ab_key(targets):
    # one jet law: the tuned f_rot is, bit for bit, what the config's
    # q_ab_lpm gives on the tuned switch
    tuned, _ = design_search(targets)
    assert tuned.fcs.f_rot == apply_override(tuned, "fcs.q_ab_lpm", targets.q_ab_lpm).fcs.f_rot


def test_design_search_new_targets():
    targets = DesignTargets(q_ab_lpm=20.0, q_bc_lpm=100.0, q2_activation_lpm=30.0)
    tuned, (got_ab, got_bc, got_q2) = design_search(targets)
    assert got_ab == pytest.approx(20.0, abs=0.05)
    assert got_bc == pytest.approx(100.0, abs=0.05)
    assert got_q2 == pytest.approx(30.0, abs=0.05)


def test_design_search_small_target_exact():
    _, achieved = design_search(DesignTargets(q_ab_lpm=0.5, q_bc_lpm=100.0,
                                              q2_activation_lpm=30.0))
    assert achieved[0] == pytest.approx(0.5, rel=1e-9)


def test_design_search_gates_relative_tolerance(monkeypatch):
    targets = DesignTargets(q_ab_lpm=0.5, q_bc_lpm=100.0, q2_activation_lpm=30.0)
    design_search(targets)
    real = system_module.state_thresholds

    def lever_flip_at(q_lpm):
        monkeypatch.setattr(system_module, "state_thresholds",
                            lambda *args: (lpm_to_m3s(q_lpm), real(*args)[1]))

    # 0.9 is within 1 L/min of 0.5, but 80 % off
    lever_flip_at(0.9)
    with pytest.raises(InfeasibleDesignError, match="tuned config missed the targets"):
        design_search(targets)
    lever_flip_at(0.5 * (1 + 2e-6))
    with pytest.raises(InfeasibleDesignError, match="tuned config missed the targets"):
        design_search(targets)
    lever_flip_at(0.5 * (1 + 5e-7))
    assert design_search(targets)[1][0] == pytest.approx(0.5, rel=1e-6)


def test_design_search_infeasible_order():
    with pytest.raises(InfeasibleDesignError, match="q_ab < q_bc"):
        design_search(DesignTargets(q_ab_lpm=120.0, q_bc_lpm=100.0,
                                    q2_activation_lpm=30.0))


def test_design_search_infeasible_injection_flow():
    # more injection flow than the jet line carries at pinch-off
    with pytest.raises(InfeasibleDesignError, match="injection fraction"):
        design_search(DesignTargets(q_ab_lpm=8.1, q_bc_lpm=100.0,
                                    q2_activation_lpm=99.0))


EXTREME_LPM = (1e-320, 1e-300, 1e-160, 1e-100, 1.0, 30.0, 1e100, 1e160, 1e300, 1e308)


@pytest.mark.parametrize("q_ab", EXTREME_LPM)
def test_design_search_extreme_targets_succeed_or_are_infeasible(q_ab):
    # a tuned area, force or fraction that leaves the float range is an
    # InfeasibleDesignError naming it, never a ZeroDivisionError or a
    # ValueError from a config constructor
    for q_bc in EXTREME_LPM:
        for q2 in EXTREME_LPM:
            try:
                design_search(DesignTargets(q_ab_lpm=q_ab, q_bc_lpm=q_bc,
                                            q2_activation_lpm=q2))
            except InfeasibleDesignError:
                pass


def test_design_search_names_the_underflowing_parameter():
    with pytest.raises(InfeasibleDesignError, match="lever onset f_rot underflows"):
        design_search(DesignTargets(q_ab_lpm=1e-300, q_bc_lpm=1.0, q2_activation_lpm=0.5))
    with pytest.raises(InfeasibleDesignError, match="q2 onset in m\\^3/s underflows"):
        design_search(DesignTargets(q_ab_lpm=1.0, q_bc_lpm=100.0, q2_activation_lpm=1e-320))


def test_table1_report_classifies_all_rows():
    report = validate_table1()
    assert report.all_match()
    assert report.listed_matches() == 4
    assert report.model_matches() == 4
    assert report.max_f1_error() < 0.15
    by_label = {r.label: r for r in report.rows}
    assert by_label["A"].f1_error < 0.03
    assert by_label["D"].f1_error < 0.03
    assert by_label["A"].model_success and by_label["D"].model_success
    assert not by_label["B"].model_success and not by_label["C"].model_success
    assert report.s3 == pytest.approx(1.1546402640264026e-5, rel=1e-12)


def test_table1_text_matches_golden_file():
    assert validate_table1().to_text() == GOLDEN.read_text()


def test_table1_reference_row_self_consistent():
    report = validate_table1()
    ref = next(r for r in report.rows if r.label == "A")
    spec = prototype("A")
    assert ref.f1 == pytest.approx(spec.f1_listed, rel=1e-12)
    assert ref.q3_lpm == pytest.approx(116.0, rel=1e-12)
