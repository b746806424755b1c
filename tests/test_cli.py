"""Command-line entry points, run in-process through main()."""

import argparse
import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowhand import cli
from flowhand.cli import main
from flowhand.config import SCHEMA, ConfigError, load_system, system_to_dict
from flowhand.scenario import CSV_HEADER, sweep

SCENARIO = {
    "name": "pick",
    "segments": [
        {"duration_s": 0.05, "q_src_lpm": 50.0, "event": "grasp"},
        {"duration_s": 0.05, "q_src_lpm": 150.0},
        {"duration_s": 0.05, "q_src_lpm": 50.0, "event": "place"},
    ],
    "scene": {"object_width_mm": 50.0, "object_mass_kg": 0.12},
}


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    return str(path)


def test_simulate_to_stdout(scenario_file, capsys):
    assert main(["simulate", scenario_file]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 15
    assert "grasp: ok" in captured.err
    assert "place: slides_in_grip" in captured.err


def test_simulate_to_file(scenario_file, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert main(["simulate", scenario_file, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text().splitlines()[0] == CSV_HEADER


def test_simulate_warns_on_odd_flows(tmp_path, capsys):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(
        {"segments": [{"duration_s": 0.05, "q_src_lpm": 70.0}]}))
    assert main(["simulate", str(path)]) == 0
    assert "between the motion band" in capsys.readouterr().err


def test_simulate_warnings_read_as_one_print_per_line(tmp_path, capsys):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"segments": [
        {"duration_s": 0.01, "q_src_lpm": q} for q in (70.0, 50.0, 200.0, 70.0, 150.0, 70.0)]}))
    assert main(["simulate", str(path), "--out", str(tmp_path / "trace.csv")]) == 0
    gap = "q_src 70 L/min is between the motion band (0-50) and the injection command (150)"
    over = "q_src 200 L/min exceeds the source maximum (150)"
    want = io.StringIO()
    for line in (f"segment 0: {gap}", f"segment 2: {over}", f"segment 3: {gap}",
                 f"segment 5: {gap}"):
        print(f"warning: {line}", file=want)
    assert capsys.readouterr() == ("", want.getvalue())


def test_simulate_with_config(scenario_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"finger": {"p_max_kpa": 20.0}}))
    assert main(["simulate", scenario_file, "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert ",20," in out            # pressure now capped at 20 kPa


def test_simulate_missing_file(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "nope.json")]) == 1
    assert "config error" in capsys.readouterr().err


def test_simulate_bad_key_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"segments": [{"duration_s": 1, "q_lpm": 5}]}))
    assert main(["simulate", str(path)]) == 1
    assert "q_lpm" in capsys.readouterr().err


def test_sweep_stdout(capsys):
    assert main(["sweep", "--param", "venturi.h_t_mm",
                 "--values", "10,55,100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "param,value,q_ab_lpm,q_bc_lpm,activation_lpm"
    assert len(lines) == 4
    assert lines[2].startswith("venturi.h_t_mm,55,")


def test_sweep_with_scenario(scenario_file, capsys):
    assert main(["sweep", "--param", "fcs.gamma", "--values", "0.3793103448275862",
                 "--scenario", scenario_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith(",final_state,injected,max_p_f_kpa")
    assert lines[1].split(",")[-3:] == ["B", "1", "32.3"]


def test_sweep_bad_value(capsys):
    assert main(["sweep", "--param", "fcs.epsilon", "--values", "2.6,xyz"]) == 1
    assert "not a number" in capsys.readouterr().err


@pytest.mark.parametrize("values", ["5", ","])
@pytest.mark.parametrize("param", ["bogus.key", "fcs.exhaust_port_mm2", "venturi.s_t_mm2"])
def test_sweep_unknown_param_exits_1(param, values, capsys):
    # "," is no values at all, and the key is still checked
    assert main(["sweep", "--param", param, "--values", values]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: unknown config path '{param}'\n"


@pytest.mark.parametrize("values", ["5", ","])
@pytest.mark.parametrize("param", ["fcs.f_block_knots", "finger.pressure_map_knots"])
def test_sweep_list_valued_param_exits_1(param, values, capsys):
    assert main(["sweep", "--param", param, "--values", values]) == 1
    assert capsys.readouterr() == ("", f"config error: {param}: a list of knots cannot be "
                                       "swept; a sweep value is a number\n")


def test_exhaust_port_is_no_config_key(tmp_path, capsys):
    # alpha carries what the port sets; a file that still gives the port
    # is refused, not silently read
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fcs": {"exhaust_port_mm2": 7.1}}))
    assert main(["validate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "config error: unknown config key 'fcs.exhaust_port_mm2'\n"


def test_supply_tube_area_is_no_config_key(tmp_path, capsys):
    # the tube area cancels out of the column balance; a tuned file
    # written while the key existed is refused, not silently read
    raw = system_to_dict(load_system())
    raw["venturi"]["s_t_mm2"] = 3.0
    cfg = tmp_path / "tuned.json"
    cfg.write_text(json.dumps(raw))
    assert main(["validate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "config error: unknown config key 'venturi.s_t_mm2'\n"
    del raw["venturi"]["s_t_mm2"]
    cfg.write_text(json.dumps(raw))
    assert main(["validate", "--config", str(cfg)]) == 0


def test_design_search_defaults(capsys):
    assert main(["design-search"]) == 0
    out = capsys.readouterr().out
    assert "within 1 L/min: yes" in out
    assert "q_bc 118" in out
    assert "grid scan" not in out


def test_design_search_prints_small_achieved_onset_as_target(capsys):
    # a met 1e-05 L/min onset must not read as 0.00 on the achieved line
    assert main(["design-search", "--q-ab", "8.1", "--q-bc", "118", "--q2", "1e-5"]) == 0
    targets, achieved, within = capsys.readouterr().out.splitlines()
    assert "q2 onset 1e-05" in targets
    assert "q2 onset 1e-05" in achieved
    assert within.endswith("yes")


def test_design_search_writes_loadable_config(tmp_path, capsys):
    out = tmp_path / "tuned.json"
    assert main(["design-search", "--q-ab", "20", "--q-bc", "100",
                 "--q2", "30", "--out", str(out)]) == 0
    system = load_system(str(out))
    from flowhand.core import m3s_to_lpm
    from flowhand.scenario import state_thresholds
    q_ab, q_bc = state_thresholds(system.fcs, system.consts)
    assert m3s_to_lpm(q_ab) == pytest.approx(20.0, abs=0.05)
    assert m3s_to_lpm(q_bc) == pytest.approx(100.0, abs=0.05)


def test_non_monotone_blocking_curve_exits_1(tmp_path, capsys):
    # a steep step in the blocking force just above the default pinch-off
    # region: blocked at 85 L/min, open again at 100, blocked above ~205
    cfg = tmp_path / "steep.json"
    cfg.write_text(json.dumps(
        {"fcs": {"f_block_knots": [[1.525, 0.5], [1.61, 3.0], [2.61, 3.0]]}}))
    assert main(["sweep", "--param", "fcs.epsilon", "--values", "2.6",
                 "--config", str(cfg)]) == 1
    assert "not monotone" in capsys.readouterr().err
    assert main(["validate", "--config", str(cfg)]) == 1


def test_simulate_rejects_non_monotone_blocking_curve(tmp_path, capsys):
    # the curve above ran as states C, B, B for 85, 100 and 150 L/min,
    # while the other commands reject it
    cfg = tmp_path / "steep.json"
    cfg.write_text(json.dumps(
        {"fcs": {"f_block_knots": [[1.525, 0.5], [1.61, 3.0], [2.61, 3.0]]}}))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"segments": [
        {"duration_s": 0.02, "q_src_lpm": q} for q in (85.0, 100.0, 150.0)]}))
    out = tmp_path / "trace.csv"
    assert main(["simulate", str(path), "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not monotone" in captured.err
    assert not out.exists()


def test_design_search_full_inlet_exits_1(tmp_path, capsys):
    # a source 1 kPa below ambient beats the column head on its own, so
    # no orifice can set the onset
    cfg = tmp_path / "full_inlet.json"
    cfg.write_text(json.dumps({"venturi": {
        "use_simplified_inlet": False, "p_src_kpa_abs": 100.325,
        "s_src_mm2": 20, "s_e_mm2": 30}}))
    assert main(["design-search", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "balance pressure -574.295 Pa" in captured.err
    assert "Traceback" not in captured.err


def test_design_search_full_inlet_hits_targets(tmp_path, capsys):
    # the orifice is sized with the source flow equal to the q2 target,
    # then the exhaust so that the composed system injects from q_bc on
    cfg = tmp_path / "full_inlet.json"
    cfg.write_text(json.dumps({"venturi": {
        "use_simplified_inlet": False, "p_src_kpa_abs": 101.4,
        "s_src_mm2": 20, "s_e_mm2": 30}}))
    out = tmp_path / "tuned.json"
    assert main(["design-search", "--config", str(cfg), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "achieved (L/min): q_ab 8.1, q_bc 118, q2 onset 44"
    assert lines[2] == "within 1 L/min: yes"
    venturi = json.loads(out.read_text())["venturi"]
    assert venturi["use_simplified_inlet"] is False
    assert venturi["s_e_mm2"] == pytest.approx(13.5173, rel=1e-5)
    assert main(["validate", "--config", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "10/10 checks passed"


# the injection-line flows and onsets of a full inlet 162 Pa below ambient
REPRO = {"venturi": {"use_simplified_inlet": False, "s_src_mm2": 35.77,
                     "s_e_mm2": 6.113, "p_src_kpa_abs": 101.163}}
# a narrow source 1 kPa below ambient: injection starts at the lever flip
# and stops again at 11.3 L/min
STOPS = {"venturi": {"use_simplified_inlet": False, "s_src_mm2": 6,
                     "s_e_mm2": 40, "p_src_kpa_abs": 100.325}}


def test_full_inlet_sweep_and_simulate_agree_on_the_onset(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(REPRO))
    assert main(["sweep", "--param", "venturi.h_t_mm", "--values", "55",
                 "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "venturi.h_t_mm,55,8.1,118,12.41"
    path = tmp_path / "scenario.json"
    flows = (7.9, 10.0, 12.4, 12.5, 13.0)
    path.write_text(json.dumps({"segments": [
        {"duration_s": 0.01, "q_src_lpm": q} for q in flows]}))
    assert main(["simulate", str(path), "--config", str(cfg)]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    # state A keeps the injection line closed: no flow, no injection
    assert [(r[3], r[5], r[9]) for r in rows] == [
        ("0", "A", "0"), ("3.72881", "B", "0"), ("4.62373", "B", "0"),
        ("4.66102", "B", "1"), ("4.84746", "B", "1")]


@pytest.mark.parametrize("argv", [["sweep", "--param", "venturi.h_t_mm", "--values", "55"],
                                  ["validate"], ["simulate", "SCENARIO"]],
                         ids=["sweep", "validate", "simulate"])
def test_full_inlet_that_stops_injecting_exits_1(argv, scenario_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(STOPS))
    argv = [scenario_file if a == "SCENARIO" else a for a in argv]
    assert main([*argv, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("config error: venturi: the full inlet stops the injection again at 11.2968 L/min"
            in captured.err)
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("segments, message", [
    ([(0.015, 20.0), (0.003, 150.0), (0.01, 20.0)], "segment 1 (t=0.015 s"),
    ([(1e9, 20.0)], "cap of 2000000"),
])
def test_simulate_unsampled_or_runaway_scenario_exits_1(segments, message, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"timestep_s": 0.01, "segments": [
        {"duration_s": d, "q_src_lpm": q} for d, q in segments]}))
    assert main(["simulate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_subnormal_timestep_exits_1(tmp_path, capsys):
    # the second segment ends at the first sample after it starts
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"timestep_s": 1e-323, "segments": [
        {"duration_s": 5e-324, "q_src_lpm": 10}, {"duration_s": 5e-324, "q_src_lpm": 20}]}))
    assert main(["simulate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "segment 1 (t=4.94066e-324 s" in captured.err and "covers no sample" in captured.err
    assert "Traceback" not in captured.err


def test_subnormal_timestep_prints_its_samples(tmp_path, capsys):
    # the end tolerance scales with the timestep, so even a subnormal one
    # keeps the segment's two samples
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"timestep_s": 5e-324, "segments": [
        {"duration_s": 1e-323, "q_src_lpm": 10}]}))
    assert main(["simulate", str(path)]) == 0
    captured = capsys.readouterr()
    assert [line.split(",")[:2] for line in captured.out.splitlines()[1:]] == [
        ["0", "10"], ["4.94066e-324", "10"]]
    assert "Traceback" not in captured.err


def test_tiny_timestep_keeps_every_step_of_a_segment(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"timestep_s": 1e-10, "segments": [
        {"duration_s": 1e-8, "q_src_lpm": 10}, {"duration_s": 1e-8, "q_src_lpm": 30}]}))
    assert main(["simulate", str(path)]) == 0
    flows = [line.split(",")[1] for line in capsys.readouterr().out.splitlines()[1:]]
    assert flows == ["10"] * 100 + ["30"] * 100


@pytest.mark.parametrize("argv, text, key", [
    (["validate", "--config"], '{"fcs": {"alpha": 0.5, "alpha": 0.9831}}', "alpha"),
    (["simulate"], '{"segments": [{"duration_s": 1, "q_src_lpm": 10, "q_src_lpm": 20}]}',
     "q_src_lpm"),
    (["simulate"], '{"segments": [{"duration_s": 1, "q_src_lpm": 10}], "scene": '
     '{"object_width_mm": 50, "object_mass_kg": 0.1, "object_width_mm": 60}}',
     "object_width_mm"),
], ids=["config", "segment", "scene"])
def test_duplicate_key_exits_1(argv, text, key, tmp_path, capsys):
    # the parser alone keeps the last value without a word
    path = tmp_path / "input.json"
    path.write_text(text)
    assert main([*argv, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config error: {path}: cannot parse: key '{key}' appears twice" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("path", [
    "fcs.s3_mm2", "venturi.s_in_mm2", "venturi.s_out_mm2", "venturi.s_src_mm2",
    "venturi.s_e_mm2", "venturi.h_t_mm", "finger.finger_length_mm", "hand.max_opening_mm",
])
def test_negative_area_or_length_exits_1(path, tmp_path, capsys):
    section, key = path.split(".")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: {key: -1.0}}))
    assert main(["validate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"config error: {path}: " in err and "must be >= 0" in err
    assert main(["sweep", "--param", path, "--values", "-1"]) == 1
    assert f"config error: {path}: " in capsys.readouterr().err


@pytest.mark.parametrize("key, field", [("s_src_mm2", "s_src"), ("s_e_mm2", "s_e")])
def test_zero_full_inlet_area_exits_1(key, field, scenario_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    venturi = {"use_simplified_inlet": False, "p_src_kpa_abs": 101.4,
               "s_src_mm2": 20, "s_e_mm2": 30}
    cfg.write_text(json.dumps({"venturi": dict(venturi, **{key: 0})}))
    for argv in (["simulate", scenario_file], ["validate"]):
        assert main([*argv, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert f"config error: venturi: {field} must be finite and > 0" in captured.err
        assert captured.out == "" and "Traceback" not in captured.err


def test_failed_simulate_leaves_no_file(tmp_path, capsys):
    path = tmp_path / "no_scene.json"
    path.write_text(json.dumps({"segments": [
        {"duration_s": 0.05, "q_src_lpm": 50.0, "event": "grasp"}]}))
    out = tmp_path / "trace.csv"
    assert main(["simulate", str(path), "--out", str(out)]) == 1
    assert "needs a scene" in capsys.readouterr().err
    assert not out.exists()


# a JSON integer of 401 digits parses, but no float holds it
HUGE_INT = "1" + "0" * 400


@pytest.mark.parametrize("argv, text, key", [
    (["simulate"], '{"segments": [{"duration_s": %s, "q_src_lpm": 5}]}' % HUGE_INT,
     "segments[0].duration_s"),
    (["validate", "--config"], '{"fcs": {"alpha": %s}}' % HUGE_INT, "fcs.alpha"),
], ids=["scenario", "config"])
def test_integer_too_large_for_a_float_exits_1(argv, text, key, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(text)
    assert main([*argv, str(path)]) == 1
    err = capsys.readouterr().err
    assert f"config error: {key}: expected a finite number, got an integer of 1329 bits" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("content, message", [
    # past the interpreter's int-conversion limit of 4300 digits
    (b'{"segments": [{"duration_s": 1' + b"0" * 4999 + b', "q_src_lpm": 5}]}',
     "cannot parse: Exceeds the limit"),
    (b'{"segments": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
     "cannot parse: arrays or objects nested deeper"),
    ('{"name": "caf\u00e9", "segments": []}'.encode("latin-1"), "not UTF-8 text"),
], ids=["long-integer", "deep-nesting", "latin-1"])
def test_unparsable_scenario_exits_1(content, message, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_bytes(content)
    assert main(["simulate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["simulate", "SCENARIO"], ["table1"], ["design-search"]],
                         ids=["simulate", "table1", "design-search"])
def test_out_naming_a_directory_exits_1(argv, scenario_file, tmp_path, capsys):
    argv = [scenario_file if a == "SCENARIO" else a for a in argv]
    assert main([*argv, "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: cannot write {tmp_path}: ")
    assert "Is a directory" in captured.err


def test_design_search_infeasible(capsys):
    assert main(["design-search", "--q-ab", "120", "--q-bc", "100"]) == 1
    assert "q_ab < q_bc" in capsys.readouterr().err


@pytest.mark.parametrize("q2", ["0", "-5"])
def test_design_search_non_positive_q2_exits_1(q2, tmp_path, capsys):
    out = tmp_path / "tuned.json"
    assert main(["design-search", "--q-ab", "8", "--q-bc", "100", "--q2", q2,
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: q2 activation target {float(q2)} L/min must be > 0: "
                            "injection starts at a positive injection-line flow\n")
    assert not out.exists()


@pytest.mark.parametrize("targets", [("5", "1e200", "30"), ("1e-300", "1e300", "1")])
def test_design_search_overflowing_jet_area_exits_1(targets, capsys):
    # the calibrated s3 overflows to inf, which zeroed the pinch-force gain
    q_ab, q_bc, q2 = targets
    assert main(["design-search", "--q-ab", q_ab, "--q-bc", q_bc, "--q2", q2]) == 1
    err = capsys.readouterr().err
    assert "jet area s3 overflows" in err
    assert "Traceback" not in err


def test_design_search_inadmissible_tuned_geometry_exits_1(capsys):
    # s3 comes out subnormal, so the tuned pinch coefficient overflows
    assert main(["design-search", "--q-ab", "1e-152", "--q-bc", "1e-150", "--q2", "1e-153"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no admissible geometry hits the targets: the pinch coefficient")
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag, target", [("--q-ab", "q_ab"), ("--q-bc", "q_bc"),
                                          ("--q2", "q2 activation")])
def test_design_search_non_finite_target_exits_1(flag, target, value, capsys):
    assert main(["design-search", f"{flag}={value}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{target} target {value} L/min is not a finite number" in captured.err
    for wrong in ("exceeds", "overflows", "Traceback"):
        assert wrong not in captured.err


def test_design_search_zero_blocking_curve_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fcs": {"f_block_knots": [[0, 0.0], [100, 0.0]]}}))
    assert main(["design-search", "--config", str(cfg)]) == 1
    assert "positive blocking force" in capsys.readouterr().err


@pytest.mark.parametrize("knots", [[[1.7, -1.0], [10.5, -0.5]], [[1.7, 0.98], [10.5, 0.5]]],
                         ids=["negative", "falling"])
@pytest.mark.parametrize("argv", [
    ["simulate", "SCENARIO"], ["validate"],
    ["sweep", "--param", "fcs.epsilon", "--values", "2.6"], ["design-search"],
], ids=["simulate", "validate", "sweep", "design-search"])
def test_negative_or_falling_blocking_curve_exits_1(argv, knots, tmp_path, capsys):
    # a falling last piece extends below zero force at a high enough flow
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fcs": {"f_block_knots": knots}}))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"segments": [{"duration_s": 0.02, "q_src_lpm": 2000.0}]}))
    argv = [str(scenario) if a == "SCENARIO" else a for a in argv]
    assert main([*argv, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: fcs: f_block_curve ")
    assert "Traceback" not in err


def test_table1_stdout_matches_golden(capsys, tmp_path):
    from pathlib import Path
    golden = Path(__file__).parent / "data" / "table1_golden.txt"
    assert main(["table1"]) == 0
    assert capsys.readouterr().out == golden.read_text()
    out = tmp_path / "report.txt"
    assert main(["table1", "--out", str(out)]) == 0
    assert out.read_text() == golden.read_text()


VALIDATE_REPORT = """\
[PASS] table listed classification  4/4
[PASS] table recomputed forces      4/4, max f1 error 13.4%
[PASS] lever flip                   8.10 L/min vs 8.1
[PASS] pinch-off flip               118.00 L/min vs 118.0
[PASS] injection activation         118.00 L/min vs 118.0
[PASS] injection-line onset         44.00 L/min vs 44.0
[PASS] injection gating             off at 50 L/min, on at 150 L/min
[PASS] payload                      1.520 N vs 1.5 N
[PASS] opening gate                 73 mm rejected, 72 mm accepted
[PASS] posture hold                 mean mark displacement 0 m
10/10 checks passed
"""


def test_validate_all_pass(capsys):
    assert main(["validate"]) == 0
    assert capsys.readouterr().out == VALIDATE_REPORT


def test_validate_detects_detuned_system(tmp_path, capsys):
    cfg = tmp_path / "weak.json"
    cfg.write_text(json.dumps({"fcs": {"epsilon": 1.5}}))
    assert main(["validate", "--config", str(cfg)]) == 2
    assert "[FAIL]" in capsys.readouterr().out


@pytest.mark.parametrize("config, fails, payload_detail", [
    # a weak finger: 0.0323 N at 50 L/min, a payload of 0.129 N
    ({"finger": {"tipforce_gain_n_per_kpa": 0.001}}, ["payload"], "0.129 N vs 1.5 N"),
    # pinch-off at 48.9 L/min seals the chamber at 50 L/min
    ({"fcs": {"epsilon": 15}}, ["pinch-off flip", "payload"],
     "none vs 1.5 N"),
], ids=["weak finger", "sealed at 50 L/min"])
def test_validate_reads_the_tip_force_of_its_config(config, fails, payload_detail, tmp_path,
                                                    capsys):
    # the opening gate tests the width alone, so it still passes
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["validate", "--config", str(cfg)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert [line[7:].split("  ")[0] for line in lines if line.startswith("[FAIL]")] == fails
    assert f"[FAIL] payload                      {payload_detail}" in lines
    assert "[PASS] opening gate                 73 mm rejected, 72 mm accepted" in lines


def test_unknown_subcommand_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("argv", [["frobnicate"], ["simulate"], ["sweep", "--values", "1"],
                                  ["design-search", "--q-ab", "fast"]],
                         ids=["unknown-subcommand", "missing-scenario", "missing-param",
                              "non-numeric-target"])
def test_usage_error_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: flowhand")


def test_reused_parser_matches_a_fresh_one(scenario_file, tmp_path, capsys, monkeypatch):
    # optional flags alternate with their absence, and a usage error
    # precedes a valid call, so state left on the shared parser would show
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fcs": {"epsilon": 2.4}}))
    out = tmp_path / "out"
    commands = [
        ["simulate", scenario_file, "--config", str(cfg), "--out", str(out)],
        ["simulate", scenario_file],
        ["sweep", "--param", "fcs.epsilon", "--values", "2.4,2.6", "--scenario", scenario_file],
        ["sweep", "--param", "fcs.epsilon", "--values", "2.4,2.6"],
        ["design-search", "--q-ab", "20", "--q-bc", "100", "--q2", "30", "--out", str(out)],
        ["design-search"],
        ["simulate", "--out", str(out)],
        ["table1"],
    ]

    def run_all():
        results = []
        for argv in commands:
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = f"SystemExit({exc.code})"
            captured = capsys.readouterr()
            written = out.read_bytes() if out.exists() else None
            out.unlink(missing_ok=True)
            results.append((rc, captured.out, captured.err, written))
        return results

    reused = run_all()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert run_all() == reused
    assert [r[0] for r in reused] == [0, 0, 0, 0, 0, 0, "SystemExit(2)", 0]
    assert [r[3] is not None for r in reused] == [True, False, False, False,
                                                   True, False, False, False]
    assert reused[1][1].startswith(CSV_HEADER)
    assert reused[2][1] != reused[3][1]
    assert "q_ab 20," in reused[4][1] and "q_ab 8.1," in reused[5][1]


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(10):
        assert main(["design-search"]) == 0
        assert main(["table1"]) == 0
    # at most one root parser and five subparsers for 20 commands; none
    # if an earlier command in this process built them
    assert len(built) <= 6, built


# {scenario}, {config} and {out} stand for files in a test's directory
ARGV_CORPUS = [
    [], ["-h"], ["--help"], ["frobnicate"], ["--bogus"], ["--", "table1"],
    ["simulate", "{scenario}"], ["simulate", "{scenario}", "--config", "{config}"],
    ["simulate", "{scenario}", "--out", "{out}"], ["simulate", "{scenario}", "--out={out}"],
    ["simulate", "--", "{scenario}"], ["simulate"], ["simulate", "-h"],
    ["simulate", "{scenario}", "--bogus"], ["simulate", "{scenario}", "extra"],
    ["simulate", "{scenario}", "--config"], ["simulate", "{out}"], ["simulate", "--out"],
    ["sweep", "--param", "fcs.epsilon", "--values", "2.4,2.6"],
    ["sweep", "--par", "fcs.epsilon", "--values", "2.5", "--scenario", "{scenario}"],
    ["sweep", "--param=fcs.epsilon", "--values=2.5", "--out={out}"],
    ["sweep", "--values", "1"], ["sweep", "--param", "fcs.nope", "--values", "1"],
    ["sweep", "--param", "fcs.epsilon", "--values", "x"], ["sweep", "--help"],
    ["sweep", "--param", "fcs.epsilon", "--values", "2.5", "--", "extra"],
    ["design-search"], ["design-search", "--q-ab", "20", "--q-bc", "100", "--q2", "30"],
    ["design-search", "--q-ab", "fast"], ["design-search", "--q-ab", "-5"],
    ["design-search", "--q-ab", "200"], ["design-search", "--q"],
    ["design-search", "--config", "{config}", "--out", "{out}"],
    ["table1"], ["table1", "extra"], ["table1", "--out={out}"], ["table1", "--out"],
    ["table1", "-h", "extra"],
    ["validate"], ["validate", "--config", "{config}"], ["validate", "--config"],
    ["validate", "--conf", "{config}", "--bogus", "more"],
]


@pytest.mark.parametrize("argv", ARGV_CORPUS, ids=" ".join)
def test_main_matches_a_fresh_top_level_parse(argv, scenario_file, tmp_path, capsys,
                                              monkeypatch):
    # main hands a command's arguments to that command's parser; each
    # command line must end as it does when a fresh top-level parser
    # parses all of it, in exit code, output and written file
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps({"fcs": {"epsilon": 2.4}}))
    argv = [arg.format(scenario=scenario_file, config=cfg, out=out) for arg in argv]

    def run():
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = f"SystemExit({exc.code})"
        captured = capsys.readouterr()
        written = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        return rc, captured.out, captured.err, written

    routed = run()
    fresh_parser = cli.build_parser.__wrapped__

    def top_level_parser():
        parser = fresh_parser()
        parser.set_defaults(commands={})     # no command is handed over
        return parser

    monkeypatch.setattr(cli, "build_parser", top_level_parser)
    assert run() == routed


FUZZ_FLOWS_LPM = (0.0, 5.0, 50.0, 118.0, 150.0, 2000.0)
# knot values: the bench range, round values, edges and any float
# (non-finite ones too); lists come unsorted or sorted
fuzz_values = st.one_of(st.floats(-5.0, 200.0), st.sampled_from(
    [0.0, -0.0, 0.5, 1.0, 2.0, 30.0, 5e-324, -1e-300, 1e308, -1.7976931348623157e308]),
    st.floats())
fuzz_knots = st.lists(st.tuples(fuzz_values, fuzz_values), max_size=5,
                      unique_by=lambda knot: knot[0])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
# f_block rounded below zero at 150 L/min between the last two knots
@example(key="fcs.f_block_knots", knots=[(-480.22697301760286, 7.994302050787598),
                                         (2.5423728813559268, 0.0), (3.5423728813559268, 0.0)])
@given(key=st.sampled_from(["fcs.f_block_knots", "finger.pressure_map_knots"]),
       knots=st.one_of(fuzz_knots, fuzz_knots.map(sorted)))
def test_random_knot_lists_end_in_an_exit_code(key, knots):
    # every knot list, valid or not, ends in exit 0, 1 or 2 with no
    # exception, and a failed command leaves no --out file
    section, name = key.split(".")
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out, every = (str(Path(tmp, n)) for n in ("cfg.json", "out.csv", "all.json"))
        Path(cfg).write_text(json.dumps({section: {name: knots}}))
        Path(every).write_text(json.dumps({"segments": [
            {"duration_s": 0.02, "q_src_lpm": q} for q in FUZZ_FLOWS_LPM]}))
        commands = [["validate", "--config", cfg],
                    ["sweep", "--param", "fcs.epsilon", "--values", "2.6", "--config", cfg,
                     "--scenario", every, "--out", out]]
        for q in FUZZ_FLOWS_LPM:
            scenario = str(Path(tmp, f"q{q:g}.json"))
            Path(scenario).write_text(json.dumps({"segments": [
                {"duration_s": 0.02, "q_src_lpm": q}]}))
            commands.append(["simulate", scenario, "--config", cfg, "--out", out])
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                rc = main(argv)
            assert rc in (0, 1, 2), argv
            if rc != 0:
                assert not Path(out).exists(), argv
            Path(out).unlink(missing_ok=True)


PROBE_VALUES = (1e-160, 1e-300, 5e-324, 1e300, 1.7e308)
FULL_INLET = {"use_simplified_inlet": False, "p_src_kpa_abs": 101.4,
              "s_src_mm2": 20, "s_e_mm2": 30}
PROBE_KEYS = [f"{section}.{key}" for section in ("venturi", "finger", "fcs")
              for key in sorted(SCHEMA[section])
              if key not in ("use_simplified_inlet", "f_block_knots", "pressure_map_knots")]


def probe(key: str, value: float, base: dict, scenario: str, cfg: Path) -> list:
    """(argv, exit code, stderr) of validate, sweep, simulate and
    design-search with `key` set to `value` over `base`."""
    section, name = key.split(".")
    cfg.write_text(json.dumps({**base, section: {**base.get(section, {}), name: value}}))
    base_cfg = cfg.with_name("base.json")
    base_cfg.write_text(json.dumps(base))
    runs = []
    for argv in (["validate", "--config", str(cfg)],
                 ["sweep", "--param", key, "--values", repr(value), "--config", str(base_cfg)],
                 ["simulate", scenario, "--config", str(cfg)],
                 ["design-search", "--config", str(cfg)]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(argv)
        runs.append((argv, rc, err.getvalue()))
    return runs


def test_extreme_config_values_end_in_an_exit_code(scenario_file, tmp_path):
    # each number key alone at a value whose square, product or inverse
    # overflows or vanishes in a closed form; no exception escapes main
    for key in PROBE_KEYS:
        for value in PROBE_VALUES:
            for base in ({}, {"venturi": FULL_INLET}):
                for argv, rc, err in probe(key, value, base, scenario_file, tmp_path / "c.json"):
                    assert rc in (0, 1, 2), (key, value, base, argv)
                    assert "Traceback" not in err


# the rows that ended in a ZeroDivisionError, OverflowError or math
# domain error: a derived coefficient vanished or overflowed
@pytest.mark.parametrize("key, values, bases", [
    ("fcs.alpha", (1e-300, 5e-324), ({}, {"venturi": FULL_INLET})),
    ("finger.curvature_gain", (1.7e308,), ({},)),
    ("venturi.discharge_coeff", (1e-160, 1e-300, 5e-324), ({}, {"venturi": FULL_INLET})),
    ("venturi.s_out_mm2", (1e-160, 1e-300), ({}, {"venturi": FULL_INLET})),
    ("venturi.s_in_mm2", (1e300, 1.7e308), ({}, {"venturi": FULL_INLET})),
    ("venturi.s_src_mm2", PROBE_VALUES[:2] + PROBE_VALUES[3:], ({"venturi": FULL_INLET},)),
    ("venturi.s_e_mm2", PROBE_VALUES[:2] + PROBE_VALUES[3:], ({"venturi": FULL_INLET},)),
])
def test_vanishing_or_overflowing_coefficient_is_a_config_error(key, values, bases,
                                                                scenario_file, tmp_path):
    field = key.split(".")[1].removesuffix("_mm2")
    for value in values:
        for base in bases:
            for argv, rc, err in probe(key, value, base, scenario_file, tmp_path / "c.json"):
                assert rc == 1, (value, argv)
                assert err.startswith("config error: ") and field in err, (value, argv, err)


@pytest.mark.parametrize("value, why", [
    (1e300, "L/min calibrates f_rot_N to inf"), (1.7e308, "L/min calibrates f_rot_N to inf"),
    (0.0, "L/min is 0.0 m^3/s"), (-3.0, "L/min is -5e-05 m^3/s"),
    (1e-320, "L/min is 0.0 m^3/s"),
], ids=["1e+300", "1.7e+308", "0", "-3", "1e-320"])
def test_overflowing_q_ab_names_q_ab_lpm(value, why, tmp_path):
    # the jet force at q_ab overflows to f_rot = inf, or q_ab is no flow
    # at all once in m^3/s (1e-320 L/min rounds to 0); the error names
    # the key the file gave, in its L/min, not the field it calibrates
    with pytest.raises(ConfigError, match="^" + re.escape(f"fcs.q_ab_lpm: {value!r} {why}")):
        load_system({"fcs": {"q_ab_lpm": value}})
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"fcs": {"q_ab_lpm": value}}))
    for argv in (["validate", "--config", str(cfg)],
                 ["sweep", "--param", "fcs.q_ab_lpm", "--values", repr(value)]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(argv) == 1, argv
        assert err.getvalue().startswith("config error: fcs.q_ab_lpm: "), (argv, err.getvalue())


def test_overflowing_tip_force_is_a_config_error(scenario_file, tmp_path):
    # a finite gain whose tip force at p_max overflows is refused when the
    # config loads, by every command, whatever it then evaluates
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"finger": {"tipforce_gain_n_per_kpa": 1.7e308}}))
    for argv in (["validate", "--config", str(cfg)],
                 ["sweep", "--param", "fcs.epsilon", "--values", "5", "--config", str(cfg)],
                 ["simulate", scenario_file, "--config", str(cfg)],
                 ["design-search", "--config", str(cfg)]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(argv) == 1, argv
        assert err.getvalue().startswith("config error: "), (argv, err.getvalue())
        assert "tipforce_gain" in err.getvalue(), (argv, err.getvalue())


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(p_src=st.floats(101.025, 101.825), s_src=st.floats(5.0, 80.0),
       s_e=st.floats(5.0, 80.0))
def test_full_inlet_design_injects_at_its_q_bc_target(p_src, s_src, s_e):
    # a full-inlet design that exits 0 starts injecting at q_bc, as sweep
    # reads it and as simulate runs it, and passes validate
    with tempfile.TemporaryDirectory() as tmp:
        cfg, tuned, scenario = (str(Path(tmp, n)) for n in ("c.json", "t.json", "s.json"))
        Path(cfg).write_text(json.dumps({"venturi": {
            "use_simplified_inlet": False, "p_src_kpa_abs": p_src,
            "s_src_mm2": s_src, "s_e_mm2": s_e}}))
        Path(scenario).write_text(json.dumps({"segments": [
            {"duration_s": 0.01, "q_src_lpm": q} for q in (117.0, 119.0)]}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(["design-search", "--config", cfg, "--out", tuned])
            if rc == 0:
                assert main(["sweep", "--param", "venturi.h_t_mm", "--values", "55",
                             "--config", tuned]) == 0
                assert main(["simulate", scenario, "--config", tuned]) == 0
                assert main(["validate", "--config", tuned]) == 0
        assert rc in (0, 1)
        if rc == 0:
            lines = out.getvalue().splitlines()
            assert lines[5] == "venturi.h_t_mm,55,8.1,118,118"
            assert [row.split(",")[9] for row in lines[7:9]] == ["0", "1"]


# in-range values of eleven keys that move the thresholds, as in the
# benchmark's sweeps; f_rot_N spans the onsets of q_ab 5-20 L/min
AGREEMENT_RANGES = {"fcs.alpha": (0.95, 0.995), "fcs.epsilon": (2.0, 3.5),
                    "fcs.s3_mm2": (9.0, 14.0), "fcs.gamma": (0.3, 0.6),
                    "fcs.q_ab_lpm": (5.0, 20.0), "fcs.f_rot_N": (0.0007, 0.011),
                    "venturi.h_t_mm": (40.0, 70.0), "venturi.s_out_mm2": (14.0, 17.5),
                    "venturi.rho_lub": (700.0, 900.0), "venturi.discharge_coeff": (0.9, 1.0),
                    "venturi.s_in_mm2": (18.0, 40.0)}
VALIDATE_READING = re.compile(
    r"^\[(?:PASS|FAIL)\] (lever flip|pinch-off flip|injection activation) +(\S+) L/min vs ",
    re.MULTILINE)


@settings(max_examples=110, deadline=None, derandomize=True, database=None)
@given(setting=st.one_of(*(st.tuples(st.just(key), st.floats(lo, hi))
                           for key, (lo, hi) in AGREEMENT_RANGES.items())))
def test_sweep_validate_and_simulate_agree_on_the_thresholds(setting):
    # on one config, validate prints sweep's unrounded thresholds to its
    # two decimals, and simulate flips A -> B, B -> C and the injection
    # between q (1 - 1e-9) and q (1 + 1e-9) of each of them
    key, value = setting
    row = sweep(key, [value])[0]
    thresholds = (row.q_ab_lpm, row.q_bc_lpm, row.activation_lpm)
    section, name = key.split(".")
    with tempfile.TemporaryDirectory() as tmp:
        cfg, scenario = str(Path(tmp, "cfg.json")), str(Path(tmp, "scenario.json"))
        Path(cfg).write_text(json.dumps({section: {name: value}}))
        Path(scenario).write_text(json.dumps({"segments": [
            {"duration_s": 0.01, "q_src_lpm": q * side}
            for q in thresholds for side in (1.0 - 1e-9, 1.0 + 1e-9)]}))
        validated, simulated = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(validated):
            assert main(["validate", "--config", cfg]) in (0, 2)
        with contextlib.redirect_stdout(simulated), contextlib.redirect_stderr(io.StringIO()):
            assert main(["simulate", scenario, "--config", cfg]) == 0
    assert VALIDATE_READING.findall(validated.getvalue()) == [
        (check, f"{q:.2f}") for check, q in
        zip(("lever flip", "pinch-off flip", "injection activation"), thresholds)]
    rows = [line.split(",") for line in simulated.getvalue().splitlines()[1:]]
    assert [r[5] for r in rows[:4]] == ["A", "B", "B", "C"]
    assert [r[9] for r in rows[4:]] == ["0", "1"]


# --- every subcommand, every input ------------------------------------

# JSON numbers of each kind a check must catch: out of range, non-finite,
# vanishing, overflowing, and an integer past the largest float.  As a
# duration over a timestep, or over the default 0.01 s, each two positive
# ones give at most 260 rows or more than MAX_ROWS, so no drawn scenario
# runs long.
JSON_NUMBERS = (0, -0.0, -1, 0.5, 1, 2.6, 5e-324, 1e-300, 1e300, 1.7e308, -1.7e308,
                float("nan"), float("inf"), float("-inf"), 2 ** 64, 10 ** 400)
# every key but q_ab_lpm at a value that loads, over the full-inlet base
GOOD_CONFIG = system_to_dict(load_system({"venturi": FULL_INLET}))
CONFIG_PATHS = sorted(f"{section}.{key}" for section, keys in SCHEMA.items() for key in keys)
# the keys a file can hold, so that random objects sometimes get past
# the key checks and reach the values
JSON_KEYS = st.sampled_from(sorted({
    *SCHEMA, *(key for keys in SCHEMA.values() for key in keys), "name", "timestep_s",
    "segments", "scene", "duration_s", "q_src_lpm", "event", "object_width_mm",
    "object_mass_kg"})) | st.text(max_size=4)
json_values = st.recursive(
    st.none() | st.booleans() | st.sampled_from(JSON_NUMBERS) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(JSON_KEYS, inner, max_size=3),
    max_leaves=8)


def maybe(draw, good, odd=json_values):
    """A draw from `good`, or one time in eight or fewer from `odd`, any
    JSON value by default."""
    return draw(draw(st.sampled_from((good,) * 7 + (odd,))))


@st.composite
def file_bytes(draw, objects):
    """A drawn object as JSON text, now and then in bytes that are not
    UTF-8, not JSON, or nested past the parser's recursion limit."""
    text = json.dumps(draw(objects))
    damage = maybe(draw, st.just(None), st.sampled_from(["byte", "utf-16", "cut", "deep"]))
    at = draw(st.integers(0, len(text)))
    if damage == "utf-16":
        return text.encode("utf-16")
    data = text.encode()
    if damage == "byte":
        return data[:at] + draw(st.sampled_from([b"\xff", b"\x80", b"\xc3"])) + data[at:]
    if damage == "deep":
        return b"[" * 100_000 + data
    return data[:at] if damage == "cut" else data


@st.composite
def configs(draw):
    """One to three keys over the reference or the full-inlet base, each
    at a value that loads or at an odd one; now and then any JSON value."""
    raw = {"venturi": dict(FULL_INLET)} if draw(st.booleans()) else {}
    for path in draw(st.lists(st.sampled_from(CONFIG_PATHS), min_size=1, max_size=3)):
        section, key = path.split(".")
        number = st.sampled_from(JSON_NUMBERS)
        odd = st.lists(st.tuples(number, number), max_size=3) if key.endswith("knots") else number
        value = st.just(GOOD_CONFIG[section].get(key, 8.1))
        raw.setdefault(section, {})[key] = draw(draw(st.sampled_from((value, odd, odd))))
    return maybe(draw, st.just(raw))


@st.composite
def scenarios(draw):
    """At most 5 segments of at most 2000 steps each, when the timestep
    and the durations are valid; any field now and then any JSON value."""
    dt = maybe(draw, st.sampled_from([0.01, 0.25, 0.1, 1.0]),
               st.sampled_from(JSON_NUMBERS) | json_values)
    positive = type(dt) is float and 0 < dt < math.inf
    segments = []
    for _ in range(draw(st.integers(1, 5))):
        steps = draw(st.integers(1, 2000))
        segment = {"duration_s": maybe(draw, st.just(steps * dt) if positive
                                       else st.sampled_from(JSON_NUMBERS)),
                   "q_src_lpm": maybe(draw, st.sampled_from([0, 5, 30, 50, 118, 150, 2000]))}
        if draw(st.booleans()):
            segment["event"] = maybe(draw, st.sampled_from(["grasp", "lift", "place", "pivot"]))
        segments.append(maybe(draw, st.just(segment)))
    raw = {"timestep_s": dt, "segments": maybe(draw, st.just(segments))}
    scene = st.fixed_dictionaries({
        "object_width_mm": st.sampled_from([50.0, 72.0, 73.0, *JSON_NUMBERS]),
        "object_mass_kg": st.sampled_from([0.05, 0.12, *JSON_NUMBERS])})
    # no scene, a scene, or any JSON value as the scene
    if (scene := draw(st.sampled_from((None, scene, scene, json_values)))) is not None:
        raw["scene"] = draw(scene)
    return maybe(draw, st.just(raw))


NUMBER_TEXTS = st.sampled_from([repr(x) for x in JSON_NUMBERS if type(x) is not int]
                               + ["1e400", "nan", "-inf", "x", "", " 8.1 ", "0x10"])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(config=file_bytes(configs()) | st.none(), scenario=file_bytes(scenarios()),
       param=st.sampled_from(CONFIG_PATHS) | st.text(max_size=6),
       values=st.lists(NUMBER_TEXTS, max_size=4).map(",".join),
       targets=st.lists(st.tuples(st.sampled_from(["--q-ab", "--q-bc", "--q2"]), NUMBER_TEXTS),
                        max_size=3),
       with_scenario=st.booleans(), with_out=st.booleans())
def test_every_subcommand_ends_in_an_exit_code(config, scenario, param, values, targets,
                                               with_scenario, with_out):
    # each of the five subcommands, on any config, scenario, key, values
    # and targets, ends in exit 0, 1 or 2 (argparse's SystemExit(2)
    # included) with no other exception, and an exit 1 leaves no --out file;
    # config None runs on the reference system
    with tempfile.TemporaryDirectory() as tmp:
        cfg, scn, out = (str(Path(tmp, n)) for n in ("cfg.json", "scn.json", "out"))
        Path(scn).write_bytes(scenario)
        config_args = []
        if config is not None:
            Path(cfg).write_bytes(config)
            config_args = ["--config", cfg]
        out_args = ["--out", out] if with_out else []
        commands = [
            ["simulate", scn, *config_args, *out_args],
            ["sweep", "--param", param, "--values", values, *config_args,
             *(["--scenario", scn] if with_scenario else []), *out_args],
            ["design-search", *(arg for pair in targets for arg in pair), *config_args,
             *out_args],
            ["table1", *out_args],
            ["validate", *config_args],
        ]
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    rc = main(argv)
                except SystemExit as exc:
                    rc = exc.code
                    assert rc == 2, argv
            assert rc in (0, 1, 2), argv
            if rc == 1:
                assert not Path(out).exists(), argv
            Path(out).unlink(missing_ok=True)
