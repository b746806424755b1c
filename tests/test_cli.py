"""Command-line entry points, run in-process through main()."""

import json

import pytest

from flowhand.cli import main
from flowhand.config import load_system
from flowhand.scenario import CSV_HEADER

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


def test_design_search_defaults(capsys):
    assert main(["design-search"]) == 0
    out = capsys.readouterr().out
    assert "within 1 L/min: yes" in out
    assert "q_bc 118" in out
    assert "grid scan" not in out


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


def test_design_search_full_inlet_exits_1(tmp_path, capsys):
    cfg = tmp_path / "full_inlet.json"
    cfg.write_text(json.dumps({"venturi": {
        "use_simplified_inlet": False, "p_src_kpa_abs": 101.4,
        "s_src_mm2": 20, "s_e_mm2": 30}}))
    assert main(["design-search", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "venturi.use_simplified_inlet" in err
    assert "Traceback" not in err


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


def test_design_search_infeasible(capsys):
    assert main(["design-search", "--q-ab", "120", "--q-bc", "100"]) == 1
    assert "q_ab < q_bc" in capsys.readouterr().err


def test_table1_stdout_matches_golden(capsys, tmp_path):
    from pathlib import Path
    golden = Path(__file__).parent / "data" / "table1_golden.txt"
    assert main(["table1"]) == 0
    assert capsys.readouterr().out == golden.read_text()
    out = tmp_path / "report.txt"
    assert main(["table1", "--out", str(out)]) == 0
    assert out.read_text() == golden.read_text()


def test_validate_all_pass(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out
    assert out.count("[PASS]") >= 8


def test_validate_detects_detuned_system(tmp_path, capsys):
    cfg = tmp_path / "weak.json"
    cfg.write_text(json.dumps({"fcs": {"epsilon": 1.5}}))
    assert main(["validate", "--config", str(cfg)]) == 2
    assert "[FAIL]" in capsys.readouterr().out


def test_unknown_subcommand_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
