"""JSON config ingestion: unit folding, validation paths, round-trips."""

import dataclasses
import json
import math
from dataclasses import replace

import pytest

from flowhand.config import (
    SCHEMA,
    ConfigError,
    apply_override,
    load_system,
    read_json,
    system_to_dict,
)
from flowhand.core import lpm_to_m3s, m3s_to_lpm
from flowhand.fcs import classify_state
from flowhand.scenario import DesignTargets, design_search
from flowhand.system import default_system
from flowhand.venturi import activation_threshold, size_orifice


def states(system, *flows_lpm):
    return "".join(
        classify_state(lpm_to_m3s(q), system.fcs, system.consts).name for q in flows_lpm
    )


def test_none_and_empty_yield_reference_system():
    ref = default_system()
    for source in (None, {}):
        system = load_system(source)
        assert system.fcs == ref.fcs
        assert system.venturi == ref.venturi
        assert system.finger.finger_length == ref.finger.finger_length
        assert system.hand == ref.hand


def test_bench_units_folded_to_si():
    system = load_system({
        "fcs": {"s3_mm2": 11.546402640264026},
        "venturi": {"h_t_mm": 10.0, "s_in_mm2": 25.0},
        "finger": {"finger_length_mm": 100.0, "p_max_kpa": 40.0,
                   "tipforce_gain_n_per_kpa": 0.02},
        "hand": {"max_opening_mm": 80.0},
    })
    assert system.fcs.s3 == pytest.approx(1.1546402640264026e-5, rel=1e-12)
    assert system.venturi.h_t == pytest.approx(0.010, rel=1e-12)
    assert system.venturi.s_in == pytest.approx(2.5e-5, rel=1e-12)
    assert system.finger.finger_length == pytest.approx(0.100, rel=1e-12)
    assert system.finger.p_max == pytest.approx(40000.0, rel=1e-12)
    assert system.finger.tipforce_gain == pytest.approx(2e-5, rel=1e-12)
    assert system.hand.max_opening == pytest.approx(0.080, rel=1e-12)


def test_pressure_map_knots_in_kpa():
    system = load_system({
        "finger": {"pressure_map_knots": [[0.0, 0.0], [40.0, 20.0]]},
    })
    assert system.finger.pressure_map(20.0) == pytest.approx(10000.0, rel=1e-12)


def test_lubricant_density_keeps_hardware_orifice():
    # like every injector key, the density leaves the sized orifice alone,
    # so a heavier lubricant starts injecting later
    ref = default_system()
    system = load_system({"venturi": {"rho_lub": 1000.0}})
    assert system.venturi == replace(ref.venturi, rho_lub=1000.0)
    assert system.consts == ref.consts
    act = activation_threshold(system.venturi, system.fcs, system.consts)
    assert m3s_to_lpm(act) == pytest.approx(132.844, abs=1e-3)
    # design-search re-sizes it: heavier lubricant needs stronger
    # suction, so a narrower orifice
    tuned, _ = design_search(DesignTargets(q_ab_lpm=8.1, q_bc_lpm=118.0,
                                           q2_activation_lpm=44.0), system)
    expect = size_orifice(lpm_to_m3s(44.0), system.venturi, system.consts)
    assert tuned.venturi.s_out == pytest.approx(expect, abs=2e-9)
    assert tuned.venturi.s_out < ref.venturi.s_out


def test_h_t_override_keeps_hardware_orifice():
    # the orifice is sized hardware; moving the test tube is a bench change
    system = load_system({"venturi": {"h_t_mm": 10.0}})
    assert system.venturi.s_out == default_system().venturi.s_out


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown config section 'fcz'"):
        load_system({"fcz": {}})


def test_unknown_key_carries_dotted_path():
    with pytest.raises(ConfigError, match="fcs.alfa"):
        load_system({"fcs": {"alfa": 0.9}})
    with pytest.raises(ConfigError, match="venturi.h_t"):
        load_system({"venturi": {"h_t": 0.055}})


def test_f_rot_and_q_ab_are_exclusive():
    with pytest.raises(ConfigError, match="not both"):
        load_system({"fcs": {"f_rot_N": 1.8e-3, "q_ab_lpm": 8.1}})


def test_q_ab_recalibrates_lever_onset():
    system = load_system({"fcs": {"q_ab_lpm": 12.0}})
    assert states(system, 11.9, 12.1) == "AB"
    assert system.fcs.f_rot != default_system().fcs.f_rot


def test_f_rot_taken_verbatim():
    system = load_system({"fcs": {"f_rot_N": 5e-3}})
    assert system.fcs.f_rot == 5e-3


def test_boolean_keys_guarded():
    system = load_system({"venturi": {"use_simplified_inlet": False,
                                      "s_src_mm2": 20.0, "s_e_mm2": 20.0,
                                      "p_src_kpa_abs": 101.325}})
    assert system.venturi.use_simplified_inlet is False
    with pytest.raises(ConfigError, match="true/false"):
        load_system({"venturi": {"use_simplified_inlet": 1}})


def test_numbers_reject_bool_and_strings():
    with pytest.raises(ConfigError, match="fcs.alpha"):
        load_system({"fcs": {"alpha": True}})
    with pytest.raises(ConfigError, match="fcs.epsilon"):
        load_system({"fcs": {"epsilon": "2.6"}})
    with pytest.raises(ConfigError, match="hand.n_fingers"):
        load_system({"hand": {"n_fingers": 2.5}})


def test_numbers_reject_non_finite(tmp_path):
    with pytest.raises(ConfigError, match="fcs.epsilon: expected a finite number"):
        load_system({"fcs": {"epsilon": math.inf}})
    with pytest.raises(ConfigError, match=r"fcs.f_block_knots\[0\]\[1\]"):
        load_system({"fcs": {"f_block_knots": [[1.7, math.nan]]}})
    path = tmp_path / "inf.json"
    path.write_text('{"venturi": {"h_t_mm": Infinity}}')
    with pytest.raises(ConfigError, match="venturi.h_t_mm"):
        load_system(path)


# every number field of a section config; None-valued ones may be set
CONFIG_NUMBERS = [
    ("fcs", f) for f in ("alpha", "epsilon", "s3", "f_rot", "gamma")
] + [
    ("venturi", f) for f in ("s_in", "s_out", "s_t", "h_t", "rho_lub", "discharge_coeff",
                             "s_src", "s_e", "p_src")
] + [
    ("finger", f) for f in ("finger_length", "curvature_gain", "tipforce_gain", "p_max")
] + [
    ("hand", f) for f in ("n_fingers", "mu_high", "mu_low", "mu_pivot_crit", "max_opening")
]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("section, field", CONFIG_NUMBERS)
def test_section_configs_reject_non_finite_numbers(section, field, value):
    cfg = getattr(default_system(), section)
    with pytest.raises(ValueError, match=field):
        replace(cfg, **{field: value})


def test_invalid_value_wrapped_with_section():
    with pytest.raises(ConfigError, match="fcs"):
        load_system({"fcs": {"alpha": 1.5}})
    with pytest.raises(ConfigError, match="hand"):
        load_system({"hand": {"mu_low": 5.0}})


def test_bad_knots_reported_with_index():
    with pytest.raises(ConfigError, match=r"f_block_knots\[1\]"):
        load_system({"fcs": {"f_block_knots": [[1.7, 0.98], [2.0]]}})
    with pytest.raises(ConfigError, match="f_block_knots"):
        load_system({"fcs": {"f_block_knots": [[2.0, 0.99], [1.7, 0.98]]}})


def test_read_json_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"venturi": {"h_t_mm": 30.0}}))
    system = load_system(path)
    assert system.venturi.h_t == pytest.approx(0.030, rel=1e-12)
    assert load_system(str(path)).venturi.h_t == pytest.approx(0.030, rel=1e-12)


def test_read_json_failure_modes(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        read_json(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        read_json(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        read_json(arr)


def test_round_trip_through_dict():
    ref = default_system()
    again = load_system(system_to_dict(ref))
    assert again.fcs.alpha == pytest.approx(ref.fcs.alpha, rel=1e-12)
    assert again.fcs.s3 == pytest.approx(ref.fcs.s3, rel=1e-12)
    assert again.fcs.f_rot == pytest.approx(ref.fcs.f_rot, rel=1e-12)
    assert again.fcs.gamma == pytest.approx(ref.fcs.gamma, rel=1e-12)
    assert again.venturi.s_out == pytest.approx(ref.venturi.s_out, rel=1e-12)
    assert again.venturi.h_t == pytest.approx(ref.venturi.h_t, rel=1e-12)
    assert again.finger.curvature_gain == pytest.approx(ref.finger.curvature_gain, rel=1e-12)
    assert again.finger.tipforce_gain == pytest.approx(ref.finger.tipforce_gain, rel=1e-12)
    assert again.hand.max_opening == pytest.approx(ref.hand.max_opening, rel=1e-12)
    assert states(again, 8.0, 8.2, 117.9, 118.1) == states(ref, 8.0, 8.2, 117.9, 118.1)


def test_dict_uses_bench_units():
    raw = system_to_dict(default_system())
    assert raw["fcs"]["s3_mm2"] == pytest.approx(11.779663299663298, rel=1e-12)
    assert raw["venturi"]["h_t_mm"] == pytest.approx(55.0, rel=1e-12)
    assert raw["finger"]["p_max_kpa"] == pytest.approx(35.0, rel=1e-12)
    assert raw["hand"]["max_opening_mm"] == pytest.approx(73.0, rel=1e-12)
    assert json.dumps(raw)    # emitted form must be JSON-serializable


def test_apply_override_single_key():
    system = apply_override(default_system(), "venturi.h_t_mm", 10.0)
    assert system.venturi.h_t == pytest.approx(0.010, rel=1e-12)
    # everything else untouched
    assert system.fcs.alpha == pytest.approx(default_system().fcs.alpha, rel=1e-12)


def test_apply_override_lever_onset_switches_form():
    system = apply_override(default_system(), "fcs.q_ab_lpm", 20.0)
    assert states(system, 19.9, 20.1) == "AB"
    back = apply_override(system, "fcs.f_rot_N", 1.794187678164984e-3)
    assert states(back, 8.0, 8.2) == "AB"


def test_apply_override_unknown_path():
    for path in ("fcs", "fcs.alpha.extra", "nope.key", "fcs.alfa"):
        with pytest.raises(ConfigError, match="unknown config path"):
            apply_override(default_system(), path, 1.0)


def test_full_inlet_needs_feed_parameters():
    # switching the inlet model on without the feed geometry must fail loudly
    with pytest.raises(ConfigError):
        load_system({"venturi": {"use_simplified_inlet": False}})


def test_curvature_gain_round_trip_value():
    raw = system_to_dict(default_system())
    assert raw["finger"]["curvature_gain"] == pytest.approx(
        math.pi / (0.08 * 32.3), rel=1e-12)


# Per key: values that load and values that fail, each failure through a
# different check (range, sign of an area or length, type, shape,
# non-finite, a derived value that vanishes or overflows).
OVERRIDE_VALUES = {
    "fcs.alpha": (0.97, 0.5, 1.5, -0.1, "x", 5e-324),
    "fcs.epsilon": (3.0, 0.0, True),
    "fcs.s3_mm2": (12.5, 0.0, -1.0),
    "fcs.gamma": (0.5, 1.5, None),
    "fcs.f_rot_N": (0.002, 0.0, -0.1, float("inf")),
    "fcs.q_ab_lpm": (12.0, 0.0, -3.0, 1e300),
    "fcs.f_block_knots": ([[1.5, 0.9], [9.0, 1.3]], [], [[2.0, 1.0], [1.0, 2.0]], [[1.0]]),
    "venturi.s_in_mm2": (25.0, 10.0, -1.0),
    "venturi.s_out_mm2": (15.0, 30.0, -1.0),
    "venturi.s_t_mm2": (2.0, 0.0, -1.0),
    "venturi.h_t_mm": (40.0, 0.0, -1.0),
    "venturi.rho_lub": (1000.0, 0.0, -5.0, "a"),
    "venturi.p_src_kpa_abs": (120.0, True, float("nan")),
    "venturi.s_src_mm2": (20.0, -1.0),
    "venturi.s_e_mm2": (20.0, -1.0),
    "venturi.use_simplified_inlet": (True, False, 1),
    "venturi.discharge_coeff": (0.9, 1.5, 0.0),
    "finger.finger_length_mm": (90.0, 0.0, -1.0),
    "finger.pressure_map_knots": ([[0, 0], [50, 30]], [[0, 1], [50, 30]], [[0, 0], [50, -1]]),
    "finger.curvature_gain": (1.0, 0.0),
    "finger.tipforce_gain_n_per_kpa": (0.02, -1.0),
    "finger.p_max_kpa": (30.0, 0.0),
    "hand.n_fingers": (3, 1, 2.5),
    "hand.mu_high": (2.5, 0.1),
    "hand.mu_low": (0.3, 3.0),
    "hand.mu_pivot_crit": (0.9, 0.0),
    "hand.max_opening_mm": (60.0, 0.0, -1.0),
}
OVERRIDE_BASES = {
    "reference": None,
    "full-feed": {"venturi": {"p_src_kpa_abs": 101.4, "s_src_mm2": 20, "s_e_mm2": 30,
                              "rho_lub": 1000.0}},
}


def round_trip_override(system, path, value):
    """apply_override as it used to be: the whole system through its config dict."""
    section, key = path.split(".")
    raw = system_to_dict(system)
    if key == "q_ab_lpm":
        raw["fcs"].pop("f_rot_N")
    raw[section][key] = value
    return load_system(raw)


def compared_fields(a) -> list[str]:
    """The fields == compares on a dataclass or on a value class with
    __slots__ (whose private slots are derived); none for anything else."""
    if dataclasses.is_dataclass(a):
        return [f.name for f in dataclasses.fields(a) if f.compare]
    return [name for name in getattr(type(a), "__slots__", ()) if not name.startswith("_")]


def assert_close(a, b, where="system"):
    if fields := compared_fields(a):
        assert type(a) is type(b), where
        for name in fields:
            assert_close(getattr(a, name), getattr(b, name), f"{where}.{name}")
    elif isinstance(a, tuple):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_close(x, y, f"{where}[{i}]")
    elif isinstance(a, float):
        assert math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0), f"{where}: {a} != {b}"
    else:
        assert a == b, f"{where}: {a!r} != {b!r}"


def test_override_table_covers_schema():
    assert set(OVERRIDE_VALUES) == {f"{s}.{k}" for s, keys in SCHEMA.items() for k in keys}


@pytest.mark.parametrize("base", sorted(OVERRIDE_BASES))
@pytest.mark.parametrize("path, value", [
    (path, value) for path, values in OVERRIDE_VALUES.items() for value in values])
def test_apply_override_matches_config_round_trip(base, path, value):
    system = load_system(OVERRIDE_BASES[base])
    try:
        want = round_trip_override(system, path, value)
    except ConfigError as exc:
        with pytest.raises(ConfigError) as got:
            apply_override(system, path, value)
        assert str(got.value) == str(exc)
        return
    assert_close(apply_override(system, path, value), want)


@pytest.mark.parametrize("path, value", [
    (path, value) for path, values in OVERRIDE_VALUES.items() for value in values])
def test_file_key_matches_override(path, value):
    # a key given in a file and the same key swept by apply_override are
    # one setting: the same system, or the same error
    section, key = path.split(".")
    try:
        want = apply_override(default_system(), path, value)
    except ConfigError as exc:
        with pytest.raises(ConfigError) as got:
            load_system({section: {key: value}})
        assert str(got.value) == str(exc)
        return
    assert load_system({section: {key: value}}) == want


# Keys a base does not emit: the lever onset goes out as f_rot_N, and
# the reference leaves the full-inlet feed unset.
NOT_EMITTED = {
    "reference": {"fcs.q_ab_lpm", "venturi.p_src_kpa_abs", "venturi.s_src_mm2",
                  "venturi.s_e_mm2"},
    "full-feed": {"fcs.q_ab_lpm"},
}


@pytest.mark.parametrize("base", sorted(OVERRIDE_BASES))
def test_emission_covers_every_field(base):
    system = load_system(OVERRIDE_BASES[base])
    raw = system_to_dict(system)
    emitted = {f"{s}.{k}" for s, keys in raw.items() for k in keys}
    assert emitted == {f"{s}.{k}" for s, keys in SCHEMA.items() for k in keys} - NOT_EMITTED[base]
    # every field survives emission and reload; not exactly, since no
    # kPa value folds onto the default 32300 Pa pressure-map knot
    assert_close(load_system(raw), system)
    # the emitted form reloads to itself exactly
    assert system_to_dict(load_system(raw)) == raw


@pytest.mark.parametrize("targets", [(9.3, 125.0, 40.0), (8.1, 118.0, 1e-5)])
def test_tuned_config_reloads_to_itself(targets):
    tuned, _ = design_search(DesignTargets(*targets))
    raw = system_to_dict(tuned)
    assert system_to_dict(load_system(raw)) == raw
