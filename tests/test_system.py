"""Prototype table, calibration chain, and assembled system defaults."""

import math

import pytest

from flowhand.core import PhysConstants, lpm_to_m3s, m3s_to_lpm, mm2_to_m2
from flowhand.fcs import blocking_force, classify_state, lever_force
from flowhand.system import (
    DEFAULT_F_BLOCK_KNOTS,
    REFERENCE_LABEL,
    TABLE1,
    blocking_curve,
    calibrate_blocking_s3,
    default_system,
    listed_inversion_s3,
    measured_alpha,
    prototype,
    prototype_fcs_config,
    reference_gamma,
)
from flowhand.venturi import size_orifice

CONSTS = PhysConstants()


def test_table_has_four_prototypes():
    labels = [spec.label for spec in TABLE1]
    assert labels == ["A", "B", "C", "D"]
    assert [spec.success for spec in TABLE1] == [True, False, False, True]


def test_prototype_lookup():
    spec = prototype("A")
    assert spec.label == "A"
    assert spec.epsilon == 2.6
    assert spec.q_src_max == pytest.approx(lpm_to_m3s(118.0), rel=1e-12)
    assert spec.q1_max == pytest.approx(lpm_to_m3s(2.0), rel=1e-12)
    with pytest.raises(KeyError):
        prototype("X")


def test_reference_label_points_at_working_prototype():
    assert REFERENCE_LABEL == "A"
    assert prototype(REFERENCE_LABEL).success


def test_listed_jet_flow_consistent_with_split():
    # the listed q3 is the rounded difference q_src_max - q1_max
    for spec in TABLE1:
        diff = spec.q_src_max - spec.q1_max
        assert abs(spec.q3_listed - diff) <= lpm_to_m3s(0.5) + 1e-12


def test_measured_alpha():
    assert measured_alpha(prototype("A")) == pytest.approx(116.0 / 118.0, rel=1e-12)
    assert measured_alpha(prototype("B")) == pytest.approx(133.5 / 144.0, rel=1e-12)
    assert measured_alpha(prototype("C")) == pytest.approx(145.6 / 148.0, rel=1e-12)
    assert measured_alpha(prototype("D")) == pytest.approx(115.3 / 117.0, rel=1e-12)


def test_blocking_curve_matches_knots():
    curve = blocking_curve()
    for q_lpm, f in DEFAULT_F_BLOCK_KNOTS:
        assert curve(q_lpm) == pytest.approx(f, rel=1e-12)
    # interpolation between the first two knots
    assert curve(1.85) == pytest.approx(0.985, rel=1e-12)


def test_calibrate_blocking_s3_closed_form():
    spec = prototype("A")
    alpha = measured_alpha(spec)
    q3 = alpha * spec.q_src_max
    q1_lpm = m3s_to_lpm(spec.q_src_max - q3)
    expect = spec.epsilon * CONSTS.rho_air * q3 ** 2 / blocking_curve()(q1_lpm)
    s3 = calibrate_blocking_s3(spec, blocking_curve(), CONSTS)
    assert s3 == pytest.approx(expect, rel=1e-12)
    assert s3 == pytest.approx(1.1779663299663298e-5, rel=1e-12)


def test_calibrated_s3_flips_exactly_at_pinch_off():
    spec = prototype("A")
    s3 = calibrate_blocking_s3(spec, blocking_curve(), CONSTS)
    alpha = measured_alpha(spec)
    q1 = (1 - alpha) * spec.q_src_max
    q3 = alpha * spec.q_src_max
    f1 = spec.epsilon * lever_force(q3, s3, CONSTS.rho_air)
    assert f1 == pytest.approx(blocking_curve()(m3s_to_lpm(q1)), rel=1e-12)


def test_listed_inversion_s3_closed_form():
    spec = prototype("A")
    expect = spec.epsilon * CONSTS.rho_air * spec.q3_listed ** 2 / spec.f1_listed
    s3 = listed_inversion_s3(spec, CONSTS)
    assert s3 == pytest.approx(expect, rel=1e-12)
    assert s3 == pytest.approx(1.1546402640264026e-5, rel=1e-12)


def test_reference_gamma():
    assert reference_gamma() == pytest.approx(44.0 / 116.0, rel=1e-12)


def test_prototype_configs_share_valve_geometry():
    ref = prototype_fcs_config("A")
    for label in "BCD":
        cfg = prototype_fcs_config(label)
        assert cfg.s3 == ref.s3
        assert cfg.f_rot == ref.f_rot
        assert cfg.gamma == ref.gamma
        assert cfg.alpha == pytest.approx(measured_alpha(prototype(label)), rel=1e-12)
        assert cfg.epsilon == prototype(label).epsilon


def test_prototype_a_reproduces_measured_switch_points():
    cfg = prototype_fcs_config("A")
    assert classify_state(lpm_to_m3s(8.0), cfg, CONSTS).name == "A"
    assert classify_state(lpm_to_m3s(8.2), cfg, CONSTS).name == "B"
    assert classify_state(lpm_to_m3s(117.9), cfg, CONSTS).name == "B"
    assert classify_state(lpm_to_m3s(118.1), cfg, CONSTS).name == "C"


def test_prototype_b_never_blocks():
    # no exhaust port: the lever cannot vent, the line never pinches off
    cfg = prototype_fcs_config("B")
    spec = prototype("B")
    q = spec.q_src_max
    alpha = measured_alpha(spec)
    f1 = cfg.epsilon * lever_force(alpha * q, cfg.s3, CONSTS.rho_air)
    f_need = blocking_force((1 - alpha) * q, cfg.f_block_curve)
    assert f1 < f_need


def test_default_system_wiring():
    system = default_system()
    assert system.fcs.alpha == pytest.approx(116.0 / 118.0, rel=1e-12)
    assert system.fcs.s3 == pytest.approx(1.1779663299663298e-5, rel=1e-12)
    assert system.hand.n_fingers == 2
    assert system.finger.finger_length == 0.08
    assert system.venturi.s_in == mm2_to_m2(20.0)
    assert system.venturi.s_t == mm2_to_m2(3.0)
    assert system.venturi.rho_lub == 789.0


def test_default_orifice_sized_for_activation():
    system = default_system()
    expect = size_orifice(
        lpm_to_m3s(44.0), system.venturi, system.consts
    )
    assert system.venturi.s_out == pytest.approx(expect, abs=2e-9)
    closed = 1.0 / math.sqrt(
        2.0 * system.venturi.rho_lub * CONSTS.g * system.venturi.h_t
        / (CONSTS.rho_air * lpm_to_m3s(44.0) ** 2)
        + 1.0 / system.venturi.s_in ** 2
    )
    assert system.venturi.s_out == pytest.approx(closed, abs=2e-9)


def test_f_rot_matches_low_switch_point():
    system = default_system()
    q3 = system.fcs.alpha * lpm_to_m3s(8.1)
    f3 = lever_force(q3, system.fcs.s3, CONSTS.rho_air)
    assert f3 == pytest.approx(system.fcs.f_rot, rel=1e-12)
