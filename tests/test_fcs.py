"""Flow-switching lever: split, jet force, blocking, state classification."""

import math
from dataclasses import replace

import numpy as np
import pytest

from flowhand.config import apply_override
from flowhand.core import PhysConstants, PiecewiseLinearCurve, lpm_to_m3s
from flowhand.fcs import (
    FcsConfig,
    FcsState,
    blocking_force,
    calibrate_s3,
    classify_state,
    lever_force,
    steady_outputs,
)
from flowhand.system import blocking_curve, default_system, measured_alpha, prototype

CONSTS = PhysConstants()


def prototype_fcs_config(label: str) -> FcsConfig:
    """The reference switch with one table row's own alpha and epsilon."""
    spec = prototype(label)
    return replace(default_system().fcs, alpha=measured_alpha(spec), epsilon=spec.epsilon)


def make_config(**overrides) -> FcsConfig:
    base = dict(
        alpha=116.0 / 118.0,
        epsilon=2.6,
        s3=1.1546402640264025e-5,
        f_rot=1.8e-3,
        f_block_curve=blocking_curve(),
        gamma=44.0 / 116.0,
    )
    base.update(overrides)
    return FcsConfig(**base)


def test_lever_force_momentum_flux():
    # f3 = rho q3^2 / s3; jet of 116 L/min through the inverted nozzle
    f3 = lever_force(lpm_to_m3s(116.0), 1.1546402640264025e-5, 1.2)
    assert f3 == pytest.approx(1.01 / 2.6, rel=1e-9)
    assert lever_force(0.0, 1e-5, 1.2) == 0.0


def test_lever_force_quadratic_in_flow():
    f_1 = lever_force(lpm_to_m3s(10.0), 1e-5, 1.2)
    f_2 = lever_force(lpm_to_m3s(20.0), 1e-5, 1.2)
    assert f_2 == pytest.approx(4.0 * f_1, rel=1e-12)


def test_calibrate_s3_closed_form():
    # epsilon rho q3^2 / f1 with the published operating point
    s3 = calibrate_s3(2.6, 1.2, lpm_to_m3s(116.0), 1.01)
    expect = 2.6 * 1.2 * (116.0 / 60000.0) ** 2 / 1.01
    assert s3 == pytest.approx(expect, rel=1e-12)
    assert s3 == pytest.approx(1.1546402640264025e-5, rel=1e-12)


def test_calibrate_s3_round_trips_through_force():
    s3 = calibrate_s3(2.6, 1.2, lpm_to_m3s(116.0), 1.01)
    f1 = 2.6 * lever_force(lpm_to_m3s(116.0), s3, 1.2)
    assert f1 == pytest.approx(1.01, rel=1e-12)


def test_blocking_force_uses_curve_in_lpm():
    curve = blocking_curve()
    assert blocking_force(lpm_to_m3s(2.0), curve) == pytest.approx(0.99, rel=1e-9)
    assert blocking_force(lpm_to_m3s(10.5), curve) == pytest.approx(1.34, rel=1e-9)


def test_steady_outputs_pinch_boundary_inclusive():
    # the lever closes the finger line once f1 reaches f_block: a flat
    # blocking curve at exactly f1 gives state C, one ulp above it B
    q = lpm_to_m3s(50.0)
    f1 = steady_outputs(q, make_config(), CONSTS).f1

    def state(f_block):
        cfg = make_config(f_block_curve=PiecewiseLinearCurve(((0.0, f_block),)))
        return steady_outputs(q, cfg, CONSTS).state

    assert state(f1) is FcsState.C
    assert state(1.1 * f1) is FcsState.B
    assert state(math.nextafter(f1, math.inf)) is FcsState.B
    assert state(0.9 * f1) is FcsState.C


def test_classify_state_thresholds():
    cfg = prototype_fcs_config("A")
    assert classify_state(lpm_to_m3s(5.0), cfg, CONSTS) is FcsState.A
    assert classify_state(lpm_to_m3s(8.0), cfg, CONSTS) is FcsState.A
    assert classify_state(lpm_to_m3s(8.2), cfg, CONSTS) is FcsState.B
    assert classify_state(lpm_to_m3s(50.0), cfg, CONSTS) is FcsState.B
    assert classify_state(lpm_to_m3s(117.0), cfg, CONSTS) is FcsState.B
    assert classify_state(lpm_to_m3s(119.0), cfg, CONSTS) is FcsState.C
    assert classify_state(lpm_to_m3s(150.0), cfg, CONSTS) is FcsState.C


def test_zero_flow_is_state_a():
    assert classify_state(0.0, make_config(), CONSTS) is FcsState.A
    out = steady_outputs(0.0, make_config(), CONSTS)
    assert out.q1 == out.q3 == 0.0


def test_steady_outputs_state_a():
    cfg = prototype_fcs_config("A")
    out = steady_outputs(lpm_to_m3s(5.0), cfg, CONSTS)
    assert out.state is FcsState.A
    assert out.q2 == 0.0
    assert out.q1 == pytest.approx(lpm_to_m3s(5.0) * (1 - cfg.alpha), rel=1e-12)
    assert out.q_exhaust == pytest.approx(lpm_to_m3s(5.0) * cfg.alpha, rel=1e-12)


def test_steady_outputs_state_b_splits_injection():
    cfg = prototype_fcs_config("A")
    out = steady_outputs(lpm_to_m3s(50.0), cfg, CONSTS)
    assert out.state is FcsState.B
    assert out.q1 > 0.0
    assert out.q3 == pytest.approx(lpm_to_m3s(50.0) * cfg.alpha, rel=1e-12)
    assert out.f1 == pytest.approx(cfg.epsilon * out.f3, rel=1e-12)
    assert out.q2 == pytest.approx(cfg.gamma * out.q3, rel=1e-12)
    assert out.q_exhaust == pytest.approx((1 - cfg.gamma) * out.q3, rel=1e-12)


def test_steady_outputs_state_c_seals_finger_line():
    cfg = prototype_fcs_config("A")
    out = steady_outputs(lpm_to_m3s(150.0), cfg, CONSTS)
    assert out.state is FcsState.C
    assert out.q1 == 0.0
    assert out.q2 > 0.0


def _random_config(rng) -> FcsConfig:
    knots = ((0.5, float(rng.uniform(0.5, 1.0))),
             (20.0, float(rng.uniform(1.0, 2.0))))
    return FcsConfig(
        alpha=float(rng.uniform(0.05, 0.98)),
        epsilon=float(rng.uniform(1.0, 4.0)),
        s3=float(rng.uniform(5e-6, 5e-5)),
        f_rot=float(rng.uniform(1e-4, 5e-3)),
        f_block_curve=PiecewiseLinearCurve(knots),
        gamma=float(rng.uniform(0.05, 1.0)),
    )


def test_conservation_over_random_configs():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        cfg = _random_config(rng)
        q_src = lpm_to_m3s(float(rng.uniform(0.0, 200.0)))
        out = steady_outputs(q_src, cfg, CONSTS)
        assert out.q1 + out.q2 + out.q_exhaust == pytest.approx(q_src, rel=1e-9, abs=1e-15)
        assert out.q1 >= 0 and out.q2 >= 0 and out.q_exhaust >= 0


def test_state_monotone_in_source_flow():
    rng = np.random.default_rng(43)
    flows = np.linspace(0.0, lpm_to_m3s(200.0), 120)
    for _ in range(100):
        cfg = _random_config(rng)
        states = [classify_state(float(q), cfg, CONSTS) for q in flows]
        assert all(b >= a for a, b in zip(states, states[1:]))


def test_calibrate_f_rot_places_flip():
    # the config's q_ab_lpm sets f_rot to the jet force at that flow
    cfg = make_config()
    tuned = apply_override(replace(default_system(), fcs=cfg), "fcs.q_ab_lpm", 8.1).fcs
    assert tuned == replace(
        cfg, f_rot=lever_force(cfg.alpha * lpm_to_m3s(8.1), cfg.s3, CONSTS.rho_air))
    assert classify_state(lpm_to_m3s(8.0), tuned, CONSTS) is FcsState.A
    assert classify_state(lpm_to_m3s(8.2), tuned, CONSTS) is not FcsState.A


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(alpha=1.0)
    with pytest.raises(ValueError):
        make_config(alpha=0.0)
    with pytest.raises(ValueError):
        make_config(epsilon=0.0)
    with pytest.raises(ValueError):
        make_config(s3=0.0)
    with pytest.raises(ValueError):
        make_config(f_rot=-1e-3)
    with pytest.raises(ValueError):
        make_config(gamma=0.0)
    with pytest.raises(ValueError):
        make_config(gamma=1.2)
    # alpha^2 underflows, or epsilon / s3 overflows: the pinch
    # coefficient epsilon * alpha^2 / s3 is 0 or inf
    for bad in (dict(alpha=1e-300), dict(alpha=5e-324), dict(epsilon=1e300, s3=1e-10)):
        with pytest.raises(ValueError, match="pinch coefficient"):
            make_config(**bad)


def test_negative_flow_rejected():
    with pytest.raises(ValueError, match="q_src must be >= 0"):
        steady_outputs(-1.0, make_config(), CONSTS)
    with pytest.raises(ValueError):
        lever_force(-1.0, 1e-5, 1.2)
