"""Soft finger: flow-to-pressure map, bending, tip force, mark posture."""

import math

import numpy as np
import pytest

from flowhand.core import PiecewiseLinearCurve, kpa_to_pa, lpm_to_m3s
from flowhand.finger import (
    FingerConfig,
    bending_radius,
    chamber_pressure,
    mean_displacement,
    posture,
    tip_force,
)

CFG = FingerConfig()


def test_chamber_pressure_anchors():
    assert chamber_pressure(0.0, CFG) == 0.0
    assert chamber_pressure(lpm_to_m3s(50.0), CFG) == pytest.approx(kpa_to_pa(32.3), rel=1e-9)
    assert chamber_pressure(lpm_to_m3s(25.0), CFG) == pytest.approx(kpa_to_pa(16.15), rel=1e-9)


def test_chamber_pressure_capped():
    # the default map extrapolates past 50 L/min but the chamber tops out
    assert chamber_pressure(lpm_to_m3s(150.0), CFG) == CFG.p_max


def test_chamber_pressure_monotone():
    flows = np.linspace(0.0, lpm_to_m3s(150.0), 100)
    ps = [chamber_pressure(float(q), CFG) for q in flows]
    assert all(b >= a for a, b in zip(ps, ps[1:]))


def test_bending_radius_straight_at_zero():
    assert bending_radius(0.0, CFG) == math.inf


def test_bending_radius_half_circle_anchor():
    # default gain makes a half circle at 32.3 kPa: r = L / pi
    r = bending_radius(kpa_to_pa(32.3), CFG)
    assert r == pytest.approx(CFG.finger_length / math.pi, rel=1e-12)
    assert r == pytest.approx(0.0255, rel=2e-3)


def test_bending_radius_decreasing():
    assert bending_radius(kpa_to_pa(20.0), CFG) > bending_radius(kpa_to_pa(30.0), CFG)


def test_pressure_bounds_enforced():
    with pytest.raises(ValueError):
        bending_radius(kpa_to_pa(36.0), CFG)
    with pytest.raises(ValueError):
        bending_radius(-1.0, CFG)
    with pytest.raises(ValueError):
        tip_force(kpa_to_pa(36.0), CFG)
    with pytest.raises(ValueError):
        posture(kpa_to_pa(36.0), CFG)


def test_tip_force_anchors():
    assert tip_force(0.0, CFG) == 0.0
    assert tip_force(kpa_to_pa(32.3), CFG) == pytest.approx(0.38, rel=1e-12)
    assert tip_force(kpa_to_pa(16.15), CFG) == pytest.approx(0.19, rel=1e-12)


def test_linear_maps_homogeneous():
    p = kpa_to_pa(12.0)
    assert tip_force(2 * p, CFG) == pytest.approx(2 * tip_force(p, CFG), rel=1e-12)
    k1 = 1.0 / bending_radius(p, CFG)
    k2 = 1.0 / bending_radius(2 * p, CFG)
    assert k2 == pytest.approx(2 * k1, rel=1e-12)


def test_straight_posture_spacing():
    pose = posture(0.0, CFG)
    marks = np.asarray(pose.marks)
    assert marks.shape == (8, 2)
    assert pose.r == math.inf
    assert np.allclose(marks[:, 1], 0.0)
    gaps = np.diff(marks[:, 0])
    assert np.allclose(gaps, CFG.finger_length / 7.0)


def test_half_circle_tip_position():
    # kappa L = pi: the tip sits across the bend diameter, 2r from the base
    pose = posture(kpa_to_pa(32.3), CFG)
    tip = pose.marks[-1]
    assert np.hypot(*tip) == pytest.approx(2.0 * pose.r, rel=1e-12)
    assert tip[0] == pytest.approx(0.0, abs=1e-12)
    assert tip[1] == pytest.approx(2.0 * pose.r, rel=1e-12)


def test_marks_lie_on_circle():
    for p_kpa in (5.0, 12.5, 32.3, 35.0):
        pose = posture(kpa_to_pa(p_kpa), CFG)
        center = np.array([0.0, pose.r])
        radii = np.linalg.norm(np.asarray(pose.marks) - center, axis=1)
        assert np.all(np.abs(radii - pose.r) < 1e-9)


def test_marks_arc_spacing_uniform():
    pose = posture(kpa_to_pa(20.0), CFG)
    kappa = 1.0 / pose.r
    # angle subtended between consecutive marks is kappa * L / 7
    marks = np.asarray(pose.marks)
    angles = np.arctan2(marks[:, 0], pose.r - marks[:, 1])
    gaps = np.diff(np.unwrap(angles))
    assert np.allclose(gaps, kappa * CFG.finger_length / 7.0, atol=1e-12)


def test_chord_never_exceeds_arc():
    for p_kpa in (0.0, 3.0, 18.0, 35.0):
        pose = posture(kpa_to_pa(p_kpa), CFG)
        chord = float(np.hypot(*pose.marks[-1]))
        assert chord <= CFG.finger_length + 1e-12
        if p_kpa == 0.0:
            assert chord == pytest.approx(CFG.finger_length, rel=1e-12)
        else:
            assert chord < CFG.finger_length


def test_mean_displacement_identical_poses():
    pose = posture(kpa_to_pa(20.0), CFG)
    assert mean_displacement(pose, pose) == 0.0


def test_mean_displacement_translation():
    from dataclasses import replace
    pose = posture(kpa_to_pa(20.0), CFG)
    moved = replace(pose, marks=tuple((x + 1e-3, y) for x, y in pose.marks))
    assert mean_displacement(pose, moved) == pytest.approx(1e-3, rel=1e-12)


def test_mean_displacement_arithmetic_mean():
    from dataclasses import replace
    pose = posture(0.0, CFG)
    shifts = np.arange(1.0, 9.0) * 1e-3    # marks 1..8 move 1..8 mm
    moved = replace(pose, marks=tuple((x, y + d) for (x, y), d in zip(pose.marks, shifts)))
    assert mean_displacement(pose, moved) == pytest.approx(4.5e-3, rel=1e-12)


def test_mark_count_mismatch_rejected():
    small = posture(0.0, FingerConfig(n_marks=4))
    with pytest.raises(ValueError):
        mean_displacement(small, posture(0.0, CFG))


def test_config_validation():
    with pytest.raises(ValueError):
        FingerConfig(finger_length=0.0)
    with pytest.raises(ValueError):
        FingerConfig(p_max=0.0)
    with pytest.raises(ValueError):
        FingerConfig(n_marks=1)
    with pytest.raises(ValueError):
        # map must start from zero pressure at zero flow
        FingerConfig(pressure_map=PiecewiseLinearCurve(((0.0, 5.0), (50.0, 10.0))))
    with pytest.raises(ValueError):
        # map must not decrease
        FingerConfig(pressure_map=PiecewiseLinearCurve(((0.0, 0.0), (25.0, 9.0), (50.0, 3.0))))
