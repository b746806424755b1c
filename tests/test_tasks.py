"""Grasp, placement, and pivot task rules built on fingertip force."""

import numpy as np
import pytest

from flowhand.core import PhysConstants
from flowhand.tasks import (
    FrictionState,
    FrictionTracker,
    GraspScene,
    HandConfig,
    PlacementOutcome,
    can_grasp,
    payload,
    pivot_feasible,
    placement_disturbance,
    placement_slip,
)

CFG = HandConfig()
G = PhysConstants().g


def test_payload_reference_point():
    # two fingers at 0.38 N tip force on the high-friction surface
    assert payload(0.38, CFG, CFG.mu_high) == pytest.approx(1.52, rel=1e-12)


def test_payload_zero_and_low_friction():
    assert payload(0.0, CFG, CFG.mu_high) == 0.0
    assert payload(0.38, CFG, CFG.mu_low) == pytest.approx(0.152, rel=1e-12)


def test_payload_monotone_in_each_factor():
    base = payload(0.3, CFG, 1.0)
    assert payload(0.6, CFG, 1.0) == pytest.approx(2 * base, rel=1e-12)
    assert payload(0.3, CFG, 2.0) == pytest.approx(2 * base, rel=1e-12)
    four = HandConfig(n_fingers=4)
    assert payload(0.3, four, 1.0) == pytest.approx(2 * base, rel=1e-12)


def test_payload_rejects_negative_force():
    with pytest.raises(ValueError):
        payload(-0.1, CFG, CFG.mu_high)


def test_can_grasp_reference_object():
    scene = GraspScene(object_width=0.05, object_mass=0.1)
    assert can_grasp(scene, 0.38, CFG)


def test_can_grasp_width_gate_is_strict():
    at_limit = GraspScene(object_width=CFG.max_opening, object_mass=0.01)
    assert not can_grasp(at_limit, 0.38, CFG)
    inside = GraspScene(object_width=CFG.max_opening - 0.001, object_mass=0.01)
    assert can_grasp(inside, 0.38, CFG)


def test_can_grasp_weight_gate():
    heavy = GraspScene(object_width=0.05, object_mass=0.2)
    # 0.2 kg weighs ~1.96 N, above the 1.52 N payload
    assert not can_grasp(heavy, 0.38, CFG)
    boundary_mass = payload(0.38, CFG, CFG.mu_high) / G
    exact = GraspScene(object_width=0.05, object_mass=boundary_mass)
    assert can_grasp(exact, 0.38, CFG)


def test_can_grasp_uses_given_friction():
    scene = GraspScene(object_width=0.05, object_mass=0.1)
    assert not can_grasp(scene, 0.38, CFG, mu=CFG.mu_low)


def test_placement_slip_lubricated_grip():
    scene = GraspScene(object_width=0.05, object_mass=0.12)
    out = placement_slip(scene, 0.38, CFG, FrictionState.LOW)
    assert out is PlacementOutcome.SLIDES_IN_GRIP


def test_placement_hold_dry_grip():
    scene = GraspScene(object_width=0.05, object_mass=0.12)
    out = placement_slip(scene, 0.38, CFG, FrictionState.HIGH)
    assert out is PlacementOutcome.HELD_FIXED


def test_placement_weightless_object_never_slides():
    scene = GraspScene(object_width=0.05, object_mass=0.0)
    assert placement_slip(scene, 0.38, CFG, FrictionState.LOW) is PlacementOutcome.HELD_FIXED


def test_placement_boundary_holds():
    # weight exactly at the low-friction payload: friction still carries it
    mass = payload(0.38, CFG, CFG.mu_low) / G
    scene = GraspScene(object_width=0.05, object_mass=mass)
    assert placement_slip(scene, 0.38, CFG, FrictionState.LOW) is PlacementOutcome.HELD_FIXED
    heavier = GraspScene(object_width=0.05, object_mass=mass * (1 + 1e-9))
    assert placement_slip(heavier, 0.38, CFG, FrictionState.LOW) is PlacementOutcome.SLIDES_IN_GRIP


def test_placement_disturbance_proxy():
    assert placement_disturbance(PlacementOutcome.SLIDES_IN_GRIP) == 0.0
    assert placement_disturbance(PlacementOutcome.HELD_FIXED) == 1.0


def test_pivot_friction_regimes():
    assert pivot_feasible(CFG.mu_low, CFG)
    assert not pivot_feasible(CFG.mu_high, CFG)
    assert pivot_feasible(CFG.mu_pivot_crit, CFG)        # boundary still turns
    assert not pivot_feasible(CFG.mu_pivot_crit + 1e-9, CFG)


def test_hand_config_validation():
    with pytest.raises(ValueError):
        HandConfig(n_fingers=1)
    with pytest.raises(ValueError):
        HandConfig(mu_low=0.0)
    with pytest.raises(ValueError):
        HandConfig(mu_low=2.0, mu_high=2.0)
    with pytest.raises(ValueError):
        HandConfig(mu_low=2.5, mu_high=2.0)
    with pytest.raises(ValueError):
        HandConfig(max_opening=0.0)
    with pytest.raises(ValueError):
        HandConfig(mu_pivot_crit=-1.0)


def test_scene_validation():
    with pytest.raises(ValueError):
        GraspScene(object_width=0.0, object_mass=0.1)
    with pytest.raises(ValueError):
        GraspScene(object_width=0.05, object_mass=-0.1)
    GraspScene(object_width=0.05, object_mass=0.0)    # massless object is fine


def test_mu_lookup():
    assert CFG.mu(FrictionState.HIGH) == CFG.mu_high
    assert CFG.mu(FrictionState.LOW) == CFG.mu_low


def test_tracker_hysteresis():
    tracker = FrictionTracker()
    assert tracker.state is FrictionState.HIGH
    assert tracker.record(False) is FrictionState.HIGH
    assert tracker.record(True) is FrictionState.LOW
    # injection stopping does not restore the surface
    assert tracker.record(False) is FrictionState.LOW
    tracker.release()
    assert tracker.state is FrictionState.HIGH


def test_tracker_fresh_grasp_after_release():
    tracker = FrictionTracker()
    tracker.record(True)
    tracker.release()
    assert tracker.record(False) is FrictionState.HIGH
    assert tracker.record(True) is FrictionState.LOW


def test_payload_random_never_negative():
    rng = np.random.default_rng(7)
    for _ in range(200):
        f = float(rng.uniform(0.0, 1.0))
        mu = float(rng.uniform(0.05, 3.0))
        n = int(rng.integers(2, 6))
        w = payload(f, HandConfig(n_fingers=n), mu)
        assert w >= 0.0
        assert w == pytest.approx(f * n * mu, rel=1e-12)
