"""Closed-form operating points against bisection as an independent oracle.

Every threshold the package reports is exact: the lever flip, the
pinch-off, the injection onset and the orifice size.  Here bisection on
the simulated predicate checks them over random switch and injector
builds, and the predicate itself must flip across t * (1 +- 1e-9).
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowhand.config import ConfigError
from flowhand.core import PhysConstants, PiecewiseLinearCurve, lpm_to_m3s, m3s_to_lpm
from flowhand.fcs import (
    FcsConfig,
    FcsState,
    classify_state,
    lever_flip_flow,
    pinch_crossings,
    steady_outputs,
)
from flowhand.scenario import state_thresholds
from flowhand.system import default_system
from flowhand.venturi import (
    InfeasibleDesignError,
    VenturiConfig,
    activation_threshold,
    bisect_onset,
    injection_active,
    lubricant_column,
    q2_activation_threshold,
    size_orifice,
)

CONSTS = PhysConstants()
RES = lpm_to_m3s(0.01)
STATE_CEILING = lpm_to_m3s(150.0)
Q2_CEILING = lpm_to_m3s(100.0)
ACTIVATION_CEILING = lpm_to_m3s(200.0)
NEAR = 1e-9

oracle = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@st.composite
def curves(draw) -> PiecewiseLinearCurve:
    """Non-decreasing blocking curves, from flat to steep."""
    n = draw(st.integers(1, 4))
    x = draw(st.floats(0.5, 3.0))
    y = draw(st.floats(0.3, 1.5))
    knots = [(x, y)]
    for _ in range(n - 1):
        x += draw(st.floats(0.05, 8.0))
        y += draw(st.floats(0.0, 3.0))
        knots.append((x, y))
    return PiecewiseLinearCurve(tuple(knots))


@st.composite
def fcs_configs(draw) -> FcsConfig:
    return FcsConfig(
        alpha=draw(st.floats(0.7, 0.995)),
        epsilon=draw(st.floats(1.2, 3.5)),
        s3=draw(st.floats(5e-6, 5e-5)),
        # low onsets, and onsets late enough to block at once or never flip
        f_rot=draw(st.one_of(st.floats(5e-4, 5e-3), st.floats(0.1, 1.0))),
        f_block_curve=draw(curves()),
        gamma=draw(st.floats(0.1, 0.9)),
    )


@st.composite
def venturi_configs(draw) -> VenturiConfig:
    s_in = draw(st.floats(1e-5, 4e-5))
    return VenturiConfig(
        s_in=s_in,
        s_out=draw(st.floats(0.25, 0.97)) * s_in,
        s_t=draw(st.floats(1e-6, 5e-6)),
        h_t=draw(st.floats(0.01, 0.30)),
        discharge_coeff=draw(st.floats(0.6, 1.0)),
    )


def _agrees(closed, active, hi) -> None:
    """The closed form matches bisection and sits on the predicate's flip."""
    bisected = bisect_onset(active, 0.0, hi, RES)
    assert (closed is None) == (bisected is None)
    if closed is not None:
        assert closed * (1 - NEAR) <= bisected <= closed + RES
        assert not active(closed * (1 - NEAR))
        assert active(closed * (1 + NEAR))


@oracle
@given(fcs_configs())
def test_state_thresholds_match_bisection(cfg):
    def past_a(q):
        return classify_state(q, cfg, CONSTS) is not FcsState.A

    def blocked(q):
        return classify_state(q, cfg, CONSTS) is FcsState.C

    try:
        q_ab, q_bc = state_thresholds(cfg, CONSTS)
    except ConfigError:
        # the state really does leave C again above the lever flip
        q_ab = lever_flip_flow(cfg, CONSTS)
        cuts = [q_ab, *(q for q in pinch_crossings(cfg, CONSTS) if q > q_ab)]
        cuts.append(2.0 * cuts[-1])
        seq = [blocked(0.5 * (a + b)) for a, b in zip(cuts, cuts[1:])]
        assert any(a and not b for a, b in zip(seq, seq[1:]))
        return
    _agrees(q_ab, past_a, STATE_CEILING)
    _agrees(q_bc, blocked, STATE_CEILING)


@oracle
@given(venturi_configs())
def test_q2_onset_matches_bisection(cfg):
    def active(q2):
        return injection_active(lubricant_column(q2, q2, cfg, CONSTS), cfg.h_t)

    _agrees(q2_activation_threshold(cfg, CONSTS), active, Q2_CEILING)


@oracle
@given(venturi_configs(), fcs_configs())
def test_activation_matches_bisection(cfg, fcs):
    def active(q_src):
        q2 = steady_outputs(q_src, fcs, CONSTS).q2
        return injection_active(lubricant_column(q_src, q2, cfg, CONSTS), cfg.h_t)

    _agrees(activation_threshold(cfg, fcs, CONSTS), active, ACTIVATION_CEILING)


@oracle
@given(venturi_configs(), st.floats(5.0, 80.0))
def test_sized_orifice_puts_onset_on_target(cfg, target_lpm):
    target = lpm_to_m3s(target_lpm)
    try:
        s_out = size_orifice(target, cfg, CONSTS)
    except InfeasibleDesignError:
        # only a lossy orifice can need an area at or above the inlet's
        assert cfg.discharge_coeff < 1.0
        return
    got = q2_activation_threshold(replace(cfg, s_out=s_out), CONSTS)
    assert got == pytest.approx(target, rel=NEAR)


@oracle
@given(venturi_configs(), st.floats(5.0, 80.0), st.floats(1.0, 3.0))
def test_sized_orifice_balances_full_inlet(cfg, target_lpm, src_ratio):
    full = replace(cfg, use_simplified_inlet=False, s_src=2.0 * cfg.s_in,
                   s_e=2.0 * cfg.s_in, p_src=CONSTS.p_atm)
    target = lpm_to_m3s(target_lpm)
    q_src = src_ratio * target
    try:
        s_out = size_orifice(target, full, CONSTS, q_src=q_src)
    except InfeasibleDesignError:
        return
    h_l = lubricant_column(q_src, target, replace(full, s_out=s_out), CONSTS)
    assert h_l == pytest.approx(cfg.h_t, rel=NEAR)


@oracle
@given(st.floats(0.3, 0.9), st.floats(1.02, 1.2), st.floats(0.5, 10.0), st.floats(0.5, 5.0))
def test_steep_bump_in_blocking_curve_is_rejected(y_lo, start, width, extra):
    # Default lever: pinch force 0.99 N * (q / 118 L/min)^2 at finger-line
    # flow q / 59.  The flat part at y_lo is crossed at u1; a steep rise
    # just above u1 overtakes the pinch force again, which catches up
    # only at a much higher flow: three crossings.
    fcs = default_system().fcs
    u1 = 118.0 * (y_lo / 0.99) ** 0.5
    u_a = start * u1
    u_b = u_a + width
    y_hi = 1.5 * 0.99 * (u_b / 118.0) ** 2 + extra
    curve = PiecewiseLinearCurve(((u_a / 59.0, y_lo), (u_b / 59.0, y_hi),
                                  (u_b / 59.0 + 1.0, y_hi)))
    with pytest.raises(ConfigError, match="not monotone"):
        state_thresholds(replace(fcs, f_block_curve=curve), CONSTS)


def test_lever_that_blocks_as_it_rotates_jumps_from_a_to_c():
    # A blocking curve this low is beaten by the pinch force the moment
    # the lever rotates, so q_bc == q_ab and the state skips B: a valid
    # design, not a config error.
    curve = PiecewiseLinearCurve(((1.7, 0.001), (10.5, 0.002)))
    fcs = replace(default_system().fcs, f_block_curve=curve)
    q_ab, q_bc = state_thresholds(fcs, CONSTS)
    assert q_bc == q_ab
    assert m3s_to_lpm(q_ab) == pytest.approx(8.1, rel=1e-9)
    states = [classify_state(lpm_to_m3s(q), fcs, CONSTS) for q in (5.0, 8.0, 8.2, 50.0)]
    assert states == [FcsState.A, FcsState.A, FcsState.C, FcsState.C]
    assert classify_state(q_ab * (1 - NEAR), fcs, CONSTS) is FcsState.A
    assert classify_state(q_ab * (1 + NEAR), fcs, CONSTS) is FcsState.C
