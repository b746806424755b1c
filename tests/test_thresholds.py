"""Closed-form operating points against a dense grid of the runtime predicate.

Every threshold the package reports is exact: the lever flip, the
pinch-off, the injection onset and the orifice size.  Here the
predicate the simulation runs, sampled every 0.02 L/min, checks them
over random switch and injector builds: a threshold is the predicate's
first sampled edge, at most one sample below it and never above it,
and the predicate itself must flip across t * (1 +- 1e-9).  The grid
assumes nothing about monotonicity, so a full inlet that starts and
then stops the injection shows up on it as an on-then-off edge.
"""

from dataclasses import replace
from itertools import chain

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
    injection_active,
    lubricant_column,
    q2_activation_threshold,
    size_orifice,
)

CONSTS = PhysConstants()
STEP = lpm_to_m3s(0.02)
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


@st.composite
def full_inlet_configs(draw) -> VenturiConfig:
    """Injectors with the full inlet: a 5-100 mm crest, source and
    exhaust areas of 0.1-3 s_in, the source's often narrow, and a source
    from 2000 Pa below to 300 Pa above ambient.  Their onsets land on
    the lever flip, above it, nowhere, or on an injection set that ends."""
    cfg = draw(venturi_configs())
    return replace(cfg, use_simplified_inlet=False, h_t=draw(st.floats(0.005, 0.1)),
                   s_src=draw(st.floats(0.1, 0.6) | st.floats(0.1, 3.0)) * cfg.s_in,
                   s_e=draw(st.floats(0.1, 3.0)) * cfg.s_in,
                   p_src=CONSTS.p_atm + draw(st.floats(-2000.0, 300.0)))


injectors = venturi_configs() | full_inlet_configs()


def _samples(hi: float):
    """0, STEP, 2 STEP, ... up to hi, then 1 % apart up to 10^5 hi."""
    return chain((i * STEP for i in range(int(hi / STEP) + 1)),
                 (hi * 1.01 ** j for j in range(1, 1158)))


def _on_grid(threshold, active, hi) -> None:
    """`threshold()` is the first edge of `active` sampled up to hi, or
    raises ConfigError where the samples show `active` turning on and
    then off again."""
    try:
        closed = threshold()
    except ConfigError:
        seq = (active(q) for q in _samples(hi))
        assert any(seq), "never on"
        assert not all(seq), "never off again"
        return
    edge = next((q for q in _samples(hi) if q <= hi and active(q)), None)
    if edge is None:
        # an onset within the last step below hi has no sample above it
        assert closed is None or closed > hi - STEP
        return
    assert closed is not None
    assert edge - STEP <= closed <= edge * (1 + NEAR)
    if closed > 0.0:
        assert not active(closed * (1 - NEAR))
        assert active(closed * (1 + NEAR))


@oracle
@given(fcs_configs())
def test_state_thresholds_are_the_first_grid_edges(cfg):
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
    _on_grid(lambda: q_ab, past_a, STATE_CEILING)
    _on_grid(lambda: q_bc, blocked, STATE_CEILING)


@oracle
@given(injectors)
def test_q2_onset_is_the_first_grid_edge(cfg):
    def active(q2):
        return injection_active(lubricant_column(q2, q2, cfg, CONSTS), cfg.h_t)

    _on_grid(lambda: q2_activation_threshold(cfg, CONSTS), active, Q2_CEILING)


def _activation_on_grid(cfg: VenturiConfig, fcs: FcsConfig) -> None:
    def active(q_src):
        q2 = steady_outputs(q_src, fcs, CONSTS).q2
        return injection_active(lubricant_column(q_src, q2, cfg, CONSTS), cfg.h_t)

    _on_grid(lambda: activation_threshold(cfg, fcs, CONSTS), active, ACTIVATION_CEILING)


@oracle
@given(injectors, fcs_configs())
def test_activation_is_the_first_grid_edge(cfg, fcs):
    _activation_on_grid(cfg, fcs)


@oracle
@given(full_inlet_configs())
def test_full_inlet_activation_on_the_reference_switch_is_the_first_grid_edge(cfg):
    # the reference lever flips at 8.1 L/min, so the onsets spread over
    # the flip, above it, nowhere and injection sets that end
    _activation_on_grid(cfg, default_system().fcs)


def test_full_inlet_that_stops_injecting_is_rejected():
    # a narrow source below ambient: the column tops the crest as soon as
    # the lever opens the line, and the source suction outgrows the
    # orifice's as the flow rises
    sys_ = default_system()
    cfg = replace(sys_.venturi, use_simplified_inlet=False, s_src=0.3 * sys_.venturi.s_in,
                  s_e=2.0 * sys_.venturi.s_in, p_src=CONSTS.p_atm - 1000.0)

    def active(q_src):
        q2 = steady_outputs(q_src, sys_.fcs, CONSTS).q2
        return injection_active(lubricant_column(q_src, q2, cfg, CONSTS), cfg.h_t)

    with pytest.raises(ConfigError, match="not monotone"):
        activation_threshold(cfg, sys_.fcs, CONSTS)
    with pytest.raises(ConfigError, match="not monotone"):
        q2_activation_threshold(cfg, CONSTS)
    seq = [active(lpm_to_m3s(q)) for q in (5.0, 10.0, 150.0)]
    assert seq == [False, True, False]


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
@given(full_inlet_configs(), st.floats(5.0, 80.0))
def test_sized_orifice_balances_full_inlet(full, target_lpm):
    target = lpm_to_m3s(target_lpm)
    try:
        s_out = size_orifice(target, full, CONSTS)
    except InfeasibleDesignError:
        # a source this far below ambient beats the column head, or only
        # a lossy orifice or a source wider than the inlet needs an area
        # at or above the inlet's
        head = full.rho_lub * CONSTS.g * full.h_t
        assert (head + full.p_src - CONSTS.p_atm <= 0 or full.discharge_coeff < 1.0
                or full.s_src >= full.s_in)
        return
    sized = replace(full, s_out=s_out)
    # the source flow is taken equal to q2, as design-search reads it back
    assert lubricant_column(target, target, sized, CONSTS) == pytest.approx(full.h_t, rel=NEAR)
    assert q2_activation_threshold(sized, CONSTS) == pytest.approx(target, rel=NEAR)


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
