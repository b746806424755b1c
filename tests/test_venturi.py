"""Venturi injection circuit: suction, column rise, activation, sizing."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from flowhand.core import PhysConstants, lpm_to_m3s, m3s_to_lpm
from flowhand.system import default_system
from flowhand.venturi import (
    InfeasibleDesignError,
    VenturiConfig,
    activation_threshold,
    injection_active,
    lubricant_column,
    orifice_pressure_drop,
    q2_activation_threshold,
    size_exhaust,
    size_orifice,
)

CONSTS = PhysConstants()


def make_config(**overrides) -> VenturiConfig:
    base = dict(s_in=2e-5, s_out=1.618e-5, s_t=3e-6, h_t=0.055)
    base.update(overrides)
    return VenturiConfig(**base)


def full_inlet(**overrides) -> VenturiConfig:
    base = dict(use_simplified_inlet=False, s_src=2e-5, s_e=2e-5, p_src=CONSTS.p_atm)
    base.update(overrides)
    return make_config(**base)


def test_pressure_drop_zero_flow():
    assert orifice_pressure_drop(0.0, 2e-5, 1e-5, 1.2) == 0.0


def test_pressure_drop_no_constriction():
    assert orifice_pressure_drop(lpm_to_m3s(44.0), 2e-5, 2e-5, 1.2) == 0.0


def test_pressure_drop_at_design_point():
    # Delta p = rho q2^2 (1/s_out^2 - 1/s_in^2) / 2 at the sized orifice
    q2 = lpm_to_m3s(44.0)
    s_out = 1.6181031660101627e-5
    expect = 1.2 * q2 ** 2 * (1.0 / s_out ** 2 - 1.0 / (2e-5) ** 2) / 2.0
    dp = orifice_pressure_drop(q2, 2e-5, s_out, 1.2)
    assert dp == pytest.approx(expect, rel=1e-12)
    assert dp == pytest.approx(425.7, rel=1e-3)


def test_pressure_drop_rejects_reversed_sections():
    with pytest.raises(ValueError):
        orifice_pressure_drop(1e-3, 1e-5, 2e-5, 1.2)


def test_pressure_drop_strictly_increasing():
    rng = np.random.default_rng(3)
    for _ in range(100):
        s_in = float(rng.uniform(1e-5, 5e-5))
        s_out = float(rng.uniform(0.2, 0.95)) * s_in
        flows = np.sort(rng.uniform(0.0, lpm_to_m3s(120.0), 20))
        flows = np.unique(flows)
        drops = [orifice_pressure_drop(float(q), s_in, s_out, 1.2) for q in flows]
        assert all(b > a for a, b in zip(drops, drops[1:]))
        # and increasing in 1/s_out^2 at fixed flow
        tighter = orifice_pressure_drop(float(flows[-1]), s_in, 0.9 * s_out, 1.2)
        assert tighter > drops[-1]


def test_suction_regardless_of_flow():
    # any constriction pulls p_out below p_in whenever air moves
    rng = np.random.default_rng(4)
    for _ in range(50):
        cfg = make_config()
        q2 = lpm_to_m3s(float(rng.uniform(0.1, 100.0)))
        delta_p = orifice_pressure_drop(q2, cfg.s_in, cfg.s_out, CONSTS.rho_air)
        assert delta_p > 0
        # p_in is 0 gauge, so the column rises by the whole drop
        h_l = lubricant_column(q2, q2, cfg, CONSTS)
        assert h_l > 0
        assert h_l == pytest.approx(delta_p / (cfg.rho_lub * CONSTS.g), rel=1e-12)


def test_inlet_pressure_simplified_is_zero():
    # the vented inlet adds nothing: the column is the orifice drop alone,
    # whatever the source flow around the line
    cfg = make_config()
    q2 = lpm_to_m3s(44.0)
    dp = orifice_pressure_drop(q2, cfg.s_in, cfg.s_out, CONSTS.rho_air)
    for q_lpm in (44.0, 118.0, 150.0):
        h_l = lubricant_column(lpm_to_m3s(q_lpm), q2, cfg, CONSTS)
        assert h_l == pytest.approx(dp / (cfg.rho_lub * CONSTS.g), rel=1e-12)


def test_inlet_pressure_full_static_no_flow():
    # a source at ambient, as wide as the inlet, that feeds only the line
    # (no exhaust flow) leaves the inlet at 0 gauge: the vented column
    for q_lpm in (5.0, 44.0, 100.0):
        q = lpm_to_m3s(q_lpm)
        assert lubricant_column(q, q, full_inlet(), CONSTS) == pytest.approx(
            lubricant_column(q, q, make_config(), CONSTS), rel=1e-12)


def test_inlet_pressure_full_model_value():
    # a narrow exhaust pulls the inlet 10.2 kPa below ambient
    cfg = full_inlet(s_e=1e-5)
    q_src, q2 = lpm_to_m3s(150.0), lpm_to_m3s(44.0)
    p_in = 0.5 * 1.2 * (q_src ** 2 / 4e-10 - (q_src - q2) ** 2 / 1e-10 - q2 ** 2 / 4e-10)
    assert p_in == pytest.approx(-10158.333, rel=1e-6)
    dp = orifice_pressure_drop(q2, cfg.s_in, cfg.s_out, CONSTS.rho_air)
    h_l = lubricant_column(q_src, q2, cfg, CONSTS)
    assert h_l == pytest.approx((dp - p_in) / (cfg.rho_lub * CONSTS.g), rel=1e-12)
    assert h_l == pytest.approx(1.36745, rel=1e-5)


def test_inlet_pressure_rejects_q2_above_source():
    for cfg in (make_config(), full_inlet()):
        with pytest.raises(ValueError):
            lubricant_column(lpm_to_m3s(10.0), lpm_to_m3s(11.0), cfg, CONSTS)
        with pytest.raises(ValueError):
            lubricant_column(lpm_to_m3s(10.0), -1e-6, cfg, CONSTS)


def test_closed_injection_line_draws_no_lubricant():
    # below ambient, the full inlet alone would lift the column over the
    # crest; with q2 = 0 the lever holds the line closed
    cfg = full_inlet(p_src=CONSTS.p_atm - 1000.0)
    q_src = lpm_to_m3s(5.0)
    assert lubricant_column(q_src, 1e-12, cfg, CONSTS) > cfg.h_t
    assert lubricant_column(q_src, 0.0, cfg, CONSTS) == 0.0
    assert lubricant_column(q_src, 0.0, make_config(), CONSTS) == 0.0


def test_lubricant_rise_no_suction():
    for cfg in (make_config(), full_inlet()):
        assert lubricant_column(0.0, 0.0, cfg, CONSTS) == 0.0


def test_lubricant_rise_clamps_positive_outlet():
    # a source 5 kPa above ambient keeps the orifice above ambient at a
    # small flow: no column, and not a negative one
    cfg = full_inlet(p_src=CONSTS.p_atm + 5000.0)
    assert lubricant_column(lpm_to_m3s(10.0), lpm_to_m3s(3.0), cfg, CONSTS) == 0.0


def test_lubricant_rise_hydrostatic_balance():
    # the sized orifice's 425.7 Pa of suction at 44 L/min lifts ethanol
    # 425.7 / (789 * 9.81) = 55 mm
    cfg = make_config(s_out=1.6181031660101627e-5)
    q2 = lpm_to_m3s(44.0)
    h = lubricant_column(q2, q2, cfg, CONSTS)
    dp = orifice_pressure_drop(q2, cfg.s_in, cfg.s_out, CONSTS.rho_air)
    assert h == pytest.approx(dp / (789.0 * 9.81), rel=1e-12)
    assert h == pytest.approx(0.055, rel=1e-3)


def test_injection_activation_strict():
    assert injection_active(0.056, 0.055)
    assert not injection_active(0.054, 0.055)
    assert not injection_active(0.055, 0.055)


def test_default_system_gating_anchor_flows():
    sys = default_system()
    from flowhand.fcs import steady_outputs

    def active_at(q_lpm):
        out = steady_outputs(lpm_to_m3s(q_lpm), sys.fcs, sys.consts)
        h = lubricant_column(lpm_to_m3s(q_lpm), out.q2, sys.venturi, sys.consts)
        return injection_active(h, sys.venturi.h_t)

    assert not active_at(50.0)
    assert active_at(150.0)


def test_activation_threshold_tuned_default():
    sys = default_system()
    q = activation_threshold(sys.venturi, sys.fcs, sys.consts)
    assert q is not None
    assert m3s_to_lpm(q) == pytest.approx(118.0, abs=1.0)


def test_activation_threshold_unreachable_height():
    sys = default_system()
    cfg = make_config(s_out=sys.venturi.s_out, h_t=10.0)
    assert activation_threshold(cfg, sys.fcs, sys.consts) is None


def test_activation_threshold_vanishing_height():
    # with almost no tube to climb, injection starts with the first q2 > 0,
    # i.e. at the lever flip
    sys = default_system()
    cfg = make_config(s_out=sys.venturi.s_out, h_t=1e-6)
    q = activation_threshold(cfg, sys.fcs, sys.consts)
    assert q is not None
    assert m3s_to_lpm(q) == pytest.approx(8.1, abs=0.1)


def test_size_orifice_closed_form():
    cfg = make_config()
    target = lpm_to_m3s(44.0)
    sized = size_orifice(target, cfg, CONSTS)
    # independent closed-form inversion of the pressure-drop formula
    suction = cfg.rho_lub * CONSTS.g * cfg.h_t
    inv_sq = 2.0 * suction / (CONSTS.rho_air * target ** 2) + 1.0 / cfg.s_in ** 2
    expect = 1.0 / math.sqrt(inv_sq)
    assert expect == pytest.approx(1.6181031660101627e-5, rel=1e-12)
    assert sized == pytest.approx(expect, abs=2e-9)


def test_size_orifice_vanishing_height_approaches_s_in():
    cfg = make_config(h_t=1e-9)
    sized = size_orifice(lpm_to_m3s(44.0), cfg, CONSTS)
    assert sized == pytest.approx(cfg.s_in, rel=1e-3)


def test_size_orifice_shrinks_with_height():
    cfg = make_config()
    a = size_orifice(lpm_to_m3s(44.0), cfg, CONSTS)
    b = size_orifice(lpm_to_m3s(44.0), make_config(h_t=0.110), CONSTS)
    assert b < a


def test_size_orifice_infeasible_reported():
    # a source far enough below ambient already beats the column head,
    # so no constriction (s_out < s_in) can be responsible for the onset
    cfg = make_config(use_simplified_inlet=False, s_src=2e-5, s_e=2e-7,
                      p_src=CONSTS.p_atm - 1000.0)
    with pytest.raises(InfeasibleDesignError, match="balance pressure -574"):
        size_orifice(lpm_to_m3s(44.0), cfg, CONSTS)
    # with a narrow source the flow's own suction could still balance the
    # head at the target, but injection would stop there, not start
    narrow = make_config(use_simplified_inlet=False, s_src=1e-5, s_e=2e-5,
                         p_src=CONSTS.p_atm - 500.0)
    with pytest.raises(InfeasibleDesignError, match="balance pressure -74"):
        size_orifice(lpm_to_m3s(44.0), narrow, CONSTS)
    # a lossy orifice barely needing suction would have to be wider than
    # the inlet itself
    lossy = make_config(h_t=1e-6, discharge_coeff=0.5)
    with pytest.raises(InfeasibleDesignError, match="narrower than the inlet"):
        size_orifice(lpm_to_m3s(44.0), lossy, CONSTS)
    # a target so small that its square underflows needs an orifice of no area
    with pytest.raises(InfeasibleDesignError, match="narrower than the inlet"):
        size_orifice(1e-170, make_config(), CONSTS)
    with pytest.raises(InfeasibleDesignError, match="narrower than the inlet"):
        size_orifice(1e-160, make_config(), CONSTS)


def test_size_orifice_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(20):
        cfg = make_config(h_t=float(rng.uniform(0.01, 0.2)))
        target = lpm_to_m3s(float(rng.uniform(5.0, 80.0)))
        sized = size_orifice(target, cfg, CONSTS)
        tuned = make_config(h_t=cfg.h_t, s_out=sized)
        got = q2_activation_threshold(tuned, CONSTS)
        assert got is not None
        assert abs(m3s_to_lpm(got) - m3s_to_lpm(target)) <= 0.5


def test_size_exhaust_puts_the_composed_onset_on_target():
    fcs = default_system().fcs
    c = fcs.gamma * fcs.alpha
    q2 = lpm_to_m3s(44.0)
    cfg = full_inlet(s_e=3e-5, p_src=101400.0)
    cfg = replace(cfg, s_out=size_orifice(q2, cfg, CONSTS))
    s_e = size_exhaust(q2 / c, cfg, fcs, CONSTS)
    # with the orifice sized at c = 1 for q2, the exhaust term is
    # (1 - c^2) / s_src^2, whatever the balance pressure
    assert s_e == pytest.approx(cfg.s_src * math.sqrt((1.0 - c) / (1.0 + c)), rel=1e-9)
    onset = activation_threshold(replace(cfg, s_e=s_e), fcs, CONSTS)
    assert onset == pytest.approx(q2 / c, rel=1e-12)
    # an orifice a quarter that wide lifts the column over the crest
    # below the target on its own, and an exhaust only adds suction
    narrow = replace(cfg, s_out=0.25 * cfg.s_out)
    with pytest.raises(InfeasibleDesignError, match="no exhaust area s_e can put the injection"):
        size_exhaust(q2 / c, narrow, fcs, CONSTS)


def test_q2_onset_agrees_with_grid_scan():
    rng = np.random.default_rng(6)
    step = 0.05
    for _ in range(20):
        s_in = float(rng.uniform(1e-5, 4e-5))
        cfg = VenturiConfig(
            s_in=s_in,
            s_out=float(rng.uniform(0.3, 0.95)) * s_in,
            s_t=3e-6,
            h_t=float(rng.uniform(0.01, 0.15)),
        )
        got = q2_activation_threshold(cfg, CONSTS)
        # independent brute-force scan on an index-based grid
        scan = None
        for i in range(int(100.0 / step) + 1):
            q2 = lpm_to_m3s(i * step)
            if injection_active(lubricant_column(q2, q2, cfg, CONSTS), cfg.h_t):
                scan = i * step
                break
        # agreement includes both methods reporting "never activates"
        assert (got is None) == (scan is None)
        if got is not None:
            assert abs(m3s_to_lpm(got) - scan) <= step


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(s_out=3e-5)      # wider than s_in
    with pytest.raises(ValueError):
        make_config(s_out=0.0)
    with pytest.raises(ValueError):
        make_config(h_t=0.0)
    with pytest.raises(ValueError):
        make_config(use_simplified_inlet=False)   # missing source geometry
    # K divides by each area's square, which must neither vanish nor
    # overflow, nor have an infinite inverse
    for bad, name in ((dict(s_in=1e-160, s_out=5e-161), "s_in"),
                      (dict(s_in=1e200, s_out=1e-5), "s_in"),
                      (dict(discharge_coeff=5e-324), "discharge_coeff"),
                      (dict(use_simplified_inlet=False, s_src=1e-160, s_e=2e-5,
                            p_src=1e5), "s_src"),
                      (dict(use_simplified_inlet=False, s_src=2e-5, s_e=1e300,
                            p_src=1e5), "s_e")):
        with pytest.raises(ValueError, match=f"^{re.escape(name)}.*inverse square"):
            make_config(**bad)


def test_lubricant_density_default_and_validated():
    assert make_config().rho_lub == 789.0      # anhydrous ethanol
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="rho_lub"):
            make_config(rho_lub=bad)


def test_effective_area_uses_discharge_coefficient():
    # a lossy orifice pulls like an ideal one of c_d times its area
    lossy = make_config(discharge_coeff=0.8)
    ideal = make_config(s_out=0.8 * lossy.s_out)
    for cfg in (lossy, ideal):
        assert cfg.discharge_coeff * cfg.s_out == pytest.approx(0.8 * 1.618e-5, rel=1e-15)
    for q_lpm in (20.0, 44.0, 80.0):
        q2 = lpm_to_m3s(q_lpm)
        assert lubricant_column(q2, q2, lossy, CONSTS) == pytest.approx(
            lubricant_column(q2, q2, ideal, CONSTS), rel=1e-12)
        assert lubricant_column(q2, q2, lossy, CONSTS) > lubricant_column(
            q2, q2, make_config(), CONSTS)
