"""Units, constants, and the piecewise linear calibration curve."""

import math
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowhand.core import (
    PhysConstants,
    PiecewiseLinearCurve,
    kpa_to_pa,
    lpm_to_m3s,
    m2_to_mm2,
    m3s_to_lpm,
    m_to_mm,
    mm2_to_m2,
    mm_to_m,
    pa_to_kpa,
)


def test_flow_conversion_anchor():
    assert lpm_to_m3s(60.0) == pytest.approx(1e-3)
    assert lpm_to_m3s(118.0) == pytest.approx(118.0 / 60000.0)


def test_conversions_round_trip():
    rng = np.random.default_rng(7)
    for x in rng.uniform(0.0, 1e3, 50):
        assert m3s_to_lpm(lpm_to_m3s(x)) == pytest.approx(x, rel=1e-12)
        assert m2_to_mm2(mm2_to_m2(x)) == pytest.approx(x, rel=1e-12)
        assert m_to_mm(mm_to_m(x)) == pytest.approx(x, rel=1e-12)
        assert pa_to_kpa(kpa_to_pa(x)) == pytest.approx(x, rel=1e-12)


def test_negative_magnitudes_rejected():
    for fn in (lpm_to_m3s, m3s_to_lpm, mm2_to_m2, m2_to_mm2, mm_to_m, m_to_mm):
        with pytest.raises(ValueError):
            fn(-1.0)


def test_gauge_pressure_may_be_negative():
    # suction is a negative gauge pressure; the converter must allow it
    assert kpa_to_pa(-4.2) == pytest.approx(-4200.0)
    assert pa_to_kpa(-425.7) == pytest.approx(-0.4257)


def test_constants_defaults():
    c = PhysConstants()
    assert c.rho_air == 1.2
    assert c.g == 9.81
    assert c.p_atm == 101325.0


def test_constants_validated():
    with pytest.raises(ValueError):
        PhysConstants(rho_air=0.0)
    with pytest.raises(ValueError):
        PhysConstants(g=math.nan)


def test_curve_hits_knots_exactly():
    curve = PiecewiseLinearCurve(((1.7, 0.98), (2.0, 0.99), (10.5, 1.34)))
    assert curve(1.7) == 0.98
    assert curve(2.0) == 0.99
    assert curve(10.5) == 1.34


def test_curve_interpolates_between_knots():
    curve = PiecewiseLinearCurve(((0.0, 0.0), (10.0, 20.0)))
    assert curve(2.5) == pytest.approx(5.0)
    assert curve(7.5) == pytest.approx(15.0)


def test_curve_interpolation_stays_within_its_knots():
    # the plain formula rounds to -8.9e-16 N here: a negative blocking
    # force, below both knots' forces
    curve = PiecewiseLinearCurve(((-480.22697301760286, 7.994302050787598),
                                  (2.5423728813559268, 0.0), (3.5423728813559268, 0.0)))
    assert curve(2.5423728813559254) == 0.0


def test_curve_clamps_below_first_knot():
    curve = PiecewiseLinearCurve(((1.7, 0.98), (2.0, 0.99)))
    assert curve(0.0) == 0.98
    assert curve(1.0) == 0.98


def test_curve_extrapolates_last_segment():
    curve = PiecewiseLinearCurve(((0.0, 0.0), (50.0, 32.3)))
    assert curve(100.0) == pytest.approx(64.6)


def test_single_knot_curve_is_constant():
    curve = PiecewiseLinearCurve(((5.0, 3.0),))
    assert curve(0.0) == 3.0
    assert curve(5.0) == 3.0
    assert curve(50.0) == 3.0


def test_curve_rejects_bad_knots():
    with pytest.raises(ValueError):
        PiecewiseLinearCurve(())
    with pytest.raises(ValueError):
        PiecewiseLinearCurve(((2.0, 1.0), (1.0, 2.0)))  # x not increasing
    with pytest.raises(ValueError):
        PiecewiseLinearCurve(((1.0, 1.0), (1.0, 2.0)))  # duplicate x
    with pytest.raises(ValueError):
        PiecewiseLinearCurve(((0.0, math.nan),))


def test_curve_rejects_a_knot_span_that_overflows():
    # the line through the first two knots reads 0.5 at 0, but x1 - x0
    # overflowed to inf and the curve read 0.0
    with pytest.raises(ValueError, match="x span"):
        PiecewiseLinearCurve(((-1.7e308, 0.0), (1.7e308, 1.0)))
    with pytest.raises(ValueError, match="y span"):
        PiecewiseLinearCurve(((0.0, -1.7e308), (1.0, 1.7e308)))


def test_flat_last_piece_extends_as_its_own_y():
    # past the last knot x - x0 overflows to inf, and 0 * inf is nan
    assert PiecewiseLinearCurve(((-1.7e308, 1.0), (0.0, 1.0)))(1e308) == 1.0


# finite knots and flows, often at the ends of the float range, where a
# difference of two of them overflows
EDGES = (-1.7e308, -1e308, 0.0, 1.0, 1e308, 1.7e308)
HUGE = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(xs=st.lists(HUGE, min_size=1, max_size=5, unique=True),
       ys=st.lists(HUGE, min_size=5, max_size=5), data=st.data())
def test_curve_value_is_never_nan_and_stays_between_its_knots(xs, ys, data):
    xs = sorted(xs)
    ys = ys[:len(xs)]
    try:
        curve = PiecewiseLinearCurve(zip(xs, ys))
    except ValueError:
        assert math.isinf(xs[-1] - xs[0]) or math.isinf(max(ys) - min(ys))
        return
    x = data.draw(st.one_of(HUGE, st.floats(xs[0], xs[-1])))
    y = curve(x)
    assert not math.isnan(y)
    if xs[0] <= x <= xs[-1]:
        i = bisect_left(xs, x)
        below, above = ys[max(i - 1, 0)], ys[i]
        assert min(below, above) <= y <= max(below, above)


def test_curve_monotone_input_monotone_output():
    rng = np.random.default_rng(11)
    xs = np.sort(rng.uniform(0.0, 20.0, 8))
    xs = np.unique(xs)
    ys = np.sort(rng.uniform(0.0, 5.0, xs.size))
    curve = PiecewiseLinearCurve(tuple(zip(xs.tolist(), ys.tolist())))
    samples = [curve(x) for x in np.linspace(-5.0, 30.0, 200)]
    assert all(b >= a for a, b in zip(samples, samples[1:]))
