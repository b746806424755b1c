"""Shared units, physical constants, calibration curves, and the base of
the checked value classes.

Canonical units are SI throughout the package: volumetric flow in m^3/s,
pressure in Pa (gauge unless noted absolute), force in N, area in m^2,
length in m, density in kg/m^3.  Flow shows up as L/min only at I/O
boundaries (config files, CSV columns, calibration-curve axes), because
airflow controllers and flow meters are specified that way.
"""

from __future__ import annotations

import math
from bisect import bisect_left

LPM_PER_M3S = 60000.0


def lpm_to_m3s(q_lpm: float) -> float:
    """L/min -> m^3/s.  Flow rates are non-negative."""
    if q_lpm < 0:
        raise ValueError(f"flow must be >= 0, got {q_lpm} L/min")
    return q_lpm / LPM_PER_M3S


def m3s_to_lpm(q_m3s: float) -> float:
    """m^3/s -> L/min.  Flow rates are non-negative."""
    if q_m3s < 0:
        raise ValueError(f"flow must be >= 0, got {q_m3s} m^3/s")
    return q_m3s * LPM_PER_M3S


def mm2_to_m2(a_mm2: float) -> float:
    """mm^2 -> m^2."""
    if a_mm2 < 0:
        raise ValueError(f"area must be >= 0, got {a_mm2} mm^2")
    return a_mm2 * 1e-6


def m2_to_mm2(a_m2: float) -> float:
    """m^2 -> mm^2."""
    if a_m2 < 0:
        raise ValueError(f"area must be >= 0, got {a_m2} m^2")
    return a_m2 * 1e6


def mm_to_m(x_mm: float) -> float:
    """mm -> m."""
    if x_mm < 0:
        raise ValueError(f"length must be >= 0, got {x_mm} mm")
    return x_mm * 1e-3


def m_to_mm(x_m: float) -> float:
    """m -> mm."""
    if x_m < 0:
        raise ValueError(f"length must be >= 0, got {x_m} m")
    return x_m * 1e3


def kpa_to_pa(p_kpa: float) -> float:
    """kPa -> Pa.  Gauge pressures may be negative, so no sign check."""
    return p_kpa * 1e3


def pa_to_kpa(p_pa: float) -> float:
    """Pa -> kPa."""
    return p_pa * 1e-3


class ConfigError(Exception):
    """Invalid config or scenario content; message carries the key path."""


class _Value:
    """Base of the checked, immutable value classes.

    A subclass lists its fields in __slots__; the public ones, in order,
    are also its __init__ arguments, and its __init__ checks them and
    sets each with object.__setattr__.  From those public fields this
    base derives the rest: assigning or deleting a field raises
    AttributeError, __reduce__ is the call that rebuilds the value (so
    pickle and copy run the checks too), and ==, hash and repr go by
    the same fields.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(n for n in cls.__slots__ if not n.startswith("_"))

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, n) for n in self._fields)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self) -> int:
        return hash(self.__reduce__()[1])

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__name__}({fields})"


class PhysConstants(_Value):
    """Ambient constants shared by every model in the package.

    rho_air is the working-fluid density for a dry lab at room
    temperature.  No config key sets these; the lubricant density is a
    property of the injector (VenturiConfig.rho_lub).

    An immutable value: assigning a field raises AttributeError, and
    equal constants compare and hash equal.
    """

    __slots__ = ("rho_air", "g", "p_atm")

    def __init__(self, rho_air: float = 1.2,      # kg/m^3
                 g: float = 9.81,                 # m/s^2
                 p_atm: float = 101325.0) -> None:  # Pa absolute
        for name, value in (("rho_air", rho_air), ("g", g), ("p_atm", p_atm)):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and strictly positive, got {value}")
            object.__setattr__(self, name, value)


class PiecewiseLinearCurve(_Value):
    """Piecewise-linear curve through (x, y) knots, x strictly increasing.

    Evaluation at a knot returns its y exactly.  Between knots the value
    is linearly interpolated, and never leaves the two knots' y range.
    Below the first knot the first y is held (clamped, so calibration
    curves stay positive near zero); above the last knot the final
    segment's slope is extended.  A single-knot curve is constant
    everywhere.  The knots' x span and y span must be finite floats.

    An immutable value: assigning a field raises AttributeError, and
    curves with equal knots compare and hash equal.
    """

    __slots__ = ("knots", "_xs", "_ys")

    def __init__(self, knots) -> None:
        # + 0.0 turns -0.0 into 0.0: values print as 0, never -0
        knots = tuple((float(x) + 0.0, float(y) + 0.0) for x, y in knots)
        if not knots:
            raise ValueError("curve needs at least one knot")
        xs = tuple(x for x, _ in knots)
        ys = tuple(y for _, y in knots)
        for v in (*xs, *ys):
            if not math.isfinite(v):
                raise ValueError(f"curve knots must be finite, got {v}")
        for a, b in zip(xs, xs[1:]):
            if not a < b:
                raise ValueError(f"knot x values must be strictly increasing ({a} !< {b})")
        # each piece divides and scales by differences of knots, which must stay finite
        for axis, vs in (("x", xs), ("y", ys)):
            if not math.isfinite(max(vs) - min(vs)):
                raise ValueError(f"curve knots' {axis} span {min(vs)} to {max(vs)} is not finite")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "_xs", xs)
        object.__setattr__(self, "_ys", ys)

    def __call__(self, x: float) -> float:
        xs, ys = self._xs, self._ys
        if len(xs) == 1 or x <= xs[0]:
            return ys[0]
        i = bisect_left(xs, x)
        if i == len(xs):  # extend the last segment
            (x0, y0), (x1, y1) = self.knots[-2:]
            # a flat piece stays flat: x - x0 may overflow, and 0 * inf is nan
            return y1 if y0 == y1 else y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        if xs[i] == x:
            return ys[i]
        x0, x1 = xs[i - 1], xs[i]
        y0, y1 = ys[i - 1], ys[i]
        y = y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        if y0 <= y <= y1 or y1 <= y <= y0:
            return y
        # rounding carried y past a knot's value, such as below zero force
        return min(max(y, min(y0, y1)), max(y0, y1))
