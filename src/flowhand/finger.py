"""Pneumatic soft finger: pressure, bending, tip force, marker posture.

The finger is a silicone body with an embedded air chamber; feeding it
flow raises the chamber pressure, which bends it.  The model keeps the
three measured relationships as minimal monotone maps, each replaceable
by a measured knot list in the config:

  source flow -> chamber pressure   piecewise linear through (0, 0) and
                                    (50 L/min, 32.3 kPa), capped at p_max
  pressure    -> curvature          linear, kappa = curvature_gain * p_f
  pressure    -> tip force          linear through the origin

Posture uses the constant-curvature idealization: the finger is a
circular arc of fixed length rooted at the marker frame's origin and
tangent to the finger axis at the base.  Eight painted marks sit at
equal arc spacing; their planar positions are what the displacement
metric compares before and after an injection.

Pressures are Pa internally (config files use kPa), lengths m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import PhysConstants, PiecewiseLinearCurve, m3s_to_lpm

# Default calibration anchor: 50 L/min of source flow holds the chamber
# at 32.3 kPa, where the finger bends half a circle and pushes 0.38 N.
ANCHOR_FLOW_LPM = 50.0
ANCHOR_PRESSURE_PA = 32300.0
ANCHOR_TIP_FORCE_N = 0.38
DEFAULT_FINGER_LENGTH = 0.08


def _default_pressure_map() -> PiecewiseLinearCurve:
    return PiecewiseLinearCurve(((0.0, 0.0), (ANCHOR_FLOW_LPM, ANCHOR_PRESSURE_PA)))


@dataclass(frozen=True)
class FingerConfig:
    """Finger geometry and the three monotone calibration maps.

    finger_length    arc length of the bending section [m]
    pressure_map     source flow [L/min] -> chamber pressure [Pa]
    curvature_gain   curvature per unit pressure [1/(m*Pa)]; the default
                     reaches a half-circle bend at the 32.3 kPa anchor
    tipforce_gain    tip force per unit pressure [N/Pa]
    p_max            chamber pressure cap [Pa]
    n_marks          painted marks along the side of the finger
    """

    finger_length: float = DEFAULT_FINGER_LENGTH
    pressure_map: PiecewiseLinearCurve | None = None
    curvature_gain: float = math.pi / (DEFAULT_FINGER_LENGTH * ANCHOR_PRESSURE_PA)
    tipforce_gain: float = ANCHOR_TIP_FORCE_N / ANCHOR_PRESSURE_PA
    p_max: float = 35000.0
    n_marks: int = 8

    def __post_init__(self) -> None:
        if self.pressure_map is None:
            object.__setattr__(self, "pressure_map", _default_pressure_map())
        if not self.finger_length > 0:
            raise ValueError(f"finger_length must be > 0, got {self.finger_length}")
        if not self.curvature_gain > 0:
            raise ValueError(f"curvature_gain must be > 0, got {self.curvature_gain}")
        if not self.tipforce_gain > 0:
            raise ValueError(f"tipforce_gain must be > 0, got {self.tipforce_gain}")
        if not self.p_max > 0:
            raise ValueError(f"p_max must be > 0, got {self.p_max}")
        if self.n_marks < 2:
            raise ValueError(f"need at least 2 marks, got {self.n_marks}")
        if self.pressure_map(0.0) != 0.0:
            raise ValueError("pressure map must pass through (0, 0)")
        ys = [y for _, y in self.pressure_map.knots]
        if any(b < a for a, b in zip(ys, ys[1:])):
            raise ValueError("pressure map must be monotone non-decreasing")


@dataclass(frozen=True)
class FingerPose:
    """Mark positions [m] in the finger frame for one chamber pressure.

    marks holds one (x, y) pair per mark, base first; r is the bending
    radius, infinite for the straight finger.
    """

    marks: tuple[tuple[float, float], ...]
    p_f: float
    r: float


def chamber_pressure(q_src: float, cfg: FingerConfig) -> float:
    """Chamber pressure [Pa] for a source-flow command [m^3/s], capped at p_max.

    This is the open-line map; when the switch seals the finger line the
    scenario runner holds the previous value instead of re-evaluating.
    """
    p = cfg.pressure_map(m3s_to_lpm(q_src))
    return min(p, cfg.p_max)


def _check_pressure(p_f: float, cfg: FingerConfig) -> None:
    if p_f < 0:
        raise ValueError(f"p_f must be >= 0, got {p_f}")
    if p_f > cfg.p_max:
        raise ValueError(f"p_f {p_f} exceeds p_max {cfg.p_max}")


def bending_radius(p_f: float, cfg: FingerConfig) -> float:
    """Constant-curvature bending radius [m]; infinite when unpressurized."""
    _check_pressure(p_f, cfg)
    kappa = cfg.curvature_gain * p_f
    return math.inf if kappa == 0.0 else 1.0 / kappa


def tip_force(p_f: float, cfg: FingerConfig) -> float:
    """Generable fingertip force [N], linear in chamber pressure."""
    _check_pressure(p_f, cfg)
    return cfg.tipforce_gain * p_f


def posture(p_f: float, cfg: FingerConfig) -> FingerPose:
    """Mark positions along the bent finger at chamber pressure p_f [Pa].

    The arc starts at the origin tangent to +x and bends toward +y; mark
    i sits at arc length i * L / (n_marks - 1), the last exactly at L.
    Straight-finger limit: marks on the +x axis.
    """
    _check_pressure(p_f, cfg)
    kappa = cfg.curvature_gain * p_f
    step = cfg.finger_length / (cfg.n_marks - 1)
    s = [i * step for i in range(cfg.n_marks - 1)] + [cfg.finger_length]
    if kappa == 0.0:
        return FingerPose(marks=tuple((x, 0.0) for x in s), p_f=p_f, r=math.inf)
    marks = tuple((math.sin(kappa * x) / kappa, (1.0 - math.cos(kappa * x)) / kappa) for x in s)
    return FingerPose(marks=marks, p_f=p_f, r=1.0 / kappa)


def mean_displacement(before: FingerPose, after: FingerPose) -> float:
    """Mean Euclidean mark displacement between two postures [m]."""
    if len(before.marks) != len(after.marks):
        raise ValueError(f"mark count mismatch: {len(before.marks)} vs {len(after.marks)}")
    moves = [math.hypot(xa - xb, ya - yb)
             for (xb, yb), (xa, ya) in zip(before.marks, after.marks)]
    return sum(moves) / len(moves)
