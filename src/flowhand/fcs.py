"""Quasi-static model of the flow-channel-switching (FCS) lever mechanism.

A single source flow q_src is split inside the switch body.  A fraction
alpha feeds an internal jet tube (tube 3) whose momentum pushes on an
L-shaped lever; the remainder feeds the finger line (output tube 1).
Behaviour by regime:

  state A  low flow: the lever does not rotate, the injection line is
           closed, air leaves through the finger line only.
  state B  mid flow: the lever rotates open and both the finger line and
           the injection line (output tube 2) carry flow.
  state C  high flow: the lever's sharp tip pinches the finger line shut;
           air leaves through the injection line only and the finger
           chamber is sealed.

The jet force follows from momentum conservation, f3 = rho * q3^2 / s3,
and is amplified by the lever arm ratio epsilon into the pinch force
f1 = epsilon * f3.  Pinching succeeds once f1 reaches f_block, the force
needed to squeeze the finger-line tube shut, which grows with the flow
that tube is carrying (a measured calibration curve).

Everything here is quasi-static: each evaluation depends only on the
instantaneous q_src, never on history.  All quantities are SI; the
f_block calibration curve alone has its x axis in L/min because that is
how the bench data is recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

from .core import LPM_PER_M3S, ConfigError, PhysConstants, PiecewiseLinearCurve, m3s_to_lpm

STATE_CEILING = 150.0 / LPM_PER_M3S    # supply ceiling for the state flips [m^3/s]


class FcsState(IntEnum):
    """Operating regime of the switch; ordered A < B < C by flow."""

    A = 1
    B = 2
    C = 3


@dataclass(frozen=True)
class FcsConfig:
    """Geometry and calibration of one switching-lever build.

    alpha    fraction of the source flow diverted to the jet tube; set
             physically by the exhaust-port size (larger port, larger
             alpha), which no field carries: alpha is given directly
    epsilon  lever arm ratio turning the jet force into the pinch force
    s3       jet tube cross-section [m^2]
    f_rot    jet force at which the lever starts to rotate (A -> B) [N]
    gamma    fraction of the jet-tube flow that survives to the injection
             line once the lever is open; the rest leaves by the exhaust
    f_block_curve  pinch force needed to close the finger line, as a
             function of the flow it carries [x: L/min, y: N]; no force
             is negative and the extended last piece does not fall

    Every number is finite.
    """

    alpha: float
    epsilon: float
    s3: float
    f_rot: float
    f_block_curve: PiecewiseLinearCurve
    gamma: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if not 0.0 < self.s3 < math.inf:
            raise ValueError(f"s3 must be finite and > 0, got {self.s3}")
        if not 0.0 <= self.f_rot < math.inf:
            raise ValueError(f"f_rot must be finite and >= 0, got {self.f_rot}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        # the pinch force per squared source flow, over rho (pinch_crossings)
        if not 0.0 < (pinch := self.epsilon * self.alpha ** 2 / self.s3) < math.inf:
            raise ValueError(f"the pinch coefficient epsilon * alpha^2 / s3 must be "
                             f"finite and > 0, got {pinch}")
        forces = [f for _, f in self.f_block_curve.knots]
        if min(forces) < 0:
            raise ValueError(f"f_block_curve forces must be >= 0, got {min(forces)} N")
        if len(forces) > 1 and forces[-1] < forces[-2]:
            raise ValueError("f_block_curve must not fall on its last piece, which extends "
                             f"to every higher flow: {forces[-2]} -> {forces[-1]} N")


class FcsOutputs(NamedTuple):
    """Steady flow split and lever forces for one source flow.  SI units."""

    q1: float         # finger line [m^3/s]
    q2: float         # injection line [m^3/s]
    q_exhaust: float  # exhaust port [m^3/s]
    q3: float         # internal jet tube [m^3/s]
    f3: float         # jet force on the lever [N]
    f1: float         # pinch force on the finger line [N]
    state: FcsState


def lever_force(q3: float, s3: float, rho_air: float) -> float:
    """Momentum force of the jet on the lever: f3 = rho * q3^2 / s3.

    q3 in m^3/s, s3 in m^2; quadratic in flow.
    """
    if q3 < 0:
        raise ValueError(f"q3 must be >= 0, got {q3}")
    if not s3 > 0:
        raise ValueError(f"s3 must be > 0, got {s3}")
    return rho_air * q3 * q3 / s3


def calibrate_s3(epsilon: float, rho_air: float, q3: float, f1: float) -> float:
    """Back-solve the jet tube area from a measured pinch force.

    Inverts f1 = epsilon * rho * q3^2 / s3, so epsilon times lever_force
    at the result recovers f1.
    """
    if not (epsilon > 0 and rho_air > 0 and q3 > 0):
        raise ValueError("epsilon, rho_air and q3 must be > 0")
    if not f1 > 0:
        raise ValueError(f"f1 must be > 0, got {f1}")
    return epsilon * rho_air * q3 * q3 / f1


def blocking_force(q1: float, curve: PiecewiseLinearCurve) -> float:
    """Force needed to pinch the finger line shut at flow q1 [m^3/s].

    The calibration curve's x axis is in L/min (bench-data convention);
    the conversion happens here.
    """
    return curve(m3s_to_lpm(q1))


def classify_state(q_src: float, cfg: FcsConfig, consts: PhysConstants) -> FcsState:
    """Operating regime at source flow q_src [m^3/s].

    A while the jet force stays below the lever-rotation onset f_rot,
    C once the pinch force reaches the blocking force evaluated at the
    finger-line flow, B in between.
    """
    return steady_outputs(q_src, cfg, consts).state


def steady_outputs(q_src: float, cfg: FcsConfig, consts: PhysConstants) -> FcsOutputs:
    """Steady flow routing and regime for one source flow [m^3/s].

    The alpha split applies in every state; whatever a closed branch
    cannot pass is diverted to the exhaust port, so
    q1 + q2 + q_exhaust = q_src always holds.

      A: q1 = (1-alpha) q_src, q2 = 0,                exhaust = alpha q_src
      B: q1 = (1-alpha) q_src, q2 = gamma alpha q_src, exhaust = (1-gamma) alpha q_src
      C: q1 = 0,               q2 = gamma alpha q_src, exhaust = q_src - q2
    """
    if q_src < 0:
        raise ValueError(f"q_src must be >= 0, got {q_src}")
    q1, q3 = (1.0 - cfg.alpha) * q_src, cfg.alpha * q_src
    f3 = lever_force(q3, cfg.s3, consts.rho_air)
    f1 = cfg.epsilon * f3
    q2 = cfg.gamma * q3
    if f3 < cfg.f_rot:
        state, q2, q_exhaust = FcsState.A, 0.0, q3
    elif f1 >= blocking_force(q1, cfg.f_block_curve):
        state, q1, q_exhaust = FcsState.C, 0.0, q_src - q2
    else:
        state, q_exhaust = FcsState.B, (1.0 - cfg.gamma) * q3
    return FcsOutputs(q1, q2, q_exhaust, q3, f3, f1, state)


def lever_flip_flow(cfg: FcsConfig, consts: PhysConstants) -> float:
    """Source flow [m^3/s] of the A -> B flip: inverts f_rot = rho (alpha q)^2 / s3."""
    return math.sqrt(cfg.f_rot * cfg.s3 / consts.rho_air) / cfg.alpha


def pinch_crossings(cfg: FcsConfig, consts: PhysConstants) -> list[float]:
    """Source flows [m^3/s] where the pinch force crosses the blocking force.

    The margin g(q) = epsilon rho (alpha q)^2 / s3 - f_block((1-alpha) q)
    is a quadratic on each piece of the knot curve (the clamp, each
    interior piece, the extended last piece).  Its roots and the knots
    cut the flow axis into spans of constant sign; only sign changes
    count, so a root on a shared knot is listed once and a touching root
    not at all.  Crossings alternate, upward first (g < 0 at zero flow).
    """
    k = cfg.epsilon * consts.rho_air * cfg.alpha ** 2 / cfg.s3
    c = LPM_PER_M3S * (1.0 - cfg.alpha)    # finger-line L/min per source m^3/s
    curve = cfg.f_block_curve
    knots = curve.knots
    slopes = [0.0] + [(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(knots, knots[1:])]
    points = [0.0] + [x / c for x, _ in knots]
    for (x0, y0), m in zip(knots, slopes):
        # piece line f_block = y0 + m (x - x0): k q^2 - m c q - b = 0,
        # roots in the cancellation-free form
        b, mc = y0 - m * x0, m * c
        disc = mc * mc + 4.0 * k * b
        if disc >= 0.0 and (big := (mc + math.copysign(math.sqrt(disc), mc)) / (2.0 * k)):
            points += [big, -b / (k * big)]
    points = sorted(q for q in points if q >= 0.0)
    points.append(2.0 * points[-1] + 1.0)    # g > 0 from the last root on
    crossings, positive = [], False
    for q0, q1 in zip(points, points[1:]):
        mid = 0.5 * (q0 + q1)
        if q1 - q0 > 1e-12 * q1 and (k * mid * mid > curve(c * mid)) != positive:
            crossings.append(q0)
            positive = not positive
    return crossings


def state_thresholds(cfg: FcsConfig, consts: PhysConstants) -> tuple[float | None, float | None]:
    """Source flows [m^3/s] at the A -> B and B -> C flips, in closed form.

    B -> C is the pinch crossing above the lever flip, or the flip itself
    when the lever blocks as it rotates; more than one such crossing
    makes the state non-monotone in the flow, a ConfigError.  None where
    a flip does not happen below the 150 L/min supply ceiling.
    """
    q_ab = lever_flip_flow(cfg, consts)
    seen = [q for q in pinch_crossings(cfg, consts) if q > q_ab]
    if len(seen) > 1:
        at = ", ".join(f"{m3s_to_lpm(q):.6g}" for q in seen)
        raise ConfigError(f"fcs.f_block_knots: the pinch force crosses the blocking force at "
                          f"{at} L/min, so the state is not monotone in the source flow")
    q_bc = seen[0] if seen else q_ab
    return tuple(q if q <= STATE_CEILING else None for q in (q_ab, q_bc))
