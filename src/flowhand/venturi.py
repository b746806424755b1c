"""Venturi lubricant-injection circuit: suction, column rise, sizing.

The injection line drives air through a constriction (orifice).  By
Bernoulli, the static pressure at the orifice drops below the inlet
pressure by

    dp = rho_air * q2^2 * (1/s_out^2 - 1/s_in^2) / 2,

so with s_out < s_in the orifice runs at negative gauge pressure for any
q2 > 0.  That suction pulls lubricant up a supply tube from the tank; the
column settles at the hydrostatic balance height

    h_l = -p_out_gauge / (rho_lub * g)    (clamped at 0),

and injection starts once h_l exceeds the tube's crest height h_t.  The
hand approaches its targets pointing down, so h_t is a fixed geometric
height.

Two inlet-pressure models are available.  The default treats the wide
section as vented, p_in = 0 gauge.  The full source-balance model adds
the Bernoulli terms from the air source and the exhaust outlet and
needs s_src, s_e and p_src to be configured.

The onset and the orifice size invert dp(q2) = rho_lub * g * h_t + p_in
in closed form; only the full model's onset is bisected.

All inputs are SI (flows m^3/s, areas m^2, pressures Pa gauge unless
noted absolute).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import PhysConstants, lpm_to_m3s
from .fcs import FcsConfig, lever_flip_flow, steady_outputs


class InfeasibleDesignError(ValueError):
    """A sizing or design target cannot be met by any admissible geometry."""


@dataclass(frozen=True)
class VenturiConfig:
    """Geometry of the injection circuit.

    s_in     wide-section cross-section upstream of the orifice [m^2]
    s_out    orifice cross-section [m^2]; must be below s_in for suction
    s_t      lubricant supply tube cross-section [m^2] (geometric record;
             it cancels out of the hydrostatic balance)
    h_t      crest height of the supply tube above the tank surface [m]
    discharge_coeff  multiplies s_out into an effective orifice area;
             1.0 means the ideal lossless orifice
    use_simplified_inlet  True: p_in = 0 gauge.  False: full source
             balance, which requires s_src, s_e and p_src (absolute).
    """

    s_in: float
    s_out: float
    s_t: float
    h_t: float = 0.055
    discharge_coeff: float = 1.0
    use_simplified_inlet: bool = True
    s_src: float | None = None
    s_e: float | None = None
    p_src: float | None = None

    def __post_init__(self) -> None:
        if not self.s_in > 0:
            raise ValueError(f"s_in must be > 0, got {self.s_in}")
        if not 0.0 < self.s_out < self.s_in:
            raise ValueError(
                f"need 0 < s_out < s_in for suction, got s_out={self.s_out}, s_in={self.s_in}"
            )
        if not self.s_t > 0:
            raise ValueError(f"s_t must be > 0, got {self.s_t}")
        if not self.h_t > 0:
            raise ValueError(f"h_t must be > 0, got {self.h_t}")
        if not 0.0 < self.discharge_coeff <= 1.0:
            raise ValueError(f"discharge_coeff must be in (0, 1], got {self.discharge_coeff}")
        if not self.use_simplified_inlet:
            missing = [n for n in ("s_src", "s_e", "p_src") if getattr(self, n) is None]
            if missing:
                raise ValueError(f"full inlet model needs {', '.join(missing)}")


def orifice_pressure_drop(q2: float, s_in: float, s_out: float, rho_air: float) -> float:
    """Bernoulli pressure drop across the constriction [Pa].

    dp = rho * q2^2 * (1/s_out^2 - 1/s_in^2) / 2, which is >= 0 for
    s_out <= s_in and zero without flow or without constriction.
    """
    if q2 < 0:
        raise ValueError(f"q2 must be >= 0, got {q2}")
    if not 0.0 < s_out <= s_in:
        raise ValueError(f"need 0 < s_out <= s_in, got s_out={s_out}, s_in={s_in}")
    return rho_air * q2 * q2 * (1.0 / s_out**2 - 1.0 / s_in**2) / 2.0


def inlet_pressure(q_src: float, q2: float, cfg: VenturiConfig, consts: PhysConstants) -> float:
    """Gauge pressure at the wide section before the orifice [Pa].

    Simplified model: 0.  Full model balances the source against the
    exhaust and injection outlets:

        p_in = p_src - p_atm
               + rho/2 * (q_src^2/s_src^2 - (q_src-q2)^2/s_e^2 - q2^2/s_in^2)
    """
    if q2 < 0 or q_src < 0:
        raise ValueError("flows must be >= 0")
    if q2 > q_src:
        raise ValueError(f"q2 ({q2}) cannot exceed q_src ({q_src})")
    if cfg.use_simplified_inlet:
        return 0.0
    rho = consts.rho_air
    return (
        cfg.p_src
        - consts.p_atm
        + rho
        / 2.0
        * (
            q_src**2 / cfg.s_src**2
            - (q_src - q2) ** 2 / cfg.s_e**2
            - q2**2 / cfg.s_in**2
        )
    )


def lubricant_rise(p_in: float, delta_p: float, rho_lub: float, g: float) -> float:
    """Hydrostatic column height pulled up by the orifice suction [m].

    p_out_gauge = p_in - delta_p; the column rises until
    rho_lub * g * h_l balances the suction, and cannot go below zero
    under positive orifice pressure.
    """
    if rho_lub <= 0 or g <= 0:
        raise ValueError("rho_lub and g must be > 0")
    p_out_gauge = p_in - delta_p
    return max(0.0, -p_out_gauge / (rho_lub * g))


def injection_active(h_l: float, h_t: float) -> bool:
    """Lubricant reaches the orifice iff the column tops the tube crest."""
    if not h_t > 0:
        raise ValueError(f"h_t must be > 0, got {h_t}")
    return h_l > h_t


def effective_orifice_area(cfg: VenturiConfig) -> float:
    """Orifice area after the discharge-coefficient correction [m^2]."""
    return cfg.discharge_coeff * cfg.s_out


def lubricant_column(q_src: float, q2: float, cfg: VenturiConfig, consts: PhysConstants) -> float:
    """Column height for an injection-line flow q2 at source flow q_src [m]."""
    delta_p = orifice_pressure_drop(q2, cfg.s_in, effective_orifice_area(cfg), consts.rho_air)
    p_in = inlet_pressure(q_src, q2, cfg, consts)
    return lubricant_rise(p_in, delta_p, consts.rho_lubricant, consts.g)


def q2_activation_threshold(
    cfg: VenturiConfig,
    consts: PhysConstants,
    q2_max: float = lpm_to_m3s(100.0),
    resolution: float = lpm_to_m3s(0.01),
) -> float | None:
    """Smallest injection-line flow that starts the injection [m^3/s].

    Closed form under the simplified inlet.  The full inlet model
    bisects the monotone active/inactive boundary to within
    `resolution`, with the source flow taken equal to q2 (the worst
    case).  None if still inactive at q2_max.
    """
    if cfg.use_simplified_inlet:
        # dp(q2) = rho_lub g h_t solved for q2
        inv_sq = 1.0 / effective_orifice_area(cfg) ** 2 - 1.0 / cfg.s_in ** 2
        q2_on = math.sqrt(2.0 * consts.rho_lubricant * consts.g * cfg.h_t
                          / (consts.rho_air * inv_sq))
        return q2_on if q2_on <= q2_max else None

    def active(q2: float) -> bool:
        h_l = lubricant_column(q2, q2, cfg, consts)
        return injection_active(h_l, cfg.h_t)

    return bisect_onset(active, 0.0, q2_max, resolution)


def activation_threshold(
    cfg: VenturiConfig,
    fcs: FcsConfig,
    consts: PhysConstants,
    q_src_max: float = lpm_to_m3s(200.0),
    resolution: float = lpm_to_m3s(0.01),
) -> float | None:
    """Smallest source flow at which the composed system injects [m^3/s].

    Once the lever flips, the injection line carries gamma alpha q_src,
    so under the simplified inlet the onset is max(q_ab, q2_on / (gamma
    alpha)).  The full inlet model bisects the (assumed monotone)
    active/inactive boundary to within `resolution`.  None ("never
    activates") if the system is still inactive at q_src_max.
    """
    if cfg.use_simplified_inlet:
        q2_on = q2_activation_threshold(cfg, consts, q2_max=math.inf)
        onset = max(lever_flip_flow(fcs, consts), q2_on / (fcs.gamma * fcs.alpha))
        return onset if onset <= q_src_max else None

    def active(q_src: float) -> bool:
        out = steady_outputs(q_src, fcs, consts)
        h_l = lubricant_column(q_src, out.q2, cfg, consts)
        return injection_active(h_l, cfg.h_t)

    return bisect_onset(active, 0.0, q_src_max, resolution)


def bisect_onset(active, lo: float, hi: float, resolution: float) -> float | None:
    """First point of a monotone False -> True predicate, within resolution."""
    if active(lo):
        return lo
    if not active(hi):
        return None
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if active(mid):
            hi = mid
        else:
            lo = mid
    return hi


def size_orifice(
    target_q2: float,
    cfg: VenturiConfig,
    consts: PhysConstants,
    q_src: float | None = None,
) -> float:
    """Orifice area that puts the injection onset exactly at target_q2 [m^2].

    Shrinking the orifice raises the suction at a given flow, so the
    area solves dp(target_q2) = rho_lub * g * h_t + p_in in closed form:

        1 / (c_d s_out)^2 = 2 suction / (rho q2^2) + 1 / s_in^2

    With the full inlet model, p_in is evaluated at the supplied q_src
    (required in that case).

    Raises InfeasibleDesignError when no s_out < s_in can reach the
    balance: the needed suction is not positive, or is too small for
    an orifice with this discharge coefficient.
    """
    if not target_q2 > 0:
        raise ValueError(f"target_q2 must be > 0, got {target_q2}")
    if cfg.use_simplified_inlet:
        p_in = 0.0
    elif q_src is None:
        raise ValueError("full inlet model: pass the source flow at the activation point")
    else:
        p_in = inlet_pressure(q_src, target_q2, cfg, consts)

    suction_needed = consts.rho_lubricant * consts.g * cfg.h_t + p_in
    if suction_needed > 0:
        inv_sq = 2.0 * suction_needed / (consts.rho_air * target_q2 ** 2) + 1.0 / cfg.s_in ** 2
        s_out = 1.0 / (cfg.discharge_coeff * math.sqrt(inv_sq))
        if s_out < cfg.s_in:
            return s_out
    raise InfeasibleDesignError(
        "no orifice narrower than the inlet can set this onset "
        f"(balance pressure {suction_needed:.6g} Pa)")
