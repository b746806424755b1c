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
height.  Without flow in the injection line (q2 = 0, state A, where the
lever holds the line closed) there is no column and no injection.

Two inlet-pressure models are available.  The default treats the wide
section as vented, p_in = 0 gauge.  The full source-balance model adds
the Bernoulli terms from the air source and the exhaust outlet and
needs s_src, s_e and p_src to be configured.

The column, the onset and the orifice and exhaust sizes read one margin
(_margin).  On a line that carries q2 = c * q_src, the margin
dp - p_in - rho_lub*g*h_t is K q_src^2 - P, where

    K = rho_air/2 * (c^2/s_out_eff^2 - 1/s_src^2 + (1-c)^2/s_e^2)
    P = rho_lub*g*h_t + p_src - p_atm

for the full model, and K = rho_air/2 * c^2 * (1/s_out_eff^2 - 1/s_in^2),
P = rho_lub*g*h_t for the vented one.  So injection starts at
sqrt(P/K), and under the full model a negative K can stop it again.

All inputs are SI (flows m^3/s, areas m^2, pressures Pa gauge unless
noted absolute).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ConfigError, PhysConstants, lpm_to_m3s, m3s_to_lpm
from .fcs import FcsConfig, lever_flip_flow

ACTIVATION_CEILING = lpm_to_m3s(200.0)  # highest source flow activation_threshold reports
Q2_CEILING = lpm_to_m3s(100.0)          # highest q2 onset q2_activation_threshold reports


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
    rho_lub  lubricant density [kg/m^3]; the default is anhydrous ethanol
    discharge_coeff  multiplies s_out into an effective orifice area;
             1.0 means the ideal lossless orifice
    use_simplified_inlet  True: p_in = 0 gauge.  False: full source
             balance, which requires s_src, s_e and p_src (absolute).

    Every number is finite.
    """

    s_in: float
    s_out: float
    s_t: float
    h_t: float = 0.055
    rho_lub: float = 789.0
    discharge_coeff: float = 1.0
    use_simplified_inlet: bool = True
    s_src: float | None = None
    s_e: float | None = None
    p_src: float | None = None

    def __post_init__(self) -> None:
        for name in ("s_in", "s_t", "h_t", "rho_lub", "s_src", "s_e", "p_src"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not 0.0 < self.s_out < self.s_in:
            raise ValueError(
                f"need 0 < s_out < s_in for suction, got s_out={self.s_out}, s_in={self.s_in}"
            )
        if not 0.0 < self.discharge_coeff <= 1.0:
            raise ValueError(f"discharge_coeff must be in (0, 1], got {self.discharge_coeff}")
        # K divides by the square of each of these areas (module docstring)
        for name, area in (("s_in", self.s_in), ("s_src", self.s_src), ("s_e", self.s_e),
                           ("discharge_coeff * s_out", self.discharge_coeff * self.s_out)):
            if area is not None and not (0.0 < area * area < math.inf
                                         and 1.0 / (area * area) < math.inf):
                raise ValueError(f"{name} is {area:g} m^2, whose inverse square is not finite and > 0")
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


def injection_active(h_l: float, h_t: float) -> bool:
    """Lubricant reaches the orifice iff the column tops the tube crest."""
    if not h_t > 0:
        raise ValueError(f"h_t must be > 0, got {h_t}")
    return h_l > h_t


def _margin(cfg: VenturiConfig, consts: PhysConstants, c: float) -> tuple[float, ...]:
    """K of a line that carries q2 = c q_src, then its orifice and inlet
    terms over rho_air/2 [1/m^4], then the source's gauge pressure and
    the balance pressure P = rho_lub g h_t + gauge [Pa]: the orifice
    sits K q_src^2 - gauge below ambient (module docstring)."""
    orifice = c * c / (cfg.discharge_coeff * cfg.s_out) ** 2
    if cfg.use_simplified_inlet:
        inlet, exhaust, gauge = -c * c / cfg.s_in ** 2, 0.0, 0.0
    else:
        inlet, exhaust = -1.0 / cfg.s_src ** 2, (1.0 - c) ** 2 / cfg.s_e ** 2
        gauge = cfg.p_src - consts.p_atm
    return (consts.rho_air / 2.0 * (orifice + inlet + exhaust), orifice, inlet, gauge,
            cfg.rho_lub * consts.g * cfg.h_t + gauge)


def lubricant_column(q_src: float, q2: float, cfg: VenturiConfig, consts: PhysConstants) -> float:
    """Column height for an injection-line flow q2 at source flow q_src [m].

    0 when q2 is 0: the lever then holds the injection line closed, so
    no inlet pressure reaches the tube.
    """
    if not 0.0 <= q2 <= q_src:
        raise ValueError(f"need 0 <= q2 <= q_src, got q2={q2}, q_src={q_src}")
    if q2 == 0.0:
        return 0.0
    k, _, _, gauge, _ = _margin(cfg, consts, q2 / q_src)
    return max(0.0, (k * q_src * q_src - gauge) / (cfg.rho_lub * consts.g))


def _onset(cfg: VenturiConfig, consts: PhysConstants, c: float, lo: float) -> float | None:
    """First source flow q >= lo at which the injection line, carrying
    q2 = c q, lifts the column over the crest [m^3/s]; None if none does.

    The margin is K q^2 - P (module docstring).  A negative K with the
    margin positive at lo means injection stops again above lo, so it is
    not monotone in the source flow: a ConfigError.
    """
    k, *_, p = _margin(cfg, consts, c)
    if k > 0.0:
        return lo if p <= 0.0 else max(lo, math.sqrt(p / k))
    if p >= 0.0:
        return None
    if k == 0.0:
        return lo
    if k * lo * lo > p:
        raise ConfigError(
            f"venturi: the full inlet stops the injection again at "
            f"{m3s_to_lpm(math.sqrt(p / k)):.6g} L/min, so it is not monotone in the source flow")
    return None


def q2_activation_threshold(cfg: VenturiConfig, consts: PhysConstants,
                            resolution: float | None = None) -> float | None:
    """Smallest injection-line flow that starts the injection [m^3/s].

    The source flow is taken equal to q2, so the whole source feeds the
    injection line (c = 1, no exhaust flow).  Closed form under both
    inlet models; None if the onset is above Q2_CEILING, ConfigError if
    the full inlet stops the injection again.  `resolution` is accepted
    and ignored: nothing is searched.
    """
    q2_on = _onset(cfg, consts, 1.0, 0.0)
    return q2_on if q2_on is not None and q2_on <= Q2_CEILING else None


def activation_threshold(cfg: VenturiConfig, fcs: FcsConfig, consts: PhysConstants) -> float | None:
    """Smallest source flow at which the composed system injects [m^3/s].

    The injection line stays closed until the lever flips at q_ab; from
    there it carries gamma alpha q_src, so the onset is the closed form
    for c = gamma alpha above q_ab: under the simplified inlet,
    max(q_ab, q2_on / (gamma alpha)).  None ("never activates") if the
    onset is above ACTIVATION_CEILING, ConfigError if the full inlet
    stops the injection again.
    """
    onset = _onset(cfg, consts, fcs.gamma * fcs.alpha, lever_flip_flow(fcs, consts))
    return onset if onset is not None and onset <= ACTIVATION_CEILING else None


def size_orifice(target_q2: float, cfg: VenturiConfig, consts: PhysConstants) -> float:
    """Orifice area that puts the injection onset exactly at target_q2 [m^2].

    Shrinking the orifice raises the suction at a given flow.  The onset
    solves K target_q2^2 = P with c = 1 (module docstring), so

        1 / (c_d s_out)^2 = 2 P / (rho q2^2) + 1 / s_wide^2

    where s_wide is s_in under the simplified inlet and s_src under the
    full one, whose source flow is taken equal to target_q2, the
    convention of q2_activation_threshold.

    Raises InfeasibleDesignError when no s_out < s_in can set the onset:
    P is not positive, so the margin does not rise through zero there,
    or the orifice would have to be at least as wide as the inlet.
    """
    if not target_q2 > 0:
        raise ValueError(f"target_q2 must be > 0, got {target_q2}")
    _, _, inlet, _, p = _margin(cfg, consts, 1.0)
    # a target_q2 whose square underflows needs an orifice of no area
    if p > 0 and (flow_sq := consts.rho_air * target_q2 ** 2) > 0:
        s_out = 1.0 / (cfg.discharge_coeff * math.sqrt(2.0 * p / flow_sq - inlet))
        if 0.0 < s_out < cfg.s_in:
            return s_out
    raise InfeasibleDesignError(
        "no orifice narrower than the inlet can set this onset "
        f"(balance pressure {p:.6g} Pa)")


def size_exhaust(target_q: float, cfg: VenturiConfig, fcs: FcsConfig, consts: PhysConstants) -> float:
    """Exhaust area that puts the full inlet's onset, on a line that
    carries c = gamma alpha of the source, at source flow target_q [m^2]:

        (1-c)^2 / s_e^2 = 2 P / (rho q^2) + 1 / s_src^2 - c^2 / (c_d s_out)^2

    solves K target_q^2 = P (module docstring).  InfeasibleDesignError
    when the right side is not positive: the orifice then lifts the
    column over the crest below target_q already.
    """
    c = fcs.gamma * fcs.alpha
    _, orifice, inlet, _, p = _margin(cfg, consts, c)
    if p > 0 and (flow_sq := consts.rho_air * target_q ** 2) > 0:
        inv_sq = 2.0 * p / flow_sq - orifice - inlet
        if inv_sq > 0.0:
            return (1.0 - c) / math.sqrt(inv_sq)
    raise InfeasibleDesignError(
        f"no exhaust area s_e can put the injection onset at {m3s_to_lpm(target_q):.6g} "
        "L/min: the orifice lifts the column over the crest below it")
