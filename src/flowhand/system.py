"""Benchmarked prototype data and assembly of the tuned reference system.

Four builds of the switching mechanism (labelled A to D) were bench
tested.  They differ in exhaust-port size, which sets the split ratio
alpha, and in lever arm ratio epsilon.  Each row records the largest
finger-line flow seen (q1_max), the source flow at which the finger
line pinched shut or the supply maxed out (q_src_max), whether the
pinch-off succeeded, and the published jet-flow and force estimates at
that point.  Builds A and D block as designed; B and C never do within
the supply range.

The rows double as calibration data:

  * measured_alpha          alpha from the two measured flows
  * blocking_curve          pinch-shut force vs finger-line flow,
                            pooled from the four (q1_max, f_block) pairs
  * solve_for_targets       checks the target flows, then solves the jet
                            nozzle area, lever onset, injection fraction
                            and orifice that put the two flips and the
                            injection onset on them, and reads the flips
                            and onsets back, each within DESIGN_TOLERANCE
                            of its target; the one solve and the one
                            check behind default_system and design-search
  * default_system          the full tuned stack for build A:
                            solve_for_targets at the measured flips
                            (8.1 and 118 L/min) and the 44 L/min onset,
                            plus the finger and the hand; solved once,
                            at import, and returned as that one object

The two s3 calibrations differ by about 2% because the published pinch
force at the flip (1.01 N) sits slightly above the blocking curve value
there (0.99 N).  Simulation defaults solve on the blocking curve so the
flip lands on the measured 118 L/min; the table validator backs s3 out
of the reference row's published jet flow and pinch force instead
(fcs.calibrate_s3), because the published force columns are its ground
truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from .core import ConfigError, PhysConstants, PiecewiseLinearCurve, lpm_to_m3s, m3s_to_lpm, mm2_to_m2
from .fcs import FcsConfig, blocking_force, calibrate_s3, lever_force, state_thresholds
from .finger import FingerConfig
from .tasks import HandConfig
from .venturi import (
    InfeasibleDesignError,
    VenturiConfig,
    activation_threshold,
    q2_activation_threshold,
    size_exhaust,
    size_orifice,
)

# Measured operating points of the tuned build (flows in L/min).
Q_AB_LPM = 8.1             # source flow at the A -> B lever flip
Q_BC_LPM = 118.0           # source flow at the B -> C pinch-off
Q2_ONSET_LPM = 44.0        # injection-line flow at the injection onset
MOTION_MAX_LPM = 50.0      # top of the finger-motion command band
INJECTION_COMMAND_LPM = 150.0  # the single full-open injection command
# closed-form solves land on target to rounding, so a read-back that
# misses by more than this relative share is a failed solve
DESIGN_TOLERANCE = 1e-6


class PrototypeSpec(NamedTuple):
    """One benchmarked build of the switching mechanism (SI units).

    The listed_* fields carry the published estimates verbatim; the
    validator recomputes them from the measured flows.
    """

    label: str
    exhaust_port_area: float   # [m^2], 0 for the port-less build
    epsilon: float
    q1_max: float              # [m^3/s] largest finger-line flow
    q_src_max: float           # [m^3/s] source flow at pinch-off or supply max
    success: bool              # did the finger line pinch shut
    q3_listed: float           # [m^3/s]
    f1_listed: float           # [N]
    f_block_listed: float      # [N]


TABLE1: tuple[PrototypeSpec, ...] = (
    PrototypeSpec("A", mm2_to_m2(7.1), 2.6,
                  lpm_to_m3s(2.0), lpm_to_m3s(118.0), True,
                  lpm_to_m3s(116.0), 1.01, 0.99),
    PrototypeSpec("B", mm2_to_m2(0.0), 2.6,
                  lpm_to_m3s(10.5), lpm_to_m3s(144.0), False,
                  lpm_to_m3s(134.0), 1.18, 1.34),
    PrototypeSpec("C", mm2_to_m2(7.1), 1.5,
                  lpm_to_m3s(2.4), lpm_to_m3s(148.0), False,
                  lpm_to_m3s(146.0), 0.90, 1.02),
    PrototypeSpec("D", mm2_to_m2(50.3), 2.6,
                  lpm_to_m3s(1.7), lpm_to_m3s(117.0), True,
                  lpm_to_m3s(115.0), 0.99, 0.98),
)

REFERENCE_LABEL = "A"
# the reference injector; its orifice s_out is a placeholder that the
# reference solve re-sizes for the onset
_INJECTOR = VenturiConfig(s_in=mm2_to_m2(20.0), s_out=mm2_to_m2(10.0), s_t=mm2_to_m2(3.0))

# Pooled (q1_max [L/min], f_block [N]) pairs from the table, sorted by
# flow: D, A, C, B.  The blocking force rises with the flow the tube
# carries because the escaping jet pushes the pinch point open.
DEFAULT_F_BLOCK_KNOTS: tuple[tuple[float, float], ...] = tuple(sorted(
    (m3s_to_lpm(spec.q1_max), spec.f_block_listed) for spec in TABLE1))
# immutable values, so each is built and checked once, here
_BLOCKING_CURVE = PiecewiseLinearCurve(DEFAULT_F_BLOCK_KNOTS)
_FINGER = FingerConfig()
_HAND = HandConfig()


def blocking_curve() -> PiecewiseLinearCurve:
    """Pinch-shut force [N] vs finger-line flow [L/min], table-pooled;
    the one curve built at import."""
    return _BLOCKING_CURVE


def prototype(label: str) -> PrototypeSpec:
    """Table row by label; raises KeyError for an unknown label."""
    for spec in TABLE1:
        if spec.label == label:
            return spec
    raise KeyError(f"unknown prototype label {label!r}; have A-D")


def measured_alpha(spec: PrototypeSpec) -> float:
    """Split ratio from the bench flows: (q_src_max - q1_max) / q_src_max.

    At the pinch-off point the finger line carries q1_max and the rest
    of the source flow goes down the jet tube, so the diverted fraction
    is read straight off the two measurements.
    """
    return (spec.q_src_max - spec.q1_max) / spec.q_src_max


class DesignTargets(NamedTuple):
    """Operating points to hit, in L/min: the two state flips and the
    injection-line flow at which injection starts."""

    q_ab_lpm: float
    q_bc_lpm: float
    q2_activation_lpm: float


def solve_for_targets(
    targets: DesignTargets,
    alpha: float,
    epsilon: float,
    curve: PiecewiseLinearCurve,
    venturi: VenturiConfig,
    consts: PhysConstants,
) -> tuple[FcsConfig, VenturiConfig, tuple[float, float, float]]:
    """Switch and injector that put the flips and the onset on targets,
    and the (q_ab, q_bc, q2 onset) they achieve, in L/min.

    Keeps the split ratio, lever arm ratio and blocking curve, and
    solves the four free parameters in closed form:

      s3     the pinch force epsilon rho (alpha q_bc)^2 / s3 meets the
             blocking force at the finger-line flow (1 - alpha) q_bc
      f_rot  the jet force rho (alpha q_ab)^2 / s3
      gamma  q2_activation / (alpha q_bc), so the line carries the
             onset flow at the B -> C flip
      s_out  size_orifice at the q2 target, with the source flow equal
             to it as q2_activation_threshold reads it back; under the
             full inlet size_exhaust then puts the composed onset at q_bc

    Then the two flips, the injection-line onset and the composed onset
    are read back from the solved sections, and each must be within
    DESIGN_TOLERANCE, relative, of q_ab, q_bc, q2_activation and q_bc.

    Raises ConfigError for a non-finite target, and
    InfeasibleDesignError for targets out of order (0 < q_ab < q_bc,
    0 < q2_activation <= alpha q_bc), naming the parameter when no
    admissible geometry hits them, or when the read-back misses.
    """
    q_ab, q_bc, q2_act = targets
    for name, value in (("q_ab", q_ab), ("q_bc", q_bc), ("q2 activation", q2_act)):
        if not math.isfinite(value):
            raise ConfigError(f"{name} target {value} L/min is not a finite number")
    if not 0 < q_ab < q_bc:
        raise InfeasibleDesignError(
            f"targets need 0 < q_ab < q_bc, got {q_ab} and {q_bc} L/min: "
            "the lever must rotate before it can block")
    if not q2_act > 0:
        raise InfeasibleDesignError(
            f"q2 activation target {q2_act} L/min must be > 0: injection "
            "starts at a positive injection-line flow")
    jet_at_bc = alpha * q_bc
    if not q2_act <= jet_at_bc:
        raise InfeasibleDesignError(
            f"q2 activation target {q2_act} L/min exceeds the jet flow at "
            f"pinch-off (alpha * q_bc = {jet_at_bc:.6g} L/min), so no "
            "injection fraction <= 1 can deliver it")
    f_need = blocking_force(lpm_to_m3s((1.0 - alpha) * q_bc), curve)
    if not f_need > 0:
        raise InfeasibleDesignError(
            f"the blocking curve gives {f_need:g} N at the finger-line flow of the "
            f"q_bc target ({q_bc:g} L/min); pinch-off needs a positive blocking force")
    s3 = _tuned("jet area s3", targets,
                calibrate_s3(epsilon, consts.rho_air, lpm_to_m3s(jet_at_bc), f_need))
    f_rot = _tuned("lever onset f_rot", targets,
                   lever_force(alpha * lpm_to_m3s(q_ab), s3, consts.rho_air))
    gamma = _tuned("injection fraction gamma", targets, q2_act / jet_at_bc)
    fcs = _admissible(FcsConfig, alpha=alpha, epsilon=epsilon, s3=s3, f_rot=f_rot,
                      f_block_curve=curve, gamma=gamma)
    venturi = _admissible(replace, venturi, s_out=size_orifice(
        _tuned("q2 onset in m^3/s", targets, lpm_to_m3s(q2_act)), venturi, consts))
    if not venturi.use_simplified_inlet:
        venturi = _admissible(replace, venturi,
                              s_e=size_exhaust(lpm_to_m3s(q_bc), venturi, fcs, consts))

    got = (*state_thresholds(fcs, consts), q2_activation_threshold(venturi, consts),
           activation_threshold(venturi, fcs, consts))
    if None in got:
        raise InfeasibleDesignError(f"verification lost a threshold: got {got}")
    got = tuple(map(m3s_to_lpm, got))
    if not all(abs(q - goal) <= DESIGN_TOLERANCE * goal
               for q, goal in zip(got, (q_ab, q_bc, q2_act, q_bc))):
        raise InfeasibleDesignError(
            f"tuned config missed the targets: achieved {got[:3]}, injecting from "
            f"{got[3]:g} L/min, wanted within {DESIGN_TOLERANCE:g} relative")
    return fcs, venturi, got[:3]


def _admissible(make, *args, **fields):
    """make(*args, **fields); a value the config checks reject is infeasible, as in _tuned."""
    try:
        return make(*args, **fields)
    except ValueError as exc:
        raise InfeasibleDesignError(f"no admissible geometry hits the targets: {exc}") from None


def _tuned(name: str, targets: DesignTargets, value: float) -> float:
    """A tuned parameter, which must be positive and finite."""
    if not 0.0 < value < math.inf:
        how = "underflows to 0" if value == 0.0 else f"overflows to {value}"
        raise InfeasibleDesignError(
            f"{name} {how} for targets q_ab {targets.q_ab_lpm:g}, q_bc "
            f"{targets.q_bc_lpm:g} and q2 {targets.q2_activation_lpm:g} L/min; "
            "no finite geometry hits them")
    return value


@dataclass(frozen=True)
class SystemConfig:
    """The full stack: constants, switch, injector, finger, hand."""

    consts: PhysConstants
    fcs: FcsConfig
    venturi: VenturiConfig
    finger: FingerConfig
    hand: HandConfig


# immutable like its parts, so solved once, here
_CONSTS, _SPEC = PhysConstants(), prototype(REFERENCE_LABEL)
_REFERENCE = SystemConfig(_CONSTS, *solve_for_targets(
    DesignTargets(Q_AB_LPM, Q_BC_LPM, Q2_ONSET_LPM), measured_alpha(_SPEC), _SPEC.epsilon,
    _BLOCKING_CURVE, _INJECTOR, _CONSTS)[:2], _FINGER, _HAND)


def default_system() -> SystemConfig:
    """The tuned reference system: build A's alpha, epsilon and the
    pooled blocking curve, solved for the measured flips and onset.

    So the A -> B flip sits at 8.1 L/min, the B -> C flip at 118 L/min,
    and the orifice lets the lubricant column top the 55 mm supply tube
    exactly when the injection line reaches 44 L/min, which the switch
    delivers at the B -> C flip.  The solve runs once, at import; every
    call returns that one object.
    """
    return _REFERENCE
