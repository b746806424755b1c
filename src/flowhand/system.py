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
  * calibrate_blocking_s3   jet nozzle area placing a row's B -> C flip
                            exactly at its measured q_src_max
  * listed_inversion_s3     nozzle area backed out of a row's published
                            jet flow and pinch force instead
  * prototype_fcs_config    switching config for any row, sharing the
                            reference build's jet constants
  * default_system          the full tuned stack for build A: switching
                            lever, injector with the orifice sized for
                            onset at the B -> C flip, finger, and hand

The two s3 calibrations differ by about 2% because the published pinch
force at the flip (1.01 N) sits slightly above the blocking curve value
there (0.99 N).  Simulation defaults use calibrate_blocking_s3 so the
flip lands on the measured 118 L/min; the table validator uses
listed_inversion_s3 because the published force columns are its ground
truth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

from .core import PhysConstants, PiecewiseLinearCurve, lpm_to_m3s, mm2_to_m2
from .fcs import FcsConfig, blocking_force, calibrate_s3, split_flow
from .finger import FingerConfig
from .tasks import HandConfig
from .venturi import VenturiConfig, size_orifice

# Measured operating points of the tuned build (flows in L/min).
Q_AB_LPM = 8.1             # source flow at the A -> B lever flip
Q_BC_LPM = 118.0           # source flow at the B -> C pinch-off
Q2_ONSET_LPM = 44.0        # injection-line flow at the injection onset
MOTION_MAX_LPM = 50.0      # top of the finger-motion command band
INJECTION_COMMAND_LPM = 150.0  # the single full-open injection command


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

# Pooled (q1_max [L/min], f_block [N]) pairs from the table, sorted by
# flow: D, A, C, B.  The blocking force rises with the flow the tube
# carries because the escaping jet pushes the pinch point open.
DEFAULT_F_BLOCK_KNOTS: tuple[tuple[float, float], ...] = (
    (1.7, 0.98),
    (2.0, 0.99),
    (2.4, 1.02),
    (10.5, 1.34),
)


def blocking_curve() -> PiecewiseLinearCurve:
    """Pinch-shut force [N] vs finger-line flow [L/min], table-pooled."""
    return PiecewiseLinearCurve(DEFAULT_F_BLOCK_KNOTS)


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


def calibrate_blocking_s3(
    spec: PrototypeSpec,
    curve: PiecewiseLinearCurve,
    consts: PhysConstants,
) -> float:
    """Jet nozzle area [m^2] placing the B -> C flip exactly at q_src_max.

    At the flip the pinch force equals the blocking force at the
    finger-line flow, so s3 = epsilon rho q3^2 / f_block(q1_max) with
    q3 = alpha q_src_max.
    """
    alpha = measured_alpha(spec)
    _, q3 = split_flow(spec.q_src_max, alpha)
    f_need = blocking_force(spec.q1_max, curve)
    return calibrate_s3(spec.epsilon, consts.rho_air, q3, f_need)


def listed_inversion_s3(spec: PrototypeSpec, consts: PhysConstants) -> float:
    """Jet nozzle area [m^2] backed out of the published q3 and f1 columns."""
    return calibrate_s3(spec.epsilon, consts.rho_air, spec.q3_listed, spec.f1_listed)


def reference_gamma() -> float:
    """Injection fraction of the jet flow, anchored at the tuned onset.

    At the B -> C flip the jet carries alpha * q_bc and the injection
    line must carry the onset flow, so gamma = q2_onset / (alpha q_bc).
    """
    alpha = measured_alpha(prototype(REFERENCE_LABEL))
    return Q2_ONSET_LPM / (alpha * Q_BC_LPM)


def prototype_fcs_config(label: str) -> FcsConfig:
    """Switching-mechanism config for one table row.

    The jet nozzle area, lever-rotation onset, and injection fraction
    are properties of the shared lever hardware, so every row uses the
    values calibrated on the reference build; alpha and epsilon are the
    row's own.
    """
    consts = PhysConstants()
    spec = prototype(label)
    ref = prototype(REFERENCE_LABEL)
    curve = blocking_curve()
    s3 = calibrate_blocking_s3(ref, curve, consts)
    alpha_ref = measured_alpha(ref)
    f_rot = consts.rho_air * (alpha_ref * lpm_to_m3s(Q_AB_LPM)) ** 2 / s3
    return FcsConfig(
        alpha=measured_alpha(spec),
        epsilon=spec.epsilon,
        s3=s3,
        f_rot=f_rot,
        f_block_curve=curve,
        gamma=reference_gamma(),
    )


@dataclass(frozen=True)
class SystemConfig:
    """The full stack: constants, switch, injector, finger, hand."""

    consts: PhysConstants
    fcs: FcsConfig
    venturi: VenturiConfig
    finger: FingerConfig
    hand: HandConfig


def default_system() -> SystemConfig:
    """The tuned reference system (build A).

    The injector orifice is sized so the lubricant column tops the
    55 mm supply tube exactly when the injection line reaches the
    onset flow, which the switch delivers at the B -> C flip.
    """
    consts = PhysConstants()
    fcs = prototype_fcs_config(REFERENCE_LABEL)
    seed = VenturiConfig(s_in=mm2_to_m2(20.0), s_out=mm2_to_m2(10.0), s_t=mm2_to_m2(3.0))
    s_out = size_orifice(lpm_to_m3s(Q2_ONSET_LPM), seed, consts)
    return SystemConfig(
        consts=consts,
        fcs=fcs,
        venturi=replace(seed, s_out=s_out),
        finger=FingerConfig(),
        hand=HandConfig(),
    )
