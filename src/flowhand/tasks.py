"""Grasp, placement, and pivot models for the two-finger hand.

The hand squeezes an object between opposing fingertips; everything
task-level reduces to Coulomb friction at those contacts.  Lubricant
injection switches the fingertip surface from a high-friction (dry
silicone) to a low-friction (oiled) regime, which is what lets one
actuator both hold firmly and release gently:

  payload          mu * n_fingers * f_tip, the weight the grip carries
  placement        a gripped object slides out under its own weight once
                   the surface is lubricated, instead of dropping when
                   the grip opens
  pivot            a held object swings about the grip axis when contact
                   friction is low enough to let it rotate

Friction is hysteretic: injection flips the surface to LOW and it stays
LOW until the fingers are wiped or swapped, tracked by FrictionTracker.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .core import PhysConstants


class FrictionState(enum.Enum):
    """Fingertip surface regime."""

    HIGH = "high"
    LOW = "low"


class PlacementOutcome(enum.Enum):
    """What a gripped object does when the hand stops at the drop height."""

    SLIDES_IN_GRIP = "slides_in_grip"
    HELD_FIXED = "held_fixed"


@dataclass(frozen=True)
class HandConfig:
    """Hand-level geometry and friction coefficients.

    n_fingers       fingertip contacts sharing the load
    mu_high         dry fingertip friction coefficient
    mu_low          lubricated fingertip friction coefficient
    mu_pivot_crit   largest coefficient at which a held object still
                    pivots about the grip axis under gravity
    max_opening     widest graspable object [m]
    """

    n_fingers: int = 2
    mu_high: float = 2.0
    mu_low: float = 0.2
    mu_pivot_crit: float = 1.1
    max_opening: float = 0.073

    def __post_init__(self) -> None:
        if self.n_fingers < 2:
            raise ValueError(f"n_fingers must be >= 2, got {self.n_fingers}")
        if not 0 < self.mu_low < self.mu_high:
            raise ValueError(
                f"need 0 < mu_low < mu_high, got {self.mu_low}, {self.mu_high}"
            )
        if not self.mu_pivot_crit > 0:
            raise ValueError(f"mu_pivot_crit must be > 0, got {self.mu_pivot_crit}")
        if not self.max_opening > 0:
            raise ValueError(f"max_opening must be > 0, got {self.max_opening}")

    def mu(self, state: FrictionState) -> float:
        return self.mu_high if state is FrictionState.HIGH else self.mu_low


@dataclass(frozen=True)
class GraspScene:
    """Object under the hand: width [m] and mass [kg]."""

    object_width: float
    object_mass: float

    def __post_init__(self) -> None:
        if not self.object_width > 0:
            raise ValueError(f"object_width must be > 0, got {self.object_width}")
        if self.object_mass < 0:
            raise ValueError(f"object_mass must be >= 0, got {self.object_mass}")


def payload(f_tip: float, cfg: HandConfig, mu: float) -> float:
    """Weight [N] the grip supports by friction at the fingertip contacts."""
    if f_tip < 0:
        raise ValueError(f"f_tip must be >= 0, got {f_tip}")
    if mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    return f_tip * cfg.n_fingers * mu


def can_grasp(
    scene: GraspScene,
    f_tip: float,
    cfg: HandConfig,
    consts: PhysConstants | None = None,
    mu: float | None = None,
) -> bool:
    """Whether the hand can pick the object up with a dry grip.

    Requires the object to fit inside the opening (strictly) and its
    weight to stay within the friction payload.
    """
    consts = consts or PhysConstants()
    mu = cfg.mu_high if mu is None else mu
    if scene.object_width >= cfg.max_opening:
        return False
    return scene.object_mass * consts.g <= payload(f_tip, cfg, mu)


def placement_slip(
    scene: GraspScene,
    f_tip: float,
    cfg: HandConfig,
    state: FrictionState,
    consts: PhysConstants | None = None,
) -> PlacementOutcome:
    """Whether a gripped object slides out under gravity at placement.

    With lubricated tips the payload drops below the object weight and
    the object slides down inside the still-closed grip; a dry grip
    holds it fixed until the fingers open.
    """
    consts = consts or PhysConstants()
    supported = payload(f_tip, cfg, cfg.mu(state))
    if scene.object_mass * consts.g > supported:
        return PlacementOutcome.SLIDES_IN_GRIP
    return PlacementOutcome.HELD_FIXED


def placement_disturbance(outcome: PlacementOutcome) -> float:
    """Proxy for the release impulse handed to the object: 0 for a slide
    release, 1 for a drop from a fixed grip."""
    return 0.0 if outcome is PlacementOutcome.SLIDES_IN_GRIP else 1.0


def pivot_feasible(mu: float, cfg: HandConfig) -> bool:
    """Whether a held object rotates about the grip axis under gravity.

    The boundary coefficient still pivots (marginally): mu <= crit.
    """
    if mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    return mu <= cfg.mu_pivot_crit


class FrictionTracker:
    """Hysteretic fingertip surface state across a scenario.

    Injection events flip the surface LOW; it stays LOW until release()
    (a wipe or finger swap), because the lubricant does not evaporate on
    task timescales.
    """

    def __init__(self) -> None:
        self._state = FrictionState.HIGH

    @property
    def state(self) -> FrictionState:
        return self._state

    def record(self, injecting: bool) -> FrictionState:
        if injecting:
            self._state = FrictionState.LOW
        return self._state

    def release(self) -> None:
        self._state = FrictionState.HIGH
