"""Models of a one-actuator soft hand whose behavior is switched by flow magnitude.

A single air source drives everything: low flow bends the fingers,
higher flow flips a lever that pinches the finger line shut and holds
the posture, and the flow diverted past the lever drives a suction
orifice that pulls lubricant onto the fingertips to drop their
friction.  The package models each stage (switch, injector, finger,
hand tasks), calibrates them against the bench measurements of four
prototype builds, and composes them into deterministic scenario runs,
parameter sweeps, and inverse design searches.

Units are SI throughout the API (m^3/s, Pa, m^2, m, N); L/min, mm^2,
mm, and kPa appear only in config files, CSV output, and calibration
curve x-axes.
"""

from .core import lpm_to_m3s
from .scenario import Scenario, Segment, run_scenario
from .tasks import GraspScene

__version__ = "0.1.0"

__all__ = ["GraspScene", "Scenario", "Segment", "lpm_to_m3s", "run_scenario"]
