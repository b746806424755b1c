"""Bend a finger with flow and watch its marker points move.

The finger is a constant-curvature arc: chamber pressure sets the
curvature, eight markers ride along the arc, and the fingertip force
grows linearly with pressure.  At the top of the motion band the
finger closes into a half circle.
"""

import math

from flowhand.core import lpm_to_m3s
from flowhand.finger import (
    FingerConfig,
    bending_radius,
    chamber_pressure,
    mean_displacement,
    posture,
    tip_force,
)


def main() -> None:
    cfg = FingerConfig()
    print(f"finger length {1000 * cfg.finger_length:.0f} mm, "
          f"{cfg.n_marks} markers")
    print()

    print(f"{'flow':>6} {'pressure':>9} {'radius':>8} {'tip force':>10}")
    print(f"{'L/min':>6} {'kPa':>9} {'mm':>8} {'N':>10}")
    for q_lpm in (0.0, 10.0, 25.0, 40.0, 50.0):
        p = chamber_pressure(lpm_to_m3s(q_lpm), cfg)
        r = bending_radius(p, cfg)
        r_mm = "straight" if math.isinf(r) else f"{1000 * r:8.1f}"
        print(f"{q_lpm:6.0f} {p / 1000:9.2f} {r_mm:>8} {tip_force(p, cfg):10.3f}")
    print()

    p_half = chamber_pressure(lpm_to_m3s(50.0), cfg)
    pose = posture(p_half, cfg)
    print("marker positions at the 50 L/min half circle (mm):")
    for i, (x, y) in enumerate(pose.marks):
        print(f"  mark {i}: ({1000 * x:6.2f}, {1000 * y:6.2f})")
    print(f"the tip sits {1000 * 2 * pose.r:.1f} mm above the base, "
          "one bend diameter away.")
    print()

    straight = posture(0.0, cfg)
    d = mean_displacement(straight, pose)
    print(f"mean marker travel from straight to half circle: {1000 * d:.1f} mm")


if __name__ == "__main__":
    main()
