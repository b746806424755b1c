"""Retune the hardware for a different set of operating points.

Suppose the next build should start moving at 20 L/min, pinch off at
100, and inject once the injection line carries 30.  Four closed-form
solves set the jet nozzle, the lever onset, the injection fraction,
and the injector orifice; the thresholds read back from the tuned
build then confirm they land there.
"""

from flowhand.scenario import DesignTargets, design_search
from flowhand.system import default_system


def show(label, system) -> None:
    print(f"{label}:")
    print(f"  jet nozzle s3      : {1e6 * system.fcs.s3:8.3f} mm^2")
    print(f"  lever onset f_rot  : {1000 * system.fcs.f_rot:8.3f} mN")
    print(f"  injection fraction : {system.fcs.gamma:8.3f}")
    print(f"  injector orifice   : {1e6 * system.venturi.s_out:8.3f} mm^2")


def main() -> None:
    show("reference build", default_system())
    print()

    targets = DesignTargets(q_ab_lpm=20.0, q_bc_lpm=100.0, q2_activation_lpm=30.0)
    print(f"targets: move at {targets.q_ab_lpm:g}, pinch at {targets.q_bc_lpm:g}, "
          f"inject at q2 = {targets.q2_activation_lpm:g} L/min")
    tuned, achieved = design_search(targets)
    print()
    show("tuned build", tuned)
    print()

    names = ("A -> B", "B -> C", "q2 onset")
    print(f"{'threshold':>10} {'target':>8} {'achieved':>10}")
    goals = (targets.q_ab_lpm, targets.q_bc_lpm, targets.q2_activation_lpm)
    for name, goal, got in zip(names, goals, achieved):
        print(f"{name:>10} {goal:8.1f} {got:10.2f}")


if __name__ == "__main__":
    main()
