"""Grasp, lubricate, place: the whole trick in one scenario.

Placing a gripped object gently needs the grip to fail on purpose.
The same flow knob that closes the fingers can, at full command,
inject lubricant onto the fingertips; the object then slides out of
the grip under its own weight instead of being torn free.  We run the
same pick-and-place twice, with and without the injection step, and
compare what happens at the drop.
"""

from flowhand.core import lpm_to_m3s
from flowhand.scenario import Scenario, Segment, run_scenario
from flowhand.tasks import GraspScene, placement_disturbance


def seg(duration, q_lpm, event=None):
    return Segment(duration=duration, q_src=lpm_to_m3s(q_lpm), event=event)


def describe(name, trace) -> None:
    print(f"{name}:")
    print(f"  grasp          : {'ok' if trace.grasp_ok else 'failed'}")
    if trace.lift_ok is not None:
        print(f"  lift           : {'held' if trace.lift_ok else 'slipped'}")
    print(f"  at the drop    : {trace.place_outcome.value}")
    print(f"  disturbance    : {placement_disturbance(trace.place_outcome):.0f}  (0 gentle, 1 jolted)")
    states = "".join(s.name for s in trace.state_sequence())
    print(f"  states visited : {states}")
    print()


def main() -> None:
    scene = GraspScene(object_width=0.05, object_mass=0.12)
    print(f"object: {1000 * scene.object_width:.0f} mm wide, "
          f"{scene.object_mass:.2f} kg\n")

    lubricated = Scenario("lubricated place", (
        seg(1.0, 50.0, event="grasp"),
        seg(1.0, 50.0, event="lift"),
        seg(1.0, 150.0),               # injection command
        seg(1.0, 50.0, event="place"),
    ))
    dry = Scenario("dry place", (
        seg(1.0, 50.0, event="grasp"),
        seg(1.0, 50.0, event="lift"),
        seg(1.0, 50.0, event="place"),
    ))

    describe("with injection", run_scenario(lubricated, scene=scene))
    describe("without injection", run_scenario(dry, scene=scene))

    pivot = Scenario("pivot", (
        seg(1.0, 50.0, event="grasp"),
        seg(1.0, 150.0),
        seg(1.0, 50.0, event="pivot"),
    ))
    trace = run_scenario(pivot, scene=scene)
    print("pivot after lubrication:",
          "object rotates in the grip" if trace.pivot_ok else "stuck")
    trace = run_scenario(Scenario("dry pivot", (
        seg(1.0, 50.0, event="grasp"),
        seg(1.0, 50.0, event="pivot"),
    )), scene=scene)
    print("pivot on dry fingertips:",
          "object rotates in the grip" if trace.pivot_ok else "stuck")


if __name__ == "__main__":
    main()
