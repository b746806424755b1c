"""Walk the switch through its three regimes by turning up one flow knob.

A single source flow is all the controller has.  Small flows bend the
fingers (state A), mid flows split between fingers and the injection
line without reaching the injector's onset (state B), and large flows
pinch the finger line shut and drive the injector (state C).  This
script sweeps the knob and prints where the machine changes its mind.
"""

from flowhand.core import lpm_to_m3s, m3s_to_lpm
from flowhand.fcs import steady_outputs
from flowhand.scenario import state_thresholds
from flowhand.system import default_system


def main() -> None:
    system = default_system()
    fcs, consts = system.fcs, system.consts

    q_ab, q_bc = state_thresholds(fcs, consts)
    print("calibrated flip points")
    print(f"  lever rotates (A -> B) at {m3s_to_lpm(q_ab):7.2f} L/min")
    print(f"  line pinches  (B -> C) at {m3s_to_lpm(q_bc):7.2f} L/min")
    print()

    print(f"{'q_src':>7} {'state':>5} {'q1':>8} {'q2':>8} {'exhaust':>8}   (L/min)")
    last = None
    for q_lpm in range(151):
        out = steady_outputs(lpm_to_m3s(float(q_lpm)), fcs, consts)
        marker = ""
        if last is not None and out.state is not last:
            marker = f"   <- enters {out.state.name}"
        if q_lpm % 10 == 0 or marker:
            print(f"{q_lpm:7.0f} {out.state.name:>5} "
                  f"{m3s_to_lpm(out.q1):8.3f} {m3s_to_lpm(out.q2):8.3f} "
                  f"{m3s_to_lpm(out.q_exhaust):8.3f}{marker}")
        last = out.state

    print()
    print("note how q1 freezes to zero past the pinch-off: whatever posture")
    print("the fingers held at that moment is the posture they keep.")


if __name__ == "__main__":
    main()
