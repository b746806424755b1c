"""Size the injector orifice so lubricant arrives exactly on cue.

The injection line ends in a constriction; fast air there drops the
static pressure and pulls lubricant up a supply tube of height h_t.
The orifice area decides how much flow is needed before the column
clears the top.  Here we size it so the onset lands at 44 L/min of
injection-line flow, which the switch delivers at a 118 L/min source
command, then show how the onset moves with the tube height.
"""

from flowhand.core import PhysConstants, lpm_to_m3s, m3s_to_lpm
from flowhand.venturi import (
    VenturiConfig,
    lubricant_column,
    q2_activation_threshold,
    size_orifice,
)

CONSTS = PhysConstants()


def main() -> None:
    seed = VenturiConfig(s_in=20e-6, s_out=10e-6, s_t=3e-6, h_t=0.055)
    target = lpm_to_m3s(44.0)
    s_out = size_orifice(target, seed, CONSTS)
    cfg = VenturiConfig(s_in=seed.s_in, s_out=s_out, s_t=seed.s_t, h_t=seed.h_t)

    print(f"tube height h_t        : {1000 * cfg.h_t:.0f} mm")
    print(f"inlet section          : {1e6 * cfg.s_in:.1f} mm^2")
    print(f"sized orifice          : {1e6 * s_out:.3f} mm^2")
    onset = q2_activation_threshold(cfg, CONSTS)
    print(f"resulting onset        : {m3s_to_lpm(onset):.2f} L/min of q2")
    print()

    print(f"{'q2 [L/min]':>11} {'column rise [mm]':>17}")
    for q_lpm in range(0, 61, 5):
        h = lubricant_column(lpm_to_m3s(float(q_lpm)), lpm_to_m3s(float(q_lpm)),
                             cfg, CONSTS)
        bar = "#" * int(round(1000 * h / 2))
        mark = "  <- clears the tube" if h > cfg.h_t else ""
        print(f"{q_lpm:11.0f} {1000 * h:17.2f}  {bar}{mark}")
    print()

    print("moving the supply tube changes the onset without touching the part:")
    for h_mm in (10.0, 30.0, 55.0, 80.0):
        probe = VenturiConfig(s_in=cfg.s_in, s_out=cfg.s_out, s_t=cfg.s_t,
                              h_t=h_mm / 1000.0)
        onset = q2_activation_threshold(probe, CONSTS)
        shown = "never below 100 L/min" if onset is None else \
            f"{m3s_to_lpm(onset):6.2f} L/min"
        print(f"  h_t {h_mm:5.1f} mm -> onset {shown}")


if __name__ == "__main__":
    main()
