"""Command-line front end.

Subcommands, each parsed by its own parser from the arguments after its name:

  simulate       run a scenario file, stream the per-step CSV
  sweep          thresholds vs one config key over a list of values
  design-search  tune the switch and orifice for target thresholds
  table1         prototype-table validation report
  validate       self-check battery against the bench anchors

Exit codes: 0 success, 1 config or input error, 2 validation mismatch or
a malformed command line (argparse prints the usage line).
Warnings and task outcomes go to stderr so stdout stays machine-readable.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .config import ConfigError, load_system, system_to_dict
from .core import lpm_to_m3s, m3s_to_lpm
from .scenario import (
    DesignTargets,
    Scenario,
    Segment,
    SimulationError,
    design_search,
    injection_displacement,
    load_scenario,
    operating_point,
    run_scenario,
    state_thresholds,
    sweep,
    sweep_csv,
    validate_table1,
)
from .system import INJECTION_COMMAND_LPM, MOTION_MAX_LPM, Q2_ONSET_LPM, Q_AB_LPM, Q_BC_LPM
from .tasks import GraspScene, can_grasp, payload
from .venturi import InfeasibleDesignError, activation_threshold, q2_activation_threshold


def _emit(write, out: str | None) -> None:
    """Call `write` with the --out file open, or with stdout when there is
    none; a file that cannot be opened or written is a ConfigError."""
    if not out:
        write(sys.stdout)
        return
    try:
        with open(out, "w") as fh:
            write(fh)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from exc


def _warn(lines) -> None:
    """Each line as "warning: <line>" on stderr, all in one write."""
    sys.stderr.write("".join([f"warning: {line}\n" for line in lines]))


def _cmd_simulate(args) -> int:
    system = load_system(args.config)
    if args.config:
        # a blocking curve the pinch force crosses more than once, or a
        # full inlet that stops the injection again, is a ConfigError
        # here as in sweep and validate
        state_thresholds(system.fcs, system.consts)
        activation_threshold(system.venturi, system.fcs, system.consts)
    scenario, scene = load_scenario(args.scenario)
    _warn(scenario.warnings())
    trace = run_scenario(scenario, system, scene)
    # the file is opened only once the run has succeeded, so a failed
    # run leaves no partial CSV behind
    _emit(trace.to_csv, args.out)
    for name, value in (("grasp", trace.grasp_ok), ("lift", trace.lift_ok),
                        ("place", trace.place_outcome), ("pivot", trace.pivot_ok)):
        if value is not None:
            shown = value.value if hasattr(value, "value") else ("ok" if value else "failed")
            print(f"{name}: {shown}", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    system = load_system(args.config)
    scenario = scene = None
    if args.scenario:
        scenario, scene = load_scenario(args.scenario)
        _warn(scenario.warnings())
    values = []
    for chunk in args.values.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            values.append(float(chunk))
        except ValueError:
            raise ConfigError(f"--values: not a number: {chunk!r}") from None
    text = sweep_csv(sweep(args.param, values, system, scenario, scene),
                     with_scenario=scenario is not None)
    _emit(lambda fh: fh.write(text), args.out)
    return 0


def _cmd_design_search(args) -> int:
    system = load_system(args.config)
    targets = DesignTargets(q_ab_lpm=args.q_ab, q_bc_lpm=args.q_bc,
                            q2_activation_lpm=args.q2)
    tuned, (q_ab, q_bc, q2) = design_search(targets, system)
    # the config is written before any result line, so a failed write
    # exits 1 with nothing on stdout
    if args.out:
        text = json.dumps(system_to_dict(tuned), indent=2) + "\n"
        _emit(lambda fh: fh.write(text), args.out)
    print(f"targets  (L/min): q_ab {targets.q_ab_lpm:g}, q_bc {targets.q_bc_lpm:g}, "
          f"q2 onset {targets.q2_activation_lpm:g}")
    print(f"achieved (L/min): q_ab {q_ab:g}, q_bc {q_bc:g}, q2 onset {q2:g}")
    if args.out:
        print(f"tuned config written to {args.out}")
    return 0


def _cmd_table1(args) -> int:
    report = validate_table1()
    text = report.to_text()
    _emit(lambda fh: fh.write(text), args.out)
    return 0 if report.all_match() else 2


def _protocol_scenario() -> Scenario:
    """Stepped holds through the motion band, then the injection command."""
    return Scenario(name="protocol", timestep=0.01, segments=tuple(
        Segment(duration=1.0, q_src=lpm_to_m3s(q))
        for q in (10.0, 20.0, 30.0, 40.0, 50.0, INJECTION_COMMAND_LPM)))


def _cmd_validate(args) -> int:
    system = load_system(args.config)
    consts = system.consts
    checks: list[tuple[str, bool, str]] = []

    report = validate_table1()
    checks.append(("table listed classification", report.listed_matches() == 4,
                   f"{report.listed_matches()}/4"))
    checks.append(("table recomputed forces", report.model_matches() == 4
                   and report.max_f1_error() <= 0.15,
                   f"{report.model_matches()}/4, max f1 error "
                   f"{100 * report.max_f1_error():.1f}%"))

    q_ab, q_bc = state_thresholds(system.fcs, consts)
    # (check, threshold [m^3/s] or None, paper value and tolerance [L/min])
    for name, q, paper, tol in (
            ("lever flip", q_ab, Q_AB_LPM, 0.1), ("pinch-off flip", q_bc, Q_BC_LPM, 1.0),
            ("injection activation", activation_threshold(system.venturi, system.fcs, consts),
             Q_BC_LPM, 1.0),
            ("injection-line onset", q2_activation_threshold(system.venturi, consts),
             Q2_ONSET_LPM, 1.0)):
        lpm = None if q is None else m3s_to_lpm(q)
        checks.append((name, lpm is not None and abs(lpm - paper) <= tol,
                       f"{'none' if lpm is None else f'{lpm:.2f}'} L/min vs {paper}"))

    motion, full = (operating_point(lpm_to_m3s(q), system)
                    for q in (MOTION_MAX_LPM, INJECTION_COMMAND_LPM))
    checks.append(("injection gating", not motion.injecting and full.injecting,
                   f"off at {MOTION_MAX_LPM:g} L/min, on at {INJECTION_COMMAND_LPM:g} L/min"))

    # none when state C seals the chamber at a pressure the path sets
    lift = None if motion.finger is None else payload(motion.finger[1], system.hand,
                                                      system.hand.mu_high)
    checks.append(("payload", lift is not None and abs(lift - 1.5) / 1.5 <= 0.02,
                   f"{'none' if lift is None else f'{lift:.3f} N'} vs 1.5 N"))
    # massless objects: the gate tests the width alone
    wide, fits = (GraspScene(object_width=w, object_mass=0.0) for w in (0.073, 0.072))
    checks.append(("opening gate", (not can_grasp(wide, 0.0, system.hand, consts))
                   and can_grasp(fits, 0.0, system.hand, consts),
                   "73 mm rejected, 72 mm accepted"))

    trace = run_scenario(_protocol_scenario(), system)
    disp = injection_displacement(trace, system.finger)
    checks.append(("posture hold", disp == 0.0,
                   f"mean mark displacement {'none' if disp is None else f'{disp:g} m'}"))

    width = max(len(name) for name, _, _ in checks)
    ok = True
    for name, passed, detail in checks:
        ok &= passed
        print(f"[{'PASS' if passed else 'FAIL'}] {name:<{width}}  {detail}")
    print(f"{sum(p for _, p, _ in checks)}/{len(checks)} checks passed")
    return 0 if ok else 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call. Every caller gets
    the same object, so parse with it and do not add to it."""
    parser = argparse.ArgumentParser(
        prog="flowhand",
        description="Flow-switched soft hand models: simulate, sweep, design, validate.")
    sub = parser.add_subparsers(dest="command", required=True)
    # main hands the arguments after a command's name to its parser alone
    parser.set_defaults(commands=sub.choices)

    sim = sub.add_parser("simulate", help="run a scenario file, emit per-step CSV")
    sim.add_argument("scenario", help="scenario JSON file")
    sim.add_argument("--config", help="system config JSON file")
    sim.add_argument("--out", help="CSV output path (default stdout)")
    sim.set_defaults(func=_cmd_simulate)

    swp = sub.add_parser("sweep", help="thresholds vs one config key")
    swp.add_argument("--param", required=True, help="config path, e.g. fcs.epsilon")
    swp.add_argument("--values", required=True,
                     help="comma-separated values, e.g. 1.5,2.6")
    swp.add_argument("--config", help="system config JSON file")
    swp.add_argument("--scenario", help="scenario to run per value")
    swp.add_argument("--out", help="CSV output path (default stdout)")
    swp.set_defaults(func=_cmd_sweep)

    des = sub.add_parser("design-search",
                         help="tune switch and orifice for target thresholds")
    des.add_argument("--q-ab", type=float, default=Q_AB_LPM,
                     help="target lever-flip flow [L/min]")
    des.add_argument("--q-bc", type=float, default=Q_BC_LPM,
                     help="target pinch-off flow [L/min]")
    des.add_argument("--q2", type=float, default=Q2_ONSET_LPM,
                     help="target injection-line onset [L/min]")
    des.add_argument("--config", help="system config JSON file to start from")
    des.add_argument("--out", help="write the tuned config JSON here")
    des.set_defaults(func=_cmd_design_search)

    tab = sub.add_parser("table1", help="prototype-table validation report")
    tab.add_argument("--out", help="report output path (default stdout)")
    tab.set_defaults(func=_cmd_table1)

    val = sub.add_parser("validate", help="self-check against the bench anchors")
    val.add_argument("--config", help="system config JSON file")
    val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code; a malformed command line
    raises argparse's SystemExit(2) after printing the usage line.

    The parser is built on the first call and reused for every later one
    in the process: `parse_args` makes a fresh namespace each time, and
    no argument has a mutable default.  A command's own parser parses the
    arguments after its name; the top-level parser reports what that
    leaves unrecognized and parses any other command line."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.get_default("commands").get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args, extra = command.parse_known_args(argv[1:])
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (SimulationError, InfeasibleDesignError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
