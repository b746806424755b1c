"""Output checks for every op the benchmark sends.

- simulate: the CSV bytes must equal the expected trace.  For the
  default seed the expected SHA-256 digests are the ones recorded in
  `reference.json`; for any other seed the expected bytes are rebuilt
  from the per-command rows recorded there, plus the two pieces of
  state the runner carries across segments (latched finger pressure,
  hysteretic friction).
- sweep and design-search: every reported threshold is checked by
  bracketing.  The state (or injection) must flip between the reported
  value and that value minus the search resolution, widened by half a
  unit of the printed last digit.  Exact thresholds pass as well as
  bisected ones.  The flip points are read back through
  `flowhand simulate`, so the check uses only the command-line contract.
- design-search with infeasible targets must exit 1 and write nothing.
- table1 must print `tests/data/table1_golden.txt`; validate must exit 0.

The first accepted output of each op is remembered; a later pass must
reproduce it byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
from pathlib import Path

from workloads import ScenarioSpec, write_scenario

REFERENCE = Path(__file__).with_name("reference.json")
DEFAULT_SEED = 0

RESOLUTION_LPM = 0.01          # the program's threshold search resolution
STATE_CEILING_LPM = 150.0      # state flips are searched below this flow
ACTIVATION_CEILING_LPM = 200.0  # injection onset is searched below this flow
SWEEP_HEADER = ["param", "value", "q_ab_lpm", "q_bc_lpm", "activation_lpm"]
SWEEP_SCENARIO_HEADER = SWEEP_HEADER + ["final_state", "injected", "max_p_f_kpa"]
DESIGN_LINE = re.compile(r"q_ab ([0-9.eE+-]+), q_bc ([0-9.eE+-]+), q2 onset ([0-9.eE+-]+)")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def palette_key(q: float) -> str:
    return repr(float(q))


def expected_csv(spec: ScenarioSpec, ref: dict) -> bytes:
    """The trace CSV the program must emit for a scenario of palette commands."""
    palette = ref["palette"]
    press = ref["unpressurized"]
    friction = "high"
    lines = [ref["header"]]
    dt = spec.timestep
    k = 0
    for q, steps, event in spec.segments:
        row = palette[palette_key(q)]
        if row["state"] != "C":        # pinch-off seals the finger line
            press = row["press"]
        if row["injection"]:
            friction = "low"
        tail = f",{row['flows']},{row['state']},{press},{row['injection']},{friction}"
        for _ in range(steps):
            lines.append(format(k * dt, ".6g") + tail)
            k += 1
        if event == "place":           # releasing the object wipes the lubricant
            friction = "high"
    return ("\n".join(lines) + "\n").encode()


def _slack(printed: str) -> float:
    """Half a unit of the last digit `%.6g` keeps, plus a little margin."""
    value = abs(float(printed))
    if value == 0.0:
        return 1e-12
    return 0.51 * 10.0 ** (math.floor(math.log10(value)) - 5)


def call(main, argv: list[str]) -> tuple[int | None, str, str, str | None]:
    """Run one command in process: (exit code, stdout, stderr, exception)."""
    out, err = io.StringIO(), io.StringIO()
    raised = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc, raised = None, f"SystemExit({exc.code})"
        except Exception as exc:       # any escape from main is a failed op
            rc, raised = None, f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue(), raised


class Checker:
    """Decides whether an op's output is right; remembers accepted outputs."""

    def __init__(self, main, workload: str, seed: int, tiny: bool,
                 workdir: Path, golden: Path):
        self.main = main
        self.ref = load_reference()
        recorded = self.ref["digests"].get(workload)
        self.recorded = recorded if seed == DEFAULT_SEED and not tiny else None
        self.workdir = Path(workdir)
        self.golden = golden.read_text()
        self.accepted: dict[int, str] = {}

    # -- entry point ---------------------------------------------------

    def check(self, op, rc, out: str, err: str, raised: str | None) -> str | None:
        """None if the op succeeded, else why it failed."""
        if raised is not None:
            return f"raised out of main: {raised}"
        if rc != op.expect_rc:
            return f"exit code {rc}, expected {op.expect_rc}: {err.strip()[:200]}"
        files = []
        for path in op.outputs:
            p = Path(path)
            files.append(p.read_bytes() if p.exists() else None)
        h = hashlib.sha256(out.encode())
        for data in files:
            h.update(b"-" if data is None else hashlib.sha256(data).digest())
        digest = h.hexdigest()
        if op.pos in self.accepted:
            if self.accepted[op.pos] != digest:
                return "output differs from the first run of the same op"
            return None
        reason = getattr(self, "_check_" + op.kind.replace("-", "_"))(op, out, err, files)
        if reason is None:
            self.accepted[op.pos] = digest
        return reason

    # -- per command ---------------------------------------------------

    def _check_simulate(self, op, out, err, files):
        data = files[0]
        if data is None:
            return "no CSV written"
        got = hashlib.sha256(data).hexdigest()
        if self.recorded is not None:
            want = self.recorded[op.pos]
        else:
            spec = ScenarioSpec.load(op.scenario)
            want = hashlib.sha256(expected_csv(spec, self.ref)).hexdigest()
        if got != want:
            return f"CSV digest {got[:12]} != expected {want[:12]}"
        return None

    def _check_table1(self, op, out, err, files):
        return None if out == self.golden else "table1 report differs from the golden file"

    def _check_validate(self, op, out, err, files):
        return "validate printed a [FAIL] line" if "[FAIL]" in out else None

    def _check_design_search(self, op, out, err, files):
        tuned = files[0]
        if op.expect_rc == 1:
            if tuned is not None:
                return "infeasible targets still wrote a tuned config"
            if "error:" not in err:
                return "infeasible targets exited 1 without an error message"
            return None
        if tuned is None:
            return "no tuned config written"
        found = DESIGN_LINE.findall(out)
        if len(found) < 2:
            return "no achieved thresholds in the report"
        achieved = found[1]
        config = json.loads(tuned)
        jet_to_q2 = config["fcs"]["alpha"] * config["fcs"]["gamma"]
        slack = 0.0051                   # printed with two decimals
        flips = []
        for name, printed in zip(("q_ab", "q_bc"), achieved[:2]):
            v = float(printed)
            flips.append((name, v - RESOLUTION_LPM - slack, v + slack))
        q2 = float(achieved[2])
        # the injection line carries alpha * gamma of the source flow
        # once the lever is open, so its onset maps onto a source flow
        flips.append(("q2", (q2 - RESOLUTION_LPM - slack) / jet_to_q2,
                      (q2 + slack) / jet_to_q2))
        rows = self._points(config, [q for _, lo, hi in flips for q in (lo, hi)])
        for i, (name, lo, hi) in enumerate(flips):
            below, above = rows[2 * i], rows[2 * i + 1]
            if not _flipped(name, below, above):
                return f"{name} {achieved[i]} does not bracket the flip"
        return None

    def _check_sweep(self, op, out, err, files):
        lines = out.splitlines()
        header = SWEEP_SCENARIO_HEADER if op.scenario is not None else SWEEP_HEADER
        if not lines or lines[0].split(",") != header:
            return "unexpected sweep header"
        rows = [line.split(",") for line in lines[1:]]
        values = op.detail["values"]
        if len(rows) != len(values):
            return f"{len(rows)} sweep rows for {len(values)} values"
        section, key = op.detail["param"].split(".")
        for text, row in zip(values, rows):
            cells = dict(zip(header, row))
            if cells["param"] != op.detail["param"] or cells["value"] != format(float(text), ".6g"):
                return f"sweep row {row} does not echo its value {text}"
            reason = self._check_sweep_row({section: {key: float(text)}}, cells, op)
            if reason is not None:
                return f"value {text}: {reason}"
        return None

    def _check_sweep_row(self, config, cells, op):
        flips, points = [], []
        for name, ceiling in (("q_ab", STATE_CEILING_LPM), ("q_bc", STATE_CEILING_LPM),
                              ("activation", ACTIVATION_CEILING_LPM)):
            printed = cells[name + "_lpm"]
            if printed:
                v = float(printed)
                flips.append((name, printed, len(points)))
                points += [max(0.0, v - RESOLUTION_LPM - _slack(printed)), v + _slack(printed)]
            else:
                flips.append((name, None, len(points)))
                points.append(ceiling)
        prefix = ScenarioSpec.load(op.scenario) if op.scenario is not None else None
        rows = self._points(config, points, prefix, op.detail.get("scene"))
        n = prefix.rows if prefix is not None else 0
        scenario_rows, rows = rows[:n], rows[n:]
        for name, printed, at in flips:
            if printed is None:
                if _flipped(name, None, rows[at]):
                    return f"{name} is empty but flips below the ceiling"
            elif not _flipped(name, rows[at], rows[at + 1]):
                return f"{name} {printed} does not bracket the flip"
        if prefix is not None:
            want = (scenario_rows[-1][5],
                    "1" if any(r[9] == "1" for r in scenario_rows) else "0",
                    format(max(float(r[6]) for r in scenario_rows), ".6g"))
            got = (cells["final_state"], cells["injected"], cells["max_p_f_kpa"])
            if got != want:
                return f"scenario columns {got} != {want}"
        return None

    # -- point evaluations through the command line ----------------------

    def _points(self, config: dict, flows: list[float],
                prefix: ScenarioSpec | None = None, scene: dict | None = None):
        """CSV rows of `prefix` followed by one row per flow [L/min]."""
        cfg = self.workdir / "check_config.json"
        scen = self.workdir / "check_scenario.json"
        out = self.workdir / "check_trace.csv"
        cfg.write_text(json.dumps(config))
        dt = prefix.timestep if prefix is not None else 1.0
        segments = list(prefix.segments) if prefix is not None else []
        spec = ScenarioSpec(dt, segments + [(q, 1, None) for q in flows])
        write_scenario(scen, spec, scene, "check")
        rc, _, err, raised = call(self.main, ["simulate", str(scen), "--config", str(cfg),
                                              "--out", str(out)])
        if rc != 0:
            raise RuntimeError(f"check simulation failed: {raised or err.strip()}")
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        if len(rows) != spec.rows:
            raise RuntimeError(f"check simulation gave {len(rows)} rows, wanted {spec.rows}")
        return rows


def _flipped(name: str, below, above) -> bool:
    """Whether the flip named `name` lies between two CSV rows.

    With `below` None, whether it happened at or below `above`'s flow."""
    if name == "q_ab":
        test = lambda row: row[5] != "A"
    elif name == "q_bc":
        test = lambda row: row[5] == "C"
    else:
        test = lambda row: row[9] == "1"
    if below is None:
        return test(above)
    return not test(below) and test(above)
