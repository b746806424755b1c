"""Record bench/reference.json from the program in this checkout.

    python3 bench/record_reference.py

Writes, from `flowhand simulate` runs:
- the CSV header;
- per palette command, the columns that depend on the command alone
  (flows, state, injection) and the pressure columns it sets when the
  finger line is open;
- the pressure columns of an unpressurized finger;
- the SHA-256 of every simulate op's CSV for the default seed.

It refuses to write if rebuilding any default-seed trace from the
per-command rows does not give the recorded bytes.  Rerun it only when
a change is meant to alter the CSV output.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import workloads
from checks import DEFAULT_SEED, REFERENCE, call, expected_csv, palette_key
from run import OUT, import_program


def simulate(main, workdir: Path, spec: workloads.ScenarioSpec) -> bytes:
    scen, out = workdir / "scenario.json", workdir / "trace.csv"
    workloads.write_scenario(scen, spec, None, "reference")
    rc, _, err, raised = call(main, ["simulate", str(scen), "--out", str(out)])
    if rc != 0:
        sys.exit(f"simulate failed: {raised or err}")
    return out.read_bytes()


def main() -> None:
    program = import_program()
    ref: dict = {"palette": {}, "digests": {}}
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        for q in workloads.PALETTE:
            header, row = simulate(program, workdir,
                                   workloads.ScenarioSpec(1.0, [(q, 1, None)])).decode().splitlines()
            cols = row.split(",")
            ref["header"] = header
            ref["palette"][palette_key(q)] = {
                "flows": ",".join(cols[1:5]), "state": cols[5],
                "press": ",".join(cols[6:9]), "injection": int(cols[9])}
        # a first segment past pinch-off latches the initial, zero pressure
        row = simulate(program, workdir, workloads.ScenarioSpec(
            1.0, [(workloads.INJECT, 1, None)])).decode().splitlines()[1]
        ref["unpressurized"] = ",".join(row.split(",")[6:9])

        for workload in ("long_holds", "segment_churn"):
            digests = []
            for op in workloads.generate(workload, DEFAULT_SEED, workdir):
                rc, _, err, raised = call(program, op.argv)
                if rc != 0:
                    sys.exit(f"{workload} op {op.pos} failed: {raised or err}")
                data = Path(op.outputs[0]).read_bytes()
                if data != expected_csv(workloads.ScenarioSpec.load(op.scenario), ref):
                    sys.exit(f"{workload} op {op.pos}: trace differs from its per-command rebuild")
                digests.append(hashlib.sha256(data).hexdigest())
            ref["digests"][workload] = digests
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
