"""Span recorder for the traced run.

`install(tracer)` replaces the public functions listed in `TRACED` by
recording wrappers, everywhere they are bound: in the defining module
and in every `flowhand` module that imported them by name (for example
`flowhand.scenario.steady_outputs` and `flowhand.config.default_system`).
`flowhand.core` is not wrapped: its unit conversions run several times
per CSV row, so a wrapper would cost more than the call, and their time
stays in the caller's self time.  So do leaf helpers such as
`split_flow`, `lever_force` and `injection_active`.

Each span keeps name, start, end, parent and op id in flat arrays; the
arrays are written out once, at the end of the run.  Self time is a
span's duration minus the time its direct child spans cover.  A name in
`TRACED` that the program no longer defines is skipped and reads zero.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

TRACED = {
    "config": ("load_system", "apply_override", "system_to_dict", "read_json"),
    "system": ("default_system",),
    "scenario": ("load_scenario", "run_scenario", "SimTrace.to_csv", "state_thresholds",
                 "sweep", "sweep_csv", "design_search", "validate_table1",
                 "injection_displacement"),
    "fcs": ("steady_outputs", "classify_state"),
    "venturi": ("lubricant_column", "activation_threshold", "q2_activation_threshold",
                "bisect_onset", "size_orifice"),
    "finger": ("chamber_pressure", "bending_radius", "tip_force", "posture",
               "mean_displacement"),
    "tasks": ("payload", "can_grasp", "placement_slip", "placement_disturbance",
              "pivot_feasible"),
}
# layers reported as one total instead of per function
SUMMED_LAYERS = ("finger", "tasks")


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.op = -1
        self.names = ["cli.main"] + [f"{layer}.{fn.split('.')[-1]}"
                                     for layer, fns in TRACED.items() for fn in fns]
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.errors = [0] * n
        self.open = [0] * n
        self.classify_in_thresholds = 0
        self._classify = self.names.index("fcs.classify_state")
        self._thresholds = self.names.index("scenario.state_thresholds")
        self.col_name = array("H")
        self.col_op = array("l")
        self.col_parent = array("l")
        self.col_start = array("d")
        self.col_end = array("d")
        self._stack: list[list] = []
        self._t0 = perf_counter()

    def wrap(self, name: str, fn):
        fid = self.names.index(name)
        counted = fid == self._classify

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack
            idx = len(self.col_start)
            self.col_name.append(fid)
            self.col_op.append(self.op)
            self.col_parent.append(stack[-1][0] if stack else -1)
            self.col_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            self.open[fid] += 1
            if counted and self.open[self._thresholds]:
                self.classify_in_thresholds += 1
            start = perf_counter()
            self.col_start.append(start - self._t0)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[fid] += 1
                raise
            finally:
                end = perf_counter()
                self.col_end[idx] = end - self._t0
                stack.pop()
                self.open[fid] -= 1
                span = end - start
                self.calls[fid] += 1
                self.self_s[fid] += span - frame[1]
                if stack:
                    stack[-1][1] += span

        return traced

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-function calls and self time, summed layers, errors per layer."""
        out: dict[str, tuple[float, str]] = {}
        totals: dict[str, list] = {}
        for fid, name in enumerate(self.names):
            layer, fn = name.split(".")
            calls, self_s = self.calls[fid], self.self_s[fid]
            t = totals.setdefault(layer, [0, 0.0, 0])
            t[0] += calls
            t[1] += self_s
            t[2] += self.errors[fid]
            if layer not in SUMMED_LAYERS and layer != "cli":
                out[f"{name}_calls"] = (calls, "count")
                out[f"{name}_s"] = (self_s, "s")
        for layer, (calls, self_s, errors) in totals.items():
            if layer == "cli":
                out["cli.calls"] = (calls, "count")
                out["cli.self_s"] = (self_s, "s")
            elif layer in SUMMED_LAYERS:
                out[f"{layer}.calls"] = (calls, "count")
                out[f"{layer}.s"] = (self_s, "s")
            out[f"{layer}.errors"] = (errors, "count")
        return out

    def write(self, stem: Path) -> None:
        """Spans to `<stem>.bin` (columns back to back) with a JSON index."""
        columns = (("name", self.col_name), ("op", self.col_op),
                   ("parent", self.col_parent), ("start_s", self.col_start),
                   ("end_s", self.col_end))
        with open(f"{stem}.bin", "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
        index = {"spans": len(self.col_start), "names": self.names,
                 "columns": [[label, col.typecode, col.itemsize] for label, col in columns],
                 "byteorder": sys.byteorder}
        Path(f"{stem}.json").write_text(json.dumps(index, indent=1) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every binding of the traced functions in the loaded flowhand modules."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "flowhand" or name.startswith("flowhand."))]
    for layer, fns in TRACED.items():
        module = sys.modules.get(f"flowhand.{layer}")
        if module is None:
            continue
        for qualname in fns:
            name = f"{layer}.{qualname.split('.')[-1]}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name, None)
                fn = getattr(cls, attr, None)
                if fn is not None:
                    setattr(cls, attr, tracer.wrap(name, fn))
                continue
            fn = getattr(module, qualname, None)
            if fn is None:
                continue
            wrapper = tracer.wrap(name, fn)
            for m in modules:
                for binding, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, binding, wrapper)
