"""Per-step view of a trace for tests: one object per CSV row.

A SimTrace stores one run per segment; the oracles that check it row by
row expand the runs here.
"""

from __future__ import annotations

from dataclasses import dataclass

from flowhand.fcs import FcsState
from flowhand.tasks import FrictionState


@dataclass(frozen=True)
class StepRecord:
    """One CSV row as an object; see step_records."""

    t: float
    q_src: float               # m^3/s
    q1: float
    q2: float
    q_exhaust: float
    state: FcsState
    p_f: float                 # Pa
    r: float                   # m, inf when straight
    f_tip: float               # N
    injection: bool
    friction: FrictionState
    event: str | None = None


def step_records(trace) -> tuple[StepRecord, ...]:
    """One record per step of trace; the event sits on the first step of
    its segment."""
    dt = trace.timestep
    # a run's fields q_src .. friction are StepRecord's fields after t
    return tuple(
        StepRecord(k * dt, *run[2:12], event=run.event if k == run.first else None)
        for run in trace.runs for k in range(run.first, run.stop))
