"""Per-step view of a trace for tests: one object per CSV row.

A SimTrace stores one run (stop, row) per segment and a table of
distinct output rows; the oracles that check it row by row expand the
runs here.
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


def step_records(trace, segments=(), start=0) -> tuple[StepRecord, ...]:
    """One record per step of trace from step `start`.  Given the
    scenario's segments, each event sits on the first step of its
    segment; without them no record has an event."""
    dt = trace.timestep
    events = [seg.event for seg in segments] or [None] * len(trace.runs)
    out = []
    first = 0
    for (stop, row), event in zip(trace.runs, events, strict=True):
        # an outputs row's fields are StepRecord's fields after t
        fields = trace.outputs[row]
        out += (StepRecord(k * dt, *fields, event=event if k == first else None)
                for k in range(max(first, start), stop))
        first = stop
    return tuple(out)
