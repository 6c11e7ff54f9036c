"""Timeline export: Chrome trace-event format.

Rank timelines from :class:`~repro.core.simulator.SimulationResult` can
be inspected in ``chrome://tracing`` / Perfetto (each rank a row, each
instruction a duration event, checkpoints flagged).

Observability spans (:mod:`repro.obs.tracing`) export to the same
format: :func:`spans_to_trace_events` lays each process's spans out on
its own ``pid`` row group (one ``tid`` row per concurrent span lane),
:func:`merge_obs_spans` folds them into an existing simulation trace,
and :func:`spans_to_chrome_trace` / :func:`save_spans_chrome_trace`
build a standalone campaign timeline — campaign, supervisor-task and
worker/engine spans in one Perfetto view, linked by the ``span_id`` /
``parent_id`` args carried on every event.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.core.simulator import SimulationResult

#: trace colours by instruction kind (Chrome trace colour names)
_COLORS = {
    "compute": "thread_state_running",
    "exchange": "thread_state_iowait",
    "collective": "thread_state_sleeping",
    "checkpoint": "terrible",
    "rollback": "black",
    "marker": "grey",
}


def to_chrome_trace(
    result: SimulationResult,
    time_unit_us: float = 1e6,
) -> dict:
    """Convert recorded timelines to a Chrome trace-event JSON object.

    Parameters
    ----------
    result:
        A simulation result with at least one recorded timeline.
    time_unit_us:
        Multiplier from simulation seconds to trace microseconds.
    """
    if not result.timelines:
        raise ValueError(
            "no recorded timelines; run the simulator with "
            'record_timelines="rank0" or "all"'
        )
    events = []
    for rank, tl in sorted(result.timelines.items()):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": rank,
                "args": {"name": f"rank {rank}"},
            }
        )
        for e in tl.entries:
            if e.t_end <= e.t_start and e.kind == "marker":
                events.append(
                    {
                        "name": e.label,
                        "ph": "i",
                        "s": "t",
                        "pid": 0,
                        "tid": rank,
                        "ts": e.t_start * time_unit_us,
                    }
                )
                continue
            ev = {
                "name": e.label,
                "cat": e.kind,
                "ph": "X",
                "pid": 0,
                "tid": rank,
                "ts": e.t_start * time_unit_us,
                "dur": max(e.duration, 0.0) * time_unit_us,
            }
            color = _COLORS.get(e.kind)
            if color:
                ev["cname"] = color
            if e.kind == "checkpoint":
                ev["args"] = {"level": e.level}
            events.append(ev)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- observability span export -----------------------------------------------


def spans_to_trace_events(spans: Iterable, time_unit_us: float = 1e6) -> list[dict]:
    """Convert obs :class:`~repro.obs.tracing.Span` objects to trace events.

    Spans are wall-clock epoch intervals; timestamps are normalized to
    the earliest span start so the trace begins at t=0.  Each producing
    process keeps its own ``pid`` row group (with a ``process_name``
    metadata record naming it), each span lane its ``tid``.  The
    ``span_id`` / ``parent_id`` / ``trace_id`` ride in ``args`` so the
    cross-process parent/child links are inspectable in Perfetto.
    Unfinished spans are skipped; zero-duration spans export as instant
    events (``ph: "i"``).
    """
    spans = [s for s in spans if s.t_end is not None]
    if not spans:
        return []
    t0 = min(s.t_start for s in spans)
    events: list[dict] = []
    for pid in sorted({s.pid for s in spans}):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"process {pid}"},
            }
        )
    for s in sorted(spans, key=lambda s: (s.t_start, s.span_id)):
        args = {
            "span_id": s.span_id,
            "parent_id": s.parent_id,
            "trace_id": s.trace_id,
        }
        args.update(s.attrs)
        base = {
            "name": s.name,
            "cat": "obs",
            "pid": s.pid,
            "tid": s.tid,
            "ts": (s.t_start - t0) * time_unit_us,
            "args": args,
        }
        dur = (s.t_end - s.t_start) * time_unit_us
        if dur <= 0:
            base.update(ph="i", s="t")
        else:
            base.update(ph="X", dur=dur)
        events.append(base)
    return events


def spans_to_chrome_trace(spans: Iterable, time_unit_us: float = 1e6) -> dict:
    """A standalone Chrome trace JSON object from obs spans."""
    return {
        "traceEvents": spans_to_trace_events(spans, time_unit_us),
        "displayTimeUnit": "ms",
    }


def merge_obs_spans(trace: dict, spans: Iterable, time_unit_us: float = 1e6) -> dict:
    """Fold obs spans into an existing Chrome trace object (in place).

    Simulation timelines keep ``pid 0``; span events arrive on their
    producing processes' pid rows (real pids are never 0), so the merged
    file shows the simulated timeline and the wall-clock telemetry
    timeline side by side.  Returns *trace* for chaining.
    """
    events = trace.setdefault("traceEvents", [])
    events.extend(spans_to_trace_events(spans, time_unit_us))
    return trace


def save_spans_chrome_trace(spans: Iterable, path) -> None:
    """Write a standalone span trace JSON to *path*."""
    Path(path).write_text(json.dumps(spans_to_chrome_trace(spans)))
