"""Engine statistics and event tracing utilities.

SST ships statistics collection alongside its components; this module
provides the equivalents our experiments and debugging need:

* :class:`EventCounter` — per-component / per-kind event counts collected
  from an engine's trace log,
* :class:`UtilizationTracker` — per-component busy-time accounting, fed
  by the engine's observability hook (attach an
  :class:`~repro.obs.instrument.EngineObs` via ``engine.attach_obs``;
  the run loop times every handler call and credits the destination
  component),
* :func:`event_rate` — events/second of wall clock, the engine's
  throughput metric used in ABL4,
* :func:`trace_digest` — a stable hash of an event trace, the compact
  equality witness used by the determinism / snapshot-restore checks.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from typing import Sequence

from repro.des.engine import Engine


def trace_digest(trace: Sequence[tuple] | Engine) -> str:
    """SHA-256 of an event trace (or of an engine's ``trace_log``).

    Records hash through ``repr`` of their canonical tuples, so two
    traces share a digest iff they are equal element-for-element —
    including float-exact timestamps.
    """
    log = trace.trace_log if isinstance(trace, Engine) else trace
    acc = hashlib.sha256()
    for rec in log:
        acc.update(repr(tuple(rec)).encode("utf-8"))
    return acc.hexdigest()


class EventCounter:
    """Aggregates an engine's trace log into per-endpoint counts.

    The engine must have been constructed with ``trace=True``.
    """

    def __init__(self, engine: Engine) -> None:
        if not engine.trace:
            raise ValueError("engine was not constructed with trace=True")
        self.engine = engine

    def by_destination(self) -> Counter:
        return Counter(dst for _, _, _, _, dst in self.engine.trace_log)

    def total(self) -> int:
        return len(self.engine.trace_log)


class UtilizationTracker:
    """Busy-time accounting for simulated components, fed by the engine.

    The engine's observability hook is the (only) producer: with an
    :class:`~repro.obs.instrument.EngineObs` attached, ``Engine.run``
    times each event handler and the adapter drains the per-component
    totals into :meth:`add_busy` at run end — components themselves
    never self-report.  :meth:`utilization` then prices busy time
    against a horizon (typically the run's wall time)::

        obs = engine.attach_obs(EngineObs())
        wall, _ = event_rate(engine, engine.run)
        obs.utilization.report(horizon=wall)
    """

    def __init__(self) -> None:
        self._busy: dict[str, float] = {}

    def add_busy(self, component: str, duration: float) -> None:
        if duration < 0:
            raise ValueError(f"negative duration {duration!r}")
        self._busy[component] = self._busy.get(component, 0.0) + duration

    def busy_time(self, component: str) -> float:
        return self._busy.get(component, 0.0)

    def utilization(self, component: str, horizon: float) -> float:
        if horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {horizon}")
        return min(self.busy_time(component) / horizon, 1.0)

    def report(self, horizon: float) -> dict[str, float]:
        return {
            name: self.utilization(name, horizon) for name in sorted(self._busy)
        }


def event_rate(engine: Engine, run_callable) -> tuple[float, float]:
    """Execute *run_callable* (e.g. ``lambda: engine.run()``) and return
    ``(wall seconds, events per second)``."""
    before = engine.events_fired
    t0 = time.perf_counter()
    run_callable()
    wall = time.perf_counter() - t0
    fired = engine.events_fired - before
    return wall, (fired / wall if wall > 0 else float("inf"))
