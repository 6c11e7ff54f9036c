"""Conservative parallel discrete-event engine (YAWNS-style windows).

SST executes its component graph across MPI ranks using conservative
synchronisation: because every cross-rank interaction crosses a link with
non-zero latency, each rank may safely process all events in the window
``[t, t + lookahead)`` without hearing from its peers, where ``lookahead``
is the minimum cross-rank link latency.  At each window boundary the ranks
exchange the remote events they generated.

This class reproduces that algorithm with in-process partitions, each with
a private event queue, processed one after another inside a window (which
the conservative invariant makes legitimate: they cannot affect each other
within it).  So every component receives the same events at the same
times in the same order as under the sequential engine, and the multiset
of fired ``(time, priority, src, dst)`` events and ``events_fired`` are
equal.  The global interleaving, and with it the trace order and ``seq``
stamps, differs whenever two partitions hold events inside one window; a
token ring, with one event in flight, keeps the whole trace identical.

Hooks that only the sequential loop drives — lazy events
(:meth:`~repro.des.engine.Engine.defer`), auto-snapshots, event journals
and flight recorders — raise :class:`SimulationError` instead of being
silently ignored.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Iterable, Optional

from repro.des.engine import Engine, SimulationError
from repro.des.event import Event, EventQueue


def block_partition(names: Iterable[str], nparts: int) -> dict[str, int]:
    """Split sorted *names* into *nparts* contiguous, balanced blocks.

    Block sizes differ by at most one; the first ``len(names) % nparts``
    blocks take the extra name.  Requires ``1 <= nparts <= len(names)``.
    """
    ordered = sorted(names)
    base, rem = divmod(len(ordered), nparts)
    out: dict[str, int] = {}
    for part in range(nparts):
        start = part * base + min(part, rem)
        out.update(dict.fromkeys(ordered[start : start + base + (part < rem)], part))
    return out


class ParallelEngine(Engine):
    """Partitioned conservative engine.

    Components are split into *nparts* contiguous blocks of their sorted
    names (:func:`block_partition`); engine-level (``dst=None``) events
    run on partition 0.

    Parameters
    ----------
    nparts:
        Number of partitions ("virtual ranks").  Must not exceed the
        number of registered components at ``run()`` time.
    """

    def __init__(self, nparts: int = 2, seed: int = 0, trace: bool = False) -> None:
        super().__init__(seed=seed, trace=trace)
        if nparts < 1:
            raise SimulationError(f"nparts must be >= 1, got {nparts}")
        self.nparts = nparts
        self._assignment: dict[str, int] = {}
        self._queues: list[EventQueue] = []
        self.lookahead: float = float("inf")
        self.windows_executed = 0
        self._active_part: Optional[int] = None
        self._window_end: float = float("inf")

    # -- event routing -------------------------------------------------------

    def _part_of(self, name: Optional[str]) -> int:
        return self._assignment.get(name, 0)

    def schedule_event(self, event: Event) -> Event:
        if event.time < self.now:
            raise SimulationError(
                f"event scheduled in the past: {event.time} < now={self.now}"
            )
        if not self._queues:
            # Not yet running: stage through the base queue; run() will
            # distribute staged events to partition queues.
            return self.queue.push(event)
        target = self._part_of(event.dst)
        if (
            self._active_part is not None
            and target != self._active_part
            and event.time < self._window_end
        ):
            # A conservative engine must never receive an event inside the
            # current safe window from another partition.
            raise SimulationError(
                "conservative violation: cross-partition event at "
                f"t={event.time} inside window ending {self._window_end} "
                f"({event.src} -> {event.dst}); link latency below lookahead?"
            )
        if event.seq < 0:
            event.seq = self.queue.take_seq()
        return self._queues[target].push(event)

    def defer(self, delay: float, handler=None, payload=None) -> tuple:
        raise SimulationError(
            "lazy events (defer) are committed only by the sequential "
            "Engine's loop; ParallelEngine would never fire them — schedule "
            "a heap event instead"
        )

    # -- lookahead -----------------------------------------------------------

    def _compute_lookahead(self) -> float:
        la = float("inf")
        for link in self.links:
            pa = self._part_of(link.a.component.name)
            pb = self._part_of(link.b.component.name)
            if pa != pb:
                if link.latency <= 0.0:
                    raise SimulationError(
                        f"zero-latency cross-partition link {link.name!r} "
                        f"(partition {pa} <-> {pb}): conservative windows "
                        "require strictly positive lookahead — raise the "
                        "link latency or co-locate its endpoints"
                    )
                la = min(la, link.latency)
        return la

    # -- execution -----------------------------------------------------------

    def _reject_sequential_hooks(self) -> None:
        for hook, what in (
            (self._autosnap, "auto-snapshots (enable_autosnapshot)"),
            (self._journal, "an event journal (attach_journal)"),
            (self._flightrec, "a flight recorder (attach_flightrec)"),
        ):
            if hook is not None:
                raise SimulationError(
                    f"ParallelEngine does not support {what}; run on the "
                    "sequential Engine instead"
                )

    def _prepare_run(self) -> None:
        if self.nparts > len(self.components):
            raise SimulationError(
                f"nparts={self.nparts} exceeds the {len(self.components)} "
                "registered component(s); every partition must own at "
                "least one component — reduce nparts or register more "
                "components"
            )
        if not self._assignment:
            self._assignment = block_partition(self.components, self.nparts)
        self.lookahead = self._compute_lookahead()
        if not self._queues:
            self._queues = [EventQueue() for _ in range(self.nparts)]
            for comp in self.components.values():
                comp.setup()
            self._setup_done = True
            # Distribute events staged before run() started.
            while self.queue:
                ev = self.queue.pop()
                self._queues[self._part_of(ev.dst)].push(ev)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        if self._running:
            raise SimulationError("engine is already running")
        self._reject_sequential_hooks()
        self._running = True
        obs = self._obs
        obs_busy = obs.busy if obs is not None else None
        if obs is not None:
            obs.run_started(self)
        try:
            self._prepare_run()
            end = float("inf") if until is None else float(until)
            limit = float("inf") if max_events is None else self.events_fired + max_events
            while True:
                t_min = min(q.peek_time() for q in self._queues)
                if t_min == float("inf") or t_min > end:
                    break
                # nextafter(end) lets events scheduled exactly at the end
                # horizon fire, matching the sequential engine's `t > end`
                # stop rule.
                window_end = min(t_min + self.lookahead, math.nextafter(end, math.inf))
                self._window_end = window_end
                self.windows_executed += 1
                # One safe window, partition by partition.
                for part, q in enumerate(self._queues):
                    self._active_part = part
                    while q.peek_time() < window_end:
                        if self.events_fired >= limit:
                            # Same accounting as the sequential engine: the
                            # limit trips before the pop, so events_fired
                            # only counts events whose handlers ran.
                            raise SimulationError(f"exceeded max_events={max_events}")
                        ev = q.pop()
                        self.now = ev.time
                        self.events_fired += 1
                        if self.trace:
                            self.trace_log.append(
                                (ev.time, ev.priority, ev.seq, ev.src, ev.dst)
                            )
                        if ev.handler is None:
                            continue
                        if obs_busy is None:
                            ev.handler(ev)
                        else:
                            _t0 = perf_counter()
                            ev.handler(ev)
                            _dst = ev.dst or ""
                            obs_busy[_dst] = obs_busy.get(_dst, 0.0) + perf_counter() - _t0
                            if not (self.events_fired & 63):
                                obs.queue_depth.observe(len(q))
                self._active_part = None
                # Global clock advances to the end of the processed window.
                if window_end != float("inf"):
                    self.now = max(self.now, min(window_end, end))
            if until is not None and end != float("inf"):
                self.now = max(self.now, end)
            if not self._finished and all(not q for q in self._queues):
                for comp in self.components.values():
                    comp.finish()
                self._finished = True
            return self.now
        finally:
            if obs is not None:
                obs.run_finished(self)
            self._running = False
            self._active_part = None
