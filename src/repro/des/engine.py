"""The sequential discrete-event engine.

The engine owns the global event queue, the simulation clock, component
registration and RNG streams.  Its loop is intentionally minimal::

    while queue not empty and now <= end:
        event = queue.pop()
        now = event.time
        event.handler(event)

Determinism comes from the queue's total ordering and from per-component
RNG streams (:class:`~repro.des.rng.RNGRegistry`).

A *lazy event* (:meth:`Engine.defer`) takes its place in that order
without a heap entry of its own: it is committed, and counted in
``events_fired``, just before the first heap event that sorts after it.

While no trace log or event journal records each fired event,
:meth:`Engine.run` opens an *inline window* (:attr:`Engine.run_ahead`):
a handler may then fire events of its own that sort before the queue's
next live event, within the run's horizon and event budget, without
pushing them.  It does what the loop would: takes their seqs, counts
them in ``events_fired``, gives a flight recorder their ticks and moves
``now``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Optional

from repro.des.event import PRIORITY_NORMAL, Event, EventQueue
from repro.des.rng import RNGRegistry
from repro.des.snapshot import (
    AutoSnapshotPolicy,
    Snapshot,
    SnapshotError,
    SnapshotStore,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.component import Component
    from repro.des.link import Link
    from repro.des.replay import EventJournal
    from repro.obs.instrument import EngineObs


class SimulationError(RuntimeError):
    """Raised for invalid engine usage (duplicate names, time travel...)."""


class Engine:
    """Sequential component-based discrete-event simulator.

    Parameters
    ----------
    seed:
        Root seed for all component RNG streams.
    trace:
        When true, every event fired by :meth:`run` is appended to
        :attr:`trace_log` as ``(time, priority, seq, src, dst)`` — used by
        the engine-equivalence tests and the replay oracle.
    """

    def __init__(self, seed: int = 0, trace: bool = False) -> None:
        self.now: float = 0.0
        self.queue = EventQueue()
        self.components: dict[str, "Component"] = {}
        self.links: list["Link"] = []
        self.rngs = RNGRegistry(seed)
        self.events_fired = 0
        #: lazy events (see :meth:`defer`): a heap of ``(time, priority,
        #: seq, handler, payload)`` entries, committed in queue order
        self._lazy: list[tuple] = []
        #: the heap event fired last, whose handler may be running, or
        #: the event that handler fired inline last (``None`` between runs)
        self.firing: Optional[Event] = None
        #: ``(horizon, events_fired limit)`` of the running loop while its
        #: inline window is open, else ``None`` (see :meth:`run`)
        self.run_ahead: Optional[tuple[float, float]] = None
        self.trace = trace
        self.trace_log: list[tuple] = []
        self._running = False
        self._setup_done = False
        self._finished = False
        #: optional periodic snapshot cadence (see :meth:`enable_autosnapshot`)
        self._autosnap: Optional[AutoSnapshotPolicy] = None
        #: optional append-only journal of fired events (not snapshotted:
        #: it holds an open file handle; reattach after a restore)
        self._journal: Optional["EventJournal"] = None
        #: optional observability adapter (see :meth:`attach_obs`); not
        #: snapshotted — it holds tracers/locks and wall-clock state
        self._obs: Optional["EngineObs"] = None
        #: optional flight recorder (see :meth:`attach_flightrec`); not
        #: snapshotted — it may hold an open spill file handle
        self._flightrec = None

    # -- construction -------------------------------------------------------

    def register(self, component: "Component") -> "Component":
        """Add *component* to the simulation.  Names must be unique."""
        if component.name in self.components:
            raise SimulationError(f"duplicate component name {component.name!r}")
        if component.engine is not None:
            raise SimulationError(
                f"component {component.name!r} already belongs to an engine"
            )
        component.engine = self
        self.components[component.name] = component
        return component

    def _register_link(self, link: "Link") -> None:
        self.links.append(link)

    # -- scheduling ----------------------------------------------------------

    def schedule_event(self, event: Event) -> Event:
        """Insert a fully-formed event into the queue."""
        if event.time < self.now:
            raise SimulationError(
                f"event scheduled in the past: {event.time} < now={self.now}"
            )
        return self.queue.push(event)

    def schedule(
        self, delay: float, handler: Callable[[Event], None], payload=None
    ) -> Event:
        """Schedule an engine-level (component-less) event after *delay*."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.schedule_event(
            Event(time=self.now + delay, handler=handler, payload=payload)
        )

    def cancel(self, event: Event) -> None:
        """Cancel a pending event, keeping queue accounting exact."""
        if not event.cancelled:
            event.cancel()
            self.queue.note_cancelled()

    def defer(self, delay: float, handler=None, payload=None) -> tuple:
        """Schedule a *lazy event* after *delay*, without a heap entry.

        It takes a sequence number now, as :meth:`schedule` would, and
        keeps that place in the queue order: just before the first heap
        event that sorts after it, the loop commits it — counts it in
        ``events_fired``, samples the flight recorder, and calls
        ``handler(time, payload)`` if given.  Lazy events suit work that
        only records history; they are neither traced nor journaled, and
        only this sequential loop commits them.
        Returns the entry, the handle for :meth:`undefer`.
        """
        entry = (self.now + delay, PRIORITY_NORMAL, self.queue.take_seq(), handler, payload)
        heappush(self._lazy, entry)
        return entry

    def undefer(self, entry: tuple) -> None:
        """Withdraw one lazy event (e.g. a heap event takes over its key)."""
        self._lazy.remove(entry)
        heapify(self._lazy)

    def drop_lazy(self) -> None:
        """Withdraw every lazy event not yet committed."""
        self._lazy.clear()

    def _commit_lazy(self, key: tuple, limit: float) -> None:
        """Commit, in queue order, every lazy event sorting before *key*,
        stopping once ``events_fired`` reaches *limit*."""
        lazy = self._lazy
        flight = self._flightrec
        mask = flight.tick_stride - 1 if flight is not None else 0
        while lazy and lazy[0] < key and self.events_fired < limit:
            t, _prio, _seq, handler, payload = heappop(lazy)
            self.now = t
            self.events_fired += 1
            if handler is not None:
                handler(t, payload)
            if flight is not None and not (self.events_fired & mask):
                flight.tick(t, self.events_fired)

    # -- snapshot / restore --------------------------------------------------

    def snapshot(self, meta: Optional[dict] = None) -> Snapshot:
        """Capture full engine state (queue, components, clocks, RNGs).

        The capture is consistent between events; restoring it and
        continuing yields an event trace byte-identical to a run that
        was never interrupted.
        """
        return Snapshot.capture(self, meta=meta)

    @classmethod
    def restore(cls, source) -> "Engine":
        """Rebuild an engine from a :class:`Snapshot` or a saved path.

        The restored engine is ready to ``run()`` onward from the
        captured point; the event journal (if any was attached) must be
        reattached by the caller.
        """
        snap = Snapshot.load(source) if isinstance(source, str) else source
        engine = snap.restore()
        if not isinstance(engine, cls):
            raise SnapshotError(
                f"snapshot holds a {type(engine).__name__}, expected "
                f"{cls.__name__} (or a subclass)"
            )
        engine._running = False
        return engine

    def enable_autosnapshot(
        self,
        directory: str,
        every_events: int,
        keep: int = 2,
        root=None,
    ) -> AutoSnapshotPolicy:
        """Snapshot into *directory* every *every_events* events fired
        during :meth:`run`; *root* optionally widens the capture to an
        owning object (e.g. a simulator) whose graph includes this
        engine.
        """
        self._autosnap = AutoSnapshotPolicy(
            store=SnapshotStore(directory, keep=keep),
            every_events=every_events,
            root=root,
        )
        return self._autosnap

    def _count_autosnap_disabled(self) -> None:
        """Record that the autosnapshot cadence was dropped (disk fault)."""
        self._autosnap = None
        from repro.obs.metrics import get_registry

        get_registry().counter(
            "snapshot_autosnap_disabled_total",
            help="Autosnapshot cadences disabled after a persistence OSError.",
        ).inc()

    def attach_journal(self, journal: "EventJournal") -> None:
        """Append every event fired by later :meth:`run` calls to *journal*."""
        self._journal = journal

    def _recorders(self) -> list:
        """Where this run records each fired event's ``(time, priority,
        seq, src, dst)``: :attr:`trace_log` when :attr:`trace` is on, and
        the attached journal."""
        sinks = [self.trace_log.append] if self.trace else []
        if self._journal is not None:
            sinks.append(self._journal.record)
        return sinks

    def attach_obs(self, obs: Optional["EngineObs"]) -> Optional["EngineObs"]:
        """Attach (or with ``None`` detach) an observability adapter.

        While attached, :meth:`run` brackets every handler call with
        wall-clock busy-time accounting (events a handler fires inline
        count toward its time), samples queue depth once per 64 fired
        events (after the first heap event past each mark, so a handler
        that fires events inline past several marks records its depth
        once for each), and flushes run-level metrics (and an
        ``engine.run`` span) through the adapter at run end.  Detached
        engines pay one ``is None`` test per run.
        """
        self._obs = obs
        return obs

    def attach_flightrec(self, rec):
        """Attach (or with ``None`` detach) a flight recorder.

        While attached, :meth:`run` samples a progress tick into the
        recorder every ``rec.tick_stride`` events (power-of-two mask).
        Detached engines pay one ``is None`` test per event.
        """
        self._flightrec = rec
        return rec

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_journal"] = None  # open file handle: reattach post-restore
        state["_obs"] = None  # wall-clock state and locks: reattach too
        state["_flightrec"] = None  # open spill handle: reattach too
        state["firing"] = None  # snapshots are taken between events
        state["run_ahead"] = None  # and belong to no running loop
        return state

    # -- execution -----------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once the next event would fire strictly after this time;
            ``None`` runs to queue exhaustion.
        max_events:
            Safety valve; raise :class:`SimulationError` once this run
            has fired that many events (lazy ones included).

        With no trace log or event journal attached, neither of which
        may miss a heap event, the loop opens its inline window:
        :attr:`run_ahead` holds *until* and the ``events_fired`` count
        that events fired inline may reach, and a handler may fire
        events inline up to both (the array stepper of
        ``core.simulator`` fires its rendezvous and releases so).  That
        count is the budget's, capped below the autosnapshot cadence's
        next check, so snapshots fall between the same events as with
        the window closed.  An obs adapter counts inline events and
        times them as part of the handler that fires them.  The window
        closes when the loop ends.

        Returns
        -------
        float
            The final simulation time.
        """
        if self._running:
            raise SimulationError("engine is already running")
        self._running = True
        try:
            if not self._setup_done:
                for comp in self.components.values():
                    comp.setup()
                self._setup_done = True
            end = float("inf") if until is None else float(until)
            limit = float("inf") if max_events is None else self.events_fired + max_events
            lazy = self._lazy
            # Hoist the cadence test to one int compare per event: the
            # policy precomputes the events_fired count at which it next
            # needs a look (snapshotting at ~100k events/s rates must not
            # tax the hot loop with a method call per event).
            autosnap = self._autosnap
            autosnap_check = autosnap.next_check_at() if autosnap is not None else float("inf")
            # Hoisted observability state: with obs attached the per-event
            # cost is two perf_counter reads and a dict update; without,
            # a single None test.
            obs = self._obs
            obs_busy = obs.busy if obs is not None else None
            if obs is not None:
                obs.run_started(self)
                # Queue depth is sampled after the first heap event at or
                # past each multiple of 64 fired events, once per multiple:
                # a threshold, not a mask test, because lazy commits and
                # events fired inline move events_fired past multiples of
                # 64 between heap events (past several, in one inline
                # stretch).
                depth_at = (self.events_fired | 63) + 1
            # Hoisted flight-recorder state: attached recorders pay a
            # mask test per event and one record per tick_stride events.
            flight = self._flightrec
            flight_mask = flight.tick_stride - 1 if flight is not None else 0
            # Hoisted recorders: one emptiness test per event.
            recorders = self._recorders()
            if not recorders:
                self.run_ahead = (end, min(limit, autosnap_check - 1))
            try:
                while True:
                    t = self.queue.peek_time()
                    if lazy and lazy[0][0] <= t and lazy[0][0] <= end:
                        # Lazy events ahead of the next heap event (or,
                        # past the horizon, up to it) fire first.
                        key = (
                            self.queue.peek_key()
                            if t <= end and t != float("inf")
                            else (end, float("inf"), 0)
                        )
                        self._commit_lazy(key, limit)
                        if lazy and lazy[0] < key:
                            t = lazy[0][0]  # the budget stopped them: one is due
                    if t == float("inf") or t > end:
                        break
                    if self.events_fired >= limit:
                        # Checked before the pop so events_fired counts only
                        # events whose handlers actually ran.
                        raise SimulationError(
                            f"exceeded max_events={max_events} (possible livelock)"
                        )
                    ev = self.firing = self.queue.pop()
                    self.now = ev.time
                    self.events_fired += 1
                    if recorders:
                        rec = (ev.time, ev.priority, ev.seq, ev.src, ev.dst)
                        for sink in recorders:
                            sink(rec)
                    if ev.handler is not None:
                        if obs_busy is None:
                            ev.handler(ev)
                        else:
                            _t0 = perf_counter()
                            ev.handler(ev)
                            _dst = ev.dst or ""
                            obs_busy[_dst] = (
                                obs_busy.get(_dst, 0.0) + perf_counter() - _t0
                            )
                            if self.events_fired >= depth_at:
                                # one sample per multiple of 64 passed:
                                # events fired inline leave the heap as it is
                                depth = len(self.queue)
                                while depth_at <= self.events_fired:
                                    obs.queue_depth.observe(depth)
                                    depth_at += 64
                    if flight is not None and not (
                        self.events_fired & flight_mask
                    ):
                        flight.tick(self.now, self.events_fired)
                    if self.events_fired >= autosnap_check:
                        try:
                            autosnap.maybe_take(self)
                        except OSError:
                            # Snapshots are an optimization (resume
                            # granularity), not correctness: on a full or
                            # failing disk, drop the cadence and keep
                            # simulating rather than kill the run.
                            self._count_autosnap_disabled()
                            autosnap = None
                            autosnap_check = float("inf")
                        else:
                            autosnap_check = autosnap.next_check_at()
                        if not recorders:
                            self.run_ahead = (end, min(limit, autosnap_check - 1))
            finally:
                # Metrics survive even a loop abort (e.g. the max_events
                # livelock guard): partial runs are exactly when numbers
                # matter most.
                if obs is not None:
                    obs.run_finished(self)
            if until is not None and end != float("inf"):
                # Mirror SST semantics: run(until) leaves the clock at the
                # requested horizon even when no event fired exactly there.
                self.now = max(self.now, end)
            if not self._finished and not self.queue:
                for comp in self.components.values():
                    comp.finish()
                self._finished = True
            return self.now
        finally:
            self._running = False
            self.firing = None
            self.run_ahead = None
