"""Adapters hooking the metrics registry and tracer into the simulator.

Three layers, one trace:

- :class:`EngineObs` attaches to an :class:`~repro.des.engine.Engine`
  (``engine.attach_obs(obs)``).  The engine's hot loop touches only two
  pre-hoisted fields per event — a busy-time dict update bracketing the
  handler call and a stride-64 queue-depth sample — and the adapter
  turns the accumulated state into metrics (plus an ``engine.run`` span
  and a fed :class:`~repro.des.stats.UtilizationTracker`) at run end.
- :class:`SupervisorObs` receives the
  :class:`~repro.core.supervisor.TaskSupervisor` lifecycle hooks
  (started / completed / failed / retried / quarantined / rebuild /
  degrade) and keeps one *detached* span per task — many tasks run
  concurrently, so task spans cannot live on a tracer stack.  Task span
  ids are **derived** (:func:`~repro.obs.tracing.derive_span_id`) from
  the trace id and task key, which is exactly the id a worker process
  computes for its parent — the cross-process edge of the timeline.
- :class:`CampaignObs` owns the root span, the exporters (JSONL sink,
  Prometheus snapshot, merged Chrome trace) and the heartbeat, and
  absorbs the spans and metrics each replica result carries home.

Overhead budget: with observability attached, the engine pays ~2
``perf_counter`` calls + one dict update per heap event (measured ≤ 1.1x
on the Fig.-7 workload by the ``obs`` row of
``benchmarks/bench_overhead.py``); with it detached, one ``is None``
test.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional

from repro.obs.export import JsonlSink, guarded_export, write_prometheus
from repro.obs.heartbeat import CampaignHeartbeat
from repro.obs.metrics import Counter, MetricsRegistry, get_registry, set_registry
from repro.obs.tracing import ObsContext, Span, Tracer, derive_span_id

#: queue-depth histogram bounds (events pending)
QUEUE_DEPTH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384)

#: snapshot/FTI latency quantiles
LATENCY_QUANTILES = (0.5, 0.9, 0.99)


class EngineObs:
    """Per-engine instrumentation state and flush logic.

    Attach with ``engine.attach_obs(EngineObs(...))`` before ``run()``.
    The same adapter works for :class:`~repro.des.engine.Engine` and
    :class:`~repro.des.parallel.ParallelEngine` (window / lookahead
    metrics are emitted when the engine has them).

    The ``busy`` dict and ``queue_depth`` instrument are *public hot
    fields*: the engine run loop updates them directly so the per-event
    cost stays at two clock reads and a dict update.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        utilization=None,
    ) -> None:
        from repro.des.stats import UtilizationTracker

        self.registry = registry if registry is not None else get_registry()
        self.tracer = tracer
        self.utilization = (
            utilization if utilization is not None else UtilizationTracker()
        )
        #: wall seconds spent in handlers, keyed by destination component
        #: (drained into counters + the utilization tracker at run end)
        self.busy: dict[str, float] = {}
        #: sampled pending-event counts (stride 64 in the run loop)
        self.queue_depth = self.registry.histogram(
            "engine_queue_depth",
            help="Pending events in the engine queue (sampled every 64 events).",
            buckets=QUEUE_DEPTH_BUCKETS,
        )
        self.runs = 0
        #: component -> its ``engine_component_busy_seconds_total``
        #: series, while that family is the one in ``_busy_family``
        self._busy_family = None
        self._busy_series: dict[str, Counter] = {}
        self._span: Optional[Span] = None
        self._t0 = 0.0
        self._events0 = 0
        self._windows0 = 0

    # -- run lifecycle (called by Engine.run) --------------------------------

    def run_started(self, engine) -> None:
        self._t0 = time.perf_counter()
        self._events0 = engine.events_fired
        self._windows0 = getattr(engine, "windows_executed", 0)
        if self.tracer is not None:
            self._span = self.tracer.start_span("engine.run", push=False)

    def run_finished(self, engine) -> None:
        wall = time.perf_counter() - self._t0
        fired = engine.events_fired - self._events0
        reg = self.registry
        self.runs += 1
        reg.counter(
            "engine_events_total", help="Events whose handlers ran."
        ).inc(fired)
        reg.counter(
            "engine_run_seconds_total", help="Wall seconds inside Engine.run."
        ).inc(wall)
        reg.gauge(
            "engine_sim_time_seconds", help="Simulation clock at last run end."
        ).set(engine.now if engine.now != float("inf") else 0.0)
        reg.gauge(
            "engine_events_per_second", help="Throughput of the last run."
        ).set(fired / wall if wall > 0 else 0.0)
        # Drain per-component busy time into counters + the utilization
        # tracker (the engine feeds it; components never do).  The
        # family is resolved once per run, and each series is looked up,
        # and its label checked, once per adapter (again after a
        # registry reset).
        family = reg.family(
            "engine_component_busy_seconds_total",
            "counter",
            "Wall seconds spent in event handlers, per component.",
        )
        if family is not self._busy_family:
            self._busy_family, self._busy_series = family, {}
        series = self._busy_series
        for component, seconds in self.busy.items():
            name = component or "_engine"
            counter = series.get(name)
            if counter is None:
                counter = series[name] = family.get({"component": name})
            counter.inc(seconds)
            self.utilization.add_busy(name, seconds)
        self.busy.clear()
        windows = getattr(engine, "windows_executed", None)
        if windows is not None and hasattr(engine, "lookahead"):
            reg.counter(
                "engine_windows_total", help="Conservative windows executed."
            ).inc(windows - self._windows0)
            la = engine.lookahead
            reg.gauge(
                "engine_lookahead_seconds",
                help="Conservative lookahead (min cross-partition latency).",
            ).set(0.0 if la == float("inf") else la)
        if self._span is not None:
            self._span.end(events=fired, sim_time=float(engine.now))
            self._span = None


class SupervisorObs:
    """Lifecycle hooks :class:`TaskSupervisor` calls when given an ``obs``.

    One detached span per task key, covering all its attempts; the span
    id is ``derive_span_id(trace_id, "task", key)`` so the worker
    process executing the task computes the same id for its parent.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        parent_span_id: Optional[str] = None,
        owner: Optional["CampaignObs"] = None,
    ) -> None:
        self.registry = registry if registry is not None else get_registry()
        self.tracer = tracer
        self.parent_span_id = parent_span_id
        self.owner = owner
        self._task_spans: dict[str, Span] = {}
        self._next_tid = 1

    def task_span_id(self, key: str) -> Optional[str]:
        if self.tracer is None:
            return None
        return derive_span_id(self.tracer.trace_id, "task", key)

    # -- hooks ----------------------------------------------------------------

    def task_started(self, key: str, attempt: int) -> None:
        self.registry.counter(
            "supervisor_tasks_started_total", help="Task attempts launched."
        ).inc()
        if self.tracer is not None and key not in self._task_spans:
            self._task_spans[key] = self.tracer.start_span(
                f"task:{key}",
                parent_id=self.parent_span_id,
                span_id=self.task_span_id(key),
                push=False,
                tid=self._next_tid,
                key=key,
            )
            self._next_tid += 1
        span = self._task_spans.get(key)
        if span is not None:
            span.attrs["attempts"] = attempt

    def task_completed(self, key: str) -> None:
        self.registry.counter(
            "supervisor_tasks_completed_total", help="Tasks completed."
        ).inc()
        span = self._task_spans.pop(key, None)
        if span is not None:
            span.end(outcome="completed")

    def task_failed(self, key: str, kind: str) -> None:
        self.registry.counter(
            "supervisor_failures_total",
            help="Task attempt failures, by taxonomy kind.",
            kind=kind,
        ).inc()
        if self.owner is not None:
            self.owner.replica_failed()

    def task_retried(self, key: str, delay_s: float) -> None:
        self.registry.counter(
            "supervisor_retries_total", help="Task retries scheduled."
        ).inc()
        self.registry.counter(
            "supervisor_backoff_seconds_total",
            help="Backoff wall seconds scheduled before retries.",
        ).inc(delay_s)

    def task_quarantined(self, key: str) -> None:
        self.registry.counter(
            "supervisor_quarantined_total", help="Tasks poisoned past retries."
        ).inc()
        span = self._task_spans.pop(key, None)
        if span is not None:
            span.end(outcome="quarantined")
        if self.owner is not None:
            self.owner.replica_quarantined()

    def pool_rebuilt(self) -> None:
        self.registry.counter(
            "supervisor_pool_rebuilds_total", help="Worker pool rebuilds."
        ).inc()

    def degraded(self) -> None:
        self.registry.counter(
            "supervisor_degraded_total",
            help="Falls back to in-process sequential execution.",
        ).inc()

    def tick(self) -> None:
        """Called from the supervision loop; drives owner flush/heartbeat."""
        if self.owner is not None:
            self.owner.tick()

    def close(self) -> None:
        """End any spans left open (e.g. tasks lost to a crash)."""
        for span in list(self._task_spans.values()):
            span.end(outcome="abandoned")
        self._task_spans.clear()


@dataclass
class ObsOptions:
    """What a :class:`CampaignObs` should export, and how often."""

    metrics_out: Optional[str] = None       #: JSONL metrics stream path
    metrics_interval_s: float = 5.0         #: sink flush interval
    prom_out: Optional[str] = None          #: Prometheus snapshot path
    trace_out: Optional[str] = None         #: merged Chrome trace path
    heartbeat_s: Optional[float] = None     #: terminal heartbeat interval

    def __post_init__(self) -> None:
        if self.metrics_interval_s <= 0:
            raise ValueError(
                f"metrics_interval_s must be > 0, got {self.metrics_interval_s}"
            )

    @property
    def enabled(self) -> bool:
        return any(
            (self.metrics_out, self.prom_out, self.trace_out, self.heartbeat_s)
        )


class CampaignObs:
    """Campaign-level telemetry: root span, exporters, worker merge.

    The campaign calls :meth:`begin_campaign` / :meth:`end_campaign`
    around the sweep, :meth:`point_started` / :meth:`point_finished`
    around each grid point, hands :meth:`worker_context` output to
    replica payloads so worker processes join the same trace, and
    passes each accepted result's telemetry to :meth:`absorb`.  Uses the
    process-global registry by default so rare-path metrics recorded by
    :mod:`repro.des.snapshot` and :mod:`repro.fti.fti` land in the same
    export.
    """

    def __init__(
        self,
        options: Optional[ObsOptions] = None,
        registry: Optional[MetricsRegistry] = None,
        label: str = "campaign",
    ) -> None:
        self.options = options or ObsOptions()
        self.registry = registry if registry is not None else get_registry()
        self.tracer = Tracer()
        self.label = label
        #: finished spans shipped home by replicas (see :meth:`absorb`)
        self._worker_spans: list[Span] = []
        self.sink: Optional[JsonlSink] = None
        if self.options.metrics_out:
            self.sink = JsonlSink(
                self.options.metrics_out,
                registry=self.registry,
                interval_s=self.options.metrics_interval_s,
            )
        self.heartbeat: Optional[CampaignHeartbeat] = None
        if self.options.heartbeat_s:
            self.heartbeat = CampaignHeartbeat(
                interval_s=self.options.heartbeat_s, label=label
            )
        self._root: Optional[Span] = None
        self._point: Optional[Span] = None
        self._closed = False

    # -- span plumbing -------------------------------------------------------

    def _ensure_root(self) -> Span:
        if self._root is None:
            self._root = self.tracer.start_span(self.label)
        return self._root

    def begin_campaign(self, total_replicas: int, points: int = 0) -> None:
        root = self._ensure_root()
        root.attrs.update(replicas=total_replicas, points=points)
        if self.heartbeat is not None:
            self.heartbeat.set_total(total_replicas)
        if self.sink is not None:
            self.sink.maybe_flush(force=True)

    def point_started(self, spec_key: str) -> None:
        self._ensure_root()
        self._point = self.tracer.start_span(f"point:{spec_key}", spec_key=spec_key)

    def point_finished(self) -> None:
        if self._point is not None:
            self._point.end()
            self._point = None
        self.tick()

    def supervisor_obs(self) -> SupervisorObs:
        parent = self._point if self._point is not None else self._ensure_root()
        return SupervisorObs(
            registry=self.registry,
            tracer=self.tracer,
            parent_span_id=parent.span_id,
            owner=self,
        )

    def worker_context(self, task_key: str) -> ObsContext:
        """The picklable context a replica payload carries into a worker."""
        return ObsContext(
            trace_id=self.tracer.trace_id,
            parent_span_id=derive_span_id(self.tracer.trace_id, "task", task_key),
            host_pid=os.getpid(),
        )

    def absorb(self, telemetry: dict) -> None:
        """Fold one replica result's ``"obs"`` payload in: its spans join
        the merged timeline, its metrics (``None`` in-process, where the
        replica recorded into this registry directly) this registry."""
        self._worker_spans.extend(Span.from_dict(d) for d in telemetry["spans"])
        if telemetry["metrics"] is not None:
            self.registry.merge_records(telemetry["metrics"])

    # -- progress feed -------------------------------------------------------

    def replica_done(self, result: Optional[dict], from_journal: bool = False) -> None:
        if self.heartbeat is not None:
            events = 0
            if isinstance(result, dict):
                events = int(result.get("events_fired") or 0)
            self.heartbeat.replica_done(events, from_journal=from_journal)
        self.tick()

    def replica_failed(self) -> None:
        if self.heartbeat is not None:
            self.heartbeat.replica_failed()

    def replica_quarantined(self) -> None:
        if self.heartbeat is not None:
            self.heartbeat.replica_quarantined()

    def tick(self) -> None:
        if self.sink is not None:
            self.sink.maybe_flush()
        if self.heartbeat is not None:
            self.heartbeat.beat()

    # -- finalization --------------------------------------------------------

    def merged_spans(self) -> list[Span]:
        """This process's finished spans plus every absorbed replica's."""
        spans = self.tracer.finished_spans() + self._worker_spans
        return sorted(spans, key=lambda s: (s.t_start, s.span_id))

    def end_campaign(self) -> None:
        """Close the root span and run every exporter."""
        if self._closed:
            return
        self._closed = True
        if self._point is not None:
            self._point.end()
            self._point = None
        if self._root is not None:
            self._root.end()
            self._root = None
        if self.heartbeat is not None:
            self.heartbeat.beat(force=True)
        if self.sink is not None:
            self.sink.close()
        if self.options.prom_out:
            guarded_export(
                f"prometheus:{self.options.prom_out}",
                lambda: write_prometheus(self.options.prom_out, self.registry),
                self.registry,
            )
        if self.options.trace_out:
            spans = self.merged_spans()

            def _write_trace() -> None:
                from repro.core.trace import save_spans_chrome_trace

                save_spans_chrome_trace(spans, self.options.trace_out)

            guarded_export(
                f"chrome-trace:{self.options.trace_out}", _write_trace, self.registry
            )

    def __enter__(self) -> "CampaignObs":
        return self

    def __exit__(self, *exc) -> None:
        self.end_campaign()


def replica_obs_begin(ctx: Optional[ObsContext], seed: int):
    """Worker-side setup: join the campaign trace, open the replica span.

    Returns ``(tracer, engine_obs, replica_span)`` — all ``None`` when
    *ctx* is ``None`` (observability off).  In a worker process it
    first installs a fresh global registry, so the metrics sent home
    are this replica's alone (a forked worker inherits the campaign's
    registry; sending that copy back would count it again).
    Module-level so ``_run_replica`` stays a thin pure function.
    """
    if ctx is None:
        return None, None, None
    if os.getpid() != ctx.host_pid:
        set_registry(MetricsRegistry())
    tracer = Tracer(ctx.trace_id, default_parent_id=ctx.parent_span_id)
    span = tracer.start_span("replica", seed=seed, pid_label=os.getpid())
    engine_obs = EngineObs(registry=get_registry(), tracer=tracer)
    return tracer, engine_obs, span


def replica_obs_end(ctx: Optional[ObsContext], tracer, span, result: dict) -> None:
    """Worker-side teardown: close the span, attach the telemetry.

    Sets ``result["obs"]`` to the replica's finished spans (as dicts)
    and, in a worker process, its registry records; in-process
    execution sends ``None`` for metrics, having recorded into the
    campaign's registry directly.  The campaign pops the key before
    the result is journaled or aggregated.
    """
    if ctx is None:
        return
    span.end(
        completed=bool(result.get("completed")),
        events=int(result.get("events_fired") or 0),
    )
    result["obs"] = {
        "spans": [s.to_dict() for s in tracer.finished_spans()],
        "metrics": (
            get_registry().collect() if os.getpid() != ctx.host_pid else None
        ),
    }
