"""Unified telemetry: metrics registry, span tracing, exporters.

``repro.obs`` is the observability layer the rest of the package
instruments itself with (SST ships a statistics subsystem for the same
reason — model validation needs numbers the simulator itself collects):

- :mod:`repro.obs.metrics` — process-wide :class:`MetricsRegistry` of
  counters, gauges, fixed-bucket histograms and streaming quantiles,
  all optionally labeled.
- :mod:`repro.obs.tracing` — :class:`Tracer` producing nested spans
  whose IDs propagate campaign → supervisor task → worker process →
  engine run, so one campaign yields a single merged timeline.
- :mod:`repro.obs.export` — JSONL metric sink, Prometheus
  text-exposition writer and a strict parser for validating it.
- :mod:`repro.obs.heartbeat` — live terminal progress line for
  campaigns (replicas done/failed/quarantined, events/s, ETA).
- :mod:`repro.obs.flightrec` — per-replica bounded flight recorder: an
  in-memory event ring plus a crash-surviving spill file, dumped
  atomically on exit and post-mortemed by ``repro analyze``.
- :mod:`repro.obs.instrument` — the adapters that hook the registry and
  tracer into :class:`~repro.des.engine.Engine`,
  :class:`~repro.core.supervisor.TaskSupervisor` and
  :class:`~repro.core.campaign.ResilienceCampaign`.

Everything here is stdlib-only and optional: no instrumented code path
pays more than a pointer test when observability is off.
"""

from repro.obs.export import (
    JsonlSink,
    parse_prometheus_text,
    registry_to_prometheus,
    summarize_metrics,
    write_prometheus,
)
from repro.obs.flightrec import (
    FlightRecorder,
    flight_dump_path,
    flight_spill_path,
    load_flight_dir,
    load_flight_dump,
)
from repro.obs.heartbeat import CampaignHeartbeat
from repro.obs.instrument import CampaignObs, EngineObs, ObsOptions, SupervisorObs
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    StreamingQuantile,
    get_registry,
    merge_records,
    set_registry,
)
from repro.obs.tracing import (
    ObsContext,
    Span,
    Tracer,
    derive_span_id,
    new_trace_id,
)

__all__ = [
    "CampaignHeartbeat",
    "CampaignObs",
    "Counter",
    "EngineObs",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "ObsContext",
    "ObsOptions",
    "Span",
    "StreamingQuantile",
    "SupervisorObs",
    "Tracer",
    "derive_span_id",
    "flight_dump_path",
    "flight_spill_path",
    "get_registry",
    "load_flight_dir",
    "load_flight_dump",
    "merge_records",
    "new_trace_id",
    "parse_prometheus_text",
    "registry_to_prometheus",
    "set_registry",
    "summarize_metrics",
    "write_prometheus",
]
