"""Metric exporters: JSONL stream, Prometheus text exposition, summaries.

Three consumers, three formats:

- :class:`JsonlSink` — appends one ``{"ts": ..., "metrics": [...]}``
  line per flush interval; cheap to tail, trivially mergeable.
- :func:`write_prometheus` / :func:`registry_to_prometheus` — the
  Prometheus text exposition format (version 0.0.4), one snapshot per
  write.  :func:`parse_prometheus_text` is the matching *strict*
  parser used by CI to validate what we emit.
- :func:`summarize_metrics` — human-oriented roll-up of either format
  for the ``repro metrics summarize`` CLI.

Exporter I/O failures never stop a simulation: :func:`guarded_export`
logs the first failure per sink via the ``repro.obs`` logger, counts
every failure in ``obs_export_errors_total{sink=...}`` and keeps going.
"""

from __future__ import annotations

import json
import logging
import math
import os
import re
import time
from typing import Callable, Mapping, Optional

from repro.guard.circuit import CircuitBreaker
from repro.guard.durable import atomic_write
from repro.guard.fsfault import fault_check
from repro.obs.metrics import MetricsRegistry, get_registry

log = logging.getLogger("repro.obs")

_warned_sinks: set[str] = set()


def guarded_export(sink: str, fn: Callable[[], object], registry=None) -> bool:
    """Run exporter *fn*; on I/O failure log once per *sink*, count it
    in ``obs_export_errors_total`` and return ``False``."""
    try:
        fn()
        return True
    except OSError as exc:
        reg = registry if registry is not None else get_registry()
        reg.counter(
            "obs_export_errors_total",
            help="Exporter I/O failures, by sink.",
            sink=sink,
        ).inc()
        if sink not in _warned_sinks:
            _warned_sinks.add(sink)
            log.warning("exporter %s failed (%s); continuing without it", sink, exc)
        return False


def reset_export_warnings() -> None:
    """Forget which sinks have already logged (test hook)."""
    _warned_sinks.clear()


# -- JSONL sink ---------------------------------------------------------------


class JsonlSink:
    """Appends registry snapshots to a JSONL file on an interval.

    ``maybe_flush()`` is cheap when the interval has not elapsed (one
    monotonic read); ``maybe_flush(force=True)`` always writes.  Each
    line is ``{"ts": <epoch seconds>, "metrics": registry.collect()}``.

    A :class:`~repro.guard.circuit.CircuitBreaker` guards the sink: a
    failed write (or a degradation-ladder :meth:`suspend`) opens the
    circuit and flushes are *skipped* — counted in
    ``obs_export_suspended_total``, never fatal — until the breaker's
    half-open probe (or a ladder :meth:`resume`) lets a write through
    again.
    """

    def __init__(
        self,
        path: str,
        registry: Optional[MetricsRegistry] = None,
        interval_s: float = 5.0,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.path = path
        self.registry = registry if registry is not None else get_registry()
        self.interval_s = float(interval_s)
        self.lines_written = 0
        self.suspended_skips = 0
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self._last_flush: Optional[float] = None

    def suspend(self) -> None:
        """Ladder stage action: stop flushing until :meth:`resume`."""
        self.breaker.force_open()

    def resume(self) -> None:
        """Ladder stage exit: reclose the breaker immediately."""
        self.breaker.reset()

    def maybe_flush(self, force: bool = False) -> bool:
        now = time.monotonic()
        if not force and self._last_flush is not None:
            if now - self._last_flush < self.interval_s:
                return False
        self._last_flush = now
        if not self.breaker.allow():
            self.suspended_skips += 1
            self.registry.counter(
                "obs_export_suspended_total",
                help="Exporter flushes skipped while suspended, by sink.",
                sink=f"jsonl:{self.path}",
            ).inc()
            return False

        def _write() -> None:
            parent = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(parent, exist_ok=True)
            line = json.dumps(
                {"ts": time.time(), "metrics": self.registry.collect()},
                sort_keys=True,
            )
            fault_check("metrics.jsonl", self.path, len(line) + 1)
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")

        if guarded_export(f"jsonl:{self.path}", _write, self.registry):
            self.breaker.success()
            self.lines_written += 1
            return True
        self.breaker.failure()
        return False

    def close(self) -> None:
        self.maybe_flush(force=True)


# -- Prometheus text exposition ----------------------------------------------


def _fmt_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


def _fmt_labels(labels: Mapping[str, str], extra: Optional[Mapping[str, str]] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    parts = []
    for k in sorted(merged):
        v = str(merged[k]).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        parts.append(f'{k}="{v}"')
    return "{" + ",".join(parts) + "}"


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def registry_to_prometheus(registry: Optional[MetricsRegistry] = None) -> str:
    """Render the registry in Prometheus text exposition format 0.0.4.

    Histograms emit cumulative ``_bucket{le=...}`` series plus ``_sum``
    and ``_count``; streaming quantiles emit ``{quantile=...}`` summary
    series (Prometheus ``summary`` type) plus ``_sum`` and ``_count``.
    """
    reg = registry if registry is not None else get_registry()
    records = reg.collect()
    lines: list[str] = []
    seen_headers: set[str] = set()
    for rec in records:
        name, kind, labels = rec["name"], rec["kind"], rec["labels"]
        data = rec["data"]
        prom_type = {"counter": "counter", "gauge": "gauge", "histogram": "histogram",
                     "quantile": "summary"}[kind]
        if name not in seen_headers:
            seen_headers.add(name)
            if rec.get("help"):
                lines.append(f"# HELP {name} {_escape_help(rec['help'])}")
            lines.append(f"# TYPE {name} {prom_type}")
        if kind in ("counter", "gauge"):
            lines.append(f"{name}{_fmt_labels(labels)} {_fmt_value(data['value'])}")
        elif kind == "histogram":
            bounds, counts = data["buckets"]
            cum = 0
            for bound, count in zip(bounds, counts):
                cum += count
                le = "+Inf" if bound == "+Inf" else _fmt_value(float(bound))
                lines.append(
                    f"{name}_bucket{_fmt_labels(labels, {'le': le})} {cum}"
                )
            lines.append(f"{name}_sum{_fmt_labels(labels)} {_fmt_value(data['sum'])}")
            lines.append(f"{name}_count{_fmt_labels(labels)} {data['count']}")
        else:  # quantile -> summary
            for q in sorted(data["quantiles"], key=float):
                est = data["quantiles"][q]
                lines.append(
                    f"{name}{_fmt_labels(labels, {'quantile': q})} {_fmt_value(est)}"
                )
            lines.append(f"{name}_sum{_fmt_labels(labels)} {_fmt_value(data['sum'])}")
            lines.append(f"{name}_count{_fmt_labels(labels)} {data['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(path: str, registry: Optional[MetricsRegistry] = None) -> str:
    """Atomically and durably write the exposition snapshot to *path*."""
    return atomic_write(path, registry_to_prometheus(registry), "metrics.prom")


# -- strict text-format parser (CI validation) -------------------------------

_METRIC_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_SAMPLE_RE = re.compile(
    rf"^(?P<name>{_METRIC_NAME})"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)"
    r"(?: (?P<ts>-?[0-9]+))?$"
)
_LABEL_PAIR_RE = re.compile(
    r'\s*(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<val>(?:[^"\\]|\\["\\n])*)"\s*(?:,|$)'
)
_VALID_TYPES = {"counter", "gauge", "histogram", "summary", "untyped"}


class PrometheusParseError(ValueError):
    """The text is not valid Prometheus exposition format."""


def _parse_labels(text: str) -> dict[str, str]:
    labels: dict[str, str] = {}
    pos = 0
    while pos < len(text):
        m = _LABEL_PAIR_RE.match(text, pos)
        if m is None:
            raise PrometheusParseError(f"malformed label section {text!r}")
        raw = m.group("val")
        labels[m.group("key")] = (
            raw.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
        )
        pos = m.end()
    return labels


def _parse_value(raw: str, line_no: int) -> float:
    if raw == "+Inf":
        return float("inf")
    if raw == "-Inf":
        return float("-inf")
    if raw == "NaN":
        return float("nan")
    try:
        return float(raw)
    except ValueError:
        raise PrometheusParseError(f"line {line_no}: bad sample value {raw!r}") from None


def parse_prometheus_text(text: str) -> dict[str, dict]:
    """Strictly parse exposition text; raise on anything malformed.

    Returns ``{family_name: {"type": ..., "help": ..., "samples":
    [(sample_name, labels, value), ...]}}``.  Enforces: well-formed
    HELP/TYPE comments, TYPE before samples of that family, valid metric
    and label names, parseable values, and histogram bucket monotonicity.
    """
    families: dict[str, dict] = {}

    def family(name: str) -> dict:
        return families.setdefault(
            name, {"type": "untyped", "help": None, "samples": []}
        )

    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                # Plain comments are legal; '# HELP'/'# TYPE' must be well formed.
                if len(parts) >= 2 and parts[1] in ("HELP", "TYPE"):
                    raise PrometheusParseError(f"line {line_no}: malformed {parts[1]}")
                continue
            keyword, name = parts[1], parts[2]
            if not re.fullmatch(_METRIC_NAME, name):
                raise PrometheusParseError(
                    f"line {line_no}: invalid metric name {name!r}"
                )
            if keyword == "HELP":
                family(name)["help"] = parts[3] if len(parts) > 3 else ""
            else:
                if len(parts) < 4 or parts[3] not in _VALID_TYPES:
                    raise PrometheusParseError(
                        f"line {line_no}: invalid TYPE "
                        f"{parts[3] if len(parts) > 3 else None!r}"
                    )
                fam = family(name)
                if fam["samples"]:
                    raise PrometheusParseError(
                        f"line {line_no}: TYPE for {name!r} after its samples"
                    )
                fam["type"] = parts[3]
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise PrometheusParseError(f"line {line_no}: malformed sample {line!r}")
        sample_name = m.group("name")
        labels = _parse_labels(m.group("labels")) if m.group("labels") else {}
        value = _parse_value(m.group("value"), line_no)
        base = sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            if sample_name.endswith(suffix) and sample_name[: -len(suffix)] in families:
                base = sample_name[: -len(suffix)]
                break
        family(base)["samples"].append((sample_name, labels, value))

    # Histogram bucket sanity: cumulative counts must be monotonic and
    # end with +Inf per label-set.
    for name, fam in families.items():
        if fam["type"] != "histogram":
            continue
        buckets: dict[tuple, list[tuple[float, float]]] = {}
        for sample_name, labels, value in fam["samples"]:
            if sample_name != f"{name}_bucket":
                continue
            if "le" not in labels:
                raise PrometheusParseError(f"{name}: bucket sample missing 'le'")
            le = labels["le"]
            bound = float("inf") if le == "+Inf" else float(le)
            key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
            buckets.setdefault(key, []).append((bound, value))
        for key, entries in buckets.items():
            entries.sort(key=lambda bv: bv[0])
            counts = [v for _, v in entries]
            if counts != sorted(counts):
                raise PrometheusParseError(f"{name}: bucket counts not cumulative")
            if not entries or not math.isinf(entries[-1][0]):
                raise PrometheusParseError(f"{name}: missing +Inf bucket")
    return families


# -- summaries ----------------------------------------------------------------


def _load_metric_records(path: str) -> tuple[str, list[dict]]:
    """Read *path* as JSONL metrics or Prometheus text.

    For JSONL, the *last* line wins (each line is a cumulative
    snapshot).  Returns ``(format, records)`` where records follow the
    :meth:`MetricsRegistry.collect` shape (Prometheus input is reduced
    to counter/gauge-style records).
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.strip()
    if not stripped:
        raise ValueError(f"{path}: empty metrics file")
    first = stripped.splitlines()[0]
    if first.startswith("{"):
        last_records: Optional[list] = None
        lines = 0
        for line in stripped.splitlines():
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)
            if not isinstance(doc, dict) or "metrics" not in doc:
                raise ValueError(f"{path}: not a metrics JSONL stream")
            last_records = doc["metrics"]
            lines += 1
        return f"jsonl ({lines} snapshots)", list(last_records or [])
    families = parse_prometheus_text(text)
    records = []
    for name, fam in sorted(families.items()):
        for sample_name, labels, value in fam["samples"]:
            records.append(
                {
                    "name": sample_name,
                    "kind": "gauge" if fam["type"] != "counter" else "counter",
                    "help": fam["help"] or "",
                    "labels": labels,
                    "data": {"value": value},
                }
            )
    return "prometheus", records


#: Counters worth calling out in ``repro metrics summarize`` whenever
#: they are nonzero — each marks degraded behaviour that was survived.
_NOTABLE_COUNTERS = {
    "snapshot_corrupt_skipped_total": "corrupt snapshot(s) skipped during recovery",
    "snapshot_autosnap_disabled_total": "autosnapshot cadence(s) disabled by disk faults",
    "obs_export_errors_total": "exporter write failure(s)",
    "obs_export_suspended_total": "exporter flush(es) skipped while suspended",
    "guard_ladder_transitions_total": "degradation-ladder transition(s)",
    "guard_fsfaults_injected_total": "filesystem fault(s) injected",
    "guard_action_errors_total": "ladder stage action error(s)",
    "net_reroutes_total": "message(s) priced over a detour route",
    "net_retransmits_total": "expected retransmission(s) on lossy links",
    "net_partition_stalls_total": "recovery stall(s) on a partitioned network",
}


def summarize_metrics(path: str) -> str:
    """Human-readable summary of a metrics file (JSONL or Prometheus)."""
    fmt, records = _load_metric_records(path)
    out = [f"{path}: {fmt}, {len(records)} series"]
    notable: dict[str, float] = {}
    for rec in records:
        base = rec["name"]
        if base in _NOTABLE_COUNTERS and rec["kind"] in ("counter", "gauge"):
            value = rec["data"].get("value") or 0
            if value:
                notable[base] = notable.get(base, 0) + value
    for rec in records:
        labels = _fmt_labels(rec.get("labels") or {})
        data = rec["data"]
        kind = rec["kind"]
        if kind in ("counter", "gauge"):
            body = _fmt_value(data["value"])
        elif kind == "histogram":
            body = f"count={data['count']} sum={_fmt_value(data['sum'])}"
        else:  # quantile
            qs = " ".join(
                f"p{float(q) * 100:g}={_fmt_value(v)}"
                for q, v in sorted(data["quantiles"].items(), key=lambda kv: float(kv[0]))
            )
            body = f"count={data['count']} {qs}"
        out.append(f"  {rec['name']}{labels} [{kind}] {body}")
    for name in sorted(notable):
        out.append(
            f"  note: {_fmt_value(notable[name])} {_NOTABLE_COUNTERS[name]} ({name})"
        )
    return "\n".join(out)
