"""Process-wide metrics: counters, gauges, histograms, quantiles.

The model follows SST's statistics subsystem (and Prometheus, whose
text exposition :mod:`repro.obs.export` writes): a registry owns named
metric *families*, each family holds one series per label-set, and the
whole registry collapses to a list of plain-dict records that survive
JSON round-trips and can be merged across processes.

Four instrument kinds:

- :class:`Counter` — monotonically increasing float (``inc``).
- :class:`Gauge` — set-to-current-value float (``set``/``inc``).
- :class:`Histogram` — fixed upper-bound buckets plus sum/count,
  Prometheus-style cumulative on export.
- :class:`StreamingQuantile` — P² (Jain & Chlamtac 1985) single-pass
  quantile estimates with O(1) memory per tracked quantile; used where
  latency distributions matter but bucket bounds aren't known up front.

Hot-path cost: ``Counter.inc`` / ``Histogram.observe`` are one or two
attribute updates; series lookups (``registry.counter(...)`` with
labels) are dict hits and should be hoisted out of inner loops by the
instrumentation layer.

A process-global registry (:func:`get_registry`) lets rare-path code
(FTI checkpoints, snapshot writes) record metrics without plumbing a
registry handle through every constructor; worker processes dump it and
the campaign merges the dumps (:func:`merge_records`).
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Iterable, Mapping, Optional, Sequence

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram upper bounds (seconds-ish, log-spaced).
DEFAULT_BUCKETS = (
    0.0001,
    0.001,
    0.01,
    0.1,
    1.0,
    10.0,
    100.0,
)

#: Default tracked quantiles for :class:`StreamingQuantile`.
DEFAULT_QUANTILES = (0.5, 0.9, 0.99)


class MetricError(ValueError):
    """Invalid metric/label name or conflicting re-registration."""


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name or ""):
        raise MetricError(f"invalid metric name {name!r}")
    return name


def _check_labels(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    out = []
    for k in sorted(labels):
        if not _LABEL_RE.match(k):
            raise MetricError(f"invalid label name {k!r}")
        out.append((k, str(labels[k])))
    return tuple(out)


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def snapshot(self) -> dict:
        return {"value": self.value}

    def merge(self, data: Mapping) -> None:
        self.value += float(data["value"])


class Gauge:
    """Set-to-current-value instrument."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def snapshot(self) -> dict:
        return {"value": self.value}

    def merge(self, data: Mapping) -> None:
        # Last writer wins: a merged gauge reports the merged-in sample.
        self.value = float(data["value"])


class Histogram:
    """Fixed upper-bound bucket histogram with sum and count.

    Buckets store per-bucket (non-cumulative) counts internally; the
    exporter produces Prometheus-style cumulative ``le`` buckets with a
    trailing ``+Inf``.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise MetricError(f"histogram buckets must be sorted and unique: {buckets!r}")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot = +Inf overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def snapshot(self) -> dict:
        return {
            "buckets": [list(self.bounds) + ["+Inf"], list(self.counts)],
            "sum": self.sum,
            "count": self.count,
        }

    def merge(self, data: Mapping) -> None:
        bounds, counts = data["buckets"]
        if tuple(float(b) for b in bounds[:-1]) != self.bounds:
            raise MetricError("cannot merge histograms with different buckets")
        for i, c in enumerate(counts):
            self.counts[i] += int(c)
        self.sum += float(data["sum"])
        self.count += int(data["count"])


class StreamingQuantile:
    """P² single-pass quantile estimator (Jain & Chlamtac, 1985).

    Maintains five markers per tracked quantile; estimates converge to
    the true quantile without storing observations.  Exact for the
    first five samples per quantile.
    """

    __slots__ = ("quantiles", "_states", "sum", "count", "min", "max")

    def __init__(self, quantiles: Sequence[float] = DEFAULT_QUANTILES) -> None:
        qs = tuple(float(q) for q in quantiles)
        if not qs or any(not (0.0 < q < 1.0) for q in qs):
            raise MetricError(f"quantiles must lie in (0, 1): {quantiles!r}")
        self.quantiles = qs
        # Per-quantile P² state: (heights q[5], positions n[5], initial buffer)
        self._states: list[dict] = [{"q": [], "n": [0, 1, 2, 3, 4]} for _ in qs]
        self.sum = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.sum += value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for p, st in zip(self.quantiles, self._states):
            self._observe_one(st, p, value)

    @staticmethod
    def _observe_one(st: dict, p: float, x: float) -> None:
        q = st["q"]
        if len(q) < 5:
            q.append(x)
            q.sort()
            return
        n = st["n"]
        if x < q[0]:
            q[0] = x
            k = 0
        elif x >= q[4]:
            q[4] = x
            k = 3
        else:
            k = 0
            while x >= q[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            n[i] += 1
        # Desired marker positions after this observation.
        count = n[4] + 1  # observations seen (n is 0-based positions)
        d = [
            0.0,
            (count - 1) * p / 2.0,
            (count - 1) * p,
            (count - 1) * (1.0 + p) / 2.0,
            float(count - 1),
        ]
        for i in (1, 2, 3):
            diff = d[i] - n[i]
            if (diff >= 1 and n[i + 1] - n[i] > 1) or (diff <= -1 and n[i - 1] - n[i] < -1):
                step = 1 if diff >= 1 else -1
                cand = StreamingQuantile._parabolic(q, n, i, step)
                if q[i - 1] < cand < q[i + 1]:
                    q[i] = cand
                else:  # fall back to linear prediction
                    q[i] = q[i] + step * (q[i + step] - q[i]) / (n[i + step] - n[i])
                n[i] += step

    @staticmethod
    def _parabolic(q: list, n: list, i: int, step: int) -> float:
        return q[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def estimate(self, quantile: float) -> float:
        """Current estimate for *quantile* (must be a tracked one)."""
        try:
            st = self._states[self.quantiles.index(float(quantile))]
        except ValueError:
            raise MetricError(f"quantile {quantile} is not tracked") from None
        q = st["q"]
        if not q:
            return float("nan")
        if len(q) < 5:
            # Exact small-sample quantile (nearest-rank).
            idx = min(len(q) - 1, int(round(quantile * (len(q) - 1))))
            return sorted(q)[idx]
        return q[2]

    def snapshot(self) -> dict:
        return {
            "quantiles": {str(p): self.estimate(p) for p in self.quantiles},
            "sum": self.sum,
            "count": self.count,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    def merge(self, data: Mapping) -> None:
        """Count-weighted approximate merge of another snapshot.

        P² states cannot be merged exactly; the estimate is a
        count-weighted average of the two quantile estimates, which is
        adequate for cross-process roll-ups of similar distributions.
        """
        other_count = int(data["count"])
        if other_count == 0:
            return
        mine = self.count
        for p in self.quantiles:
            theirs = data["quantiles"].get(str(p))
            if theirs is None:
                continue
            if mine == 0:
                est = float(theirs)
            else:
                est = (self.estimate(p) * mine + float(theirs) * other_count) / (
                    mine + other_count
                )
            st = self._states[self.quantiles.index(p)]
            if len(st["q"]) >= 5:
                st["q"][2] = est
            else:
                st["q"] = [est] * 5
        self.sum += float(data["sum"])
        self.count += other_count
        if data.get("min") is not None:
            self.min = min(self.min, float(data["min"]))
        if data.get("max") is not None:
            self.max = max(self.max, float(data["max"]))


_KINDS = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
    "quantile": StreamingQuantile,
}


class _Family:
    """All series of one metric name (one per label-set)."""

    __slots__ = ("name", "kind", "help", "_ctor_kwargs", "series")

    def __init__(self, name: str, kind: str, help_text: str, ctor_kwargs: dict) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self._ctor_kwargs = ctor_kwargs
        self.series: dict[tuple[tuple[str, str], ...], object] = {}

    def get(self, labels: Mapping[str, str]):
        key = _check_labels(labels) if labels else ()
        inst = self.series.get(key)
        if inst is None:
            inst = _KINDS[self.kind](**self._ctor_kwargs)
            self.series[key] = inst
        return inst


class MetricsRegistry:
    """Named metric families; the unit of export and merge.

    ``counter``/``gauge``/``histogram``/``quantile`` are get-or-create:
    repeated calls with the same name and labels return the same
    instrument, so callers keep no bookkeeping.  Re-registering a name
    as a different kind raises :class:`MetricError`.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    def family(self, name: str, kind: str, help_text: str, **ctor_kwargs) -> _Family:
        """The family *name* of instrument *kind*, created if new; its
        ``get(labels)`` returns one series.  Resolve it once to look up
        many series of one name."""
        _check_name(name)
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                fam = _Family(name, kind, help_text, ctor_kwargs)
                self._families[name] = fam
            elif fam.kind != kind:
                raise MetricError(
                    f"metric {name!r} already registered as {fam.kind}, not {kind}"
                )
            return fam

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self.family(name, "counter", help).get(labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self.family(name, "gauge", help).get(labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self.family(name, "histogram", help, buckets=buckets).get(labels)

    def quantile(
        self,
        name: str,
        help: str = "",
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
        **labels: str,
    ) -> StreamingQuantile:
        return self.family(name, "quantile", help, quantiles=quantiles).get(labels)

    # -- export / merge ------------------------------------------------------

    def collect(self) -> list[dict]:
        """Snapshot every series as a JSON-safe record list.

        Record shape: ``{"name", "kind", "help", "labels": {...},
        "data": {...}}`` where ``data`` is the instrument's snapshot.
        Families are emitted sorted by name, series by label-set, so the
        output is deterministic.
        """
        out: list[dict] = []
        with self._lock:
            fams = sorted(self._families.values(), key=lambda f: f.name)
            for fam in fams:
                for key in sorted(fam.series):
                    out.append(
                        {
                            "name": fam.name,
                            "kind": fam.kind,
                            "help": fam.help,
                            "labels": dict(key),
                            "data": fam.series[key].snapshot(),
                        }
                    )
        return out

    def merge_records(self, records: Iterable[Mapping]) -> None:
        """Fold exported *records* (e.g. a worker replica's) into this
        registry, creating any missing families/series."""
        for rec in records:
            kind = rec["kind"]
            if kind not in _KINDS:
                raise MetricError(f"unknown metric kind {kind!r}")
            ctor_kwargs = {}
            if kind == "histogram":
                bounds = rec["data"]["buckets"][0][:-1]
                ctor_kwargs["buckets"] = tuple(float(b) for b in bounds)
            elif kind == "quantile":
                ctor_kwargs["quantiles"] = tuple(
                    float(q) for q in sorted(rec["data"]["quantiles"], key=float)
                )
            fam = self.family(rec["name"], kind, rec.get("help", ""), **ctor_kwargs)
            fam.get(rec.get("labels") or {}).merge(rec["data"])

    def reset(self) -> None:
        with self._lock:
            self._families.clear()


def merge_records(*record_lists: Iterable[Mapping]) -> list[dict]:
    """Merge several exported record lists into one (fresh registry)."""
    reg = MetricsRegistry()
    for records in record_lists:
        reg.merge_records(records)
    return reg.collect()


# -- process-global registry --------------------------------------------------

_global_registry: Optional[MetricsRegistry] = None
_global_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-global registry (created on first use)."""
    global _global_registry
    if _global_registry is None:
        with _global_lock:
            if _global_registry is None:
                _global_registry = MetricsRegistry()
    return _global_registry


def set_registry(registry: Optional[MetricsRegistry]) -> None:
    """Replace the process-global registry (``None`` resets to fresh)."""
    global _global_registry
    with _global_lock:
        _global_registry = registry
