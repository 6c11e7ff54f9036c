"""Metric instruments: counters, gauges, histograms, P2 quantiles, registry."""

import math
import random

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    StreamingQuantile,
    get_registry,
    merge_records,
    set_registry,
)


# -- instruments --------------------------------------------------------------


def test_counter_monotone():
    c = Counter()
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(MetricError):
        c.inc(-1)


def test_gauge_set_inc_dec():
    g = Gauge()
    g.set(10.0)
    g.inc(2)
    g.inc(-4)
    assert g.value == 8.0


def test_histogram_buckets_cumulative_snapshot():
    h = Histogram(buckets=(1.0, 10.0))
    for v in (0.5, 5.0, 50.0, 10.0):  # 10.0 lands in the <=10 bucket
        h.observe(v)
    snap = h.snapshot()
    bounds, counts = snap["buckets"]
    assert bounds == [1.0, 10.0, "+Inf"]
    assert counts == [1, 2, 1]
    assert snap["count"] == 4 and snap["sum"] == pytest.approx(65.5)


def test_histogram_merge_requires_same_buckets():
    a = Histogram(buckets=(1.0,))
    b = Histogram(buckets=(2.0,))
    with pytest.raises(MetricError):
        a.merge(b.snapshot())


def test_streaming_quantile_small_sample_exact():
    q = StreamingQuantile(quantiles=(0.5,))
    for v in (3.0, 1.0, 2.0):
        q.observe(v)
    assert q.estimate(0.5) == 2.0
    with pytest.raises(MetricError):
        q.estimate(0.75)


def test_streaming_quantile_p2_convergence():
    """P2 medians/percentiles converge on a known uniform distribution."""
    rng = random.Random(7)
    q = StreamingQuantile(quantiles=(0.5, 0.9, 0.99))
    for _ in range(20_000):
        q.observe(rng.uniform(0.0, 1.0))
    assert q.estimate(0.5) == pytest.approx(0.5, abs=0.03)
    assert q.estimate(0.9) == pytest.approx(0.9, abs=0.03)
    assert q.estimate(0.99) == pytest.approx(0.99, abs=0.02)
    snap = q.snapshot()
    assert snap["count"] == 20_000
    assert 0.0 <= snap["min"] <= snap["max"] <= 1.0


def test_streaming_quantile_merge_weighted():
    a = StreamingQuantile(quantiles=(0.5,))
    b = StreamingQuantile(quantiles=(0.5,))
    for _ in range(100):
        a.observe(1.0)
        b.observe(3.0)
    a.merge(b.snapshot())
    assert a.count == 200
    assert a.estimate(0.5) == pytest.approx(2.0)
    assert a.min == 1.0 and a.max == 3.0


def test_quantile_empty_estimate_nan():
    assert math.isnan(StreamingQuantile(quantiles=(0.5,)).estimate(0.5))


# -- registry ------------------------------------------------------------------


def test_registry_get_or_create_and_labels():
    reg = MetricsRegistry()
    a = reg.counter("jobs_total", help="jobs", queue="fast")
    b = reg.counter("jobs_total", queue="fast")
    c = reg.counter("jobs_total", queue="slow")
    assert a is b and a is not c
    a.inc()
    c.inc(2)
    recs = reg.collect()
    by_labels = {
        tuple(sorted(r["labels"].items())): r["data"]["value"]
        for r in recs
        if r["name"] == "jobs_total"
    }
    assert by_labels == {(("queue", "fast"),): 1.0, (("queue", "slow"),): 2.0}
    # help text survives from the first registration
    assert all(r["help"] == "jobs" for r in recs if r["name"] == "jobs_total")


def test_registry_kind_conflict():
    reg = MetricsRegistry()
    reg.counter("x_total")
    with pytest.raises(MetricError):
        reg.gauge("x_total")


def test_registry_name_validation():
    reg = MetricsRegistry()
    with pytest.raises(MetricError):
        reg.counter("bad name")
    with pytest.raises(MetricError):
        reg.counter("ok_total", **{"bad-label": "v"})


def test_collect_is_deterministic():
    reg = MetricsRegistry()
    reg.counter("b_total", z="1").inc()
    reg.counter("a_total").inc()
    reg.gauge("m").set(3)
    names = [r["name"] for r in reg.collect()]
    assert names == sorted(names)
    assert reg.collect() == reg.collect()


def test_merge_records_cross_process_rollup():
    """Worker registries merge into the campaign's: the cross-process path."""
    host, w1, w2 = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
    for reg, n in ((host, 1), (w1, 10), (w2, 100)):
        reg.counter("events_total").inc(n)
        reg.histogram("depth", buckets=(2.0, 8.0)).observe(n % 7)
    host.merge_records(merge_records(w1.collect(), w2.collect()))
    recs = {r["name"]: r["data"] for r in host.collect()}
    assert recs["events_total"]["value"] == 111.0
    assert recs["depth"]["count"] == 3


def test_registry_reset():
    reg = MetricsRegistry()
    reg.counter("n_total").inc()
    reg.reset()
    assert reg.collect() == []


def test_global_registry_swap():
    orig = get_registry()
    mine = MetricsRegistry()
    try:
        set_registry(mine)
        assert get_registry() is mine
    finally:
        set_registry(orig)
