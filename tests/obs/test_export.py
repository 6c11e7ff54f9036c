"""Exporters: JSONL sink, Prometheus round-trip, guarded I/O, summaries."""

import json

import pytest

from repro.obs.export import (
    JsonlSink,
    PrometheusParseError,
    guarded_export,
    parse_prometheus_text,
    registry_to_prometheus,
    reset_export_warnings,
    summarize_metrics,
    write_prometheus,
)
from repro.obs.metrics import MetricsRegistry


def _populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("events_total", help="All events.", kind="sim").inc(42)
    reg.gauge("temp_c", help='It said "hot"\nyesterday.').set(21.5)
    reg.histogram("depth", buckets=(1.0, 8.0)).observe(3)
    q = reg.quantile("latency_seconds", quantiles=(0.5, 0.9))
    for v in (0.1, 0.2, 0.3):
        q.observe(v)
    return reg


def test_prometheus_round_trip_through_strict_parser():
    reg = _populated_registry()
    fams = parse_prometheus_text(registry_to_prometheus(reg))
    assert fams["events_total"]["type"] == "counter"
    assert fams["events_total"]["samples"] == [
        ("events_total", {"kind": "sim"}, 42.0)
    ]
    assert fams["depth"]["type"] == "histogram"
    names = [s[0] for s in fams["depth"]["samples"]]
    assert "depth_bucket" in names and "depth_sum" in names and "depth_count" in names
    buckets = [s for s in fams["depth"]["samples"] if s[0] == "depth_bucket"]
    assert buckets[-1][1]["le"] == "+Inf" and buckets[-1][2] == 1.0
    assert fams["latency_seconds"]["type"] == "summary"
    q50 = next(
        s
        for s in fams["latency_seconds"]["samples"]
        if s[1].get("quantile") == "0.5"
    )
    assert q50[2] == pytest.approx(0.2)
    # escaped multi-line help survives
    assert "hot" in fams["temp_c"]["help"]


def test_write_prometheus_atomic(tmp_path):
    path = tmp_path / "metrics.prom"
    write_prometheus(str(path), _populated_registry())
    assert parse_prometheus_text(path.read_text())
    assert not list(tmp_path.glob(".tmp*"))


@pytest.mark.parametrize(
    "bad",
    [
        "events_total{le 1.0\n",  # malformed sample line
        "events_total not_a_number\n",  # bad value
        "x_total 1\n# TYPE x_total counter\n",  # TYPE after samples
        # histogram with non-monotone buckets
        '# TYPE h histogram\nh_bucket{le="1"} 5\nh_bucket{le="2"} 3\n'
        'h_bucket{le="+Inf"} 5\nh_sum 1\nh_count 5\n',
        # histogram missing the +Inf bucket
        '# TYPE h histogram\nh_bucket{le="1"} 1\nh_sum 1\nh_count 1\n',
    ],
)
def test_strict_parser_rejects(bad):
    with pytest.raises(PrometheusParseError):
        parse_prometheus_text(bad)


def test_jsonl_sink_snapshots_and_interval(tmp_path):
    reg = MetricsRegistry()
    c = reg.counter("n_total")
    path = tmp_path / "m.jsonl"
    sink = JsonlSink(str(path), reg, interval_s=3600.0)
    c.inc()
    assert sink.maybe_flush(force=True)
    assert not sink.maybe_flush()  # interval not elapsed
    c.inc()
    sink.close()  # forces a final snapshot
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == 2
    assert lines[0]["metrics"][0]["data"]["value"] == 1.0
    assert lines[1]["metrics"][0]["data"]["value"] == 2.0
    assert lines[1]["ts"] >= lines[0]["ts"]


def test_guarded_export_counts_and_warns_once(caplog):
    reg = MetricsRegistry()
    reset_export_warnings()

    def boom():
        raise OSError("disk full")

    with caplog.at_level("WARNING", logger="repro.obs"):
        assert not guarded_export("sink:test", boom, registry=reg)
        assert not guarded_export("sink:test", boom, registry=reg)
    # logged once, counted twice, simulation keeps going
    assert len([r for r in caplog.records if "sink:test" in r.message]) == 1
    errs = next(
        r for r in reg.collect() if r["name"] == "obs_export_errors_total"
    )
    assert errs["labels"] == {"sink": "sink:test"}
    assert errs["data"]["value"] == 2.0
    reset_export_warnings()


def test_guarded_export_propagates_non_io_errors():
    with pytest.raises(ZeroDivisionError):
        guarded_export("sink:test2", lambda: 1 // 0)


def test_summarize_jsonl_last_snapshot_wins(tmp_path):
    reg = MetricsRegistry()
    c = reg.counter("n_total")
    path = tmp_path / "m.jsonl"
    sink = JsonlSink(str(path), reg, interval_s=0.001)
    c.inc(1)
    sink.maybe_flush(force=True)
    c.inc(9)
    sink.close()
    text = summarize_metrics(str(path))
    assert "2 snapshots" in text
    assert "10" in text and "n_total" in text


def test_summarize_prometheus(tmp_path):
    path = tmp_path / "m.prom"
    write_prometheus(str(path), _populated_registry())
    text = summarize_metrics(str(path))
    assert "prometheus" in text
    assert "events_total" in text


def test_summarize_surfaces_notable_durability_counters(tmp_path):
    reg = MetricsRegistry()
    reg.counter(
        "snapshot_corrupt_skipped_total",
        help="Corrupt snapshots skipped during restore.",
    ).inc(3)
    reg.counter(
        "guard_fsfaults_injected_total", kind="enospc", op="wal.append"
    ).inc(2)
    reg.counter("events_total").inc(100)  # not notable: no note line
    path = tmp_path / "m.prom"
    write_prometheus(str(path), reg)
    text = summarize_metrics(str(path))
    notes = [line for line in text.splitlines() if "note:" in line]
    assert any(
        "3" in n and "snapshot_corrupt_skipped_total" in n for n in notes
    )
    assert any(
        "2" in n and "guard_fsfaults_injected_total" in n for n in notes
    )
    assert not any("events_total" in n for n in notes)


def test_summarize_no_notes_when_counters_are_zero(tmp_path):
    reg = MetricsRegistry()
    reg.counter("snapshot_corrupt_skipped_total")
    reg.counter("events_total").inc(5)
    path = tmp_path / "m.prom"
    write_prometheus(str(path), reg)
    assert "note:" not in summarize_metrics(str(path))


def test_jsonl_sink_breaker_suspend_resume(tmp_path):
    reg = MetricsRegistry()
    reg.counter("n_total").inc()
    path = tmp_path / "m.jsonl"
    sink = JsonlSink(str(path), reg, interval_s=0.001)
    assert sink.maybe_flush(force=True)
    sink.breaker.force_open()
    assert not sink.maybe_flush(force=True)  # suspended: skipped, not fatal
    assert sink.suspended_skips == 1
    sink.breaker.reset()
    assert sink.maybe_flush(force=True)
    sink.close()


def test_summarize_surfaces_network_fault_counters(tmp_path):
    reg = MetricsRegistry()
    reg.counter("net_reroutes_total").inc(4)
    reg.counter("net_retransmits_total").inc(11)
    reg.counter("net_partition_stalls_total").inc(2)
    path = tmp_path / "m.prom"
    write_prometheus(str(path), reg)
    text = summarize_metrics(str(path))
    notes = [line for line in text.splitlines() if "note:" in line]
    assert any("4" in n and "detour route" in n for n in notes)
    assert any("11" in n and "retransmission" in n for n in notes)
    assert any("2" in n and "partitioned network" in n for n in notes)
