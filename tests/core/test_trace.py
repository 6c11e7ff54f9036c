"""Chrome-trace export and obs-span merging."""

import json

import pytest

from repro.core import (
    AppBEO,
    ArchBEO,
    BESSTSimulator,
    Checkpoint,
    Collective,
    Compute,
    Marker,
)
from repro.core.trace import (
    merge_obs_spans,
    save_spans_chrome_trace,
    spans_to_chrome_trace,
    spans_to_trace_events,
    to_chrome_trace,
)
from repro.models import ConstantModel
from repro.network import FullyConnected
from repro.obs.tracing import Tracer


def run_sim(record="rank0"):
    arch = ArchBEO("m", topology=FullyConnected(4), cores_per_node=2)
    arch.bind("k", ConstantModel(0.1))
    arch.bind("ckpt", ConstantModel(0.05))

    def builder(rank, nranks, params):
        return [
            Marker("start"),
            Compute.of("k"),
            Collective("allreduce", nbytes=8),
            Checkpoint.of(1, "ckpt"),
            Compute.of("k"),
        ]

    app = AppBEO("traced", builder)
    return BESSTSimulator(app, arch, nranks=2, record_timelines=record).run()


def test_chrome_trace_structure():
    res = run_sim()
    trace = to_chrome_trace(res)
    events = trace["traceEvents"]
    names = {e["name"] for e in events}
    assert "k" in names and "ckpt" in names and "start" in names
    # duration events carry ts/dur; the checkpoint carries its level
    ckpt = next(e for e in events if e["name"] == "ckpt")
    assert ckpt["ph"] == "X" and ckpt["args"]["level"] == 1
    marker = next(e for e in events if e["name"] == "start")
    assert marker["ph"] == "i"
    # thread metadata present for the recorded rank
    meta = [e for e in events if e["ph"] == "M"]
    assert meta and meta[0]["args"]["name"] == "rank 0"


def test_chrome_trace_all_ranks():
    res = run_sim(record="all")
    trace = to_chrome_trace(res)
    tids = {e["tid"] for e in trace["traceEvents"] if e["ph"] == "X"}
    assert tids == {0, 1}


def test_chrome_trace_requires_timelines():
    res = run_sim(record="none")
    with pytest.raises(ValueError):
        to_chrome_trace(res)


def test_chrome_trace_empty_timeline_rank():
    """A recorded-but-empty timeline exports only its metadata row."""
    from repro.core.simulator import RankTimeline, SimulationResult

    res = run_sim()
    empty = SimulationResult(
        total_time=0.0,
        finish_times=[0.0],
        timelines={3: RankTimeline(3)},
        nranks=1,
        events_fired=0,
        checkpoint_time=0.0,
        compute_time=0.0,
        collective_time=0.0,
    )
    trace = to_chrome_trace(empty)
    assert [e["ph"] for e in trace["traceEvents"]] == ["M"]
    assert trace["traceEvents"][0]["args"]["name"] == "rank 3"
    assert res.timelines  # the populated run still has entries


def test_chrome_trace_zero_duration_instruction():
    """Zero-length non-marker entries export as dur=0, never negative."""
    from repro.core.simulator import RankTimeline, SimulationResult, TimelineEntry

    tl = RankTimeline(0)
    tl.entries.append(TimelineEntry(1.0, 1.0, "compute", "noop"))
    tl.entries.append(TimelineEntry(2.0, 1.5, "compute", "clocksmear"))
    res = SimulationResult(
        total_time=2.0,
        finish_times=[2.0],
        timelines={0: tl},
        nranks=1,
        events_fired=2,
        checkpoint_time=0.0,
        compute_time=0.0,
        collective_time=0.0,
    )
    events = [e for e in to_chrome_trace(res)["traceEvents"] if e["ph"] == "X"]
    assert [e["dur"] for e in events] == [0.0, 0.0]


def _finished_spans():
    tr = Tracer()
    with tr.start_span("campaign"):
        with tr.start_span("task:0"):
            pass
    instant = tr.start_span("instant", push=False).end()
    instant.t_end = instant.t_start  # force an exactly zero-duration span
    return tr.finished_spans()


def test_spans_to_trace_events_structure():
    spans = _finished_spans()
    events = spans_to_trace_events(spans)
    meta = [e for e in events if e["ph"] == "M"]
    assert len(meta) == 1 and meta[0]["name"] == "process_name"
    data = [e for e in events if e["ph"] in ("X", "i")]
    assert len(data) == 3
    # normalized: the earliest span starts at ts 0
    assert min(e["ts"] for e in data) == 0.0
    assert all(e["ts"] >= 0 for e in data)
    by_name = {e["name"]: e for e in data}
    assert by_name["instant"]["ph"] == "i"  # zero-duration -> instant
    assert by_name["campaign"]["ph"] == "X"
    # parent/child ids ride in args; pids/tids are ints
    assert by_name["task:0"]["args"]["parent_id"] == (
        by_name["campaign"]["args"]["span_id"]
    )
    for e in data:
        assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
    # unfinished spans are skipped entirely
    tr = Tracer()
    tr.start_span("open")
    assert spans_to_trace_events(tr.spans) == []
    assert spans_to_trace_events([]) == []


def test_merge_obs_spans_round_trip(tmp_path):
    """Sim timeline + obs spans survive a JSON round trip in one file."""
    res = run_sim()
    spans = _finished_spans()
    merged = merge_obs_spans(to_chrome_trace(res), spans)
    path = tmp_path / "merged.json"
    path.write_text(json.dumps(merged))
    back = json.loads(path.read_text())
    events = back["traceEvents"]
    # sim events keep pid 0; span events live on the real producing pid
    sim_pids = {e["pid"] for e in events if e.get("cat") != "obs" and e["ph"] == "X"}
    obs_pids = {e["pid"] for e in events if e.get("cat") == "obs"}
    assert sim_pids == {0} and obs_pids and 0 not in obs_pids
    span_events = [e for e in events if e.get("cat") == "obs"]
    assert {e["name"] for e in span_events} >= {"campaign", "task:0"}
    assert all(e["ph"] in ("X", "i") for e in span_events)
    assert back["displayTimeUnit"] == "ms"


def test_save_spans_chrome_trace(tmp_path):
    spans = _finished_spans()
    path = tmp_path / "spans.json"
    save_spans_chrome_trace(spans, path)
    assert json.loads(path.read_text()) == spans_to_chrome_trace(spans)

