"""Campaign-level observability: merged timelines, roll-ups, heartbeat."""

import io
import json

import pytest

from repro.core.campaign import CampaignJournal, ResilienceCampaign
from repro.obs.export import parse_prometheus_text
from repro.obs.heartbeat import CampaignHeartbeat
from repro.obs.instrument import CampaignObs, ObsOptions
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry


@pytest.fixture(autouse=True)
def fresh_global_registry():
    """In-process replicas record into the process-global registry; give
    each test its own so metrics don't leak between them."""
    orig = get_registry()
    set_registry(MetricsRegistry())
    try:
        yield
    finally:
        set_registry(orig)


def _options(tmp_path, **over):
    kw = dict(
        metrics_out=str(tmp_path / "m.jsonl"),
        metrics_interval_s=0.05,
        prom_out=str(tmp_path / "m.prom"),
        trace_out=str(tmp_path / "trace.json"),
        heartbeat_s=None,
    )
    kw.update(over)
    return ObsOptions(**kw)


def _run_campaign(tmp_path, n_workers, **opt_over):
    obs = CampaignObs(_options(tmp_path, **opt_over))
    camp = ResilienceCampaign(
        reps=2, base_seed=0, n_workers=n_workers, obs=obs
    )
    try:
        report = camp.run_grid([8.0], [5], timesteps=6)
    finally:
        camp.close()
    return report, obs


def _span_events(tmp_path):
    trace = json.loads((tmp_path / "trace.json").read_text())
    return {
        e["args"]["span_id"]: e
        for e in trace["traceEvents"]
        if "span_id" in e.get("args", {})
    }


def test_options_enabled():
    assert not ObsOptions().enabled
    assert ObsOptions(heartbeat_s=1.0).enabled
    with pytest.raises(ValueError):
        ObsOptions(metrics_interval_s=0.0)


def test_in_process_campaign_full_pipeline(tmp_path):
    report, obs = _run_campaign(tmp_path, n_workers=1)
    assert all(p.replicas_done == 2 for p in report.points)

    # prometheus snapshot is strictly valid and spans all layers
    fams = parse_prometheus_text((tmp_path / "m.prom").read_text())
    assert fams["engine_events_total"]["samples"][0][2] > 0
    assert fams["supervisor_tasks_completed_total"]["samples"][0][2] == 2.0

    # jsonl stream got at least a final forced snapshot
    lines = (tmp_path / "m.jsonl").read_text().splitlines()
    assert lines and json.loads(lines[-1])["metrics"]

    # one merged timeline: campaign -> point -> task -> replica -> engine.run
    spans = _span_events(tmp_path)
    chain = {}
    for ev in spans.values():
        layer = ev["name"].split(":")[0]
        chain.setdefault(layer, ev)
        parent = ev["args"]["parent_id"]
        assert parent is None or parent in spans
    assert set(chain) >= {"campaign", "point", "task", "replica", "engine.run"}
    # replicas hang off their supervisor task spans
    replica = chain["replica"]
    assert spans[replica["args"]["parent_id"]]["name"].startswith("task:")


def test_multiworker_spans_cross_process_boundary(tmp_path):
    report, obs = _run_campaign(tmp_path, n_workers=2)
    assert all(p.replicas_done == 2 for p in report.points)
    spans = _span_events(tmp_path)
    host_pids = {e["pid"] for e in spans.values() if e["name"] == "campaign"}
    worker_pids = {e["pid"] for e in spans.values() if e["name"] == "replica"}
    # worker spans really came from other processes...
    assert worker_pids and not (worker_pids & host_pids)
    # ...and still link to the campaign's task spans by derived ID
    for ev in spans.values():
        if ev["name"] == "replica":
            parent = spans[ev["args"]["parent_id"]]
            assert parent["name"].startswith("task:")
            assert parent["pid"] in host_pids

    # worker registry roll-up reached the campaign registry
    fams = parse_prometheus_text((tmp_path / "m.prom").read_text())
    assert fams["engine_events_total"]["samples"][0][2] > 0


def test_journal_resume_feeds_heartbeat_not_engine_metrics(tmp_path):
    journal = str(tmp_path / "wal.jsonl")
    camp = ResilienceCampaign(reps=2, base_seed=0, journal_path=journal)
    baseline = camp.run_grid([8.0], [5], timesteps=6)
    camp.close()

    out = io.StringIO()
    obs = CampaignObs(_options(tmp_path, heartbeat_s=0.001))
    obs.heartbeat.stream = out
    resumed = ResilienceCampaign.resume(journal, obs=obs)
    report = resumed.run_grid([8.0], [5], timesteps=6)
    resumed.close()

    # bit-identical report; every replica replayed, none recomputed
    assert report.to_json() == baseline.to_json()
    text = out.getvalue()
    assert "2/2 done" in text
    # no engines ran, so no engine metrics were recorded
    fams = parse_prometheus_text((tmp_path / "m.prom").read_text())
    assert "engine_events_total" not in fams


def test_results_bit_identical_with_and_without_obs(tmp_path):
    bare = ResilienceCampaign(reps=2, base_seed=0)
    plain = bare.run_grid([8.0], [5], timesteps=6)
    observed, _ = _run_campaign(tmp_path, n_workers=1)
    assert observed.to_json() == plain.to_json()


@pytest.mark.parametrize("n_workers", [1, 2])
def test_every_accepted_replica_counts_exactly_once(tmp_path, n_workers):
    """Supervisor and engine totals match the journal at any worker count:
    a forked worker's inherited copy of the campaign registry never
    travels back, and the telemetry never reaches the journal."""
    journal = str(tmp_path / "wal.jsonl")
    obs = CampaignObs(_options(tmp_path))
    camp = ResilienceCampaign(
        reps=4, base_seed=0, n_workers=n_workers, journal_path=journal, obs=obs
    )
    try:
        camp.run_grid([8.0, 16.0, 32.0], [5], timesteps=6)
    finally:
        camp.close()
    _, _, replicas = CampaignJournal.read(journal)
    results = [r for point in replicas.values() for r in point.values()]
    assert len(results) == 12
    assert not any("obs" in r for r in results)

    fams = parse_prometheus_text((tmp_path / "m.prom").read_text())

    def total(family):
        return fams[family]["samples"][0][2]

    assert total("supervisor_tasks_completed_total") == 12
    assert total("engine_events_total") == sum(r["events_fired"] for r in results)
    obs.end_campaign()  # a second close is a no-op


def test_heartbeat_line_format():
    out = io.StringIO()
    hb = CampaignHeartbeat(interval_s=0.0001, stream=out, label="camp")
    hb.set_total(4)
    hb.replica_done(events_fired=1000)
    hb.replica_failed()
    hb.replica_quarantined()
    line = hb.status_line()
    assert "camp" in line and "2/4 done" in line
    assert "1 failed" in line and "1 quarantined" in line
    assert hb.beat(force=True)
    assert "done" in out.getvalue()
