#!/usr/bin/env python
"""Observability: one campaign, one merged timeline, three exporters.

Runs a small resilience sweep across *worker processes* with the full
:mod:`repro.obs` stack attached and shows that:

* the metrics registry streams JSONL snapshots while the campaign runs,
* the final Prometheus snapshot survives a strict text-format parse,
* the Chrome trace holds campaign, supervisor-task, replica and
  ``engine.run`` spans from three layers (host and workers) with an
  intact parent/child chain — load it in https://ui.perfetto.dev,
* a single observed :class:`BESSTSimulator` run can merge its obs spans
  into the simulated-time trace with :func:`merge_obs_spans`.

Run:  python examples/observed_campaign.py        (seconds)
"""

import json
import os
import tempfile

from repro.core.campaign import ResilienceCampaign
from repro.core.trace import merge_obs_spans, to_chrome_trace
from repro.obs import (
    CampaignObs,
    EngineObs,
    ObsOptions,
    Tracer,
    parse_prometheus_text,
    summarize_metrics,
)

MTBFS = [8.0, 32.0]
PERIODS = [5]
TIMESTEPS = 10


def observed_campaign(outdir: str) -> None:
    opts = ObsOptions(
        metrics_out=os.path.join(outdir, "metrics.jsonl"),
        metrics_interval_s=0.2,
        prom_out=os.path.join(outdir, "metrics.prom"),
        trace_out=os.path.join(outdir, "campaign_trace.json"),
        heartbeat_s=0.5,
    )
    camp = ResilienceCampaign(
        reps=3, base_seed=0, n_workers=2, obs=CampaignObs(opts)
    )
    try:
        report = camp.run_grid(MTBFS, PERIODS, timesteps=TIMESTEPS)
    finally:
        camp.close()
    print(report.format())

    # -- the Prometheus snapshot is strictly valid ---------------------------
    families = parse_prometheus_text(
        open(opts.prom_out, encoding="utf-8").read()
    )
    assert "engine_events_total" in families
    assert "supervisor_tasks_completed_total" in families
    print(f"prometheus: {len(families)} families, strict parse OK")

    # -- the JSONL stream summarizes -----------------------------------------
    print(summarize_metrics(opts.metrics_out).splitlines()[0])

    # -- the trace holds all three layers with a consistent parent chain -----
    trace = json.load(open(opts.trace_out, encoding="utf-8"))
    spans = {
        e["args"]["span_id"]: e
        for e in trace["traceEvents"]
        if "span_id" in e.get("args", {})
    }
    names = {e["name"] for e in spans.values()}
    assert "campaign" in names and "replica" in names and "engine.run" in names
    assert any(n.startswith("task:") for n in names)
    for ev in spans.values():
        parent = ev["args"]["parent_id"]
        assert parent is None or parent in spans, f"dangling parent {parent}"
    pids = {e["pid"] for e in spans.values()}
    layers = sorted({n.split(":")[0] for n in names})
    print(
        f"trace: {len(spans)} spans across {len(pids)} processes, "
        f"layers {layers}, parent chain intact"
    )
    print(f"open in Perfetto: {opts.trace_out}")


def observed_single_run(outdir: str) -> None:
    """Merge obs spans into a simulated-time trace for one run."""
    from repro.core import ArchBEO, BESSTSimulator
    from repro.core.ft import scenario_l1
    from repro.models import CallableModel
    from repro.network import TwoStageFatTree
    from repro.apps import iterative_solver_appbeo

    arch = ArchBEO(
        name="toy-cluster",
        topology=TwoStageFatTree(64, nodes_per_edge=16, uplinks_per_edge=8),
        cores_per_node=2,
    )
    arch.bind("solve", CallableModel(lambda p: 2e-6 * p["n"], ("n",)))
    arch.bind("fti_l1", CallableModel(lambda p: 1e-3 + 4e-8 * p["n"] * 8, ("n",)))
    app = iterative_solver_appbeo(iterations=100, scenario=scenario_l1(period=20))

    tracer = Tracer()
    sim = BESSTSimulator(app, arch, nranks=8, params={"n": 50_000}, seed=0)
    obs = EngineObs(tracer=tracer)
    sim.engine.attach_obs(obs)
    result = sim.run()

    trace = merge_obs_spans(to_chrome_trace(result), tracer.finished_spans())
    path = os.path.join(outdir, "merged_trace.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
    obs_rows = [e for e in trace["traceEvents"] if e.get("cat") == "obs"]
    util = obs.utilization.report(horizon=max(result.total_time, 1e-9))
    print(
        f"single run: total={result.total_time:.3f}s, merged trace has "
        f"{len(obs_rows)} obs span(s) alongside the rank timeline -> {path}"
    )
    print(f"engine-fed utilization tracker saw {len(util)} component(s)")


def main() -> None:
    outdir = tempfile.mkdtemp(prefix="repro-obs-")
    print("== Observed multi-worker campaign ==")
    observed_campaign(outdir)
    print("\n== Observed single simulation, merged trace ==")
    observed_single_run(outdir)


if __name__ == "__main__":
    main()
