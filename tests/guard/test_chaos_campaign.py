"""Chaos suite: kill the disk mid-campaign, assert graceful degradation.

The acceptance properties pinned here:

* an injected ENOSPC on the campaign journal never escapes
  :class:`ResilienceCampaign` as an unhandled ``OSError`` — the run
  aborts cleanly with a valid, resumable journal,
* resuming after "space restoration" (shim uninstalled) reproduces a
  report bit-identical to an uninterrupted run,
* a guard-enabled run under zero pressure is byte-identical (report
  and journal) to a guard-free run,
* snapshot-write failures inside workers degrade (autosnapshot
  disabled, counted) without corrupting results,
* sustained disk pressure walks the degradation ladder and, if it
  never clears, ends in a clean resumable abort.
"""

import io
import json
import os

import pytest

from repro.core.campaign import CampaignSpec, ResilienceCampaign
from repro.core.supervisor import HarnessFaultInjector, RetryPolicy
from repro.guard import fsfault
from repro.guard.fsfault import FsFaultConfig, injected
from repro.guard.resource import (
    STAGE_ABORT,
    STAGES,
    ResourceGuard,
    ResourceLimits,
)
from repro.obs.instrument import CampaignObs, ObsOptions
from repro.obs.metrics import MetricsRegistry, set_registry

GRID_KW = dict(timesteps=15)
MTBFS = [8.0]
PERIODS = [5]


@pytest.fixture(autouse=True)
def _clean_shim():
    set_registry(MetricsRegistry())
    fsfault.uninstall()
    yield
    fsfault.uninstall()
    set_registry(None)


def run_calm(tmp_path, name="calm.wal", reps=3, **kw):
    journal = str(tmp_path / name)
    camp = ResilienceCampaign(
        reps=reps, base_seed=0, journal_path=journal, **kw
    )
    try:
        report = camp.run_grid(MTBFS, PERIODS, **GRID_KW)
    finally:
        camp.close()
    return camp, report, journal


def make_pressured_guard(disk_free=1):
    """A guard whose fake probes always report a nearly-full disk."""
    return ResourceGuard(
        watch_path=".",
        limits=ResourceLimits(min_disk_free_bytes=1024),
        poll_interval_s=0.0,
        disk_probe=lambda path: disk_free,
        rss_probe=lambda: None,
        fd_probe=lambda: None,
    )


# -- ENOSPC mid-campaign: clean abort, bit-identical resume ----------------------


def test_enospc_midrun_aborts_cleanly_and_resume_is_bit_identical(tmp_path):
    # Baseline, also counting how many WAL appends a full run performs.
    with injected(FsFaultConfig(ops=("wal.append",))) as counter:
        _, calm_report, _ = run_calm(tmp_path, "calm.wal")
    total_appends = counter.ops_seen
    assert total_appends >= 5  # header + point + 3 replicas at minimum

    # Re-run with the disk "filling up" halfway through the append stream.
    journal = str(tmp_path / "chaos.wal")
    camp = ResilienceCampaign(reps=3, base_seed=0, journal_path=journal)
    with injected(
        FsFaultConfig(
            enospc_prob=1.0, after_ops=total_appends // 2, ops=("wal.append",)
        )
    ):
        try:
            report = camp.run_grid(MTBFS, PERIODS, **GRID_KW)  # must not raise
        finally:
            camp.close()
    assert camp.aborted
    assert "durable write failed" in camp.abort_reason
    assert report.partial

    # The journal survived the abort: valid records, no duplicates.
    with open(journal) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    done = [r for r in records if r.get("kind") == "replica"]
    keys = {(r["spec_key"], r["replica"]) for r in done}
    assert len(keys) == len(done) < 3  # partial, never duplicated

    # "Space freed" (shim gone): resume completes and matches the calm run.
    resumed = ResilienceCampaign.resume(journal)
    try:
        resumed_report = resumed.run_grid(MTBFS, PERIODS, **GRID_KW)
    finally:
        resumed.close()
    assert not resumed.aborted
    assert resumed_report.to_json() == calm_report.to_json()


def test_no_oserror_escapes_under_any_cut_point(tmp_path):
    """Sweep the ENOSPC arming index across the whole append stream."""
    with injected(FsFaultConfig(ops=("wal.append",))) as counter:
        run_calm(tmp_path, "count.wal", reps=2)
    total = counter.ops_seen
    for cut in range(total):
        journal = str(tmp_path / f"cut{cut}.wal")
        camp = ResilienceCampaign(reps=2, base_seed=0, journal_path=journal)
        with injected(
            FsFaultConfig(enospc_prob=1.0, after_ops=cut, ops=("wal.append",))
        ):
            try:
                camp.run_grid(MTBFS, PERIODS, **GRID_KW)  # never raises
            finally:
                camp.close()
        assert camp.aborted  # every cut aborts (prob 1.0 keeps firing)
        # ... and every cut leaves a recoverable journal.  A cut before
        # the header lands leaves an *empty* file: nothing was journaled,
        # so the recovery story is a fresh run, not a resume.
        if os.path.getsize(journal) == 0:
            resumed = ResilienceCampaign(
                reps=2, base_seed=0, journal_path=journal
            )
        else:
            resumed = ResilienceCampaign.resume(journal)
        try:
            report = resumed.run_grid(MTBFS, PERIODS, **GRID_KW)
        finally:
            resumed.close()
        assert not report.partial


# -- guard on, zero pressure: byte-identical ------------------------------------


def test_guard_without_pressure_changes_nothing(tmp_path):
    _, plain_report, plain_journal = run_calm(tmp_path, "plain.wal")

    guard = ResourceGuard(
        watch_path=str(tmp_path),
        limits=ResourceLimits(min_disk_free_bytes=1),  # never trips
        poll_interval_s=0.0,
        rss_probe=lambda: None,
        fd_probe=lambda: None,
    )
    camp, guarded_report, guarded_journal = run_calm(
        tmp_path, "guarded.wal", guard=guard
    )
    assert guard.polls > 0  # the guard really ran
    assert camp.guard.stage == "normal"
    assert not camp.aborted
    assert guarded_report.to_json() == plain_report.to_json()
    with open(plain_journal, "rb") as a, open(guarded_journal, "rb") as b:
        assert a.read() == b.read()


# -- worker-side snapshot faults degrade, never corrupt --------------------------


def test_worker_snapshot_enospc_degrades_without_corrupting_results(tmp_path):
    _, calm_report, _ = run_calm(
        tmp_path,
        "calm.wal",
        reps=2,
        sim_snapshot_dir=str(tmp_path / "snaps_calm"),
        sim_snapshot_every=5,
    )

    # Same campaign, but every worker snapshot write hits ENOSPC.
    injector = HarnessFaultInjector(
        fs=FsFaultConfig(enospc_prob=1.0, ops=("snapshot.write",))
    )
    camp, chaos_report, _ = run_calm(
        tmp_path,
        "chaos.wal",
        reps=2,
        sim_snapshot_dir=str(tmp_path / "snaps_chaos"),
        sim_snapshot_every=5,
        fault_injector=injector,
        n_workers=2,
        retry=RetryPolicy(max_retries=2, backoff_base_s=0.01, timeout_s=60.0),
    )
    assert not camp.aborted
    assert chaos_report.to_json() == calm_report.to_json()


# -- sustained pressure: the ladder drives the campaign --------------------------


def test_sustained_pressure_walks_ladder_to_resumable_abort(tmp_path):
    guard = make_pressured_guard()
    journal = str(tmp_path / "pressured.wal")
    # Enough replicas that the per-iteration guard polls can walk all
    # three rungs before the task list drains.
    camp = ResilienceCampaign(
        reps=8, base_seed=0, journal_path=journal, guard=guard
    )
    try:
        report = camp.run_grid(MTBFS, PERIODS, **GRID_KW)
    finally:
        camp.close()
    assert camp.aborted
    assert report.partial
    assert guard.stage == STAGE_ABORT
    assert [to for _, to, _ in guard.transitions] == list(STAGES[1:])

    # Pressure cleared: a guard-free resume completes and matches calm.
    _, calm_report, _ = run_calm(tmp_path, "calm.wal", reps=8)
    resumed = ResilienceCampaign.resume(journal)
    try:
        resumed_report = resumed.run_grid(MTBFS, PERIODS, **GRID_KW)
    finally:
        resumed.close()
    assert resumed_report.to_json() == calm_report.to_json()


def make_snapshot_dirs(snap_root, replicas=("r0", "r1")):
    for replica in replicas:
        d = snap_root / replica
        d.mkdir(parents=True)
        for i in range(3):  # three fake snapshot files, oldest first
            (d / f"snap-{i:08d}.snap").write_text("placeholder")


def test_stage_actions_shed_snapshots_and_stretch_cadence(tmp_path):
    """No stage touches in-simulation snapshots: at every stage, up and
    down, a new replica task keeps the base cadence and every snapshot
    file on disk stays."""
    snap_root = tmp_path / "snaps"
    make_snapshot_dirs(snap_root)
    before = {r: sorted(os.listdir(snap_root / r)) for r in ("r0", "r1")}
    guard = make_pressured_guard()
    camp = ResilienceCampaign(
        reps=1,
        base_seed=0,
        guard=guard,
        sim_snapshot_dir=str(snap_root),
        sim_snapshot_every=10,
    )
    spec = CampaignSpec(node_mtbf_s=8.0, ckpt_period=5)
    seen = []
    for limit in (1024, 0):  # pressured until abort, then space freed
        guard.limits = ResourceLimits(min_disk_free_bytes=limit)
        for _ in range(9):
            guard.tick()
            task = camp._replica_task(spec, "k", [0], 0)
            assert task.snapshot.every_events == 10
            assert {r: sorted(os.listdir(snap_root / r)) for r in before} == before
            seen.append(guard.stage)
    assert set(seen) == set(STAGES)
    assert guard.action_errors == 0


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_campaign_follows_the_guard_up_and_down_the_ladder(tmp_path):
    """A full climb to ``abort`` and a full recovery to ``normal``, one
    poll at a time: at every stage the metrics sink's breaker and the
    heartbeat stage match it (breaker open at ``suspend_exporters`` and
    above)."""
    disk = {"free": 1}
    clock = FakeClock()
    reg = MetricsRegistry()
    guard = ResourceGuard(
        limits=ResourceLimits(min_disk_free_bytes=1024),
        registry=reg,
        clock=clock,
        disk_probe=lambda path: disk["free"],
        rss_probe=lambda: None,
        fd_probe=lambda: None,
    )
    obs = CampaignObs(
        ObsOptions(metrics_out=str(tmp_path / "m.jsonl"), heartbeat_s=1.0),
        registry=reg,
    )
    obs.heartbeat.stream = io.StringIO()
    ResilienceCampaign(reps=1, base_seed=0, guard=guard, obs=obs)

    def poll_into(stage):
        for _ in range(3):  # a rung takes at most three polls
            if guard.stage == stage:
                break
            clock.t += 1.0
            guard.tick()
        observed = (guard.stage, obs.sink.breaker.suspended, obs.heartbeat.stage)
        assert observed == (stage, stage in STAGES[1:], stage)

    for stage in STAGES[1:]:
        poll_into(stage)
    disk["free"] = 1 << 30
    for stage in STAGES[-2::-1]:
        poll_into(stage)
    assert len(guard.transitions) == 6 and guard.action_errors == 0
    obs.sink.close()
