"""Crash-safe campaign execution: WAL journal, resume, chaos injection.

The acceptance properties pinned here:

* a retried replica is bit-identical to its first attempt,
* no completed replica is ever recomputed or lost,
* a campaign SIGKILLed mid-sweep and resumed produces a report
  bit-identical to an uninterrupted run,
* a chaos run (20 % injected worker crash/hang probability) completes
  with zero lost or duplicated replicas and an unchanged report.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

import repro.core.campaign as campaign_mod
from repro.core.campaign import (
    CampaignSpec,
    ReplicaTask,
    ResilienceCampaign,
    _run_replica,
    campaign_spec_key,
)
from repro.core.fault_injection import RecoveryPolicy
from repro.core.supervisor import HarnessFaultInjector, RetryPolicy

SPEC_KW = dict(timesteps=20)


def _journal_replica_records(path):
    with open(path) as fh:
        lines = [json.loads(line) for line in fh]
    return [r for r in lines if r.get("kind") == "replica"]


# -- replica purity ---------------------------------------------------------------


def test_retried_replica_is_bit_identical():
    spec = CampaignSpec(node_mtbf_s=6.0, ckpt_period=5, timesteps=30)
    task = ReplicaTask(spec, RecoveryPolicy(), 12345)
    assert _run_replica(task) == _run_replica(task)


def test_replica_retried_through_supervisor_matches_direct_run():
    spec = CampaignSpec(node_mtbf_s=8.0, ckpt_period=5, timesteps=15)
    camp = ResilienceCampaign(reps=2, base_seed=0, n_workers=2)
    spec_key = campaign_spec_key(spec, camp.policy)
    # find a chaos seed whose first attempt of replica 0 errors out
    inj = None
    for seed in range(500):
        cand = HarnessFaultInjector(error_prob=0.4, seed=seed)
        if (
            cand.decide(f"{spec_key}:0", 1) == "error"
            and cand.decide(f"{spec_key}:0", 2) is None
        ):
            inj = cand
            break
    assert inj is not None
    camp.fault_injector = inj
    camp.retry = RetryPolicy(max_retries=5, backoff_base_s=0.01, backoff_max_s=0.05)
    point = camp.run_point(spec)
    assert camp.harness_stats.by_kind["error"] >= 1
    baseline = ResilienceCampaign(reps=2, base_seed=0).run_point(spec)
    assert point.to_dict() == baseline.to_dict()


# -- journal + resume -------------------------------------------------------------


def test_journal_records_every_replica_once(tmp_path):
    journal = str(tmp_path / "wal.jsonl")
    camp = ResilienceCampaign(reps=4, base_seed=0, journal_path=journal)
    report = camp.run_grid([8.0, 32.0], [5], **SPEC_KW)
    camp.close()
    records = _journal_replica_records(journal)
    assert len(records) == 8  # 2 points x 4 replicas
    keys = {(r["spec_key"], r["replica"]) for r in records}
    assert len(keys) == 8  # no duplicates
    assert not report.partial


def test_resume_skips_completed_replicas_without_recompute(tmp_path, monkeypatch):
    journal = str(tmp_path / "wal.jsonl")
    camp = ResilienceCampaign(reps=3, base_seed=7, journal_path=journal)
    first = camp.run_grid([8.0], [5], **SPEC_KW)
    camp.close()

    def _explode(payload):
        raise AssertionError("a completed replica was recomputed")

    monkeypatch.setattr(campaign_mod, "_run_replica", _explode)
    resumed = ResilienceCampaign.resume(journal)
    second = resumed.run_grid([8.0], [5], **SPEC_KW)
    resumed.close()
    assert second.to_json() == first.to_json()
    assert len(_journal_replica_records(journal)) == 3  # still no duplicates


def test_resume_restores_header_configuration(tmp_path):
    journal = str(tmp_path / "wal.jsonl")
    policy = RecoveryPolicy(verify_fail_prob=0.2, max_attempts=3)
    camp = ResilienceCampaign(
        reps=2, base_seed=5, policy=policy, journal_path=journal
    )
    camp.run_grid([16.0], [5], **SPEC_KW)
    camp.close()
    resumed = ResilienceCampaign.resume(journal)
    assert resumed.reps == 2
    assert resumed.base_seed == 5
    assert resumed.policy == policy


def test_partial_report_from_incomplete_journal(tmp_path):
    journal = str(tmp_path / "wal.jsonl")
    camp = ResilienceCampaign(reps=3, base_seed=0, journal_path=journal)
    camp.run_grid([8.0], [5], **SPEC_KW)
    camp.close()
    # drop the last replica record, as if the process died before it
    with open(journal) as fh:
        lines = fh.readlines()
    with open(journal, "w") as fh:
        fh.writelines(lines[:-1])
    report = ResilienceCampaign.report_from_journal(journal)
    assert report.partial
    assert report.points[0].replicas_done == 2
    assert report.points[0].reps == 3
    # aggregation over the available subset only — no NaN anywhere
    text = report.to_json()
    assert "NaN" not in text and "Infinity" not in text
    assert "PARTIAL" in report.format()


def test_mismatched_journal_is_refused(tmp_path):
    from repro.core.supervisor import JournalError

    journal = str(tmp_path / "wal.jsonl")
    camp = ResilienceCampaign(reps=2, base_seed=0, journal_path=journal)
    camp.run_grid([8.0], [5], **SPEC_KW)
    camp.close()
    other = ResilienceCampaign(reps=4, base_seed=0, journal_path=journal)
    with pytest.raises(JournalError):
        other.run_grid([8.0], [5], **SPEC_KW)


# -- kill -9 and resume (the acceptance scenario) ---------------------------------


def test_sigkill_mid_sweep_then_resume_is_bit_identical(tmp_path):
    journal = str(tmp_path / "wal.jsonl")
    killed_out = str(tmp_path / "killed.json")
    fresh_out = str(tmp_path / "fresh.json")
    repo_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(repo_root, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    grid = [
        "--reps", "30", "--mtbf", "4", "--periods", "5",
        "--timesteps", "300", "--seed", "3",
    ]
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", *grid,
         "--journal", journal, "--json", killed_out],
        env=env,
        cwd=repo_root,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    # wait until at least two replicas are durably journaled, then SIGKILL
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            break
        try:
            if len(_journal_replica_records(journal)) >= 2:
                break
        except (FileNotFoundError, json.JSONDecodeError):
            pass
        time.sleep(0.02)
    assert proc.poll() is None, "campaign finished before it could be killed"
    proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=30)

    survived = _journal_replica_records(journal)
    assert 1 <= len(survived) < 30, "kill did not land mid-sweep"
    assert not os.path.exists(killed_out)  # report write never started

    # resume in-process and compare against an uninterrupted fresh run
    from repro.cli import main

    assert main(["campaign", *grid, "--journal", journal, "--resume",
                 "--json", killed_out]) == 0
    assert main(["campaign", *grid, "--json", fresh_out]) == 0
    with open(killed_out, "rb") as fh:
        resumed_bytes = fh.read()
    with open(fresh_out, "rb") as fh:
        fresh_bytes = fh.read()
    assert resumed_bytes == fresh_bytes

    # the journal holds each replica exactly once — nothing lost, nothing redone
    records = _journal_replica_records(journal)
    assert sorted(r["replica"] for r in records) == list(range(30))


# -- chaos: 20% injected worker crash/hang --------------------------------------


def test_chaos_campaign_loses_and_duplicates_nothing(tmp_path):
    journal = str(tmp_path / "wal.jsonl")
    injector = HarnessFaultInjector(
        crash_prob=0.15, hang_prob=0.05, hang_s=60.0, seed=11
    )
    retry = RetryPolicy(
        max_retries=20, timeout_s=5.0, backoff_base_s=0.01, backoff_max_s=0.1
    )
    camp = ResilienceCampaign(
        reps=6,
        base_seed=0,
        n_workers=2,
        retry=retry,
        journal_path=journal,
        fault_injector=injector,
    )
    report = camp.run_grid([16.0], [5], timesteps=10)
    camp.close()

    baseline = ResilienceCampaign(reps=6, base_seed=0).run_grid(
        [16.0], [5], timesteps=10
    )
    assert report.to_json() == baseline.to_json()  # chaos changed nothing
    assert not report.partial

    records = _journal_replica_records(journal)
    assert sorted(r["replica"] for r in records) == list(range(6))

    stats = camp.harness_stats
    assert stats.completed == 6
    assert not stats.quarantined
    # the chaos actually bit: at least one injected failure was survived
    assert sum(stats.by_kind[k] for k in ("crash", "timeout")) >= 1


# -- one worker pool per campaign -------------------------------------------------

GRID = dict(mtbfs=[8.0, 32.0], periods=[5, 10], timesteps=10)


def _workers_since(before):
    """Live child processes started after the *before* snapshot."""
    return [p for p in multiprocessing.active_children() if p.pid not in before]


def _children():
    return {p.pid for p in multiprocessing.active_children()}


def _grid_specs():
    return [
        CampaignSpec(node_mtbf_s=m, ckpt_period=p, timesteps=GRID["timesteps"])
        for m in GRID["mtbfs"]
        for p in GRID["periods"]
    ]


def test_clean_campaign_starts_one_pool_and_matches_sequential():
    before = _children()
    camp = ResilienceCampaign(reps=3, base_seed=0, n_workers=2)
    report = camp.run_grid(**GRID)
    assert camp.harness_stats.pool_starts == 1
    assert camp.harness_stats.pool_rebuilds == 0
    assert "pool_starts=1" in camp.harness_stats.summary()
    assert _workers_since(before) == []  # run_specs stopped the pool
    camp.close()
    camp.close()
    baseline = ResilienceCampaign(reps=3, base_seed=0, n_workers=1).run_grid(**GRID)
    assert report.to_json() == baseline.to_json()


def test_pool_outlives_points_until_close():
    before = _children()
    camp = ResilienceCampaign(reps=2, base_seed=0, n_workers=2)
    first, second = _grid_specs()[:2]
    camp.run_point(first)
    workers = {p.pid for p in _workers_since(before)}
    assert len(workers) == 2
    camp.run_point(second)
    assert {p.pid for p in _workers_since(before)} == workers
    assert camp.harness_stats.pool_starts == 1
    camp.close()
    assert _workers_since(before) == []
    camp.close()  # a second close is a no-op


def _recording_pools(monkeypatch):
    """Record every pool the supervisor starts and the keys submitted to it."""
    import concurrent.futures

    import repro.core.supervisor as supervisor_mod

    pools = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.keys = []
            pools.append(self)

        def submit(self, fn, *args, **kwargs):
            self.keys.append(args[1])  # _invoke(worker_fn, key, attempt, payload)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(supervisor_mod, "ProcessPoolExecutor", RecordingPool)
    return pools


def test_crash_on_a_points_last_replica_hands_the_next_point_a_new_pool(tmp_path, monkeypatch):
    reps = 3
    specs = _grid_specs()[:2]
    keys = [
        f"{campaign_spec_key(spec, RecoveryPolicy())}:{i}"
        for spec in specs
        for i in range(reps)
    ]
    last = keys[reps - 1]  # the first point's last replica
    injector = None
    for seed in range(5000):
        cand = HarnessFaultInjector(crash_prob=0.1, seed=seed)
        if all(
            cand.decide(key, attempt) == ("crash" if (key, attempt) == (last, 1) else None)
            for key in keys
            for attempt in (1, 2, 3)
        ):
            injector = cand
            break
    assert injector is not None
    pools = _recording_pools(monkeypatch)
    before = _children()
    journal = str(tmp_path / "wal.jsonl")
    camp = ResilienceCampaign(
        reps=reps,
        base_seed=0,
        n_workers=2,
        retry=RetryPolicy(max_retries=5, backoff_base_s=0.01, backoff_max_s=0.05),
        journal_path=journal,
        fault_injector=injector,
    )
    report = camp.run_specs(specs)
    camp.close()

    stats = camp.harness_stats
    assert stats.by_kind["crash"] >= 1 and not stats.quarantined
    assert stats.pool_rebuilds == 1 and stats.pool_starts == 2
    broken, replacement = pools
    assert last in broken.keys
    second_point = set(keys[reps:])
    assert second_point <= set(replacement.keys)
    assert not second_point & set(broken.keys)

    records = _journal_replica_records(journal)
    assert sorted(f"{r['spec_key']}:{r['replica']}" for r in records) == sorted(keys)
    baseline = ResilienceCampaign(reps=reps, base_seed=0).run_specs(specs)
    assert report.to_json() == baseline.to_json()
    assert _workers_since(before) == []


def test_pool_broken_between_points_is_replaced():
    before = _children()
    camp = ResilienceCampaign(
        reps=2,
        base_seed=0,
        n_workers=2,
        retry=RetryPolicy(max_retries=5, backoff_base_s=0.01, backoff_max_s=0.05),
    )
    first, second = _grid_specs()[:2]
    points = [camp.run_point(first)]
    victim = _workers_since(before)[0]
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=10)
    assert not victim.is_alive()
    points.append(camp.run_point(second))
    camp.close()
    assert camp.harness_stats.pool_starts == 2
    assert _workers_since(before) == []
    baseline = ResilienceCampaign(reps=2, base_seed=0)
    expected = [baseline.run_point(spec).to_dict() for spec in (first, second)]
    assert [p.to_dict() for p in points] == expected
