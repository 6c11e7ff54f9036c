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
