"""ResilienceCampaign: survivability statistics and the Young/Daly
cross-check."""

import json
import math

import pytest

from repro.core.campaign import (
    CampaignSpec,
    ResilienceCampaign,
    build_campaign_simulator,
)
from repro.core.fault_injection import RecoveryPolicy


def test_spec_validation():
    with pytest.raises(ValueError):
        CampaignSpec(node_mtbf_s=0, ckpt_period=5)
    with pytest.raises(ValueError):
        CampaignSpec(node_mtbf_s=1, ckpt_period=0)
    with pytest.raises(ValueError):
        ResilienceCampaign(n_workers=0)
    s = CampaignSpec(node_mtbf_s=8.0, ckpt_period=5, timesteps=40)
    assert s.work_s == pytest.approx(4.0)
    assert s.interval_s == pytest.approx(0.5)
    assert s.system_mtbf_s == pytest.approx(2.0)


@pytest.mark.parametrize(
    "bad",
    [
        {"nnodes": 0},
        {"nranks": 0},
        {"compute_s": math.nan},
        {"ckpt_cost_s": -0.1},
        {"recovery_time_s": math.inf},
        {"ckpt_period": 2.5},
        {"timesteps": 10.0},
        {"nranks": 16.0},
        {"nnodes": True},
        {"verify_period": 1.5},
        {"burst_size": 2.0},
        {"allreduce_bytes": 8.0},
        {"allreduce_bytes": -1},
        {"level": 0},
        {"level": 5},
        {"level": 1.0},
    ],
)
def test_spec_rejects_knobs_without_a_cli_flag(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        CampaignSpec(**{"node_mtbf_s": 8.0, "ckpt_period": 5, **bad})


def test_spec_keeps_infinite_mtbf_as_fault_free_point():
    assert CampaignSpec(node_mtbf_s=math.inf, ckpt_period=5).node_mtbf_s == math.inf


def test_clean_point_has_no_waste():
    spec = CampaignSpec(node_mtbf_s=1e9, ckpt_period=5, timesteps=20)
    p = ResilienceCampaign(reps=3).run_point(spec)
    assert p.completion_probability == 1.0
    assert p.mean_faults == 0.0
    assert p.waste["rework"] == 0.0
    assert p.waste["downtime"] == 0.0
    assert p.waste["requeue"] == 0.0
    assert p.waste["checkpoint"] > 0.0
    assert p.expected_makespan > spec.work_s


def test_grid_shape_and_json_roundtrip():
    camp = ResilienceCampaign(reps=3, base_seed=0)
    report = camp.run_grid([6.0, 20.0], [5, 10], timesteps=20)
    assert len(report.points) == 4
    d = json.loads(report.to_json())
    assert d["reps"] == 3
    assert len(d["points"]) == 4
    for p in d["points"]:
        assert set(p["waste"]) == {"rework", "downtime", "checkpoint", "requeue"}
        assert 0.0 <= p["completion_probability"] <= 1.0
        assert "predicted_waste_s" in p["youngdaly"]
    for p in report.points:
        if p.completion_probability > 0:
            assert p.expected_makespan > p.spec.work_s
            assert p.youngdaly["ratio"] is not None
    # the formatted table mentions every sweep value
    table = report.format()
    assert "6.0" in table and "20.0" in table


def test_fault_pressure_monotonicity():
    camp = ResilienceCampaign(reps=8, base_seed=0, policy=RecoveryPolicy.legacy())
    report = camp.run_grid([4.0, 64.0], [5], timesteps=30)
    hot, cold = report.points
    assert hot.mean_faults > cold.mean_faults
    assert hot.expected_makespan > cold.expected_makespan
    assert hot.faults_per_completion > cold.faults_per_completion


def test_hostile_regime_loses_jobs_without_hanging():
    """Fault storms against a strict policy abort some replicas; the
    campaign still terminates and reports the losses."""
    policy = RecoveryPolicy(
        verify_fail_prob=0.6,
        max_attempts=1,
        max_requeues=0,
        retry_delay_s=0.0,
    )
    spec = CampaignSpec(node_mtbf_s=1.0, ckpt_period=5, timesteps=30)
    p = ResilienceCampaign(reps=10, base_seed=0, policy=policy).run_point(spec)
    assert p.completion_probability < 1.0
    # aborted replicas are excluded from the makespan statistics
    done = [r for r in p.replicas if r["completed"]]
    assert len(done) == round(p.completion_probability * 10)
    if done:
        assert p.expected_makespan == pytest.approx(
            sum(r["total_time"] for r in done) / len(done)
        )


def test_youngdaly_crosscheck_within_documented_tolerance():
    """Under the legacy policy (the regime Young/Daly models: every
    recovery is one successful rollback to the latest checkpoint) the
    simulated waste must sit within the documented 2x band of the
    analytical expectation at moderate fault rates."""
    camp = ResilienceCampaign(reps=25, base_seed=0, policy=RecoveryPolicy.legacy())
    p = camp.run_point(CampaignSpec(node_mtbf_s=16.0, ckpt_period=5, timesteps=40))
    assert p.completion_probability == 1.0  # legacy never aborts
    ratio = p.youngdaly["ratio"]
    assert 0.5 <= ratio <= 2.0


def test_worker_count_edges():
    """0 workers is rejected; 1 worker (in-process) is the baseline."""
    with pytest.raises(ValueError):
        ResilienceCampaign(n_workers=0)
    spec = CampaignSpec(node_mtbf_s=16.0, ckpt_period=5, timesteps=10)
    p = ResilienceCampaign(reps=2, n_workers=1).run_point(spec)
    assert p.replicas_done == 2


def test_empty_grid_serializes():
    report = ResilienceCampaign(reps=2).run_grid([], [5], timesteps=10)
    assert report.points == []
    assert not report.partial
    d = json.loads(report.to_json())
    assert d["points"] == []
    assert "RESILIENCE CAMPAIGN" in report.format()


def test_single_replica_point():
    spec = CampaignSpec(node_mtbf_s=1e9, ckpt_period=5, timesteps=10)
    p = ResilienceCampaign(reps=1).run_point(spec)
    assert p.reps == 1 and p.replicas_done == 1
    assert p.completion_probability == 1.0
    assert p.expected_makespan == p.makespan_p95  # one sample
    json.dumps(p.to_dict())


def test_all_replicas_abort_serializes_cleanly():
    """completion probability 0.0: no NaN/div-by-zero in the waste
    breakdown or faults-per-completion."""
    policy = RecoveryPolicy(
        verify_fail_prob=0.99, max_attempts=1, max_requeues=0, retry_delay_s=0.0
    )
    spec = CampaignSpec(node_mtbf_s=0.2, ckpt_period=5, timesteps=30)
    p = ResilienceCampaign(reps=4, base_seed=0, policy=policy).run_point(spec)
    assert p.completion_probability == 0.0
    assert p.expected_makespan is None
    assert p.makespan_p95 is None
    assert p.faults_per_completion is None
    assert p.youngdaly["simulated_waste_s"] is None
    assert all(w >= 0.0 for w in p.waste.values())
    text = json.dumps(p.to_dict())
    assert "NaN" not in text and "Infinity" not in text
    # and the whole-grid report formats/serializes too
    report = ResilienceCampaign(reps=4, base_seed=0, policy=policy).run_grid(
        [0.2], [5], timesteps=30
    )
    assert "NaN" not in report.to_json()
    report.format()


def test_build_campaign_simulator_is_reusable():
    spec = CampaignSpec(node_mtbf_s=8.0, ckpt_period=5, timesteps=10)
    sim = build_campaign_simulator(spec, seed=0, policy=RecoveryPolicy.legacy())
    res = sim.run(max_events=1_000_000)
    assert res.completed
    clean = build_campaign_simulator(
        spec, seed=0, policy=RecoveryPolicy.legacy(), inject=False
    ).run(max_events=1_000_000)
    assert clean.faults_injected == 0
    assert clean.total_time >= spec.work_s


# -- fault taxonomy in campaigns ---------------------------------------------------


MIX = {"software": 0.35, "node": 0.1, "sdc": 0.35, "straggler": 0.1,
       "burst": 0.1}


def test_spec_fault_mix_normalized_and_hashable():
    s = CampaignSpec(node_mtbf_s=8.0, ckpt_period=5, fault_mix=MIX)
    assert s.fault_mix == tuple(sorted((k, float(v)) for k, v in MIX.items()))
    hash(s)  # stays frozen/hashable for journal spec keys
    assert s.fault_model().weights == MIX


def test_spec_fault_mix_accepts_pair_iterable():
    s = CampaignSpec(
        node_mtbf_s=8.0, ckpt_period=5, fault_mix=[("sdc", 0.5), ("node", 0.5)]
    )
    assert s.fault_mix == (("node", 0.5), ("sdc", 0.5))


def test_spec_default_mix_is_failstop_alias():
    # empty mix falls back to the two-kind software_fraction alias
    # (the campaign default is software-only: software_fraction=1.0)
    s = CampaignSpec(node_mtbf_s=8.0, ckpt_period=5)
    assert s.fault_mix == ()
    assert s.fault_model().weights == {"software": 1.0}
    mixed = CampaignSpec(node_mtbf_s=8.0, ckpt_period=5, software_fraction=0.7)
    w = mixed.fault_model().weights
    assert w["software"] == pytest.approx(0.7)
    assert w["node"] == pytest.approx(0.3)


def test_spec_invalid_mix_rejected_at_construction():
    with pytest.raises(ValueError, match="unknown fault kinds"):
        CampaignSpec(node_mtbf_s=8.0, ckpt_period=5, fault_mix={"gremlin": 1.0})
    with pytest.raises(ValueError, match="sum to 1"):
        CampaignSpec(node_mtbf_s=8.0, ckpt_period=5, fault_mix={"sdc": 0.4})


def test_spec_verify_period_validated():
    with pytest.raises(ValueError):
        CampaignSpec(node_mtbf_s=8.0, ckpt_period=5, verify_period=-1)


def test_point_report_carries_per_kind_counts_and_sdc_stats():
    spec = CampaignSpec(
        node_mtbf_s=3.0,
        ckpt_period=5,
        timesteps=40,
        fault_mix=MIX,
        verify_period=2,
        sdc_coverage=0.9,
    )
    p = ResilienceCampaign(reps=8, base_seed=1).run_point(spec)
    d = p.to_dict()
    # waste keys unchanged (compatibility surface) ...
    assert set(d["waste"]) == {"rework", "downtime", "checkpoint", "requeue"}
    # ... with the taxonomy reported alongside
    assert set(d["fault_kinds"]) <= {"software", "node", "sdc", "straggler",
                                     "burst"}
    assert sum(d["fault_kinds"].values()) > 0
    assert set(d["sdc"]) == {"injected", "detected", "corrected",
                             "undetected", "detect_latency_s"}
    assert d["sdc"]["injected"] >= d["sdc"]["detected"]
    assert d["wrong_results"] >= 0


def test_verification_reduces_wrong_results_under_sdc_pressure():
    base = dict(
        node_mtbf_s=2.0,
        ckpt_period=5,
        timesteps=40,
        fault_mix={"sdc": 1.0},
        sdc_coverage=1.0,
        sdc_correct_prob=1.0,
    )
    camp = lambda: ResilienceCampaign(reps=10, base_seed=3)
    blind = camp().run_point(CampaignSpec(**base))
    watched = camp().run_point(CampaignSpec(**base, verify_period=1))
    assert blind.to_dict()["wrong_results"] > 0
    assert watched.to_dict()["wrong_results"] == 0
    assert watched.to_dict()["sdc"]["detected"] > 0


def test_mixed_fault_campaign_is_deterministic():
    spec_kwargs = dict(fault_mix=MIX, verify_period=3, timesteps=30)
    a = ResilienceCampaign(reps=5, base_seed=9).run_grid(
        [3.0], [5], **spec_kwargs
    )
    b = ResilienceCampaign(reps=5, base_seed=9).run_grid(
        [3.0], [5], **spec_kwargs
    )
    assert a.to_json() == b.to_json()


def test_mixed_fault_journal_report_matches_live_report(tmp_path):
    journal = str(tmp_path / "wal.jsonl")
    camp = ResilienceCampaign(reps=4, base_seed=2, journal_path=journal)
    report = camp.run_grid([3.0], [5], fault_mix=MIX, verify_period=2,
                           timesteps=30)
    camp.close()
    rebuilt = ResilienceCampaign.report_from_journal(journal)
    assert rebuilt.to_json() == report.to_json()
