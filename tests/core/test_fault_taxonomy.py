"""Beyond fail-stop: SDC, stragglers and correlated bursts.

Covers the kind-weight fault mix, per-kind injection mechanics, the two
SDC detection paths (ABFT Verify kernels and checkpoint-write
validation), detection-latency accounting, rollback *past* a corrupt
checkpoint, and the wrong-result outcome of undetected corruption.
"""

import math

import numpy as np
import pytest

from repro.core import (
    FAULT_KINDS,
    AppBEO,
    ArchBEO,
    BESSTSimulator,
    Checkpoint,
    Collective,
    Compute,
    FaultDetail,
    FaultEventLog,
    FaultInjector,
    FaultModel,
    RecoveryPolicy,
    Verify,
)
from repro.models import ConstantModel
from repro.network import FullyConnected


# -- kind-weight mapping -----------------------------------------------------------


def test_software_fraction_alias_builds_two_kind_mix():
    model = FaultModel(node_mtbf_s=10.0, software_fraction=0.6)
    assert model.weights == {"software": 0.6, "node": 0.4}


def test_kind_weights_override_alias_and_drop_zero_weights():
    model = FaultModel(
        node_mtbf_s=10.0,
        software_fraction=0.1,  # ignored
        kind_weights={"sdc": 0.5, "straggler": 0.5, "burst": 0.0},
    )
    assert model.weights == {"sdc": 0.5, "straggler": 0.5}


@pytest.mark.parametrize(
    "weights, match",
    [
        ({"cosmic_ray": 1.0}, "unknown fault kinds"),
        ({"software": 0.5, "gremlin": 0.5}, "unknown fault kinds"),
        ({"software": -0.1, "node": 1.1}, "must be >= 0"),
        ({"software": 0.5, "node": 0.4}, "must sum to 1"),
        ({"software": 0.7, "node": 0.7}, "must sum to 1"),
        ({}, "must sum to 1"),
        ({"software": math.nan, "node": 1.0}, "must be >= 0"),
    ],
)
def test_invalid_kind_weights_rejected(weights, match):
    with pytest.raises(ValueError, match=match):
        FaultModel(node_mtbf_s=10.0, kind_weights=weights)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(sdc_coverage=1.5), "sdc_coverage"),
        (dict(sdc_correct_prob=-0.1), "sdc_correct_prob"),
        (dict(straggler_slowdown=0.5), "straggler_slowdown"),
        (dict(burst_size=0), "burst_size"),
        (dict(weibull_shape=math.nan), "weibull_shape"),
        (dict(straggler_slowdown=math.nan), "straggler_slowdown"),
        (dict(straggler_repair_s=math.nan), "straggler_repair_s"),
        (dict(net_degrade_factor=math.nan), "net_degrade_factor"),
        (dict(net_repair_s=math.nan), "net_repair_s"),
        (dict(straggler_slowdown=math.inf), "straggler_slowdown"),
        (dict(net_degrade_factor=math.inf), "net_degrade_factor"),
    ],
)
def test_invalid_taxonomy_parameters_rejected(kwargs, match):
    with pytest.raises(ValueError, match=match):
        FaultModel(node_mtbf_s=10.0, **kwargs)


@pytest.mark.parametrize(
    "field, kind", [("straggler_slowdown", "straggler"), ("net_degrade_factor", "netdeg")]
)
def test_infinite_slowdown_rejected_by_the_campaign_spec(field, kind):
    """An infinite clock or link slowdown would leave ranks unfinished."""
    from repro.core.campaign import CampaignSpec

    with pytest.raises(ValueError, match=f"{field} must be finite"):
        CampaignSpec(node_mtbf_s=1.0, ckpt_period=5, fault_mix={kind: 1.0}, **{field: math.inf})


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(slowdown=0.5), "slowdown"),
        (dict(slowdown=math.nan), "slowdown"),
        (dict(slowdown=math.inf), "slowdown"),
        (dict(repair_s=math.nan), "repair_s"),
        (dict(derate=0.5), "derate"),
        (dict(derate=math.nan), "derate"),
        (dict(derate=math.inf), "derate"),
        (dict(loss_prob=-0.1), "loss_prob"),
        (dict(loss_prob=1.0), "loss_prob"),
        (dict(loss_prob=math.nan), "loss_prob"),
    ],
)
def test_invalid_fault_detail_rejected(kwargs, match):
    """A hand-made detail passed to ``inject_fault`` is checked where it
    is built, not clamped (slowdown) or refused mid-run (link fields)."""
    with pytest.raises(ValueError, match=match):
        FaultDetail(**kwargs)


def test_ckpt_validate_prob_validated():
    with pytest.raises(ValueError, match="ckpt_validate_prob"):
        RecoveryPolicy(ckpt_validate_prob=1.5)


def test_draw_kind_converges_to_weights():
    weights = {"software": 0.3, "node": 0.2, "sdc": 0.35, "straggler": 0.1,
               "burst": 0.05}
    model = FaultModel(node_mtbf_s=10.0, kind_weights=weights)
    rng = np.random.default_rng(7)
    n = 6000
    counts = {k: 0 for k in FAULT_KINDS}
    for _ in range(n):
        counts[model.draw_kind(rng)] += 1
    for kind, w in weights.items():
        assert counts[kind] / n == pytest.approx(w, abs=0.03)


def test_draw_kind_degenerate_single_kind():
    model = FaultModel(node_mtbf_s=10.0, kind_weights={"sdc": 1.0})
    rng = np.random.default_rng(0)
    assert {model.draw_kind(rng) for _ in range(50)} == {"sdc"}


# -- burst victim sets -------------------------------------------------------------


def test_burst_victims_by_index_distance():
    model = FaultModel(node_mtbf_s=10.0, burst_size=3)
    live = list(range(8))
    assert model.burst_victims(3, live) == (2, 3, 4)
    # edge node: the neighborhood folds inward
    assert model.burst_victims(0, live) == (0, 1, 2)


def test_burst_victims_skip_dead_nodes_and_cap_at_live_count():
    model = FaultModel(node_mtbf_s=10.0, burst_size=3)
    assert model.burst_victims(3, [0, 3, 7]) == (0, 3, 7)
    assert model.burst_victims(5, [5]) == (5,)


def test_burst_victims_deterministic_tie_break():
    # nodes 2 and 4 are equidistant from 3; the lower id wins
    model = FaultModel(node_mtbf_s=10.0, burst_size=2)
    assert model.burst_victims(3, list(range(8))) == (2, 3)


# -- fault event log ---------------------------------------------------------------


def test_event_log_kind_counts_and_rows():
    log = FaultEventLog()
    log.add(1.0, 0, "software")
    log.add(2.0, 1, "sdc")
    ev = log.add(3.0, 2, "burst", FaultDetail(victims=(2, 3, 4)))
    assert log.kind_counts() == {"burst": 1, "sdc": 1, "software": 1}
    assert log.count_kind("sdc") == 1
    assert ev.to_list() == [3.0, 2, "burst", [2, 3, 4], 1.0, None, ""]


# -- simulator harness -------------------------------------------------------------


def taxonomy_app(n_steps=20, ckpt_every=5, verify_at=()):
    """Compute + optional Verify + periodic L1 checkpoint + allreduce."""

    def builder(rank, nranks, params):
        body = []
        for ts in range(1, n_steps + 1):
            body.append(Compute.of("k"))
            if ts in verify_at:
                body.append(Verify.of("v"))
            if ts % ckpt_every == 0:
                body.append(Checkpoint.of(1, "ckpt"))
            body.append(Collective("allreduce", nbytes=8))
        return body

    return AppBEO("taxonomy", builder)


def make_arch():
    arch = ArchBEO("m", topology=FullyConnected(8), cores_per_node=2)
    arch.bind("k", ConstantModel(0.1))
    arch.bind("ckpt", ConstantModel(0.05))
    arch.bind("v", ConstantModel(0.01))
    arch.recovery_time_s = 0.2
    return arch


def run_sim(policy=None, faults=(), verify_at=(), n_steps=20, seed=0):
    """Faults scheduled at exact instants: (time, node, kind, detail)."""
    policy = policy or RecoveryPolicy(verify_fail_prob=0.0)
    sim = BESSTSimulator(
        taxonomy_app(n_steps, verify_at=verify_at),
        make_arch(),
        nranks=8,
        seed=seed,
        monte_carlo=False,
        recovery_policy=policy,
    )
    for t, node, kind, detail in faults:
        sim.engine.schedule(
            t,
            lambda ev, n=node, k=kind, d=detail: sim.inject_fault(
                n, kind=k, detail=d
            ),
        )
    return sim, sim.run(max_events=5_000_000)


@pytest.fixture(scope="module")
def marks():
    """Commit times of the 4 periodic L1 checkpoints in a clean run."""
    _, clean = run_sim()
    m = clean.checkpoint_marks()
    assert len(m) == 4
    return [t for t, _ in m]


def test_unknown_kind_rejected():
    sim = BESSTSimulator(
        taxonomy_app(2), make_arch(), nranks=8, monte_carlo=False
    )
    with pytest.raises(ValueError, match="unknown fault kind"):
        sim.inject_fault(0, kind="gremlin")
    sim.run()


# -- stragglers --------------------------------------------------------------------


def test_straggler_slows_completion_without_rollback():
    _, clean = run_sim()
    detail = FaultDetail(slowdown=2.0, repair_s=0.0)  # degraded forever
    _, slow = run_sim(faults=[(0.01, 0, "straggler", detail)])
    assert slow.rollbacks == 0 and slow.completed
    assert slow.faults_by_kind == {"straggler": 1}
    # one degraded node gates every allreduce: the whole job runs at the
    # straggler's clock (compute dominates this workload)
    assert slow.total_time > 1.8 * clean.total_time


def test_straggler_repair_restores_the_clock(marks):
    detail_forever = FaultDetail(slowdown=2.0, repair_s=0.0)
    detail_repaired = FaultDetail(slowdown=2.0, repair_s=1.0)
    _, forever = run_sim(faults=[(0.01, 0, "straggler", detail_forever)])
    _, repaired = run_sim(faults=[(0.01, 0, "straggler", detail_repaired)])
    _, clean = run_sim()
    assert clean.total_time < repaired.total_time < forever.total_time


def test_straggler_repair_token_guard():
    """A second straggler on the same node outdates the first repair."""
    d1 = FaultDetail(slowdown=2.0, repair_s=0.5)
    d2 = FaultDetail(slowdown=3.0, repair_s=6.0)
    _, res = run_sim(
        faults=[(0.01, 0, "straggler", d1), (0.2, 0, "straggler", d2)]
    )
    _, only_first = run_sim(faults=[(0.01, 0, "straggler", d1)])
    # the d1 repair at t=0.51 must NOT cancel d2's 3x degradation
    assert res.total_time > only_first.total_time
    assert res.faults_by_kind == {"straggler": 2}


# -- correlated bursts -------------------------------------------------------------


def test_burst_fells_all_victims_at_once(marks):
    t = marks[0] + 0.1
    detail = FaultDetail(victims=(0, 1))
    _, res = run_sim(faults=[(t, 0, "burst", detail)])
    assert res.faults_by_kind == {"burst": 1}
    assert res.completed
    # L1-only checkpoints cannot recover a multi-node loss: the burst
    # forces a restart from the input deck
    assert res.rollbacks >= 1
    assert res.waste_rework == pytest.approx(t)


# -- SDC: detection via ABFT Verify kernels ----------------------------------------


def test_sdc_corrected_in_place_no_rollback(marks):
    t = marks[0] + 0.1
    detail = FaultDetail(covered=True, correctable=True)
    _, res = run_sim(faults=[(t, 0, "sdc", detail)], verify_at=(8,))
    assert res.completed and not res.wrong_result
    assert res.sdc["injected"] == 1
    assert res.sdc["detected"] == 1
    assert res.sdc["corrected"] == 1
    assert res.sdc["undetected"] == 0
    assert res.rollbacks == 0
    assert res.verify_time > 0
    assert res.sdc["detect_latency_s"] > 0


def test_sdc_detection_latency_scales_with_verify_cadence(marks):
    t = marks[0] + 0.1
    detail = FaultDetail(covered=True, correctable=True)
    _, soon = run_sim(faults=[(t, 0, "sdc", detail)], verify_at=(8,))
    _, late = run_sim(faults=[(t, 0, "sdc", detail)], verify_at=(16,))
    # the strike waits for the next Verify commit: a later detection
    # point means a strictly longer recorded latency
    assert 0 < soon.sdc["detect_latency_s"] < late.sdc["detect_latency_s"]
    assert late.sdc["detect_latency_s"] < late.total_time


def test_sdc_rollback_reaches_past_corrupt_checkpoint(marks):
    """The acceptance-criterion walkthrough, end to end.

    A strike arms between checkpoints 2 and 3.  Checkpoint 3 commits
    while the corruption is latent — the written version is tainted.
    The ts-18 Verify detects an uncorrectable strike: recovery must skip
    checkpoint 3 (newest but corrupt) and land on checkpoint 2, the last
    clean version.
    """
    t = (marks[1] + marks[2]) / 2  # latent across ckpt 3's write
    detail = FaultDetail(covered=True, correctable=False)
    sim, res = run_sim(faults=[(t, 0, "sdc", detail)], verify_at=(18,))
    assert res.completed and not res.wrong_result
    assert res.sdc["detected"] == 1 and res.sdc["corrected"] == 0
    assert res.rollbacks == 1
    # rework spans from checkpoint 2's commit (the clean restart point)
    # to the detection instant — strictly more than a rollback to the
    # corrupt checkpoint 3 would have cost
    detect_time = t + res.sdc["detect_latency_s"]
    assert res.waste_rework == pytest.approx(detect_time - marks[1])
    assert res.waste_rework > detect_time - marks[2]


def test_sdc_detected_before_checkpoint_keeps_newest_restart_point(marks):
    """A Verify between the strike and the next checkpoint catches the
    corruption early: rollback lands on the newest checkpoint (clean),
    and the detection latency is much shorter."""
    t = (marks[1] + marks[2]) / 2
    detail = FaultDetail(covered=True, correctable=False)
    _, early = run_sim(faults=[(t, 0, "sdc", detail)], verify_at=(14,))
    _, late = run_sim(faults=[(t, 0, "sdc", detail)], verify_at=(18,))
    assert early.completed and late.completed
    assert early.sdc["detect_latency_s"] < late.sdc["detect_latency_s"]
    assert early.waste_rework < late.waste_rework
    assert early.total_time < late.total_time


def test_sdc_uncovered_strike_survives_to_wrong_result(marks):
    t = marks[0] + 0.1
    detail = FaultDetail(covered=False, correctable=False)
    _, res = run_sim(faults=[(t, 0, "sdc", detail)], verify_at=(8, 12, 16))
    assert res.completed
    assert res.sdc["detected"] == 0
    assert res.sdc["undetected"] == 1
    assert res.wrong_result  # finished, but the answer is bad


def test_sdc_without_any_detector_is_wrong_result(marks):
    t = marks[0] + 0.1
    detail = FaultDetail(covered=True, correctable=True)
    _, res = run_sim(faults=[(t, 0, "sdc", detail)])  # no Verify points
    assert res.completed and res.wrong_result
    assert res.sdc["detected"] == 0 and res.sdc["undetected"] == 1


# -- SDC: detection via checkpoint-write validation --------------------------------


def test_ckpt_validation_is_secondary_detection_point(marks):
    """With hash-on-write validation the corrupt checkpoint 3 write
    itself raises the alarm — no Verify kernel needed — and recovery
    reaches back to checkpoint 2."""
    policy = RecoveryPolicy(verify_fail_prob=0.0, ckpt_validate_prob=1.0)
    t = (marks[1] + marks[2]) / 2
    detail = FaultDetail(covered=True, correctable=False)
    _, res = run_sim(policy, faults=[(t, 0, "sdc", detail)])
    assert res.completed and not res.wrong_result
    assert res.sdc["detected"] == 1
    assert res.rollbacks == 1
    detect_time = t + res.sdc["detect_latency_s"]
    assert res.waste_rework == pytest.approx(detect_time - marks[1])


def test_ckpt_validation_disabled_misses_the_write(marks):
    policy = RecoveryPolicy(verify_fail_prob=0.0, ckpt_validate_prob=0.0)
    t = (marks[1] + marks[2]) / 2
    detail = FaultDetail(covered=True, correctable=False)
    _, res = run_sim(policy, faults=[(t, 0, "sdc", detail)])
    assert res.completed and res.wrong_result
    assert res.sdc["detected"] == 0 and res.sdc["undetected"] == 1


# -- injector-driven determinism ---------------------------------------------------


MIX = {"software": 0.3, "node": 0.15, "sdc": 0.3, "straggler": 0.15,
       "burst": 0.1}


def _mixed_run(seed):
    model = FaultModel(
        node_mtbf_s=6.0,
        kind_weights=MIX,
        straggler_repair_s=2.0,
        burst_size=2,
        sdc_coverage=0.8,
        sdc_correct_prob=0.5,
    )
    fi = FaultInjector(model, nnodes=4, seed=seed)
    sim = BESSTSimulator(
        taxonomy_app(20, verify_at=(4, 8, 12, 16)),
        make_arch(),
        nranks=8,
        seed=0,
        monte_carlo=False,
        fault_injector=fi,
        recovery_policy=RecoveryPolicy(verify_fail_prob=0.0),
    )
    res = sim.run(max_events=20_000_000)
    return res, fi.log.to_rows()


def test_mixed_fault_stream_is_deterministic():
    res_a, log_a = _mixed_run(seed=57)
    res_b, log_b = _mixed_run(seed=57)
    assert log_a  # the stream actually fired faults
    assert log_a == log_b
    assert res_a.total_time == res_b.total_time
    assert res_a.faults_by_kind == res_b.faults_by_kind
    assert (res_a.sdc["detected"], res_a.sdc["undetected"], res_a.sdc["corrected"]) == (
        res_b.sdc["detected"],
        res_b.sdc["undetected"],
        res_b.sdc["corrected"],
    )


def test_mixed_fault_stream_varies_with_seed():
    _, log_a = _mixed_run(seed=57)
    _, log_b = _mixed_run(seed=44)
    assert log_a != log_b


def test_injector_log_records_kind_metadata():
    res, rows = _mixed_run(seed=57)
    kinds = {row[2] for row in rows}
    assert kinds <= set(FAULT_KINDS)
    assert len(kinds) >= 3  # the mix actually exercises the taxonomy
    for row in rows:
        t, node, kind, victims, slowdown, detected, outcome = row
        if kind == "burst":
            assert len(victims) >= 1 and node in victims
        if kind == "straggler":
            assert slowdown > 1.0
