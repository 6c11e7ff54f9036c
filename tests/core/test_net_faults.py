"""Network fault domain in the simulator: injection, pricing, partitions.

Covers link/switch/netdeg injection into the health overlay, degraded
collective and checkpoint pricing, the partition -> stall -> escalation
path of the recovery ladder (a partitioned checkpoint group must
terminate, never hang), repair scheduling, and campaign determinism
under a mixed node+link fault process.
"""

import pytest

from repro.core import FaultDetail, RecoveryPolicy
from repro.core.campaign import (
    CampaignSpec,
    ReplicaTask,
    _run_replica,
    build_campaign_simulator,
)
from repro.core.fault_injection import (
    FAULT_KINDS,
    FaultModel,
    NET_KIND_SPLIT,
    fold_link_rate,
)


def _spec(**kw):
    base = dict(
        node_mtbf_s=1e9,
        ckpt_period=5,
        nranks=4,
        nnodes=2,
        timesteps=20,
        net_topology="torus",
        net_repair_s=0.0,
    )
    base.update(kw)
    return CampaignSpec(**base)


def _run_with_fault(spec, policy, fault, seed=0):
    """Build an injector-free replica and hand-inject one net fault."""
    sim = build_campaign_simulator(spec, seed, policy, inject=False)
    t, node, kind, detail = fault
    sim.engine.schedule(
        t, lambda ev: sim.inject_fault(node, kind=kind, detail=detail)
    )
    return sim, sim.run(max_events=5_000_000)


POLICY = RecoveryPolicy(verify_fail_prob=0.0)


# -- draw-stream plumbing ----------------------------------------------------------


def test_net_kinds_registered_in_order():
    # Appended at the END: reordering FAULT_KINDS would silently reshuffle
    # every seeded campaign's draw stream.
    assert FAULT_KINDS[-3:] == ("link", "switch", "netdeg")


def test_fold_link_rate_superposes_streams():
    model = FaultModel(node_mtbf_s=10.0, software_fraction=0.0)
    folded = fold_link_rate(model, nnodes=4, nlinks=8, link_mtbf_s=20.0)
    # total rate: 4/10 (nodes) + 8/20 (links) = 0.8 -> mtbf 5s
    assert folded.node_mtbf_s * 4 == pytest.approx(5.0 * 4)
    net_w = sum(folded.weights.get(k, 0.0) for k, _ in NET_KIND_SPLIT)
    assert net_w == pytest.approx(0.5)
    assert sum(folded.weights.values()) == pytest.approx(1.0)


def test_fold_link_rate_custom_split_validation():
    model = FaultModel(node_mtbf_s=10.0)
    with pytest.raises(ValueError, match="sum to 1"):
        fold_link_rate(
            model, 4, 8, 20.0, split=(("link", 0.5), ("netdeg", 0.2))
        )
    with pytest.raises(ValueError, match="network kinds"):
        fold_link_rate(model, 4, 8, 20.0, split=(("node", 1.0),))


# -- degraded pricing --------------------------------------------------------------


def test_netdeg_slows_collectives_and_counts_retransmits():
    spec = _spec(allreduce_bytes=1 << 24)
    _, clean = _run_with_fault(
        spec, POLICY, (1e9, 0, "netdeg", None)  # never fires within run
    )
    detail = FaultDetail(repair_s=0.0, derate=8.0, loss_prob=0.2, edge=(0, 1))
    _, slow = _run_with_fault(spec, POLICY, (0.01, 0, "netdeg", detail))
    assert slow.completed and slow.rollbacks == 0
    assert slow.net["faults"] == 1 and slow.net["repairs"] == 0
    assert slow.net["retransmits"] > 0
    assert slow.total_time > clean.total_time
    assert slow.faults_by_kind == {"netdeg": 1}


def test_netdeg_default_detail_applied():
    spec = _spec(allreduce_bytes=1 << 24)
    sim = build_campaign_simulator(spec, 0, POLICY, inject=False)
    h = sim.archbeo.topology.health()
    seen = {}
    sim.engine.schedule(
        0.01, lambda ev: sim.inject_fault(0, kind="netdeg", detail=None)
    )
    sim.engine.schedule(1.0, lambda ev: seen.update(deg=dict(h.degraded)))
    res = sim.run(max_events=5_000_000)
    assert res.net["faults"] == 1
    assert list(seen["deg"].values()) == [(4.0, 0.05)]
    # the default 30s repair outlives the run but still fires and heals
    assert res.net["repairs"] == 1 and h.healthy


def test_link_fault_repairs_on_schedule():
    spec = _spec()
    detail = FaultDetail(repair_s=0.5, edge=(0, 1))
    sim, res = _run_with_fault(spec, POLICY, (0.01, 0, "link", detail))
    assert res.completed
    assert res.net["faults"] == 1 and res.net["repairs"] == 1
    assert sim.archbeo.topology._health.healthy


def test_l2_checkpoints_pay_degraded_network_cost():
    spec = _spec(level=2, ckpt_cost_s=0.2, allreduce_bytes=8)
    _, clean = _run_with_fault(spec, POLICY, (1e9, 0, "netdeg", None))
    # rank 0's L2 partner on the 2x2 rank-level torus is rank 2: degrade
    # exactly that edge so partner-copy traffic crosses it
    detail = FaultDetail(repair_s=0.0, derate=16.0, loss_prob=0.0, edge=(0, 2))
    _, slow = _run_with_fault(spec, POLICY, (0.01, 0, "netdeg", detail))
    # L2 partner-copy traffic crosses the degraded fabric: checkpoint
    # time inflates even though nothing rolled back.
    assert slow.rollbacks == 0
    assert slow.checkpoint_time > clean.checkpoint_time


# -- partitions --------------------------------------------------------------------


def test_partitioned_group_escalates_and_terminates():
    # A switch death with no repair fully isolates ranks 0-1 on the 2x2
    # torus: collectives can never rendezvous.  The run must enter the
    # recovery ladder, burn its attempts as partition stalls, requeue
    # (which re-provisions the fabric) and finish -- never hang.
    policy = RecoveryPolicy(
        verify_fail_prob=0.0,
        max_attempts=3,
        max_requeues=1,
        requeue_delay_s=0.5,
    )
    spec = _spec()
    sim, res = _run_with_fault(
        spec, policy, (0.01, 0, "switch", FaultDetail(repair_s=0.0))
    )
    assert res.completed, "partitioned run must terminate"
    # one stall at detection plus one per burned recovery attempt
    assert res.net["partition_stalls"] == 4
    assert res.recovery_attempts == 3
    # stalls are not verify failures: no rung is climbed, the ladder
    # escalates straight to a requeue once attempts run out
    assert res.escalations == 0
    assert res.requeues == 1
    assert res.waste_requeue > 0
    # the requeue re-provisioned the interconnect
    assert sim.archbeo.topology._health.healthy


def test_partition_aborts_when_requeues_exhausted():
    policy = RecoveryPolicy(
        verify_fail_prob=0.0,
        max_attempts=2,
        max_requeues=0,
        requeue_delay_s=0.5,
    )
    sim, res = _run_with_fault(
        _spec(), policy, (0.01, 0, "switch", FaultDetail(repair_s=0.0))
    )
    assert not res.completed
    assert res.net["partition_stalls"] == 3  # detection + 2 attempts


def test_repaired_partition_resumes_without_requeue():
    policy = RecoveryPolicy(
        verify_fail_prob=0.0,
        max_attempts=10,
        max_requeues=0,
        retry_delay_s=0.5,
        backoff=1.0,
    )
    sim, res = _run_with_fault(
        _spec(), policy, (0.01, 0, "switch", FaultDetail(repair_s=1.0))
    )
    assert res.completed
    assert res.requeues == 0
    assert res.net["repairs"] >= 1
    assert res.net["partition_stalls"] >= 1
    assert sim.archbeo.topology._health.healthy


def test_switch_fault_records_partitioned_outcome():
    sim = build_campaign_simulator(_spec(), 0, POLICY, inject=False)
    from repro.core.fault_injection import FaultEventLog

    log = FaultEventLog()
    event = log.add(0.01, 0, "switch")
    sim.engine.schedule(
        0.01,
        lambda ev: sim.inject_fault(
            0, kind="switch", detail=FaultDetail(repair_s=0.0), event=event
        ),
    )
    policy_bounded = sim.run(max_events=5_000_000)
    assert event.outcome == "partitioned"


# -- campaign determinism ----------------------------------------------------------


def _mixed_task(seed=42):
    spec = CampaignSpec(
        node_mtbf_s=8.0,
        ckpt_period=5,
        nranks=16,
        nnodes=8,
        timesteps=10,
        fault_mix={"node": 0.5, "link": 0.5},
        net_topology="torus",
        net_repair_s=1.0,
    )
    return ReplicaTask(spec, RecoveryPolicy(), seed)


def test_mixed_node_link_replica_deterministic():
    a = _run_replica(_mixed_task())
    b = _run_replica(_mixed_task())
    assert a == b
    kinds = a["fault_kinds"]
    assert set(kinds) <= {"node", "link", "switch", "netdeg"}
    assert a["net"]["faults"] >= kinds.get("link", 0)


def test_net_metrics_survive_aggregation():
    from repro.core.campaign import aggregate_point

    reps = [_run_replica(_mixed_task(s)) for s in (1, 2, 3)]
    spec = _mixed_task().spec
    point = aggregate_point(spec, reps, 3)
    assert set(point.net) == {
        "faults",
        "repairs",
        "partition_stalls",
        "degraded_commits",
        "reroutes",
        "retransmits",
    }
    assert point.net["faults"] == sum(r["net"]["faults"] for r in reps)
    assert "net" in point.to_dict()
