"""The full fault lifecycle: torn checkpoints, nested faults, escalation,
requeue and abort (the robustness extension over the seed's one-shot
atomic rollback)."""

import pytest

from repro.core import (
    AppBEO,
    ArchBEO,
    BESSTSimulator,
    Checkpoint,
    Collective,
    Compute,
    RecoveryPolicy,
)
from repro.models import ConstantModel
from repro.network import FullyConnected


def lifecycle_app(n_steps=20, levels=None):
    """SPMD app checkpointing at *levels*: a ``{timestep: level}`` map
    (default: L1 every 5 steps)."""
    levels = levels if levels is not None else {ts: 1 for ts in range(5, n_steps + 1, 5)}

    def builder(rank, nranks, params):
        body = []
        for ts in range(1, n_steps + 1):
            body.append(Compute.of("k"))
            if ts in levels:
                body.append(Checkpoint.of(levels[ts], "ckpt"))
            body.append(Collective("allreduce", nbytes=8))
        return body

    return AppBEO("lifecycle", builder)


def make_arch():
    arch = ArchBEO("m", topology=FullyConnected(8), cores_per_node=2)
    arch.bind("k", ConstantModel(0.1))
    arch.bind("ckpt", ConstantModel(0.05))
    arch.recovery_time_s = 0.2
    return arch


def run_sim(policy, faults=(), n_steps=20, levels=None, seed=0):
    """Run with faults scheduled at exact instants: (time, node, kind)."""
    sim = BESSTSimulator(
        lifecycle_app(n_steps, levels),
        make_arch(),
        nranks=8,
        seed=seed,
        monte_carlo=False,
        recovery_policy=policy,
    )
    for t, node, kind in faults:
        sim.engine.schedule(
            t, lambda ev, n=node, k=kind: sim.inject_fault(n, kind=k)
        )
    return sim, sim.run(max_events=5_000_000)


@pytest.fixture(scope="module")
def marks():
    """Commit times of the 4 periodic L1 checkpoints in a clean run."""
    _, clean = run_sim(None)
    m = clean.checkpoint_marks()
    assert len(m) == 4
    return [t for t, _ in m]


# -- torn checkpoints ---------------------------------------------------------------


def test_torn_l1_rolls_back_to_previous_committed(marks):
    """A fault mid-third-checkpoint with in-place L1 writes destroys the
    second (previous committed) instance too: recovery lands on the
    *first* checkpoint.  Without in-place writes only the in-progress
    instance is lost and recovery lands on the second."""
    t_torn = marks[2] - 0.02  # inside the 3rd checkpoint's 0.05s write
    atomic = RecoveryPolicy(verify_fail_prob=0.0, l1_inplace_writes=False)
    inplace = RecoveryPolicy(verify_fail_prob=0.0, l1_inplace_writes=True)

    sim_a, res_a = run_sim(atomic, [(t_torn, 0, "software")])
    sim_b, res_b = run_sim(inplace, [(t_torn, 0, "software")])

    # all 8 ranks were mid-write; both policies observe the tear
    assert res_a.torn_checkpoints == res_b.torn_checkpoints == 8
    assert res_a.rollbacks == res_b.rollbacks == 1
    assert res_a.completed and res_b.completed
    # atomic: lost work since ckpt 2; in-place: since ckpt 1
    assert res_a.waste_rework == pytest.approx(t_torn - marks[1])
    assert res_b.waste_rework == pytest.approx(t_torn - marks[0])
    # the extra rework is exactly one checkpoint period
    assert res_b.waste_rework - res_a.waste_rework == pytest.approx(
        marks[1] - marks[0]
    )
    assert res_b.total_time > res_a.total_time


def test_fault_outside_checkpoint_window_tears_nothing(marks):
    t = marks[0] + 0.3 * (marks[1] - marks[0])  # mid-compute
    _, res = run_sim(RecoveryPolicy(verify_fail_prob=0.0), [(t, 0, "software")])
    assert res.torn_checkpoints == 0
    assert res.waste_rework == pytest.approx(t - marks[0])


# -- nested faults ------------------------------------------------------------------


def test_nested_fault_pays_second_recovery(marks):
    """A fault landing during recovery re-enters recovery: fresh downtime,
    same lost work (ranks were paused, nothing new to lose)."""
    policy = RecoveryPolicy(
        verify_fail_prob=0.0, retry_delay_s=0.0, l1_inplace_writes=False
    )
    t1 = marks[0] + 0.3 * (marks[1] - marks[0])
    t2 = t1 + 0.1  # inside the first 0.2s recovery window

    _, single = run_sim(policy, [(t1, 0, "software")])
    _, nested = run_sim(policy, [(t1, 0, "software"), (t2, 1, "software")])

    assert single.nested_faults == 0
    assert nested.nested_faults == 1
    assert nested.faults_injected == 2
    assert nested.recovery_attempts == 2
    assert nested.rollbacks == 2
    # two full downtime windows...
    assert nested.waste_downtime == pytest.approx(2 * 0.2)
    # ...but the lost work is charged once, not per attempt
    assert nested.waste_rework == pytest.approx(t1 - marks[0])
    assert nested.completed
    assert nested.total_time > single.total_time


def test_nested_node_fault_escalates_episode_kind(marks):
    """A node loss nested inside a software-fault recovery upgrades the
    episode: the L1-only checkpoint no longer covers it, so the second
    attempt restarts from the beginning."""
    policy = RecoveryPolicy(verify_fail_prob=0.0, retry_delay_s=0.0)
    t1 = marks[1] + 0.1
    _, res = run_sim(policy, [(t1, 0, "software"), (t1 + 0.1, 2, "node")])
    assert res.nested_faults == 1
    # the merged episode restarts from the input deck: all progress lost
    assert res.waste_rework == pytest.approx(t1)
    assert res.completed


# -- escalation ladder ---------------------------------------------------------------


#: newest checkpoint is L1 so the ladder has distinct L1/L2/L4 rungs
MIXED_LEVELS = {4: 4, 8: 2, 12: 1}


def test_escalation_climbs_l1_l2_l4_then_restart():
    policy = RecoveryPolicy(
        verify_fail_prob=0.999,  # deterministic seed: every read-back fails
        max_attempts=4,
        retry_delay_s=0.0,
        max_requeues=0,
        l1_inplace_writes=False,
    )
    _, clean = run_sim(None, n_steps=16, levels=MIXED_LEVELS)
    t_fault = clean.checkpoint_marks()[-1][0] + 0.05

    sim, res = run_sim(
        policy, [(t_fault, 0, "software")], n_steps=16, levels=MIXED_LEVELS
    )
    # attempts walk seq3(L1) -> seq2(L2) -> seq1(L4) -> 0, which always
    # verifies; the attempt budget is exactly consumed, never exceeded
    assert res.recovery_attempts == 4
    assert res.verify_failures == 3
    assert res.escalations == 3
    assert res.rollbacks == 4
    assert res.completed
    assert sim.state == "done"
    # full restart: everything up to the fault is rework
    assert res.waste_rework == pytest.approx(t_fault)


def test_escalation_exhaustion_aborts_without_hanging():
    policy = RecoveryPolicy(
        verify_fail_prob=0.999,
        max_attempts=2,
        retry_delay_s=0.0,
        max_requeues=0,
        l1_inplace_writes=False,
    )
    _, clean = run_sim(None, n_steps=16, levels=MIXED_LEVELS)
    t_fault = clean.checkpoint_marks()[-1][0] + 0.05

    sim, res = run_sim(
        policy, [(t_fault, 0, "software")], n_steps=16, levels=MIXED_LEVELS
    )
    # no exception, no livelock: the run drains and reports the abort
    assert res.completed is False
    assert sim.state == "aborted"
    assert res.finish_times == []
    assert res.recovery_attempts == 2
    assert res.requeues == 0
    # aborted at the second failed verification
    assert res.total_time == pytest.approx(t_fault + 2 * 0.2)


def test_exhaustion_requeues_then_finishes():
    policy = RecoveryPolicy(
        verify_fail_prob=0.999,
        max_attempts=2,
        retry_delay_s=0.0,
        max_requeues=1,
        requeue_delay_s=3.0,
        l1_inplace_writes=False,
    )
    _, clean = run_sim(None, n_steps=16, levels=MIXED_LEVELS)
    t_fault = clean.checkpoint_marks()[-1][0] + 0.05
    t_in_queue = t_fault + 2 * 0.2 + 1.0  # inside the resubmission window

    sim, res = run_sim(
        policy,
        [(t_fault, 0, "software"), (t_in_queue, 1, "software")],
        n_steps=16,
        levels=MIXED_LEVELS,
    )
    assert res.completed
    assert res.requeues == 1
    assert res.waste_requeue == pytest.approx(3.0)
    # faults during the resubmission window do not hit the queued job
    assert res.faults_injected == 1
    # the requeued job restarts from the input deck and reruns everything
    assert res.total_time > clean.total_time + 3.0


def test_requeue_draws_from_spare_pool_then_degrades():
    """A node-loss requeue consumes a spare (cheap swap); with the pool
    exhausted it gracefully degrades to a full node rebuild."""
    base = dict(
        verify_fail_prob=0.999,
        max_attempts=1,
        retry_delay_s=0.0,
        max_requeues=1,
        requeue_delay_s=2.0,
        spare_swap_s=5.0,
        spare_rebuild_s=40.0,
        l1_inplace_writes=False,
    )
    levels = {ts: 2 for ts in range(5, 21, 5)}  # L2 covers node losses
    _, clean = run_sim(None, levels=levels)
    t_fault = clean.checkpoint_marks()[1][0] + 0.1

    _, with_spare = run_sim(
        RecoveryPolicy(n_spares=1, **base), [(t_fault, 0, "node")], levels=levels
    )
    _, no_spare = run_sim(
        RecoveryPolicy(n_spares=0, **base), [(t_fault, 0, "node")], levels=levels
    )
    assert with_spare.completed and no_spare.completed
    assert with_spare.requeues == no_spare.requeues == 1
    assert with_spare.waste_requeue == pytest.approx(2.0 + 5.0)
    assert no_spare.waste_requeue == pytest.approx(2.0 + 40.0)


# -- legacy equivalence ---------------------------------------------------------------


def test_legacy_policy_matches_default_construction(marks):
    """``recovery_policy=None`` must keep the seed semantics exactly."""
    t = marks[1] + 0.2
    _, implicit = run_sim(None, [(t, 0, "software")])
    _, explicit = run_sim(RecoveryPolicy.legacy(), [(t, 0, "software")])
    assert implicit.total_time == explicit.total_time
    assert implicit.wasted_time == explicit.wasted_time
    assert implicit.rollbacks == explicit.rollbacks == 1
    assert implicit.verify_failures == 0
    assert implicit.requeues == 0
