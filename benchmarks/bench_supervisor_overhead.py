"""SUPERVISOR — clean-path overhead of crash-safe execution.

Compares the supervised task scheduler (per-task submit, timeouts,
retry bookkeeping — ``core.supervisor``) against the legacy bare
``ProcessPoolExecutor.map`` harness it replaced, on a fault-free small
grid.  The overhead ratio lands in the benchmark JSON (``extra_info``)
so the perf trajectory captures it, and is asserted to stay within a
bound: crash-safety must stay cheap when nothing crashes.
"""

import time
from concurrent.futures import ProcessPoolExecutor

from benchmarks.conftest import emit
from repro.core.campaign import (
    CampaignSpec,
    ReplicaTask,
    ResilienceCampaign,
    _run_replica,
)
from repro.core.fault_injection import RecoveryPolicy
from repro.core.montecarlo import derive_seeds

REPS = 8
WORKERS = 2
MTBFS = [8.0, 32.0]
PERIODS = [5]
SPEC_KW = dict(timesteps=40)

#: clean-path supervised / legacy wall-time must stay under this
OVERHEAD_BOUND = 2.0


def _legacy_pool_map(policy: RecoveryPolicy) -> None:
    """The pre-supervisor harness: one bare map per grid point."""
    seeds = derive_seeds(0, REPS)
    for mtbf in MTBFS:
        for period in PERIODS:
            spec = CampaignSpec(node_mtbf_s=mtbf, ckpt_period=period, **SPEC_KW)
            tasks = [ReplicaTask(spec, policy, s) for s in seeds]
            with ProcessPoolExecutor(max_workers=WORKERS) as pool:
                list(pool.map(_run_replica, tasks))


def _supervised(policy: RecoveryPolicy):
    camp = ResilienceCampaign(
        reps=REPS, base_seed=0, policy=policy, n_workers=WORKERS
    )
    return camp.run_grid(MTBFS, PERIODS, **SPEC_KW)


def test_supervisor_clean_path_overhead(benchmark):
    policy = RecoveryPolicy()
    _legacy_pool_map(policy)  # warm both paths' pool/import costs
    t0 = time.perf_counter()
    _legacy_pool_map(policy)
    legacy_s = time.perf_counter() - t0

    report = benchmark.pedantic(
        lambda: _supervised(policy), rounds=1, iterations=1
    )
    supervised_s = benchmark.stats.stats.mean
    ratio = supervised_s / legacy_s
    benchmark.extra_info["legacy_pool_map_s"] = legacy_s
    benchmark.extra_info["supervised_s"] = supervised_s
    benchmark.extra_info["overhead_ratio"] = ratio
    emit(
        benchmark,
        "supervisor-overhead",
        f"legacy pool.map: {legacy_s:.3f}s  supervised: {supervised_s:.3f}s  "
        f"ratio: {ratio:.2f}x (bound {OVERHEAD_BOUND}x)",
    )

    assert len(report.points) == len(MTBFS) * len(PERIODS)
    assert all(p.replicas_done == REPS for p in report.points)
    assert ratio < OVERHEAD_BOUND
