"""Overhead of each fault-tolerance feature, one row per feature.

The paper's case is that fault-tolerance awareness is cheap enough to
leave on in every co-design run.  Each row of :data:`OVERHEADS` guards
one slice of that claim: it runs a workload bare and with the feature
on, and bounds the ratio of their wall times.

Every row follows one protocol: warm both arms, time ``rounds``
alternating (bare, feature) pairs, and assert ``min(feature) /
min(bare) <= bound``.  The floor is the honest per-event cost;
everything above it is scheduler noise.  The benchmark times whole
pairs, so both arms run under the same garbage-collector setting; the
bare and feature floors and their ratio are in ``extra_info``.  Run
with ``-s`` to see one line per row.

Five rows time the Fig. 7 workload (64-rank LULESH proxy, 200
timesteps, epr 10, L1 checkpoints every 40): about 15 ms fault-free,
0.13 s under fault injection.  On a shared 2-CPU virtual machine a few
runs in a hundred are up to a third faster than the median, and the
minimum of either arm falls on one of them or not: obs, whose median
ratio stayed at 1.06-1.07, read above 1.1x in 14 of 60 windows of 10
pairs and in 3 of 24 windows of 100.  These rows take 100 pairs.
"""

import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.apps import lulesh_appbeo
from repro.core import BESSTSimulator, FaultInjector, FaultModel, RecoveryPolicy
from repro.core.campaign import (
    CampaignSpec,
    ReplicaTask,
    ResilienceCampaign,
    _run_replica,
    build_campaign_simulator,
)
from repro.core.ft import scenario_l1
from repro.core.montecarlo import derive_seeds
from repro.core.supervisor import TaskSupervisor, WriteAheadJournal
from repro.exps.casestudy import get_context
from repro.guard import fsfault
from repro.guard.fsfault import FsFaultConfig, FsFaultInjector
from repro.guard.resource import ResourceGuard, ResourceLimits
from repro.models import ConstantModel
from repro.obs.flightrec import FlightRecorder, flight_spill_path
from repro.obs.instrument import EngineObs
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer

#: pairs timed per Fig. 7 row
FIG7_ROUNDS = 100


@dataclass(frozen=True)
class Overhead:
    """One row: the *feature* arm may take at most *bound* times the
    *bare* arm.  ``arms(ctx, tmp_dir)`` returns the two arms, each a
    callable that runs once and returns the seconds it timed."""

    name: str
    bound: float
    rounds: int
    arms: Callable


def _timed_run(sim) -> float:
    t0 = time.perf_counter()
    res = sim.run()
    dt = time.perf_counter() - t0
    assert res.completed
    return dt


def _fig7(ctx, scenario=None, **kwargs) -> BESSTSimulator:
    app = lulesh_appbeo(timesteps=200, scenario=scenario or scenario_l1(40))
    return BESSTSimulator(app, ctx.archbeo, nranks=64, params={"epr": 10}, seed=0, **kwargs)


# -- fault domains under fail-stop injection ------------------------------------------

NNODES = 32  # 64 ranks / 2 cores per node on Quartz
FAILSTOP_MODEL = FaultModel(node_mtbf_s=4000.0, software_fraction=0.6)
MIXED_MODEL = FaultModel(
    node_mtbf_s=4000.0,
    kind_weights={"software": 0.3, "node": 0.1, "sdc": 0.4, "straggler": 0.1, "burst": 0.1},
    straggler_repair_s=5.0,
    burst_size=2,
)


def _injected(ctx, model, policy, scenario=None) -> float:
    injector = FaultInjector(model, nnodes=NNODES, seed=7)
    return _timed_run(_fig7(ctx, scenario, fault_injector=injector, recovery_policy=policy))


def _failstop(ctx) -> float:
    return _injected(ctx, FAILSTOP_MODEL, RecoveryPolicy(verify_fail_prob=0.0))


def sdc_arms(ctx, _tmp):
    """Fail-stop only vs the mixed taxonomy (SDC, stragglers, bursts)
    with ABFT Verify kernels every 10 timesteps and checkpoint-write
    validation."""
    if "abft_verify" not in ctx.archbeo.models:
        ctx.archbeo.bind("abft_verify", ConstantModel(1e-4))

    def sdc_aware():
        policy = RecoveryPolicy(verify_fail_prob=0.0, ckpt_validate_prob=0.5)
        return _injected(ctx, MIXED_MODEL, policy, scenario_l1(40).with_verification(10))

    return lambda: _failstop(ctx), sdc_aware


def net_arms(ctx, _tmp):
    """A bare topology vs one carrying a healthy fault overlay, which
    every communication pricing checks first.  No network fault fires."""
    topology = ctx.archbeo.topology

    def overlay():
        topology.health()
        try:
            return _failstop(ctx)
        finally:
            topology._health = None  # the shared context stays bare

    return lambda: _failstop(ctx), overlay


# -- observation and durability on the fault-free run -----------------------------------


def obs_arms(ctx, _tmp):
    """Metrics off vs a full EngineObs (handler timing, queue-depth
    sampling, span and counter flush) on a private registry."""

    def observed():
        sim = _fig7(ctx)
        obs = sim.engine.attach_obs(EngineObs(registry=MetricsRegistry(), tracer=Tracer()))
        dt = _timed_run(sim)
        assert obs.registry.counter("engine_events_total").value > 0
        return dt

    return lambda: _timed_run(_fig7(ctx)), observed


def forensics_arms(ctx, tmp):
    """Flight recorder off vs on, with its live spill file, as
    ``--flight-dir`` runs it."""

    def recorded():
        sim = _fig7(ctx)
        flight = FlightRecorder(spill_path=flight_spill_path(tmp, 0))
        sim.attach_flightrec(flight)
        dt = _timed_run(sim)
        flight.close(remove_spill=True)
        assert flight.seq > 0 and not os.listdir(tmp)
        return dt

    return lambda: _timed_run(_fig7(ctx)), recorded


def guard_arms(ctx, _tmp):
    """A supervised, journalled run vs the same with the full guard
    stack: a zero-probability fsfault shim (every durable write pays its
    draw) and a ResourceGuard polled at supervisor cadence."""

    def run(_payload) -> dict:
        sim = _fig7(ctx)
        res = sim.run()
        assert res.completed
        return {"total_time": res.total_time}

    def supervised(guard_on: bool) -> float:
        with tempfile.TemporaryDirectory() as tmp:
            journal = WriteAheadJournal(f"{tmp}/bench.wal", {"bench": "guard"})
            guard = None
            if guard_on:
                guard = ResourceGuard(
                    watch_path=tmp,
                    limits=ResourceLimits(),  # 64 MiB floor: never trips here
                    poll_interval_s=0.05,
                    registry=MetricsRegistry(),
                )
                fsfault.install(FsFaultInjector(FsFaultConfig(seed=0)))
            supervisor = TaskSupervisor(
                run,
                n_workers=1,
                on_result=lambda key, result: journal.append(
                    {"kind": "result", "key": key, "result": result}
                ),
                guard=guard,
            )
            try:
                t0 = time.perf_counter()
                out = supervisor.run([("fig7", None)])
                dt = time.perf_counter() - t0
            finally:
                if guard_on:
                    fsfault.uninstall()
                journal.close()
        assert not out.stats.aborted and len(out.results) == 1
        if guard_on:
            assert guard.polls >= 1 and not guard.paused
        return dt

    return lambda: supervised(False), lambda: supervised(True)


# -- harness-level features -----------------------------------------------------------

SNAPSHOT_SPEC = CampaignSpec(node_mtbf_s=30.0, ckpt_period=5, timesteps=2000)
#: a full-state pickle costs about the same each time, so the cadence is
#: what the bound constrains; one snapshot in this replica keeps the
#: ratio far from noise while timing the real capture and persist path
SNAPSHOT_EVERY = 100_000


def snapshot_arms(_ctx, tmp):
    """A fault-injected campaign replica without and with the whole
    simulator pickled to disk every SNAPSHOT_EVERY events."""
    outcomes = set()

    def run(snapshots: bool) -> float:
        t0 = time.perf_counter()
        sim = build_campaign_simulator(SNAPSHOT_SPEC, 0, RecoveryPolicy())
        policy = sim.enable_snapshots(str(tmp), SNAPSHOT_EVERY) if snapshots else None
        res = sim.run()
        dt = time.perf_counter() - t0
        outcomes.add((res.total_time, res.events_fired))
        assert len(outcomes) == 1, "snapshotting changed the run"
        assert policy is None or policy.snapshots_taken >= 1, "cadence too sparse"
        return dt

    return lambda: run(False), lambda: run(True)


SUPERVISOR_REPS = 8
SUPERVISOR_WORKERS = 2
SUPERVISOR_MTBFS = [8.0, 32.0]


def supervisor_arms(_ctx, _tmp):
    """A bare ProcessPoolExecutor.map vs the supervised scheduler
    (per-task submit, timeouts, retry bookkeeping) on a fault-free
    2-point x 8-rep grid; each arm starts one pool for the grid."""
    policy = RecoveryPolicy()

    def pool_map() -> float:
        t0 = time.perf_counter()
        with ProcessPoolExecutor(max_workers=SUPERVISOR_WORKERS) as pool:
            for mtbf in SUPERVISOR_MTBFS:
                spec = CampaignSpec(node_mtbf_s=mtbf, ckpt_period=5, timesteps=40)
                tasks = [ReplicaTask(spec, policy, s) for s in derive_seeds(0, SUPERVISOR_REPS)]
                list(pool.map(_run_replica, tasks))
        return time.perf_counter() - t0

    def supervised() -> float:
        camp = ResilienceCampaign(
            reps=SUPERVISOR_REPS, base_seed=0, policy=policy, n_workers=SUPERVISOR_WORKERS
        )
        t0 = time.perf_counter()
        report = camp.run_grid(SUPERVISOR_MTBFS, [5], timesteps=40)
        dt = time.perf_counter() - t0
        assert len(report.points) == len(SUPERVISOR_MTBFS)
        assert all(p.replicas_done == SUPERVISOR_REPS for p in report.points)
        return dt

    return pool_map, supervised


OVERHEADS = [
    Overhead("sdc", 1.2, FIG7_ROUNDS, sdc_arms),
    Overhead("net", 1.1, FIG7_ROUNDS, net_arms),
    Overhead("obs", 1.1, FIG7_ROUNDS, obs_arms),
    Overhead("forensics", 1.1, FIG7_ROUNDS, forensics_arms),
    Overhead("guard", 1.1, FIG7_ROUNDS, guard_arms),
    Overhead("snapshot", 1.3, 5, snapshot_arms),
    Overhead("supervisor", 2.0, 1, supervisor_arms),
]


@pytest.fixture(scope="module")
def ctx():
    """The case-study context (benchmark campaign + fitted models)."""
    return get_context(seed=0)


@pytest.mark.parametrize("row", OVERHEADS, ids=lambda row: row.name)
def test_overhead(benchmark, ctx, tmp_path, row):
    bare, feature = row.arms(ctx, tmp_path)
    bare()  # warm imports, model LUTs, allocator, process pools
    feature()
    bare_s, feature_s = [], []

    def pair():
        bare_s.append(bare())
        feature_s.append(feature())

    benchmark.pedantic(pair, rounds=row.rounds, iterations=1)
    ratio = min(feature_s) / min(bare_s)
    benchmark.extra_info.update(
        bare_s=min(bare_s), feature_s=min(feature_s), overhead_ratio=ratio, bound=row.bound
    )
    line = (
        f"{row.name}: bare {min(bare_s):.4f}s  feature {min(feature_s):.4f}s  "
        f"ratio {ratio:.3f}x (bound {row.bound}x, {row.rounds} pairs)"
    )
    print(f"\n{line}\n")
    benchmark.extra_info[f"{row.name}-overhead"] = line
    assert ratio <= row.bound
