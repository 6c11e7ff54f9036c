"""Simulator-level snapshot/restore and campaign replica resume."""

import pytest

from repro.core import (
    AppBEO,
    ArchBEO,
    BESSTSimulator,
    Checkpoint,
    Collective,
    Compute,
    FaultInjector,
    FaultModel,
    scenario_l1,
)
from repro.core.campaign import (
    CampaignSpec,
    ReplicaSnapshotConfig,
    ReplicaTask,
    ResilienceCampaign,
    _run_replica,
    build_campaign_simulator,
)
from repro.core.fault_injection import RecoveryPolicy
from repro.des.engine import SimulationError
from repro.des.snapshot import SnapshotStore
from repro.models import ConstantModel, SymbolicRegressionModel
from repro.network import FullyConnected


class SPMDBuilder:
    """Module-level (picklable) program builder — snapshots require it."""

    def __init__(self, n_steps, scenario):
        self.n_steps = n_steps
        self.scenario = scenario

    def __call__(self, rank, nranks, params):
        body = []
        for ts in range(1, self.n_steps + 1):
            body.append(Compute.of("k"))
            body.append(Collective("allreduce", nbytes=8))
            for level in self.scenario.checkpoints_due(ts):
                body.append(Checkpoint.of(level, "ckpt"))
        return body


def make_sim(seed=3, mtbf=3.0, n_steps=40):
    arch = ArchBEO("m", topology=FullyConnected(8), cores_per_node=2)
    arch.bind("k", ConstantModel(0.1))
    arch.bind("ckpt", ConstantModel(0.05))
    arch.recovery_time_s = 0.2
    fi = FaultInjector(
        FaultModel(node_mtbf_s=mtbf, software_fraction=1.0), nnodes=4, seed=seed
    )
    app = AppBEO("snap_l1", SPMDBuilder(n_steps, scenario_l1(5)))
    return BESSTSimulator(
        app, arch, nranks=8, seed=seed, fault_injector=fi, monte_carlo=False
    )


def result_key(res):
    return (
        res.total_time,
        res.events_fired,
        res.faults_injected,
        res.rollbacks,
        tuple(res.finish_times),
        res.wasted_time,
        res.waste_rework,
        res.waste_downtime,
        res.waste_requeue,
        res.checkpoint_time,
    )


def test_sim_kill_restore_continue_bit_identical(tmp_path):
    ref = make_sim().run()
    assert ref.faults_injected > 0  # faults are genuinely in flight

    sim = make_sim()
    sim.enable_snapshots(str(tmp_path), every_events=50)
    with pytest.raises(SimulationError):
        sim.run(max_events=ref.events_fired // 2)  # the "kill"

    store = SnapshotStore(str(tmp_path))
    assert store.latest() is not None
    resumed = BESSTSimulator.restore(store.latest())
    assert result_key(resumed.run()) == result_key(ref)


def test_sim_restore_twice_from_same_snapshot(tmp_path):
    """A snapshot is immutable: two restores replay identically."""
    sim = make_sim(seed=5)
    sim.enable_snapshots(str(tmp_path), every_events=80)
    with pytest.raises(SimulationError):
        sim.run(max_events=160)
    latest = SnapshotStore(str(tmp_path)).latest()
    # load both before running: the first resumed run keeps snapshotting
    # into the same store, and retention would recycle `latest`
    sim_a = BESSTSimulator.restore(latest)
    sim_b = BESSTSimulator.restore(latest)
    assert result_key(sim_a.run()) == result_key(sim_b.run())


def make_array_sim(seed=4):
    """A fault-free Monte-Carlo run, so its hook-free segments are
    stepped for all ranks at once."""
    arch = ArchBEO("m", topology=FullyConnected(8), cores_per_node=2)
    arch.bind("k", SymbolicRegressionModel("0.1", [], noise_factors=[0.8, 1.0, 1.3]))
    arch.bind("ckpt", SymbolicRegressionModel("0.05", [], noise_factors=[1.0, 2.0]))
    app = AppBEO("snap_array", SPMDBuilder(40, scenario_l1(5)))
    return BESSTSimulator(app, arch, nranks=8, seed=seed, record_timelines="all")


def test_array_stepped_sim_restores_mid_run_bit_identical(tmp_path):
    ref = make_array_sim().run()
    sim = make_array_sim()
    sim.enable_snapshots(str(tmp_path), every_events=50)
    with pytest.raises(SimulationError):
        sim.run(max_events=ref.events_fired // 2)
    resumed = BESSTSimulator.restore(SnapshotStore(str(tmp_path)).latest())
    assert resumed._stepper is not None  # captured while array-stepping
    assert resumed.run() == ref
    assert resumed._stepper is None


def test_sim_snapshot_requires_picklable_builder(tmp_path):
    arch = ArchBEO("m", topology=FullyConnected(4), cores_per_node=2)
    arch.bind("k", ConstantModel(0.1))
    app = AppBEO("lam", lambda rank, nranks, params: [Compute.of("k")])
    sim = BESSTSimulator(app, arch, nranks=4, monte_carlo=False)
    from repro.des.snapshot import SnapshotError

    with pytest.raises(SnapshotError, match="picklable"):
        sim.snapshot()


# -- campaign replica resume --------------------------------------------------


SPEC = CampaignSpec(node_mtbf_s=6.0, ckpt_period=5, timesteps=30)
POLICY = RecoveryPolicy()


def test_replica_resumes_from_snapshot_bit_identical(tmp_path):
    seed = 1234
    fresh = _run_replica(ReplicaTask(SPEC, POLICY, seed))

    # simulate a kill mid-replica: run the exact production simulator
    # with snapshots enabled until the event budget trips
    snap_dir = str(tmp_path / "r0")
    cfg = ReplicaSnapshotConfig(directory=snap_dir, every_events=100)
    sim = build_campaign_simulator(SPEC, seed, POLICY)
    sim.enable_snapshots(snap_dir, every_events=cfg.every_events)
    with pytest.raises(SimulationError):
        sim.run(max_events=300)

    assert SnapshotStore(snap_dir).latest() is not None
    # the retried replica resumes mid-simulation...
    resumed = _run_replica(ReplicaTask(SPEC, POLICY, seed, snapshot=cfg))
    assert resumed == fresh  # ...and is bit-identical to an uninterrupted run
    # completion clears the snapshot directory
    assert SnapshotStore(snap_dir).paths() == []


def test_replica_without_prior_snapshot_starts_fresh(tmp_path):
    cfg = ReplicaSnapshotConfig(directory=str(tmp_path / "r1"), every_events=100)
    with_cfg = _run_replica(ReplicaTask(SPEC, POLICY, 7, snapshot=cfg))
    without = _run_replica(ReplicaTask(SPEC, POLICY, 7))
    assert with_cfg == without


def test_replica_snapshot_config_validation():
    with pytest.raises(ValueError, match="every_events"):
        ReplicaSnapshotConfig(directory="x", every_events=0)


def test_campaign_sim_snapshot_args_validated():
    with pytest.raises(ValueError, match="together"):
        ResilienceCampaign(reps=2, sim_snapshot_dir="/tmp/x")


def test_campaign_with_sim_snapshots_matches_plain(tmp_path):
    plain = ResilienceCampaign(reps=3, base_seed=0).run_point(SPEC)
    snap = ResilienceCampaign(
        reps=3,
        base_seed=0,
        sim_snapshot_dir=str(tmp_path / "snaps"),
        sim_snapshot_every=500,
    ).run_point(SPEC)
    assert snap.to_dict() == plain.to_dict()
    # completed replicas cleaned their stores; stray dirs may remain empty
    for sub in (tmp_path / "snaps").glob("*"):
        assert list(sub.glob("*.snap")) == []


def test_quarantine_hook_cleans_snapshot_dir(tmp_path, monkeypatch):
    """A poisoned replica's snapshots are discarded, not resumed later."""
    from repro.core import campaign as campaign_mod
    from repro.core.supervisor import RetryPolicy

    calls = []
    real_rmtree = campaign_mod.shutil.rmtree
    monkeypatch.setattr(
        campaign_mod.shutil,
        "rmtree",
        lambda path, ignore_errors=False: (calls.append(path),
                                           real_rmtree(path, ignore_errors=ignore_errors)),
    )

    def always_fails(payload):
        raise RuntimeError("boom")

    monkeypatch.setattr(campaign_mod, "_run_replica", always_fails)
    camp = ResilienceCampaign(
        reps=2,
        base_seed=0,
        retry=RetryPolicy(max_retries=1, backoff_base_s=0.0),
        sim_snapshot_dir=str(tmp_path / "s"),
        sim_snapshot_every=100,
    )
    point = camp.run_point(SPEC)
    assert point.replicas_done == 0
    assert len(calls) == 2  # one cleanup per quarantined replica
    assert all(str(tmp_path / "s") in c for c in calls)
