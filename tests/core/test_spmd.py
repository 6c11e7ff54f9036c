"""SPMD construction: one build and one row list per simulation.

An ``AppBEO`` declared ``spmd=True`` is built once per simulator; any
other app once per rank.  These tests pin that both paths simulate
exactly the same run, and that the declaration saves the builds.
"""

import pytest

from repro.apps.lulesh import lulesh_appbeo
from repro.core import (
    AppBEO,
    ArchBEO,
    BESSTSimulator,
    Collective,
    Compute,
    RecoveryPolicy,
)
from repro.core import campaign as campaign_mod
from repro.core.campaign import CampaignSpec, build_campaign_simulator
from repro.core.fault_injection import FaultInjector, FaultModel
from repro.core.ft import scenario_l1_l2
from repro.des.engine import SimulationError
from repro.des.snapshot import SnapshotStore
from repro.models import CallableModel, ConstantModel
from repro.network import FullyConnected, Torus

MIX = {
    "software": 0.30,
    "node": 0.15,
    "sdc": 0.25,
    "straggler": 0.10,
    "burst": 0.10,
    "link": 0.10,
}
SPEC = CampaignSpec(
    node_mtbf_s=8.0,
    ckpt_period=5,
    nranks=16,
    nnodes=8,
    timesteps=40,
    verify_period=3,
    net_topology="torus",
    fault_mix=MIX,
)
POLICY = RecoveryPolicy()


def _outcome(sim):
    """Everything a run reports, plus the injector's fault log."""
    res = sim.run()
    log = sim.fault_injector.log.to_rows() if sim.fault_injector else None
    return res, log


def _assert_same_run(a, b):
    (ra, log_a), (rb, log_b) = a, b
    assert ra.total_time == rb.total_time
    assert ra.finish_times == rb.finish_times
    assert ra.events_fired == rb.events_fired
    assert ra.timelines == rb.timelines
    for bucket in ("waste_rework", "waste_downtime", "waste_requeue"):
        assert getattr(ra, bucket) == getattr(rb, bucket)
    assert (ra.sdc, ra.net, ra.straggler) == (rb.sdc, rb.net, rb.straggler)
    assert log_a == log_b
    assert ra == rb  # and every other field


# -- a Monte-Carlo LULESH run ------------------------------------------------------


def _noisy(base):
    def fn(params, rng):
        scale = base * params["epr"] / 10
        return scale * float(rng.lognormal(0.0, 0.2)) if rng is not None else scale

    return CallableModel(fn, stochastic=True)


def _lulesh_sim(spmd):
    arch = ArchBEO("mc", topology=Torus((2, 4)), cores_per_node=2)
    arch.bind("lulesh_timestep", _noisy(0.01))
    arch.bind("fti_l1", _noisy(0.02))
    arch.bind("fti_l2", _noisy(0.05))
    arch.bind("abft_verify", _noisy(0.003))
    arch.recovery_time_s = 0.5
    scenario = scenario_l1_l2(period=4).with_verification(3)
    injector = FaultInjector(
        FaultModel(
            node_mtbf_s=4.0,
            kind_weights={"software": 0.4, "node": 0.2, "sdc": 0.3, "straggler": 0.1},
        ),
        nnodes=4,
        seed=99,
    )
    app = lulesh_appbeo(timesteps=24, scenario=scenario)
    app.spmd = spmd
    return BESSTSimulator(
        app,
        arch,
        nranks=8,
        params={"epr": 8},
        seed=5,
        monte_carlo=True,
        record_timelines="all",
        fault_injector=injector,
        recovery_policy=POLICY,
    )


def test_spmd_lulesh_monte_carlo_matches_per_rank_builds():
    spmd = _outcome(_lulesh_sim(spmd=True))
    assert spmd[0].faults_injected > 0 and spmd[0].checkpoint_marks()
    assert any(e.kind == "verify" for e in spmd[0].timelines[0].entries)
    _assert_same_run(spmd, _outcome(_lulesh_sim(spmd=False)))


# -- a campaign replica under the mixed taxonomy -----------------------------------


@pytest.fixture
def per_rank_campaign_app(monkeypatch):
    """Make ``build_campaign_simulator`` build its workload per rank."""
    spmd_build = campaign_mod.build_campaign_app

    def build(spec):
        app = spmd_build(spec)
        app.spmd = False
        return app

    monkeypatch.setattr(campaign_mod, "build_campaign_app", build)


def _replica(seed):
    return build_campaign_simulator(SPEC, seed, POLICY)


def test_campaign_replica_matches_per_rank_builds(request):
    seeds = (3, 6)  # each strikes SDC, network and straggler domains
    spmd = [_outcome(_replica(seed)) for seed in seeds]
    assert all(
        res.sdc["injected"] and res.net["faults"] and res.straggler
        for res, _ in spmd
    )
    request.getfixturevalue("per_rank_campaign_app")
    assert not _replica(0).appbeo.spmd
    for seed, expected in zip(seeds, spmd):
        _assert_same_run(expected, _outcome(_replica(seed)))


def _restored_mid_run(tmp_path, seed):
    full = _replica(seed).run()
    sim = _replica(seed)
    sim.enable_snapshots(str(tmp_path), every_events=200)
    with pytest.raises(SimulationError):
        sim.run(max_events=full.events_fired // 2)
    restored = BESSTSimulator.restore(SnapshotStore(str(tmp_path)).latest())
    return full, _outcome(restored)


def test_restored_campaign_replica_matches_per_rank_builds(tmp_path, request):
    full, spmd = _restored_mid_run(tmp_path / "spmd", seed=6)
    assert spmd[0] == full
    request.getfixturevalue("per_rank_campaign_app")
    _, per_rank = _restored_mid_run(tmp_path / "per_rank", seed=6)
    _assert_same_run(spmd, per_rank)


# -- build counts and row sharing --------------------------------------------------


@pytest.mark.parametrize("spmd, expected_calls", [(True, [0]), (False, list(range(8)))])
def test_builder_calls_per_simulator(spmd, expected_calls):
    calls = []

    def builder(rank, nranks, params):
        calls.append(rank)
        return [Compute.of("k"), Collective("allreduce", nbytes=8)]

    arch = ArchBEO("m", topology=FullyConnected(8), cores_per_node=2)
    arch.bind("k", ConstantModel(0.1))
    sim = BESSTSimulator(AppBEO("count", builder, spmd=spmd), arch, nranks=8)
    assert calls == expected_calls
    # Equal programs share one row list either way.
    assert all(rank.rows is sim._ranks[0].rows for rank in sim._ranks)
