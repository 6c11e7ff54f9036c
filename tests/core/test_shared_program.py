"""One compiled program per campaign point.

The replicas of a grid point run one spec and differ only in their fault
stream, so a process compiles the spec's SPMD program once and every
replica it runs shares the rows and the array stepper's tables.  These
tests pin the sharing, its bounds (per spec, and over many apps in one
process), and the snapshot size and report bytes it must leave alone.
"""

import dataclasses
import gc
import os
import pickle

import pytest

from repro.apps.lulesh import lulesh_appbeo
from repro.cli import main
from repro.core import ArchBEO, BESSTSimulator
from repro.core import simulator as simulator_mod
from repro.core.campaign import CampaignSpec, build_campaign_simulator
from repro.core.fault_injection import RecoveryPolicy
from repro.core.workflow import simulate_design_point
from repro.des.engine import SimulationError
from repro.exps.casestudy import case_scenarios
from repro.models import ConstantModel, SymbolicRegressionModel
from repro.network import Torus

MIX = {"software": 0.30, "node": 0.15, "sdc": 0.25, "straggler": 0.10, "burst": 0.10, "link": 0.10}
#: a ``campaign_sweep`` grid point
SPEC = CampaignSpec(
    node_mtbf_s=32,
    ckpt_period=5,
    nranks=16,
    nnodes=8,
    timesteps=100,
    verify_period=5,
    net_topology="torus",
    fault_mix=MIX,
)
POLICY = RecoveryPolicy()


def rows_of(sim):
    return sim._ranks[0].rows


def test_replicas_of_one_spec_share_one_program():
    a, b = (build_campaign_simulator(SPEC, seed, POLICY) for seed in (0, 1))
    assert all(rank.rows is rows_of(a) for sim in (a, b) for rank in sim._ranks)
    # a pool worker unpickles each task's spec: an equal spec shares it too
    c = build_campaign_simulator(pickle.loads(pickle.dumps(SPEC)), 2, POLICY)
    assert rows_of(c) is rows_of(a)
    steppers = [simulator_mod._ArrayStepper.plan(sim) for sim in (a, b, c)]
    for stepper in steppers[1:]:
        for name in ("segments", "hooks", "net_bound", "equal"):
            assert getattr(stepper, name) is getattr(steppers[0], name)


@pytest.mark.parametrize("change", [{"ckpt_period": 10}, {"node_mtbf_s": 64}])
def test_two_specs_share_no_row(change):
    ours = build_campaign_simulator(SPEC, 0, POLICY)
    theirs = build_campaign_simulator(dataclasses.replace(SPEC, **change), 0, POLICY)
    assert not {id(row) for row in rows_of(ours)} & {id(row) for row in rows_of(theirs)}


def test_shared_program_gives_the_same_replicas():
    """Each replica equals one built with a program of its own."""
    shared = [build_campaign_simulator(SPEC, seed, POLICY).run() for seed in range(4)]
    for seed, res in enumerate(shared):
        sim = build_campaign_simulator(SPEC, seed, POLICY)
        simulator_mod._PROGRAMS.clear()
        alone = build_campaign_simulator(SPEC, seed, POLICY)
        assert rows_of(alone) is not rows_of(sim)
        assert alone.run() == res


def _fig7_arch():
    arch = ArchBEO("fig7-style", topology=Torus((4, 4, 4)), cores_per_node=2)
    noise = [0.9, 1.0, 1.1, 1.4]
    arch.bind(
        "lulesh_timestep",
        SymbolicRegressionModel("0.02 + 0.0001 * ranks", ["ranks"], noise_factors=noise),
    )
    arch.bind("fti_l1", SymbolicRegressionModel("0.05", ["ranks"], noise_factors=noise))
    arch.bind("fti_l2", ConstantModel(0.08))
    return arch


def fig7_style_context(seed):
    """What one ``fig7`` run simulates: each FT scenario's LULESH app
    built fresh (so a new builder each), Monte-Carlo runs at 64 ranks,
    two replicas each."""
    arch = _fig7_arch()
    for scenario in case_scenarios(period=2):
        app = lulesh_appbeo(timesteps=4, scenario=scenario)
        simulate_design_point(app, arch, 64, {"epr": 10}, reps=2, base_seed=seed)


def _rss_mb():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_program_cache_stays_bounded_over_fig7_style_contexts():
    """A program lives as long as its app's builder: fifty contexts of
    fresh apps leave no entry behind, and resident memory does not
    climb with them."""
    for seed in range(5):
        fig7_style_context(seed)
    gc.collect()
    entries, rss = len(simulator_mod._PROGRAMS), _rss_mb()
    for seed in range(50):
        fig7_style_context(seed)
    gc.collect()
    assert len(simulator_mod._PROGRAMS) <= entries
    assert _rss_mb() - rss < 4.0


def test_an_app_keeps_one_program():
    """Running one app at another rank count compiles again and replaces
    the program kept with its builder."""
    app = lulesh_appbeo(timesteps=4, scenario=case_scenarios(period=2)[2])
    arch = _fig7_arch()
    first = BESSTSimulator(app, arch, nranks=8, params={"epr": 10})
    assert rows_of(BESSTSimulator(app, arch, nranks=8, params={"epr": 10})) is rows_of(first)
    other = BESSTSimulator(app, arch, nranks=27, params={"epr": 10})
    assert rows_of(other) is not rows_of(first)
    assert simulator_mod._PROGRAMS[app._builder][1].rows is rows_of(other)
    params = BESSTSimulator(app, arch, nranks=27, params={"epr": 12})
    assert rows_of(params) is not rows_of(other)


#: the payload of :func:`test_replica_snapshot_is_no_larger`'s snapshot
#: when each simulator compiled its own program and its stepper pickled
#: its own tables (CPython 3.11, numpy 2.4)
UNSHARED_PAYLOAD_BYTES = 23_052


def test_replica_snapshot_is_no_larger():
    full = build_campaign_simulator(SPEC, 0, POLICY).run()
    sim = build_campaign_simulator(SPEC, 0, POLICY)
    with pytest.raises(SimulationError):
        sim.run(max_events=int(full.events_fired * 0.5))
    assert sim._stepper is not None
    snap = sim.snapshot()
    assert len(snap.payload) <= UNSHARED_PAYLOAD_BYTES
    assert BESSTSimulator.restore(snap).run() == full


def test_pooled_grid_report_equals_sequential(tmp_path):
    """Pool workers reuse their compiled program across the replicas
    and points they run; the report stays byte-identical."""
    grid = (
        "campaign --seed 7 --reps 3 --mtbf 8 16 --periods 4 5 --timesteps 20"
        " --verify-period 2 --fault-mix software=0.4 node=0.2 sdc=0.2 straggler=0.2"
    ).split()
    reports = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}.json"
        assert main([*grid, "--workers", str(workers), "--json", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
