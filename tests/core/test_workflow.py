"""Workflow drivers: ModelDevelopment, build_archbeo, simulate_design_point."""

import pytest

from repro.core import (
    ModelDevelopment,
    build_archbeo,
    simulate_design_point,
)
from repro.core.fault_injection import FaultInjector, FaultModel
from repro.apps import iterative_solver_appbeo
from repro.core.ft import scenario_l1
from repro.models.symreg import GPConfig
from repro.testbed import KernelTruth, VirtualMachine
from repro.network import FullyConnected

_FAST = GPConfig(population_size=60, generations=6, n_genes=2)


def machine():
    return VirtualMachine(
        "toy",
        nnodes=16,
        cores_per_node=2,
        topology=FullyConnected(16),
        kernels={
            "solve": KernelTruth(lambda p: 1e-4 * p["n"], cv=0.05),
            "fti_l1": KernelTruth(lambda p: 1e-3 + 2e-5 * p["n"], cv=0.2),
        },
        ranks_per_node=2,
    )


def grid():
    return [{"n": n, "ranks": r} for n in (10, 20, 40, 80) for r in (4, 8, 16)]


def test_model_development_runs_and_validates():
    dev = ModelDevelopment(
        machine(), ["solve", "fti_l1"], grid=grid(),
        samples_per_point=5, gp_config=_FAST, seed=0,
    ).run()
    assert set(dev.fitted) == {"solve", "fti_l1"}
    table = dev.validation_table()
    assert all(0 <= v < 100 for v in table.values())
    models = dev.models()
    assert models["solve"].predict({"n": 40, "ranks": 8}) > 0


def test_model_development_requires_kernels():
    with pytest.raises(ValueError):
        ModelDevelopment(machine(), [])


def test_build_archbeo_binds_everything():
    m = machine()
    dev = ModelDevelopment(
        m, ["solve"], grid=grid(), samples_per_point=4, gp_config=_FAST
    ).run()
    arch = build_archbeo(
        m, dev.models(), node_mtbf_s=1000.0, recovery_time_s=5.0
    )
    assert arch.name == "toy"
    assert arch.topology is m.topology
    assert arch.node_mtbf_s == 1000.0
    assert arch.recovery_time_s == 5.0
    assert arch.predict("solve", {"n": 20, "ranks": 4}) > 0
    assert arch.comm is not None  # derived from the topology


def test_simulate_design_point_monte_carlo():
    m = machine()
    dev = ModelDevelopment(
        m, ["solve", "fti_l1"], grid=grid(), samples_per_point=4, gp_config=_FAST
    ).run()
    arch = build_archbeo(m, dev.models())
    app = iterative_solver_appbeo(iterations=10, scenario=scenario_l1(5))
    mc = simulate_design_point(app, arch, nranks=8, params={"n": 40}, reps=3)
    assert mc.total_time.samples.size == 3
    assert mc.total_time.mean > 0
    assert mc.checkpoint_time.mean > 0
    assert all(list(r.timelines) == [0] for r in mc.results)  # the simulator's default

    for record, ranks in (("none", []), ("all", list(range(8)))):
        other = simulate_design_point(
            app, arch, nranks=8, params={"n": 40}, reps=3, record_timelines=record
        )
        assert all(sorted(r.timelines) == ranks for r in other.results)
        assert list(other.total_time.samples) == list(mc.total_time.samples)


def test_simulate_design_point_with_faults():
    m = machine()
    dev = ModelDevelopment(
        m, ["solve", "fti_l1"], grid=grid(), samples_per_point=4, gp_config=_FAST
    ).run()
    arch = build_archbeo(m, dev.models(), recovery_time_s=0.001)
    app = iterative_solver_appbeo(iterations=20, scenario=scenario_l1(5))

    def fi_factory(seed):
        return FaultInjector(FaultModel(node_mtbf_s=0.05), nnodes=4, seed=seed)

    mc = simulate_design_point(
        app, arch, nranks=8, params={"n": 40}, reps=2,
        fault_injector_factory=fi_factory, max_events=5_000_000,
    )
    assert mc.mean_rollbacks > 0
