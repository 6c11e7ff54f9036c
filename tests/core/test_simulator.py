"""BE-SST simulator semantics: execution, synchronization, Monte Carlo."""

import numpy as np
import pytest

from repro.core import (
    AppBEO,
    ArchBEO,
    BESSTSimulator,
    Checkpoint,
    Collective,
    Compute,
    Exchange,
    Marker,
    MonteCarloRunner,
)
from repro.core.montecarlo import Distribution
from repro.models import CallableModel, ConstantModel
from repro.network import FullyConnected


def make_arch(compute=0.1, ckpt=0.5, stochastic=False):
    arch = ArchBEO("m", topology=FullyConnected(64), cores_per_node=2)
    if stochastic:
        arch.bind(
            "k",
            CallableModel(
                lambda p, rng: compute * (1 + (0.1 * rng.random() if rng else 0)),
                (),
                stochastic=True,
            ),
        )
    else:
        arch.bind("k", ConstantModel(compute))
    arch.bind("ckpt", ConstantModel(ckpt))
    return arch


def simple_app(n_steps=3, with_ckpt=False, with_collective=True):
    def builder(rank, nranks, params):
        body = []
        for ts in range(1, n_steps + 1):
            body.append(Compute.of("k"))
            if with_collective:
                body.append(Collective("allreduce", nbytes=8))
            if with_ckpt and ts == n_steps:
                body.append(Checkpoint.of(1, "ckpt"))
        return body

    return AppBEO("app", builder)


def test_single_rank_compute_only():
    sim = BESSTSimulator(simple_app(3, with_collective=False), make_arch(), nranks=1)
    res = sim.run()
    assert res.total_time == pytest.approx(0.3)
    assert res.nranks == 1
    assert res.compute_time == pytest.approx(0.3)


def test_collective_synchronizes_ranks():
    # heterogeneous compute: rank 0 slow
    arch = ArchBEO("m", topology=FullyConnected(4), cores_per_node=2)
    arch.bind(
        "k",
        CallableModel(lambda p: 1.0 if p.get("rank") == 0 else 0.1, ()),
    )

    def builder(rank, nranks, params):
        return [Compute.of("k", rank=rank), Collective("barrier")]

    app = AppBEO("het", builder)
    res = BESSTSimulator(app, arch, nranks=4, monte_carlo=False).run()
    # everyone finishes at slowest arrival + barrier cost (same for all)
    assert max(res.finish_times) - min(res.finish_times) < 1e-12
    assert res.total_time > 1.0


def test_checkpoint_time_accounted():
    sim = BESSTSimulator(
        simple_app(2, with_ckpt=True), make_arch(compute=0.1, ckpt=0.5), nranks=4
    )
    res = sim.run()
    assert res.checkpoint_time == pytest.approx(0.5)
    assert res.ft_overhead_fraction > 0
    marks = res.checkpoint_marks()
    assert len(marks) == 1 and marks[0][1] == 1


def test_timeline_recording_modes():
    for mode, expect in (("rank0", {0}), ("all", {0, 1}), ("none", set())):
        sim = BESSTSimulator(
            simple_app(1), make_arch(), nranks=2, record_timelines=mode
        )
        res = sim.run()
        assert set(res.timelines) == expect
    with pytest.raises(ValueError):
        BESSTSimulator(simple_app(1), make_arch(), nranks=2, record_timelines="some")


def test_timeline_entries_ordered_and_labeled():
    sim = BESSTSimulator(simple_app(2, with_ckpt=True), make_arch(), nranks=2)
    res = sim.run()
    tl = res.timelines[0]
    kinds = [e.kind for e in tl.entries]
    assert "compute" in kinds and "collective" in kinds and "checkpoint" in kinds
    times = [e.t_start for e in tl.entries]
    assert times == sorted(times)
    assert all(e.t_end >= e.t_start for e in tl.entries)


def test_exchange_priced_into_compute_time():
    def builder(rank, nranks, params):
        return [Exchange(nbytes=1000, neighbors=2)]

    app = AppBEO("x", builder)
    res = BESSTSimulator(app, make_arch(), nranks=2).run()
    assert res.total_time > 0
    assert res.compute_time == pytest.approx(res.total_time)


def test_marker_is_free():
    def builder(rank, nranks, params):
        return [Marker("a"), Compute.of("k"), Marker("b")]

    app = AppBEO("m", builder)
    res = BESSTSimulator(app, make_arch(compute=0.2), nranks=1).run()
    assert res.total_time == pytest.approx(0.2)
    labels = [e.label for e in res.timelines[0].entries if e.kind == "marker"]
    assert labels == ["a", "b"]


def test_monte_carlo_draws_vary():
    def total(seed, mc):
        sim = BESSTSimulator(
            simple_app(5),
            make_arch(stochastic=True),
            nranks=4,
            seed=seed,
            monte_carlo=mc,
        )
        return sim.run().total_time

    assert total(1, True) != total(2, True)
    assert total(1, False) == total(2, False)  # deterministic central prediction
    assert total(3, True) == total(3, True)  # same seed reproducible


def test_run_twice_returns_same_result():
    sim = BESSTSimulator(simple_app(2), make_arch(), nranks=2)
    r1 = sim.run()
    r2 = sim.run()
    assert r1 is r2


def test_mismatched_collective_counts_detected():
    def builder(rank, nranks, params):
        if rank == 0:
            return [Collective("barrier"), Collective("barrier")]
        return [Collective("barrier")]

    app = AppBEO("bad", builder)
    sim = BESSTSimulator(app, make_arch(), nranks=2)
    with pytest.raises(RuntimeError, match="unfinished"):
        sim.run()


def test_monte_carlo_runner():
    runner = MonteCarloRunner(reps=5, base_seed=0)
    mc = runner.run(
        lambda seed: BESSTSimulator(
            simple_app(3), make_arch(stochastic=True), nranks=4, seed=seed
        )
    )
    assert mc.total_time.samples.size == 5
    assert mc.total_time.std > 0
    assert mc.total_time.min <= mc.total_time.mean <= mc.total_time.max
    with pytest.raises(ValueError):
        MonteCarloRunner(reps=0)


def test_distribution_stats():
    d = Distribution(np.array([1.0, 2.0, 3.0, 4.0]))
    assert d.mean == 2.5
    assert d.percentile(50) == 2.5
    assert d.cv > 0
    summary = d.to_dict()
    assert summary["n"] == 4 and summary["p95"] <= 4.0
    with pytest.raises(ValueError):
        Distribution(np.array([]))


def test_event_batching_reduces_events():
    """Consecutive local instructions fire as one event."""

    def builder(rank, nranks, params):
        return [Compute.of("k") for _ in range(10)]

    app = AppBEO("batch", builder)
    sim = BESSTSimulator(app, make_arch(), nranks=1)
    res = sim.run()
    # 1 setup event + 1 batch event (10 instructions)
    assert res.events_fired <= 3
    assert res.total_time == pytest.approx(1.0)


def test_ranks_share_rows_of_equal_instructions_only():
    def builder(rank, nranks, params):
        return [Compute.of("k", n=10), Compute.of("k", n=rank % 2), Collective("barrier")]

    sim = BESSTSimulator(AppBEO("rows", builder), make_arch(), nranks=4, monte_carlo=False)
    r0, r1, r2 = sim._ranks[:3]
    assert r0.rows[0] is r1.rows[0]  # separately built, equal instructions
    assert r0.rows[1] is r2.rows[1]
    assert r0.rows[1] is not r1.rows[1]
    assert len(sim._rows) == 4  # n=10, n=0, n=1, barrier


def test_integral_float_rank_count_runs_as_its_int():
    runs = [
        BESSTSimulator(simple_app(), make_arch(), nranks=n, monte_carlo=False).run()
        for n in (8, 8.0)
    ]
    assert runs[0] == runs[1] and type(runs[1].nranks) is int


def test_models_get_a_fresh_params_mapping():
    seen = []

    def misbehaving(params):
        seen.append(dict(params))
        params["n"] = -1  # must not leak into the shared row
        return 0.1

    arch = ArchBEO("m", topology=FullyConnected(4), cores_per_node=2)
    arch.bind("k", CallableModel(misbehaving, ("n",)))

    def builder(rank, nranks, params):
        return [Compute.of("k", n=3), Collective("barrier")] * 2

    BESSTSimulator(AppBEO("spmd", builder), arch, nranks=4, monte_carlo=False).run()
    assert seen == [{"n": 3}] * 8


def test_unknown_instruction_rejected_at_construction():
    from repro.core.instructions import Instruction

    class Teleport(Instruction):
        pass

    app = AppBEO("odd", lambda rank, nranks, params: [Teleport()])
    with pytest.raises(TypeError, match="cannot simulate"):
        BESSTSimulator(app, make_arch(), nranks=1)
