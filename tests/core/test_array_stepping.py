"""Array-stepped runs equal per-rank stepping.

A fault-free run of one program on every rank, and a deterministic fault
run between its faults, steps each segment that ends at a collective,
``Checkpoint`` and ``Verify`` rows (commit hooks) included, for all ranks
in one array operation.  The comparison arm stubs
:meth:`_ArrayStepper.plan` to return ``None``, so it steps per rank:
every result must be equal, and so must the traces, the rings of the
flight recorders both arms carry, the seqs, the RNG streams and each
rank's ``restart_history``.  A run with no trace log or event journal
also fires its rendezvous and releases inline (run-ahead), so
:func:`run_arms` runs an untraced arm too.
"""

import contextlib
import functools
import itertools
import math
import random
import types

import numpy as np
import pytest

from repro.apps.cmtbone import cmtbone_appbeo
from repro.apps.iterative import iterative_solver_appbeo
from repro.apps.lulesh import lulesh_appbeo
from repro.core import (
    AppBEO,
    ArchBEO,
    BESSTSimulator,
    Checkpoint,
    Collective,
    Compute,
    Exchange,
    Marker,
    Verify,
)
from repro.core import simulator as simulator_mod
from repro.core.campaign import CampaignSpec, build_campaign_app, build_campaign_simulator
from repro.core.fault_injection import FaultDetail, FaultInjector, FaultModel, RecoveryPolicy
from repro.core.ft import scenario_l1, scenario_l1_l2
from repro.des.component import Component
from repro.des.engine import SimulationError
from repro.des.snapshot import SnapshotStore
from repro.models import CallableModel, ConstantModel, ScaledModel, SymbolicRegressionModel
from repro.network import Torus
from repro.obs import EngineObs, FlightRecorder, MetricsRegistry, Tracer

TIMESTEPS = 9


def _sr(expr, factors):
    return SymbolicRegressionModel(expr, ["ranks"], noise_factors=factors)


def make_arch():
    """One model per kernel of the swept apps; factor tables of mixed sizes."""
    arch = ArchBEO("array", topology=Torus((4, 4, 4)), cores_per_node=2)
    arch.bind("lulesh_timestep", _sr("0.02 + 0.0001 * ranks", [0.9, 1.0, 1.1, 1.4]))
    arch.bind("cmtbone_timestep", _sr("0.03", [0.95, 1.0, 1.2]))
    arch.bind("solve", _sr("0.01 + 0.001 * ranks", [0.8, 1.0, 1.0, 1.05, 1.3, 2.0]))
    arch.bind("fti_l1", _sr("0.05", [1.0, 1.5]))
    arch.bind("fti_l2", ScaledModel(_sr("0.04 + 0.0002 * ranks", [0.9, 1.1, 1.7]), 2.5))
    arch.bind("abft_verify", ConstantModel(0.004))
    return arch


def same_program_builder(rank, nranks, params):
    """Ignores *rank* but does not declare it: rows come out equal.  Has
    leading and mid-batch markers, back-to-back collectives, a checkpoint
    and a final collective."""
    body = [Marker("start")]
    for ts in range(1, TIMESTEPS + 1):
        body += [
            Compute.of("lulesh_timestep", ranks=nranks),
            Marker(f"mid{ts}"),
            Exchange(nbytes=2048, neighbors=4),
            Compute.of("solve", ranks=nranks, n=ts % 3),
            Collective("allreduce", nbytes=8),
        ]
        if ts % 3 == 0:
            body.append(Collective("barrier"))
        if ts % 4 == 0:
            body.append(Checkpoint.of(1, "fti_l1", ranks=nranks))
    body.append(Collective("barrier"))
    return body


def hooked_builder(rank, nranks, params):
    """Commit hooks in every position: a verify after a kernel, a segment
    of one L1 checkpoint, an L2 checkpoint with no exchange beside it
    among markers, a verify and another checkpoint, an L1 checkpoint
    after an exchange, and a last batch with no collective.  Ten
    checkpoints, so ``restart_history`` is pruned."""
    l1 = Checkpoint.of(1, "fti_l1", ranks=nranks)
    body = [Marker("start")]
    for ts in range(1, TIMESTEPS + 1):
        body += [
            Compute.of("solve", ranks=nranks, n=ts % 3),
            Verify.of("abft_verify", ranks=nranks),
            Collective("allreduce", nbytes=8),
        ]
        if ts % 2 == 0:
            body += [l1, Collective("barrier")]
        if ts % 3 == 0:
            body += [
                Marker(f"ckpt{ts}"),
                Compute.of("lulesh_timestep", ranks=nranks),
                Checkpoint.of(2, "fti_l2", ranks=nranks),
                Marker(f"l2done{ts}"),
                l1,
                Verify.of("abft_verify", ranks=nranks),
                Collective("barrier"),
            ]
        if ts % 4 == 0:
            body += [Exchange(nbytes=4096, neighbors=2), l1, Collective("allreduce", nbytes=8)]
    return body + [Compute.of("solve", ranks=nranks, n=1), l1]


APPS = {
    "lulesh": lambda: lulesh_appbeo(TIMESTEPS, scenario_l1_l2(4)),
    "lulesh_verify": lambda: lulesh_appbeo(TIMESTEPS, scenario_l1_l2(4).with_verification(2)),
    "cmtbone": lambda: cmtbone_appbeo(TIMESTEPS),
    "iterative": lambda: iterative_solver_appbeo(TIMESTEPS, scenario_l1(3)),
    "same_program": lambda: AppBEO("same_program", same_program_builder),
    "hooked": lambda: AppBEO("hooked", hooked_builder),
}


def make_sim(app="lulesh", nranks=8, seed=0, arch=None, **kwargs):
    return BESSTSimulator(APPS[app](), arch or make_arch(), nranks=nranks, seed=seed, **kwargs)


class Plans(list):
    """Every :meth:`_ArrayStepper.plan` outcome: a stepper or ``None``.
    While ``per_rank`` is set, ``plan`` returns ``None``."""

    per_rank = False


@pytest.fixture
def planned(monkeypatch):
    outcomes = Plans()
    plan = simulator_mod._ArrayStepper.plan.__func__

    def spy(cls, sim):
        outcomes.append(None if outcomes.per_rank else plan(cls, sim))
        return outcomes[-1]

    monkeypatch.setattr(simulator_mod._ArrayStepper, "plan", classmethod(spy))
    return outcomes


def run_per_rank(planned, sim, **kwargs):
    """``sim.run(**kwargs)`` with ``plan`` stubbed to ``None``."""
    planned.per_rank = True
    try:
        return sim.run(**kwargs)
    finally:
        planned.per_rank = False


def traced_sim(tick_stride=1, **kwargs):
    """A simulator tracing its heap events, so seqs (which carry the
    release order) are compared too, with a flight recorder keeping
    every tick."""
    sim = make_sim(**kwargs)
    sim.engine.trace = True
    sim.attach_flightrec(FlightRecorder(capacity=1 << 20, tick_stride=tick_stride))
    return sim


def run_both(planned, tick_stride=1, prepare=None, **kwargs):
    """(array-stepped, per-rank) runs of one configuration; *prepare*,
    if given, is called with each simulator before it runs."""
    array_sim = traced_sim(tick_stride, **kwargs)
    if prepare is not None:
        prepare(array_sim)
    array_res = array_sim.run()
    assert planned[-1] is not None
    reference = traced_sim(tick_stride, **kwargs)
    if prepare is not None:
        prepare(reference)
    ref_res = run_per_rank(planned, reference)
    assert planned[-1] is None
    assert array_sim.engine.trace_log == reference.engine.trace_log
    assert array_sim._flightrec.ring == reference._flightrec.ring
    assert array_sim.engine.queue.take_seq() == reference.engine.queue.take_seq()
    assert array_sim.engine.rngs.state_digest() == reference.engine.rngs.state_digest()
    assert rank_states(array_sim) == rank_states(reference)
    return array_res, ref_res


def rank_states(sim):
    """Each rank's own lockstep state, ``restart_history`` in its order."""
    return [
        (r.pc, r.collective_calls, r.ckpt_seq, list(r.restart_history.items()))
        for r in sim._ranks
    ]


#: seeded sweep: every app at every rank count, with timeline recording,
#: Monte-Carlo pricing and seed drawn per case
_pick = np.random.default_rng(2021)
SWEEP = [
    (
        app,
        nranks,
        ("rank0", "all", "none")[int(_pick.integers(3))],
        bool(_pick.integers(2)),
        int(_pick.integers(1000)),
    )
    for app, nranks in itertools.product(APPS, (1, 8, 27, 64))
]


def test_sweep_covers_every_option():
    assert {case[2] for case in SWEEP} == {"rank0", "all", "none"}
    assert {case[3] for case in SWEEP} == {True, False}


@pytest.mark.parametrize("app,nranks,record,monte_carlo,seed", SWEEP)
def test_array_stepping_equals_per_rank_stepping(
    planned, hooked_steps, app, nranks, record, monte_carlo, seed
):
    array_res, ref_res = run_both(
        planned,
        app=app,
        nranks=nranks,
        seed=seed,
        record_timelines=record,
        monte_carlo=monte_carlo,
    )
    assert array_res == ref_res
    assert array_res.total_time.hex() == ref_res.total_time.hex()
    # fault-free: nothing can act on a segment's commit hooks
    assert all(step["array"] for step in hooked_steps)
    if app == "hooked":
        assert len(hooked_steps) == sum(TIMESTEPS // k for k in (1, 2, 3, 4))


@pytest.mark.parametrize("record", ["rank0", "all", "none"])
@pytest.mark.parametrize("monte_carlo", [True, False])
def test_lulesh_64_ranks_every_option(planned, record, monte_carlo):
    array_res, ref_res = run_both(
        planned, app="lulesh_verify", nranks=64, record_timelines=record, monte_carlo=monte_carlo
    )
    assert array_res == ref_res


@pytest.mark.parametrize("tick_stride", [1, 2, 64, 1024])
def test_flight_ticks_equal_per_rank_stepping(planned, tick_stride):
    """The lazy arrivals an array step counts at once get the ticks they
    would get one by one, at every stride."""
    run_both(planned, tick_stride, app="lulesh_verify", nranks=64, record_timelines="none")


def test_fig7_like_run_prices_per_rank_only_hooked_batches(monkeypatch):
    """LULESH at 64 ranks with checkpoints: every segment ending at a
    collective is array-stepped, checkpoints included, so ``_price_batch``
    prices only the program's last batch, which ends with no collective,
    and no model is polled."""
    batches = []
    price_batch = simulator_mod._Rank._price_batch

    def spy(rank):
        dt, batch, hooked = price_batch(rank)
        batches.append(rank.pc == len(rank.rows))
        return dt, batch, hooked

    def no_poll(*args, **kwargs):
        raise AssertionError("Monte-Carlo prices are drawn at run start")

    monkeypatch.setattr(simulator_mod._Rank, "_price_batch", spy)
    monkeypatch.setattr(ArchBEO, "predict", no_poll)
    app = lulesh_appbeo(40, scenario_l1_l2(10))
    res = BESSTSimulator(app, make_arch(), nranks=64, seed=7).run()
    # the last checkpoint instant's L2 batch ends the program
    assert all(batches) and len(batches) == 64
    assert res.events_fired > 64 * 40


# -- conditions that make a run step per rank ----------------------------------------


def check_per_rank(planned, build):
    """A run of ``build()`` steps per rank and equals one with a flight
    recorder attached."""
    res = build().run()
    assert planned[-1] is None
    reference = build()
    reference.attach_flightrec(FlightRecorder())
    assert res == reference.run()
    return res


def test_fault_injector_steps_per_rank(planned):
    def build():
        injector = FaultInjector(FaultModel(node_mtbf_s=1e9), nnodes=4, seed=1)
        return make_sim(fault_injector=injector)

    res = check_per_rank(planned, build)
    assert res.faults_injected == 0 and res == run_both(planned)[0]


class Ticker(Component):
    """A foreign component: its start event is not a rank's."""

    def __init__(self, fired):
        super().__init__("ticker")
        self.fired = fired

    def setup(self):
        self.schedule(0.05, lambda ev: self.fired.append(ev.time))


@pytest.mark.parametrize("source", ["queue", "component"])
def test_foreign_event_steps_per_rank(planned, source):
    fired = []

    def build():
        sim = make_sim()
        if source == "queue":
            sim.engine.schedule(0.05, lambda ev: fired.append(ev.time))
        else:
            sim.engine.register(Ticker(fired))
        return sim

    check_per_rank(planned, build)
    assert fired == [0.05, 0.05]


def test_observed_run_is_array_stepped(planned):
    """An obs adapter is observational: an observed fault-free run is
    array-stepped and equals the bare one."""
    sim = make_sim()
    obs = sim.engine.attach_obs(EngineObs(registry=MetricsRegistry(), tracer=Tracer()))
    res = sim.run()
    assert planned[-1] is not None
    assert res == make_sim().run()
    assert obs.registry.counter("engine_events_total").value == res.events_fired


def test_run_ahead_samples_queue_depth_every_64_events(planned):
    """Events fired inline pass several 64-event marks within one heap
    event: each mark still gets its sample, as in the traced twin, whose
    window is closed."""
    spec = CampaignSpec(node_mtbf_s=math.inf, ckpt_period=10, nranks=16, nnodes=8, timesteps=400)
    counts = []
    for traced in (False, True):
        sim = build_campaign_simulator(spec, 0, RecoveryPolicy(), inject=False)
        sim.engine.trace = traced
        obs = sim.engine.attach_obs(EngineObs(registry=MetricsRegistry()))
        with inline_releases() as inline:
            res = sim.run()
        assert bool(inline) == (not traced)
        assert planned[-1] is not None
        assert obs.queue_depth.count == res.events_fired // 64
        counts.append((res.events_fired, obs.queue_depth.count))
    assert counts[0] == counts[1]


def _arch_with(kernel, model):
    arch = make_arch()
    arch.bind(kernel, model)
    return arch


def test_stochastic_callable_model_steps_per_rank(planned):
    model = CallableModel(lambda p, rng: 0.01 * rng.uniform(0.5, 1.5), stochastic=True)
    check_per_rank(planned, lambda: make_sim(app="iterative", arch=_arch_with("solve", model)))


def test_callable_model_steps_per_rank_even_when_deterministic(planned):
    arch = _arch_with("solve", CallableModel(lambda p: 0.01))
    check_per_rank(planned, lambda: make_sim(app="iterative", arch=arch, monte_carlo=False))


def test_lognormal_noise_steps_per_rank(planned):
    model = SymbolicRegressionModel("0.01", [], noise_rel_std=0.1)
    check_per_rank(planned, lambda: make_sim(app="iterative", arch=_arch_with("solve", model)))


def test_fault_injected_into_an_array_stepped_run_is_refused(planned):
    sim = make_sim()
    with pytest.raises(SimulationError):
        sim.run(max_events=20)
    assert planned[-1] is not None
    with pytest.raises(RuntimeError, match="before run"):
        sim.inject_fault(0)
    assert sim.run() == make_sim().run()


def test_max_events_crossing_stays_exact(planned):
    """A ``max_events`` limit anywhere in a segment stops both arms at the
    same event, and each then finishes to the same result."""
    kwargs = dict(app="lulesh_verify", nranks=27, record_timelines="all")
    full = make_sim(**kwargs).run()
    middle = full.events_fired // 2
    for budget in range(middle, middle + 30):
        sims = [traced_sim(**kwargs), traced_sim(**kwargs)]
        with pytest.raises(SimulationError, match="max_events"):
            sims[0].run(max_events=budget)
        with pytest.raises(SimulationError, match="max_events"):
            run_per_rank(planned, sims[1], max_events=budget)
        assert planned[-2] is not None and planned[-1] is None
        stops = [(sim.engine.events_fired, sim.engine.now) for sim in sims]
        assert stops[0] == stops[1]
        assert sims[0].run() == sims[1].run() == full
        assert sims[0].engine.trace_log == sims[1].engine.trace_log
        assert sims[0]._flightrec.ring == sims[1]._flightrec.ring


def _arrays(root, skip) -> set:
    """Ids of the numpy arrays reachable from *root* through containers
    and ``repro`` objects, not entering *skip*."""
    seen, stack, arrays = set(), [root], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen or any(obj is s for s in skip):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.add(id(obj))
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("repro") and hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return arrays


def test_finished_simulator_holds_no_array_state(planned):
    sim = make_sim(nranks=27)
    skip = (sim.archbeo, sim.appbeo)  # models own their noise tables
    before = _arrays(sim, skip)
    sim.run()
    assert planned[-1] is not None and sim._stepper is None
    assert _arrays(sim, skip) <= before


# -- deterministic fault runs ---------------------------------------------------------

#: kind mixes; between them, every kind whose domain changes a price,
#: cuts the fabric or rolls the job back
MIXES = (
    {"software": 0.4, "link": 0.2, "netdeg": 0.4},
    {"switch": 0.2, "straggler": 0.4, "sdc": 0.4},
    {"burst": 0.25, "node": 0.25, "netdeg": 0.25, "straggler": 0.25},
    {"software": 0.2, "sdc": 0.2, "straggler": 0.2, "link": 0.2, "burst": 0.2},
)
POLICIES = {"legacy": RecoveryPolicy.legacy, "default": RecoveryPolicy}
#: swept apps and the rank counts each may take: the campaign workload,
#: a program with ``Exchange`` rows, one with ``Verify`` rows, and one
#: with commit hooks in every position
FAULT_APPS = {
    "campaign": (8, 16),
    "same_program": (6, 8, 12),
    "lulesh_verify": (8, 27),
    "hooked": (6, 8, 12),
}


def fault_app(app, nranks, period):
    """``(appbeo, arch)`` of a swept fault run; *period* is the
    checkpoint period in timesteps (``same_program`` keeps its own)."""
    if app == "campaign":
        spec = CampaignSpec(
            node_mtbf_s=1.0,
            ckpt_period=period,
            nranks=nranks,
            nnodes=nranks // 2,
            timesteps=24,
            verify_period=3,
            net_topology="torus",
        )
        arch = ArchBEO("campaign", topology=spec.build_topology(), cores_per_node=2)
        arch.bind("work", ConstantModel(spec.compute_s))
        arch.bind("ckpt", ConstantModel(spec.ckpt_cost_s))
        arch.bind("verify", ConstantModel(spec.verify_cost_s))
        return build_campaign_app(spec), arch
    if app == "lulesh_verify":
        scenario = scenario_l1_l2(period).with_verification(2)
        return lulesh_appbeo(TIMESTEPS, scenario), make_arch()
    return APPS[app](), make_arch()


@functools.lru_cache(maxsize=None)
def fault_free(app, nranks, period):
    """The deterministic fault-free run the fault rates are scaled to."""
    appbeo, arch = fault_app(app, nranks, period)
    return BESSTSimulator(appbeo, arch, nranks=nranks, monte_carlo=False).run()


def fault_sim(case):
    """A deterministic run of *case* under its fault mix: about three
    faults per fault-free run time, ten at most, with repairs and
    recovery downtime short against that time."""
    app, nranks, mix, policy, period, record, stride, _stop, seed = case
    appbeo, arch = fault_app(app, nranks, period)
    span = fault_free(app, nranks, period).total_time
    arch.recovery_time_s = span / 10
    model = FaultModel(
        node_mtbf_s=nranks // 2 * span / 3,
        kind_weights=MIXES[mix],
        straggler_repair_s=span / 4,
        net_repair_s=span / 4,
        burst_size=2,
    )
    sim = BESSTSimulator(
        appbeo,
        arch,
        nranks=nranks,
        seed=seed,
        monte_carlo=False,
        record_timelines=record,
        fault_injector=FaultInjector(model, nnodes=nranks // 2, seed=seed + 1, max_faults=10),
        recovery_policy=POLICIES[policy](),
    )
    sim.engine.trace = True
    sim.attach_flightrec(FlightRecorder(capacity=1 << 20, tick_stride=stride))
    return sim


_draw = random.Random(26)
#: seeded sweep: each app under each mix, the rest drawn per case; a
#: ``max_events`` stop (a share of the fault-free event count) is
#: followed by a resume
FAULT_SWEEP = [
    (
        app,
        _draw.choice(FAULT_APPS[app]),
        mix,
        _draw.choice(sorted(POLICIES)),
        _draw.choice((2, 3, 5)),
        _draw.choice(("all", "rank0")),
        _draw.choice((1, 4, 64)),
        _draw.choice((0.0, 0.2, 0.5)),
        _draw.randrange(1000),
    )
    for app, mix in itertools.product(FAULT_APPS, range(len(MIXES)))
]


def test_fault_sweep_covers_every_option():
    kinds = {kind for case in FAULT_SWEEP for kind in MIXES[case[2]]}
    assert {"link", "switch", "netdeg", "straggler", "burst", "sdc"} <= kinds
    for i, options in ((3, set(POLICIES)), (5, {"all", "rank0"}), (6, {1, 4, 64})):
        assert {case[i] for case in FAULT_SWEEP} == options
    assert {bool(case[7]) for case in FAULT_SWEEP} == {True, False}


@pytest.mark.parametrize("case", FAULT_SWEEP, ids=str)
def test_deterministic_fault_run_equals_per_rank_stepping(planned, case):
    app, nranks, _mix, _policy, period, _record, _stride, stop, _seed = case
    budget = int(stop * fault_free(app, nranks, period).events_fired)
    sims, stops, depths = [], [], []
    for per_rank in (False, True):
        sim = fault_sim(case)
        obs = sim.engine.attach_obs(EngineObs(registry=MetricsRegistry()))
        depths.append(obs.queue_depth)
        planned.per_rank = per_rank
        try:
            if budget:
                with pytest.raises(SimulationError, match="max_events"):
                    sim.run(max_events=budget)
                stops.append((sim.engine.events_fired, sim.engine.now, len(sim.engine.queue)))
            sim.run()
        finally:
            planned.per_rank = False
        sims.append(sim)
    assert planned[-2] is not None and planned[-1] is None
    array_sim, reference = sims
    assert stops[:1] == stops[1:]
    array_res, ref_res = array_sim.run(), reference.run()
    assert array_res.faults_injected > 0
    assert array_res == ref_res
    assert array_res.total_time.hex() == ref_res.total_time.hex()
    assert array_sim.engine.queue.next_seq == reference.engine.queue.next_seq
    # Depth is sampled once per 64 fired events.  A hooked array step
    # holds one heap event where per-rank stepping holds one per rank, so
    # its samples read a shorter queue, never a longer one.
    array_depth, ref_depth = (depth.snapshot() for depth in depths)
    assert array_depth["count"] == ref_depth["count"]
    assert array_depth["sum"] <= ref_depth["sum"]
    assert array_sim.engine.trace_log == reference.engine.trace_log
    assert array_sim._flightrec.ring == reference._flightrec.ring
    assert array_sim.fault_injector.log.entries == reference.fault_injector.log.entries
    assert array_sim.engine.rngs.state_digest() == reference.engine.rngs.state_digest()
    assert rank_states(array_sim) == rank_states(reference)


def test_deterministic_fault_injector_run_is_array_stepped(planned):
    """The deterministic counterpart of
    :func:`test_fault_injector_steps_per_rank`."""

    def build():
        injector = FaultInjector(FaultModel(node_mtbf_s=1e9), nnodes=4, seed=1)
        return make_sim(fault_injector=injector, monte_carlo=False)

    res = build().run()
    assert planned[-1] is not None
    assert res == run_per_rank(planned, build())
    assert res.faults_injected == 0 and res == run_both(planned, monte_carlo=False)[0]


@pytest.mark.parametrize("source", ["queue", "component"])
def test_deterministic_foreign_event_run_is_array_stepped(planned, source):
    """The deterministic counterpart of :func:`test_foreign_event_steps_per_rank`:
    the segment the event lands in is stepped per rank, and the event
    sees the same ``events_fired``."""
    fired = []

    def build():
        sim = make_sim(monte_carlo=False)
        engine = sim.engine

        def note(t, _payload=None):
            fired.append((t, engine.events_fired))

        if source == "queue":
            engine.schedule(0.05, lambda ev: note(ev.time))
        else:
            engine.register(Ticker(fired))
        return sim

    res = build().run()
    assert planned[-1] is not None
    assert res == run_per_rank(planned, build())
    assert len(fired) == 2 and fired[0] == fired[1]


def test_fault_injected_into_a_deterministic_array_stepped_run(planned):
    """The deterministic counterpart of
    :func:`test_fault_injected_into_an_array_stepped_run_is_refused`:
    the ranks' state is written back, and the run equals a per-rank one
    with the same fault."""
    sims = [make_sim(monte_carlo=False), make_sim(monte_carlo=False)]
    for sim, per_rank in zip(sims, (False, True)):
        planned.per_rank = per_rank
        try:
            with pytest.raises(SimulationError):
                sim.run(max_events=16)
        finally:
            planned.per_rank = False
    assert planned[-2] is not None and planned[-1] is None
    # stopped between the first array rendezvous and its release
    assert sims[0]._stepper.stale
    assert sims[0].sync._pending.handler == sims[0].sync._release_all
    for sim in sims:
        sim.inject_fault(0)
    assert rank_states(sims[0]) == rank_states(sims[1])
    assert len(sims[0].engine.queue) == len(sims[1].engine.queue)
    assert sims[0].run() == sims[1].run()


def test_autosnapshot_of_stale_ranks_restores_bit_identical(planned, tmp_path):
    """A snapshot taken between an array rendezvous and its release,
    while the ranks' own state is stale, resumes to the same result."""
    case = FAULT_SWEEP[0]
    ref = fault_sim(case).run()
    sim = fault_sim(case)
    sim.enable_snapshots(str(tmp_path), every_events=1, keep=1 << 20)
    with pytest.raises(SimulationError):
        sim.run(max_events=ref.events_fired // 2)
    for path in SnapshotStore(str(tmp_path)).paths():
        resumed = BESSTSimulator.restore(path)
        if resumed._stepper.stale and resumed.sync._pending.handler == resumed.sync._release_all:
            break
    else:
        pytest.fail("no snapshot caught stale ranks before a release")
    res = resumed.run()
    assert res == ref and res.faults_injected > 0


# -- segments with commit hooks --------------------------------------------------------


@pytest.fixture
def hooked_steps(monkeypatch):
    """Each segment with commit hooks the stepper took up, released by a
    heap event or inline: whether it was array-stepped, and what could
    act on it as it began."""
    steps = []
    segment = simulator_mod._ArrayStepper._segment

    def spy(self, order, inline):
        pc = self.pc
        sim = self.sim
        state = dict(
            pc=pc,
            latent=bool(sim._sdc_dom.latent),
            slowed=bool(sim._straggler_dom.node_slowdown),
            net=sim._net_dom.active,
            events=sim.engine.events_fired,
            now=sim.engine.now,
        )
        released = segment(self, order, inline)
        if pc in self.hooks:
            steps.append(dict(state, array=self.pc != pc))
        return released

    monkeypatch.setattr(simulator_mod._ArrayStepper, "_segment", spy)
    return steps


def fault_free_entries(app="hooked", nranks=8):
    """Rank 0's timeline rows in a deterministic fault-free run."""
    return make_sim(app=app, nranks=nranks, monte_carlo=False).run().timelines[0].entries


def strike(*faults):
    """A ``run_both`` *prepare* that schedules ``(time, node, kind,
    detail)`` faults."""

    def prepare(sim):
        for t, node, kind, detail in faults:
            sim.engine.schedule(
                t, lambda ev, n=node, k=kind, d=detail: sim.inject_fault(n, kind=k, detail=d)
            )

    return prepare


def midpoint(entry):
    return (entry.t_start + entry.t_end) / 2


def run_hooked(planned, prepare, nranks=8, **kwargs):
    kwargs = dict(app="hooked", monte_carlo=False, record_timelines="all", **kwargs)
    array_res, ref_res = run_both(planned, prepare=prepare, nranks=nranks, **kwargs)
    assert array_res == ref_res
    assert array_res.total_time.hex() == ref_res.total_time.hex()
    return array_res


@pytest.mark.parametrize("detector", ["verify", "commit"])
def test_latent_sdc_steps_hooked_segments_per_rank(planned, hooked_steps, detector):
    """A strike pending at a verify point or a checkpoint commit must meet
    the hook on the per-rank path, where detection can stop the rank."""
    entries = fault_free_entries()
    # The strike lands while the ranks wait for a release, so the next
    # segment starts with it pending.
    if detector == "verify":  # the first allreduce; a verify follows
        at = next(e for e in entries if e.kind == "collective")
        policy = RecoveryPolicy()
    else:  # the allreduce before the first checkpoint, validated at commit
        first = next(i for i, e in enumerate(entries) if e.kind == "checkpoint")
        at, policy = entries[first - 1], RecoveryPolicy(ckpt_validate_prob=1.0)
    detail = FaultDetail(covered=True, correctable=detector == "verify")
    res = run_hooked(planned, strike((midpoint(at), 0, "sdc", detail)), recovery_policy=policy)
    assert res.sdc["injected"] == res.sdc["detected"] == 1
    assert res.rollbacks == (detector == "commit")
    pending = [step for step in hooked_steps if step["latent"]]
    assert pending and not any(step["array"] for step in pending)
    assert any(step["array"] for step in hooked_steps)


def test_l2_checkpoint_under_partitioned_network_steps_per_rank(planned, hooked_steps):
    """A dead switch cuts node 3's partner copy (node 4 holds no rank):
    an L2 commit degrades to L1 on the per-rank path, while L1-only
    segments with no exchange are still array-stepped."""
    t = midpoint(fault_free_entries()[1])
    res = run_hooked(planned, strike((t, 4, "switch", FaultDetail(repair_s=1e9))))
    assert res.net["degraded_commits"] == 2 * (TIMESTEPS // 3)  # ranks 6 and 7
    assert res.net["partition_stalls"] == 0
    active = [step for step in hooked_steps if step["net"]]
    assert any(step["array"] for step in active)
    assert not all(step["array"] for step in active)


def test_straggler_across_a_checkpoint_is_array_stepped(planned, hooked_steps):
    """A slowed node's ranks take longer over the hooked segments, which
    are still array-stepped, save the one its repair lands in."""
    entries = fault_free_entries()
    first = next(e for e in entries if e.kind == "checkpoint")
    t = midpoint(entries[1])
    detail = FaultDetail(victims=(1,), slowdown=1.5, repair_s=entries[-1].t_end / 3)
    assert t < first.t_start < t + detail.repair_s
    res = run_hooked(planned, strike((t, 1, "straggler", detail)))
    assert res.straggler["straggler_excess_s"] > 0
    slowed = [step for step in hooked_steps if step["slowed"]]
    assert len(slowed) > 2 and all(step["array"] for step in slowed[:-1])
    # the repair fires among the last slowed segment's arrivals
    assert not slowed[-1]["array"] and slowed[-1]["now"] < t + detail.repair_s
    assert any(step["array"] for step in hooked_steps if not step["slowed"])


@pytest.fixture
def slowed_steps(monkeypatch):
    """Each segment step begun while a straggler slows a node: whether
    it has commit hooks, whether it was array-stepped, and when."""
    steps = []
    segment = simulator_mod._ArrayStepper._segment

    def spy(self, order, inline):
        pc = self.pc
        slowed = bool(self.sim._straggler_dom.node_slowdown)
        now = self.sim.engine.now
        released = segment(self, order, inline)
        if slowed and pc in self.segments:
            steps.append(dict(hooked=pc in self.hooks, array=self.pc != pc, now=now))
        return released

    monkeypatch.setattr(simulator_mod._ArrayStepper, "_segment", spy)
    return steps


def excess_hex(res):
    by_node = res.straggler["straggler_excess_by_node"]
    return res.straggler["straggler_excess_s"].hex(), {n: x.hex() for n, x in by_node.items()}


@pytest.mark.parametrize("app", ["same_program", "hooked"])
def test_two_stragglers_with_different_factors(planned, slowed_steps, app):
    """Nodes 1 and 2 (ranks 2-5) slowed 1.5x and 3x for good: each slowed
    segment is array-stepped, hooked or not, save the one the second
    strike lands in, and the excess sums bit for bit as per rank."""
    entries = fault_free_entries(app)
    # the first batch row, and the first after the second collective
    second = [i for i, e in enumerate(entries) if e.kind == "collective"][1]
    t2 = midpoint(next(e for e in entries[second:] if e.kind == "compute"))
    strikes = strike(
        (midpoint(entries[1]), 1, "straggler", FaultDetail(slowdown=1.5)),
        (t2, 2, "straggler", FaultDetail(slowdown=3.0)),
    )
    res, ref = run_both(
        planned, prepare=strikes, app=app, nranks=8, monte_carlo=False, record_timelines="all"
    )
    assert res == ref
    assert excess_hex(res) == excess_hex(ref)
    assert sorted(res.straggler["straggler_excess_by_node"]) == ["1", "2"]
    per_rank = [step for step in slowed_steps if not step["array"]]
    assert len(per_rank) == 1 and per_rank[0]["now"] < t2
    hooked = {step["hooked"] for step in slowed_steps if step["array"]}
    assert hooked == ({True, False} if app == "same_program" else {True})


def test_straggler_repair_among_the_arrivals_steps_per_rank(planned, slowed_steps):
    """A repair landing after the healthy ranks arrive at a collective and
    before the slowed ones do sends that segment per rank."""
    t = midpoint(fault_free_entries()[1])
    kwargs = dict(app="hooked", nranks=8, monte_carlo=False, record_timelines="all")
    sim = make_sim(**kwargs)
    strike((t, 1, "straggler", FaultDetail(slowdown=2.0)))(sim)
    timelines = sim.run().timelines
    # each segment's batch ends just before its collective; the strike's
    # own segment was priced before it landed, so it ends alike
    fast_rows, slow_rows = timelines[0].entries, timelines[2].entries
    ends = [
        (fast.t_end, slow.t_end)
        for fast, slow, nxt in zip(fast_rows, slow_rows, fast_rows[1:])
        if nxt.kind == "collective" and fast.t_end > t
    ]
    t_fast, t_slow = ends[2]
    assert t_fast < t_slow
    repaired = (t_fast + t_slow) / 2
    detail = FaultDetail(slowdown=2.0, repair_s=repaired - t)
    slowed_steps.clear()
    res = run_hooked(planned, strike((t, 1, "straggler", detail)))
    assert excess_hex(res)[1].keys() == {"1"}
    # the segment after the strike's is array-stepped, the next per rank
    assert [step["array"] for step in slowed_steps if step["now"] < repaired] == [True, False]


def test_autosnapshot_after_a_slowed_hooked_array_step_restores_bit_identical(planned, tmp_path):
    """A snapshot taken after a slowed hooked array step, before its
    rendezvous commits the ranks' checkpoints, resumes to the same
    result, excess included."""
    kwargs = dict(app="hooked", nranks=8, monte_carlo=False, record_timelines="all")
    detail = FaultDetail(slowdown=1.5, repair_s=fault_free_entries()[-1].t_end / 2)
    sims = [make_sim(**kwargs), make_sim(**kwargs)]
    for sim in sims:
        with pytest.raises(SimulationError):
            sim.run(max_events=20)
        sim.inject_fault(1, kind="straggler", detail=detail)
    ref = sims[0].run()
    sim = sims[1]
    sim.enable_snapshots(str(tmp_path), every_events=1, keep=1 << 20)
    sim.run()
    for path in SnapshotStore(str(tmp_path)).paths():
        resumed = BESSTSimulator.restore(path)
        pending = resumed.sync._pending
        if (
            resumed._straggler_dom.node_slowdown
            and pending is not None
            and pending.payload[2] == resumed._stepper._commit_hooked
        ):
            break
    else:
        pytest.fail("no snapshot caught a slowed hooked array step before its rendezvous")
    res = resumed.run()
    assert res == ref and res.total_time.hex() == ref.total_time.hex()
    assert excess_hex(res) == excess_hex(ref) and res.straggler["straggler_excess_s"] > 0
    assert rank_states(resumed) == rank_states(sims[0])


def test_failstop_in_the_segment_after_a_hooked_array_step(planned, hooked_steps):
    """The rollback reads the ``restart_history`` an array step wrote."""
    entries = fault_free_entries()
    ckpts = [i for i, e in enumerate(entries) if e.kind == "checkpoint"]
    after = next(e for e in entries[ckpts[2] :] if e.kind == "compute")
    t = midpoint(after)
    res = run_hooked(planned, strike((t, 0, "node", None)), recovery_policy=RecoveryPolicy())
    assert res.rollbacks == 1 and res.torn_checkpoints == 0
    # the struck segment steps per rank, every hooked one before it not
    before = [step for step in hooked_steps if step["now"] < t]
    assert len(before) > 3 and not before[-1]["array"]
    assert all(step["array"] for step in before[:-1])


def test_failstop_inside_a_per_rank_l1_write_tears_it(planned, hooked_steps, monkeypatch):
    """A fail-stop strike inside an L1 checkpoint write steps that segment
    per rank; every rank's write is torn, and with in-place L1 writes the
    struck node's previous L1 copy is gone, so recovery skips that
    checkpoint and rolls back one further."""
    entries = fault_free_entries()
    ckpts = [e for e in entries if e.kind == "checkpoint"]
    i = next(i for i in range(1, len(ckpts)) if ckpts[i - 1].level == ckpts[i].level == 1)
    targets = []
    rollback = simulator_mod._Rank.rollback

    def spy(rank, seq, delay):
        targets.append(seq)
        rollback(rank, seq, delay)

    monkeypatch.setattr(simulator_mod._Rank, "rollback", spy)
    res = run_hooked(planned, strike((midpoint(ckpts[i]), 0, "node", None)), recovery_policy=RecoveryPolicy())
    assert res.torn_checkpoints == 8 and res.rollbacks == 1
    # seqs count from 1: the write of seq i + 1 tore, seq i is invalid
    assert targets == [i - 1] * 8 * 2
    steps = [step for step in hooked_steps if step["pc"] > 0]
    torn = next(j for j, step in enumerate(steps) if not step["array"])
    assert all(step["array"] for step in steps[:torn])


def test_max_events_next_to_a_hooked_segment(planned, hooked_steps):
    """Budgets that stop just before, inside and just after a hooked
    segment's per-rank events stop both arms at the same event, and each
    resumes to the same result."""
    kwargs = dict(app="hooked", nranks=8, record_timelines="all")
    full = make_sim(**kwargs).run()
    steps = [step for step in hooked_steps if step["array"]]
    c = steps[len(steps) // 2]["events"]
    for budget in range(c - 2, c + 8 + 3):
        sims = [traced_sim(**kwargs), traced_sim(**kwargs)]
        with pytest.raises(SimulationError, match="max_events"):
            sims[0].run(max_events=budget)
        with pytest.raises(SimulationError, match="max_events"):
            run_per_rank(planned, sims[1], max_events=budget)
        stops = [(sim.engine.events_fired, sim.engine.now, sim.engine.queue.next_seq) for sim in sims]
        assert stops[0] == stops[1]
        assert rank_states(sims[0]) == rank_states(sims[1]) or sims[0]._stepper.stale
        assert sims[0].run() == sims[1].run() == full
        assert sims[0].engine.trace_log == sims[1].engine.trace_log
        assert sims[0]._flightrec.ring == sims[1]._flightrec.ring
        assert rank_states(sims[0]) == rank_states(sims[1])


def test_autosnapshot_after_a_hooked_array_step_restores_bit_identical(planned, tmp_path):
    """A snapshot taken after a hooked array step, before its rendezvous
    commits the ranks' checkpoints, resumes to the same result."""
    case = next(case for case in FAULT_SWEEP if case[0] == "hooked")
    reference = fault_sim(case)
    ref = reference.run()
    sim = fault_sim(case)
    sim.enable_snapshots(str(tmp_path), every_events=1, keep=1 << 20)
    sim.run()
    for path in SnapshotStore(str(tmp_path)).paths():
        resumed = BESSTSimulator.restore(path)
        pending = resumed.sync._pending
        if pending is not None and pending.payload[2] == resumed._stepper._commit_hooked:
            break
    else:
        pytest.fail("no snapshot caught a hooked array step before its rendezvous")
    res = resumed.run()
    assert res == ref and res.faults_injected > 0
    assert rank_states(resumed) == rank_states(reference)


# -- equal prices ------------------------------------------------------------------------


@pytest.fixture
def equal_steps(monkeypatch):
    """Counts the array steps that read equal-price tables (the scalar
    path).  While ``off`` is set, no stepper gets those tables, so every
    array step reads the per-rank price columns (the numpy path)."""
    spy = types.SimpleNamespace(calls=0, off=False)
    arrivals = simulator_mod._ArrayStepper._equal_arrivals
    tables = simulator_mod._Program.equal_steps

    def counted(self, *args):
        spy.calls += 1
        return arrivals(self, *args)

    def switch(self, column):
        return None if spy.off else tables(self, column)

    monkeypatch.setattr(simulator_mod._ArrayStepper, "_equal_arrivals", counted)
    monkeypatch.setattr(simulator_mod._Program, "equal_steps", switch)
    return spy


def run_arms(planned, equal_steps, build, budget=0):
    """Runs a simulator from ``build()`` (traced, with a flight
    recorder) four ways, each stopped at ``max_events=budget`` first if
    *budget*: on the scalar path, on the numpy path, untraced and with
    an obs adapter (the run-ahead arm: the engine's inline window is
    open, so rendezvous and releases fire inline), and per rank.  All
    four agree on results, timelines included, stops, ``events_fired``,
    seqs, the clock, flight rings, RNG streams, fault logs and every
    rank's ``restart_history`` in its order; the traced arms on traces
    too.  Only the run-ahead arm fires a release inline.  Returns the
    scalar arm's simulator."""
    arms = []
    for arm in ("scalar", "numpy", "run_ahead", "per_rank"):
        sim = build()
        if arm == "run_ahead":
            sim.engine.trace = False
            sim.engine.attach_obs(EngineObs(registry=MetricsRegistry()))
        calls = equal_steps.calls
        planned.per_rank = arm == "per_rank"
        equal_steps.off = arm == "numpy"
        stop = None
        try:
            with inline_releases() as inline:
                if budget:
                    with pytest.raises(SimulationError, match="max_events"):
                        sim.run(max_events=budget)
                    engine = sim.engine
                    stop = (engine.events_fired, engine.now, engine.queue.next_seq)
                res = sim.run()
        finally:
            planned.per_rank = equal_steps.off = False
        equal = arm in ("scalar", "run_ahead") and not sim.monte_carlo
        assert (equal_steps.calls > calls) == equal
        assert (planned[-1] is None) == (arm == "per_rank")
        assert bool(inline) == (arm == "run_ahead")
        log = sim.fault_injector.log.entries if sim.fault_injector else None
        engine = sim.engine
        arms.append((arm, sim, res, stop, log, (engine.events_fired, engine.now)))
    (_, sim, res, stop, log, end), *others = arms
    for arm, other, other_res, other_stop, other_log, other_end in others:
        assert res == other_res and res.total_time.hex() == other_res.total_time.hex()
        assert stop == other_stop and log == other_log and end == other_end
        if arm != "run_ahead":
            assert sim.engine.trace_log == other.engine.trace_log
        assert sim._flightrec.ring == other._flightrec.ring
        assert sim.engine.queue.next_seq == other.engine.queue.next_seq
        assert sim.engine.rngs.state_digest() == other.engine.rngs.state_digest()
        assert rank_states(sim) == rank_states(other)
    return sim


@contextlib.contextmanager
def inline_releases():
    """Yields the list of release orders :meth:`_ArrayStepper._fire`
    returns while the block runs: one per release fired inline."""
    released = []
    fire = simulator_mod._ArrayStepper._fire

    def spy(self, *args):
        order = fire(self, *args)
        if order is not None:
            released.append(order)
        return order

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator_mod._ArrayStepper, "_fire", spy)
        yield released


DETERMINISTIC_SWEEP = [case for case in SWEEP if not case[3]]


def test_deterministic_sweep_covers_both_record_options():
    assert len(DETERMINISTIC_SWEEP) > 6
    assert {case[2] for case in DETERMINISTIC_SWEEP} >= {"all", "none"}


@pytest.mark.parametrize("app,nranks,record,monte_carlo,seed", DETERMINISTIC_SWEEP)
def test_equal_prices_step_as_the_numpy_path_and_per_rank(
    planned, equal_steps, app, nranks, record, monte_carlo, seed
):
    stride = (1, 4, 64)[seed % 3]
    run_arms(
        planned,
        equal_steps,
        lambda: traced_sim(
            stride, app=app, nranks=nranks, seed=seed, record_timelines=record, monte_carlo=False
        ),
    )


@pytest.mark.parametrize(
    "app,nranks,record,monte_carlo,seed", [case for case in SWEEP if case[3]]
)
def test_monte_carlo_sweep_runs_ahead_as_per_rank_stepping(
    planned, equal_steps, app, nranks, record, monte_carlo, seed
):
    """The Monte-Carlo half of the sweep, which prices ranks apart, four
    ways too (its scalar and numpy arms both take the numpy path)."""
    stride = (1, 4, 64)[seed % 3]
    run_arms(
        planned,
        equal_steps,
        lambda: traced_sim(
            stride, app=app, nranks=nranks, seed=seed, record_timelines=record, monte_carlo=True
        ),
    )


@pytest.mark.parametrize("case", FAULT_SWEEP, ids=str)
def test_equal_prices_in_a_fault_run_step_as_the_numpy_path_and_per_rank(
    planned, equal_steps, case
):
    app, nranks, _mix, _policy, period, _record, _stride, stop, _seed = case
    budget = int(stop * fault_free(app, nranks, period).events_fired)
    sim = run_arms(planned, equal_steps, lambda: fault_sim(case), budget)
    assert sim.run().faults_injected > 0


MIXED_SPEC = CampaignSpec(
    node_mtbf_s=8.0,
    ckpt_period=5,
    nranks=16,
    nnodes=8,
    timesteps=40,
    verify_period=3,
    net_topology="torus",
    fault_mix={
        "software": 0.3,
        "node": 0.15,
        "sdc": 0.25,
        "straggler": 0.1,
        "burst": 0.1,
        "link": 0.1,
    },
)


def campaign_replica(seed, stride=1):
    sim = build_campaign_simulator(MIXED_SPEC, seed, RecoveryPolicy())
    sim.engine.trace = True
    sim.attach_flightrec(FlightRecorder(capacity=1 << 20, tick_stride=stride))
    return sim


#: each seed strikes a straggler, SDC and a fail-stop fault
@pytest.mark.parametrize("seed, stride, stop", [(3, 1, 0.0), (6, 4, 0.3), (13, 64, 0.7)])
def test_campaign_replica_steps_equal_prices_as_the_numpy_path_and_per_rank(
    planned, equal_steps, slowed_steps, seed, stride, stop
):
    full = build_campaign_simulator(MIXED_SPEC, seed, RecoveryPolicy()).run()
    slowed_steps.clear()
    sim = run_arms(
        planned, equal_steps, lambda: campaign_replica(seed, stride), int(stop * full.events_fired)
    )
    res = sim.run()
    assert res == full and res.straggler["straggler_excess_s"] > 0
    # the scalar arm array-steps its slowed segments on the numpy path
    assert any(step["array"] for step in slowed_steps)


def test_autosnapshot_restored_mid_run_steps_equal_prices(planned, equal_steps, tmp_path):
    """A restored stepper derives its equal-price tables again and keeps
    to the scalar path; the resumed run equals the numpy path and per
    rank stepping."""
    ref = run_arms(planned, equal_steps, lambda: campaign_replica(6))
    sim = campaign_replica(6)
    sim.enable_snapshots(str(tmp_path), every_events=50, keep=1 << 20)
    ref_res = ref.run()
    with pytest.raises(SimulationError):
        sim.run(max_events=ref_res.events_fired // 2)
    resumed = BESSTSimulator.restore(SnapshotStore(str(tmp_path)).latest())
    assert resumed._stepper.equal is not None
    calls = equal_steps.calls
    assert resumed.run() == ref_res
    assert equal_steps.calls > calls
    assert rank_states(resumed) == rank_states(ref)


@pytest.mark.parametrize("kind", ["node", "straggler", "sdc"])
@pytest.mark.parametrize("app", ["same_program", "hooked"])
def test_fault_between_a_rendezvous_and_its_release(planned, equal_steps, app, kind):
    """A fault inside a collective, after its last arrival and before its
    release: the rendezvous fires inline, but the release sorts after
    the fault, so it stays a heap event and the fault fires first, as
    per rank."""
    entries = fault_free_entries(app)
    collectives = [e for e in entries if e.kind == "collective" and e.t_end > e.t_start]
    at = midpoint(collectives[len(collectives) // 2])
    detail = FaultDetail(slowdown=2.0, covered=True, correctable=False)

    def build():
        sim = traced_sim(app=app, nranks=8, monte_carlo=False, record_timelines="all")
        strike((at, 1, kind, detail))(sim)
        return sim

    res = run_arms(planned, equal_steps, build).run()
    assert res.faults_injected == 1
    if kind == "node":
        assert res.rollbacks == 1
    elif kind == "straggler":
        assert res.straggler["straggler_excess_s"] > 0
    else:
        assert res.sdc["injected"] == 1


def run_per_rank_replica(planned):
    """:data:`MIXED_SPEC`'s seed-6 replica, stepped per rank."""
    sim = build_campaign_simulator(MIXED_SPEC, 6, RecoveryPolicy())
    run_per_rank(planned, sim)
    return sim


def test_until_inside_a_run_ahead_stretch_restores_bit_identical(planned):
    """``Engine.run(until=)`` cuts an inline stretch at its horizon: the
    stop equals a traced run's (events, clock, seqs), and a snapshot of
    it, restored, finishes to the uninterrupted run's result and rank
    states."""
    full_sim = build_campaign_simulator(MIXED_SPEC, 6, RecoveryPolicy())
    full = full_sim.run()
    assert full.faults_injected > 0
    for share in (0.5, 0.45, 0.55, 0.4, 0.6):
        until = full.total_time * share
        stops, sims = [], []
        for traced in (False, True):
            sim = build_campaign_simulator(MIXED_SPEC, 6, RecoveryPolicy())
            sim.engine.trace = traced
            sim._stepper = simulator_mod._ArrayStepper.plan(sim)  # as ``run`` plans
            with inline_releases() as inline:
                sim.engine.run(until=until)
            engine = sim.engine
            stops.append((engine.events_fired, engine.now, engine.queue.next_seq, bool(inline)))
            sims.append(sim)
        sim = sims[0]
        pending = sim.sync._pending
        # inside a stretch: releases fired inline before the stop, and the
        # horizon, not a fault, kept the next rendezvous or release back
        if stops[0][3] and sim._stepper.stale and pending is not None:
            if pending.time > until and sim.engine.queue.peek_key() == pending.sort_key():
                break
    else:
        pytest.fail("no horizon fell inside a run-ahead stretch")
    assert stops[0][:3] == stops[1][:3] and stops[0][1] == until and not stops[1][3]
    resumed = BESSTSimulator.restore(sim.snapshot())
    assert resumed._stepper.stale and resumed.engine.run_ahead is None
    res = resumed.run()
    assert res == full and res.total_time.hex() == full.total_time.hex()
    assert res.events_fired == full.events_fired
    assert resumed.engine.queue.next_seq == full_sim.engine.queue.next_seq
    assert rank_states(resumed) == rank_states(full_sim)
    assert rank_states(resumed) == rank_states(run_per_rank_replica(planned))



def test_autosnapshots_of_a_run_ahead_run_fall_where_a_traced_run_takes_them(tmp_path):
    """An autosnapshot cadence caps the inline window below its next
    check, so an untraced run, which runs ahead, takes its snapshots
    between the same events (count, clock, seqs) as a traced run, and
    each restores to the uninterrupted result."""
    full = build_campaign_simulator(MIXED_SPEC, 6, RecoveryPolicy()).run()
    stops = []
    for traced in (False, True):
        sim = build_campaign_simulator(MIXED_SPEC, 6, RecoveryPolicy())
        sim.engine.trace = traced
        store = SnapshotStore(str(tmp_path / f"traced{traced}"))
        sim.enable_snapshots(store.directory, every_events=150, keep=1 << 20)
        with inline_releases() as inline:
            assert sim.run() == full
        assert bool(inline) != traced
        resumed = [BESSTSimulator.restore(path) for path in store.paths()]
        stops.append(
            [(r.engine.events_fired, r.engine.now, r.engine.queue.next_seq) for r in resumed]
        )
        if not traced:
            assert all(r.run() == full for r in resumed[::4])
    assert stops[0] == stops[1] and len(stops[0]) > 10


def test_arrivals_after_an_inline_release_key_on_it(planned, monkeypatch):
    """Ranks that reach a collective in the release that freed them
    (back-to-back collectives, stepped per rank) key their arrivals on
    that release, as per rank, whether it fired inline or from the
    heap."""
    arms = []  # per arm: call index -> the firing keys of its arrivals
    arrive = simulator_mod._SyncDomain.arrive

    def spy(self, comp, call_index, instr):
        arms[-1].setdefault(call_index, []).append(self.sim.engine.firing.sort_key())
        arrive(self, comp, call_index, instr)

    monkeypatch.setattr(simulator_mod._SyncDomain, "arrive", spy)
    for per_rank in (False, True):
        arms.append({})
        sim = make_sim(app="same_program", monte_carlo=False, record_timelines="none")
        with inline_releases() as inline:
            if per_rank:
                run_per_rank(planned, sim)
            else:
                sim.run()
        assert bool(inline) != per_rank
    ahead, reference = arms
    assert ahead and all(ahead[call] == reference[call] for call in ahead)
