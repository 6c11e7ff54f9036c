"""Pinned outputs of Monte-Carlo simulations (not covered by the golden suite).

The golden fixtures are all ``monte_carlo=False`` campaigns.  The first
cases run stochastic models under a checkpointing, fault-injecting
scenario and compare bit-exact results with constants recorded before the
simulator's instruction interpreter was compiled into shared rows.  They
fail if the order or number of model draws changes, or if two unequal
instructions ever share a price.  The fault-free LULESH cases were
recorded before fault-free SPMD segments were stepped for all ranks at
once, which is the path they exercise.
"""

import hashlib

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
    RecoveryPolicy,
    Verify,
)
from repro.core.fault_injection import FaultInjector, FaultModel
from repro.core.ft import scenario_l1_l2
from repro.models import CallableModel, SymbolicRegressionModel
from repro.network import Torus

SCENARIO = scenario_l1_l2(period=4).with_verification(3)
TIMESTEPS = 16
NRANKS = 16


# -- recorded before the interpreter used compiled rows ---------------------------

SPMD_TOTAL = "0x1.2ebe36aff598dp+6"
SPMD_EVENTS = 1929
SPMD_MARKS = [
    ("0x1.ebe3cfb00b979p-1", 1),
    ("0x1.55cfbabed1aa0p+0", 2),
    ("0x1.848d6a5f4bab1p+2", 1),
    ("0x1.a18f8b6117a9ap+2", 2),
    ("0x1.1477200b80743p+3", 1),
    ("0x1.3213843656266p+3", 2),
    ("0x1.183a7fa5f7f2bp+4", 1),
    ("0x1.2a868c0864f91p+4", 2),
    ("0x1.15692b7a8f5cap+5", 1),
    ("0x1.1e9e11ba08a1cp+5", 2),
    ("0x1.4b4ccc44778e0p+5", 1),
    ("0x1.4f80e281dede7p+5", 2),
    ("0x1.8e744e902009ap+5", 1),
    ("0x1.924e6a86eaa65p+5", 2),
    ("0x1.a5404633ced74p+5", 1),
    ("0x1.a9e647b4c1145p+5", 2),
    ("0x1.241db24129e38p+6", 1),
    ("0x1.2678d0a254023p+6", 2),
    ("0x1.2ba436f7bd01bp+6", 1),
    ("0x1.2dd7f0a3440f3p+6", 2),
]

RANKDEP_TOTAL = "0x1.5f298bda3baaep+6"
RANKDEP_EVENTS = 1924
RANKDEP_FINISH = [
    "0x1.5c52dd26523a8p+6",
    "0x1.5ccb62018bfe4p+6",
    "0x1.5c962fef14278p+6",
    "0x1.5ce3b7a81f894p+6",
    "0x1.5c702fc47a75fp+6",
    "0x1.5c9c74f87ead8p+6",
    "0x1.5d2b7174a236ep+6",
    "0x1.5c132ac336341p+6",
    "0x1.5da2b7b0b59aep+6",
    "0x1.5c848717c69dep+6",
    "0x1.5f298bda3baaep+6",
    "0x1.5e69fdae74f36p+6",
    "0x1.5ce6dbacf8b7ap+6",
    "0x1.5c104ceada0cdp+6",
    "0x1.5c1957897e8a9p+6",
    "0x1.5c367b3d26e6dp+6",
]


def _noisy(base):
    """Stochastic model: ``base * n`` with a per-draw lognormal factor."""

    def fn(params, rng):
        scale = base * params.get("n", 1.0) * params.get("w", 1.0)
        return scale * float(rng.lognormal(0.0, 0.2)) if rng is not None else scale

    return CallableModel(fn, stochastic=True)


def _arch():
    arch = ArchBEO("mc", topology=Torus((4, 4)), cores_per_node=2)
    arch.bind("work", _noisy(0.01))
    arch.bind("fti_l1", _noisy(0.02))
    arch.bind("fti_l2", _noisy(0.05))
    arch.bind("abft_verify", _noisy(0.003))
    arch.recovery_time_s = 0.5
    return arch


def _app(rank_dependent):
    def builder(rank, nranks, params):
        n = params["n"]
        # Rank-dependent programs give each rank its own params; an SPMD
        # program is the same instruction list on every rank.
        w = 1.0 + (rank % 4) / 4 if rank_dependent else 1.0
        body = []
        for ts in range(1, TIMESTEPS + 1):
            body.append(Marker(f"ts{ts}"))
            body.append(Compute.of("work", n=n, w=w))
            body.append(Exchange(nbytes=4096, neighbors=4))
            body.append(Compute.of("work", n=n / 2, w=w))
            if SCENARIO.verification_due(ts):
                body.append(Verify.of(SCENARIO.VERIFY_KERNEL, n=n))
            body.append(Collective("allreduce", nbytes=8))
            for level in SCENARIO.checkpoints_due(ts):
                body.append(Checkpoint.of(level, SCENARIO.kernel_for(level), n=n))
        return body

    return AppBEO("mc_app", builder, default_params={"n": 10.0})


def _run(rank_dependent):
    arch = _arch()
    injector = FaultInjector(
        FaultModel(
            node_mtbf_s=12.0,
            kind_weights={
                "software": 0.3,
                "node": 0.2,
                "sdc": 0.2,
                "straggler": 0.15,
                "link": 0.15,
            },
        ),
        nnodes=NRANKS // 2,
        seed=99,
    )
    sim = BESSTSimulator(
        _app(rank_dependent),
        arch,
        nranks=NRANKS,
        seed=5,
        monte_carlo=True,
        fault_injector=injector,
        recovery_policy=RecoveryPolicy(),
    )
    return sim.run()


def test_spmd_monte_carlo_run_is_pinned():
    res = _run(rank_dependent=False)
    assert res.total_time.hex() == SPMD_TOTAL
    assert res.events_fired == SPMD_EVENTS
    assert [(t.hex(), lvl) for t, lvl in res.checkpoint_marks()] == SPMD_MARKS


def test_rank_dependent_monte_carlo_run_is_pinned():
    res = _run(rank_dependent=True)
    assert res.total_time.hex() == RANKDEP_TOTAL
    assert res.events_fired == RANKDEP_EVENTS
    assert [t.hex() for t in res.finish_times] == RANKDEP_FINISH


# -- fault-free LULESH, recorded before segments were array-stepped -----------

LULESH_NRANKS = 27
#: 52 timesteps: the ``ts50`` marker is included
LULESH_TIMESTEPS = 52

#: digests (see :func:`_digest`) pin the float-hex finish times, rank-0
#: timeline rows and checkpoint marks
MC_LULESH_TOTAL = "0x1.8bca61cc437c7p+3"
MC_LULESH_EVENTS = 1995
MC_LULESH_FINISH = "971a3ff6bbc4b531"
MC_LULESH_ROWS0 = "f01e357b3795e718"
MC_LULESH_MARKS = "92bcc45e38e89b02"

DET_LULESH_TOTAL = "0x1.b4dd1972ae226p+2"
DET_LULESH_EVENTS = 1995
DET_LULESH_FINISH = "da6d76e5604b2cd1"
DET_LULESH_ROWS0 = "7c1d5dd831ba905e"
DET_LULESH_ROWS_ALL = "013d48e0240f5e27"
DET_LULESH_MARKS = "263f59497b5f4ff8"


def _sr(expr, factors):
    return SymbolicRegressionModel(expr, ["epr", "ranks"], noise_factors=factors)


def _lulesh_arch():
    """Models whose factor tables differ in size, so draw bounds are mixed."""
    arch = ArchBEO("mc-lulesh", topology=Torus((3, 3, 3)), cores_per_node=2)
    arch.bind("lulesh_timestep", _sr("0.02 + 0.001 * epr", [0.93, 1.0, 1.02, 1.07, 1.31]))
    arch.bind("fti_l1", _sr("0.05 + 0.0001 * ranks", [0.8, 1.0, 1.6]))
    arch.bind("fti_l2", _sr("0.2 + 0.01 * epr", [0.9, 0.95, 1.0, 1.0, 1.05, 1.1, 2.2]))
    arch.bind("abft_verify", _sr("0.004 * epr", [0.99, 1.01]))
    return arch


def _lulesh_run(**kwargs):
    app = lulesh_appbeo(LULESH_TIMESTEPS, SCENARIO)
    sim = BESSTSimulator(app, _lulesh_arch(), nranks=LULESH_NRANKS, seed=3, **kwargs)
    return sim.run()


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _hex_rows(timeline):
    return [(e.t_start.hex(), e.t_end.hex(), e.kind, e.label, e.level) for e in timeline.entries]


def test_fault_free_monte_carlo_lulesh_is_pinned():
    res = _lulesh_run()
    assert res.total_time.hex() == MC_LULESH_TOTAL
    assert res.events_fired == MC_LULESH_EVENTS
    assert _digest([t.hex() for t in res.finish_times]) == MC_LULESH_FINISH
    assert _digest(_hex_rows(res.timelines[0])) == MC_LULESH_ROWS0
    assert _digest([(t.hex(), lvl) for t, lvl in res.checkpoint_marks()]) == MC_LULESH_MARKS


def test_fault_free_deterministic_lulesh_all_timelines_is_pinned():
    res = _lulesh_run(monte_carlo=False, record_timelines="all")
    assert res.total_time.hex() == DET_LULESH_TOTAL
    assert res.events_fired == DET_LULESH_EVENTS
    assert _digest([t.hex() for t in res.finish_times]) == DET_LULESH_FINISH
    assert _digest(_hex_rows(res.timelines[0])) == DET_LULESH_ROWS0
    all_rows = [_hex_rows(res.timelines[r]) for r in range(LULESH_NRANKS)]
    assert _digest(all_rows) == DET_LULESH_ROWS_ALL
    assert _digest([(t.hex(), lvl) for t, lvl in res.checkpoint_marks()]) == DET_LULESH_MARKS
