"""Collective-phase stepping keeps per-rank event semantics exactly.

A hook-free batch (no ``Checkpoint``/``Verify``) that ends at a collective
gets no heap event of its own: its rank arrives at the rendezvous at once
and the arrival is committed when the engine passes its
``(time, priority, seq)`` key.  The cases below pin runs whose outcome
depends on exactly where each such arrival sits in that order:

* the full flight-recorder ring of a mixed-fault run, ticks included
  (a tick samples ``events_fired``, which counts lazy arrivals);
* a fail-stop fault at exactly a lazy arrival's time, ordered once before
  and once after it;
* a ``link`` fault between a phase's first and last arrival, which the
  collective's price must see.

The constants were recorded with one heap event per rank batch.
"""

import hashlib
import json

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
from repro.core.campaign import CampaignSpec, build_campaign_simulator
from repro.core.fault_injection import FaultDetail
from repro.des.event import Event
from repro.models import CallableModel
from repro.network import Torus
from repro.obs.flightrec import FlightRecorder

# -- recorded with one heap event per rank batch ----------------------------------

FLIGHT_EVENTS = 890
FLIGHT_TICKS = [
    ("0x1.70a80978119d3p-2", 64),
    ("0x1.07b0bab5828a3p+0", 128),
    ("0x1.8f606c2a8e5ccp+0", 192),
    ("0x1.6c9853cc05a54p+1", 256),
    ("0x1.dd3cfe5bd5d85p+1", 320),
    ("0x1.42c940abed891p+2", 384),
    ("0x1.73ba379382148p+2", 448),
    ("0x1.a8d959a836fadp+2", 512),
    ("0x1.ddf8587bfe160p+2", 576),
    ("0x1.0c871e5501e78p+3", 640),
    ("0x1.68a80063324aep+5", 704),
    ("0x1.6b8954a890425p+5", 768),
    ("0x1.6fb25b34d6ef3p+5", 832),
]
FLIGHT_RING_SHA = "59f3449b863ebe63"

EDGE_PINS = {
    "before": {
        "total": "0x1.8df22037be12bp-1",
        "events": 307,
        "timelines": [
            "889c0005618ba0d1",
            "b4247d3b42d78d1a",
            "8d5c26ea3353f03e",
            "44dc27952d3b541e",
            "2527e2306f046b57",
            "a8f555fb4795284c",
            "b4aa472fe2f7412b",
            "b9a18ebf7e04aa87",
            "3fdd4257a2771bdc",
            "166b534f46d4dd72",
            "04825e3b6017aa97",
            "9a404cc8ad409529",
            "8dc05245c5c7f2fa",
            "990e10e179664ff5",
            "043253eb64acf6c1",
            "e6649dcfe785f1de",
        ],
    },
    "after": {
        "total": "0x1.8df22037be12bp-1",
        "events": 309,
        "timelines": [
            "889c0005618ba0d1",
            "b4247d3b42d78d1a",
            "8d5c26ea3353f03e",
            "a9462dafe7e65cac",
            "2527e2306f046b57",
            "a8f555fb4795284c",
            "b4aa472fe2f7412b",
            "b9a18ebf7e04aa87",
            "3fdd4257a2771bdc",
            "166b534f46d4dd72",
            "04825e3b6017aa97",
            "9a404cc8ad409529",
            "8dc05245c5c7f2fa",
            "990e10e179664ff5",
            "043253eb64acf6c1",
            "e6649dcfe785f1de",
        ],
    },
    "link": {
        "total": "0x1.e875b81933b0bp-2",
        "events": 204,
        "timelines": [
            "8e7d9c25a47e0565",
            "f81bdd5b2104ea75",
            "ce3b8e0b3c5d6563",
            "6d782d3c0006abab",
            "9e18c4bb341b5b37",
            "bf9adab13d4dacfd",
            "22366b13079bcf06",
            "84fea349c79b7d5c",
            "c9edd6b990baeb4f",
            "d3dc97f0e0e9043f",
            "b496b7a6eabf2f14",
            "98c21fea873b4056",
            "45379425f76cc8da",
            "2c0bdd207885ddc1",
            "4178b203afec0c3a",
            "7ef6b1b09ed6bbc0",
        ],
    },
}


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


# -- flight-recorder ring ---------------------------------------------------------


def _flight_run():
    spec = CampaignSpec(
        node_mtbf_s=2.0,
        ckpt_period=3,
        timesteps=12,
        nranks=16,
        nnodes=8,
        verify_period=2,
        net_topology="torus",
        fault_mix=(
            ("link", 0.2),
            ("node", 0.2),
            ("sdc", 0.2),
            ("software", 0.2),
            ("straggler", 0.2),
        ),
    )
    sim = build_campaign_simulator(spec, 2, RecoveryPolicy())
    rec = FlightRecorder(capacity=8192, tick_stride=64)
    sim.attach_flightrec(rec)
    return sim.run(), list(rec.ring)


def test_flight_ring_with_ticks_is_pinned():
    res, ring = _flight_run()
    assert res.events_fired == FLIGHT_EVENTS
    ticks = [(r["t"].hex(), r["events"]) for r in ring if r["kind"] == "tick"]
    assert ticks == FLIGHT_TICKS
    assert _sha(ring) == FLIGHT_RING_SHA


# -- faults at the edges of a lazy arrival ----------------------------------------

NRANKS = 16
TIMESTEPS = 10


def _noisy(base):
    def fn(params, rng):
        scale = base * params.get("n", 1.0)
        return scale * float(rng.lognormal(0.0, 0.2)) if rng is not None else scale

    return CallableModel(fn, stochastic=True)


def _builder(rank, nranks, params):
    """Rank-dependent work; Verify on even ranks only, so one phase mixes
    hooked and hook-free batches; checkpoints every fourth step."""
    body = []
    for ts in range(1, TIMESTEPS + 1):
        body.append(Compute.of("work", n=1.0 + rank % 3))
        if ts % 3 == 0 and rank % 2 == 0:
            body.append(Verify.of("verify"))
        body.append(Exchange(nbytes=4096, neighbors=2))
        body.append(Collective("allreduce", nbytes=1 << 20))
        if ts % 4 == 0:
            body.append(Checkpoint.of(1, "ckpt"))
        body.append(Marker(f"ts{ts}"))
    body.append(Compute.of("work"))
    return body


def _sim(record="all"):
    arch = ArchBEO("edge", topology=Torus((4, 4)), cores_per_node=2)
    arch.bind("work", _noisy(0.01))
    arch.bind("ckpt", _noisy(0.02))
    arch.bind("verify", _noisy(0.003))
    arch.recovery_time_s = 0.05
    return BESSTSimulator(
        AppBEO("edge", _builder),
        arch,
        nranks=NRANKS,
        seed=11,
        monte_carlo=True,
        record_timelines=record,
        recovery_policy=RecoveryPolicy(),
    )


def _arrivals(res, phase):
    """Per-rank arrival time at collective *phase* (0-based): the end of
    the row just before that rank's phase-th collective row."""
    out = {}
    for rank, tl in res.timelines.items():
        rows = tl.entries
        idx = [i for i, e in enumerate(rows) if e.kind == "collective"][phase]
        out[rank] = rows[idx - 1].t_end
    return out


def _release(res, rank, phase):
    return [e for e in res.timelines[rank].entries if e.kind == "collective"][phase]


def _at(sim, t, fn):
    """Schedule *fn* at absolute time *t* (no ``now + delay`` rounding)."""
    sim.engine.schedule_event(Event(time=t, handler=lambda ev: fn()))


def _pins(res):
    return {
        "total": res.total_time.hex(),
        "events": res.events_fired,
        "timelines": [
            _sha(
                [
                    (e.t_start.hex(), e.t_end.hex(), e.kind, e.label, e.level)
                    for e in res.timelines[r].entries
                ]
            )
            for r in range(NRANKS)
        ],
    }


#: rank 3 never verifies: its step-6 batch (Compute, Exchange) is hook-free
FAULT_RANK, FAULT_PHASE = 3, 5


def _fault_at_lazy_arrival(order):
    ref = _sim().run()
    t = _arrivals(ref, FAULT_PHASE)[FAULT_RANK]
    start = _release(ref, FAULT_RANK, FAULT_PHASE - 1).t_end
    assert start < t
    sim = _sim()
    node = sim.archbeo.node_of_rank(FAULT_RANK)

    def strike():
        sim.inject_fault(node, kind="node")

    if order == "before":
        # Pushed before the run: a lower seq than the batch, so the fault
        # fires first and the arrival never happens.
        _at(sim, t, strike)
    else:
        # Pushed after the batch was priced: the arrival fires first.
        _at(sim, (start + t) / 2, lambda: _at(sim, t, strike))
    res = sim.run()
    assert res.faults_injected == 1 and res.rollbacks == 1
    return res


def test_fault_ordered_before_a_lazy_arrival_is_pinned():
    assert _pins(_fault_at_lazy_arrival("before")) == EDGE_PINS["before"]


def test_fault_ordered_after_a_lazy_arrival_is_pinned():
    assert _pins(_fault_at_lazy_arrival("after")) == EDGE_PINS["after"]


LINK_PHASE = 6


def test_link_fault_mid_phase_reprices_the_collective():
    ref = _sim().run()
    arrivals = _arrivals(ref, LINK_PHASE)
    first, last = min(arrivals.values()), max(arrivals.values())
    assert first < last
    sim = _sim()
    _at(
        sim,
        (first + last) / 2,
        lambda: sim.inject_fault(0, kind="link", detail=FaultDetail(edge=(0, 1), repair_s=1e3)),
    )
    res = sim.run()
    assert res.net["faults"] == 1
    # the fault changes this phase's price (and so everything after it)
    assert _release(res, 0, LINK_PHASE).duration != _release(ref, 0, LINK_PHASE).duration
    assert _pins(res) == EDGE_PINS["link"]


# -- rendezvous state does not outlive its phase ----------------------------------


def test_fault_free_run_leaves_no_rendezvous_state():
    spec = CampaignSpec(node_mtbf_s=8.0, ckpt_period=3, timesteps=12, nranks=16)
    sim = build_campaign_simulator(spec, 0, RecoveryPolicy(), inject=False)
    res = sim.run()
    assert res.faults_injected == 0 and res.events_fired > 0
    assert sim.sync._pending is None
    assert sim.sync._arrivals == {}
    assert sim.engine._lazy == []


def test_lazy_arrivals_hold_a_batch_only_for_recorded_ranks():
    ref = _sim(record="rank0").run()
    sim = _sim(record="rank0")
    # stop right after the first release: every rank has priced its
    # hook-free step-2 batch and arrived lazily
    sim.engine.run(until=_release(ref, 0, 0).t_end)
    lazy = sim.engine._lazy
    assert lazy
    for _t, _prio, _seq, commit, batch in lazy:
        # only rank 0 is recorded: any other lazy arrival is a bare count
        assert (commit, batch) == (None, None) or commit.__self__.rank == 0
    res = sim.run()  # and the interrupted run continues unchanged
    assert (res.total_time, res.events_fired) == (ref.total_time, ref.events_fired)
    assert res.timelines[0].entries == ref.timelines[0].entries
