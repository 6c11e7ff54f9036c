"""Parallel engine: block partitioning and sequential-equivalence tests."""

from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import (
    Component,
    Engine,
    EventJournal,
    ParallelEngine,
    SimulationError,
    trace_digest,
)
from repro.des.link import connect
from repro.des.parallel import block_partition
from repro.obs.flightrec import FlightRecorder


class RingNode(Component):
    """Passes a token around a ring `laps` times, recording visits."""

    def __init__(self, name, laps):
        super().__init__(name)
        self.laps = laps
        self.visits = []

    def start(self):
        self.send("next", {"lap": 0})

    def handle_event(self, port_name, payload, time):
        self.visits.append(round(time, 12))
        lap = payload["lap"]
        if port_name == "prev":
            if self.name.endswith("_0"):
                lap += 1
            if lap < self.laps:
                self.send("next", {"lap": lap})


class NoisyWorker(Component):
    """Does random-length 'work' bursts and reports to a sink."""

    def __init__(self, name, bursts):
        super().__init__(name)
        self.bursts = bursts
        self.total = 0.0

    def setup(self):
        self.schedule(0.0, self._work, payload=self.bursts)

    def _work(self, ev):
        remaining = ev.payload
        if remaining <= 0:
            return
        dt = float(self.rng.exponential(1.0)) + 1e-6
        self.total += dt
        self.send("out", {"dt": dt})
        self.schedule(dt, self._work, payload=remaining - 1)

    def handle_event(self, port_name, payload, time):
        pass


class Sink(Component):
    def __init__(self, name):
        super().__init__(name)
        self.log = []

    def handle_event(self, port_name, payload, time):
        self.log.append((round(time, 12), port_name, payload["dt"]))


def build_ring(engine, n=8, laps=3, latency=0.5):
    nodes = [engine.register(RingNode(f"n_{i}", laps)) for i in range(n)]
    for i in range(n):
        connect(nodes[i], "next", nodes[(i + 1) % n], "prev", latency=latency)
    nodes[0].engine.schedule(0.0, lambda ev: nodes[0].start())
    return nodes


def build_workers(engine, n=6, bursts=10, latency=0.25):
    sink = engine.register(Sink("sink"))
    for i in range(n):
        w = engine.register(NoisyWorker(f"w_{i}", bursts))
        connect(w, "out", sink, f"in_{i}", latency=latency)
    return sink


def test_ring_sequential_vs_parallel():
    # one token in flight: no two partitions ever share a window's events,
    # so the whole trace (seq stamps included) matches the sequential one
    seq = Engine(seed=3, trace=True)
    nodes_s = build_ring(seq, n=8, laps=3)
    seq.run()

    for nparts in (1, 2, 3, 8):
        par = ParallelEngine(nparts=nparts, seed=3, trace=True)
        nodes_p = build_ring(par, n=8, laps=3)
        par.run()
        for a, b in zip(nodes_s, nodes_p):
            assert a.visits == b.visits, f"nparts={nparts}"
        assert trace_digest(par) == trace_digest(seq), f"nparts={nparts}"
        assert par.events_fired == seq.events_fired


class Starter(Component):
    """Kicks a ring off from its own bound-method event, sending via n_0."""

    def setup(self):
        self.schedule(0.0, self._go)

    def _go(self, ev):
        self.engine.components["n_0"].send("next", {"lap": 0})

    def handle_event(self, port_name, payload, time):  # pragma: no cover
        pass


def build_started_ring(engine, starter, n=8, laps=5, latency=0.5):
    nodes = [engine.register(RingNode(f"n_{i}", laps)) for i in range(n)]
    for i in range(n):
        connect(nodes[i], "next", nodes[(i + 1) % n], "prev", latency=latency)
    engine.register(Starter(starter))
    return nodes


def started_ring_reference(starter):
    seq = Engine(seed=3, trace=True)
    build_started_ring(seq, starter)
    seq.run()
    return seq


@pytest.mark.parametrize("starter", ["aa_start", "zz_start"])
def test_started_ring_trace_identical_to_sequential(starter):
    # the starter sorts into n_0's partition ("aa_") or into the last one
    # ("zz_"), where its kick-off event fires away from the sending port
    seq = started_ring_reference(starter)
    par = ParallelEngine(nparts=4, seed=3, trace=True)
    build_started_ring(par, starter)
    par.run()

    assert par._assignment[starter] == (0 if starter == "aa_start" else 3)
    assert trace_digest(par) == trace_digest(seq)
    assert par.events_fired == seq.events_fired
    for name, comp in seq.components.items():
        if isinstance(comp, RingNode):
            assert par.components[name].visits == comp.visits


def test_started_ring_resumed_run_matches_sequential():
    # stopping mid-run and running on gives the uninterrupted trace
    seq = started_ring_reference("zz_start")
    par = ParallelEngine(nparts=4, seed=3, trace=True)
    build_started_ring(par, "zz_start")
    par.run(until=7.0)
    assert 0 < par.events_fired < seq.events_fired
    par.run()

    assert trace_digest(par) == trace_digest(seq)
    assert par.events_fired == seq.events_fired


def received(engine):
    """Each component's received events, in the order it saw them."""
    out = defaultdict(list)
    for time, _prio, _seq, src, dst in engine.trace_log:
        out[dst].append((time, src))
    return dict(out)


def fired_multiset(engine):
    return Counter((t, prio, src, dst) for t, prio, _seq, src, dst in engine.trace_log)


def test_noisy_workers_equivalence():
    # Workers in different partitions are busy inside the same window, and
    # partitions run one after another, so the global interleaving (and the
    # seq stamps) differ from the sequential trace.  What each component
    # observes does not.
    seq = Engine(seed=11, trace=True)
    sink_s = build_workers(seq)
    seq.run()

    for nparts in (1, 2, 4, 7):
        par = ParallelEngine(nparts=nparts, seed=11, trace=True)
        sink_p = build_workers(par)
        par.run()

        assert received(par) == received(seq), f"nparts={nparts}"
        assert fired_multiset(par) == fired_multiset(seq), f"nparts={nparts}"
        assert par.events_fired == seq.events_fired
        assert sink_p.log == sink_s.log


def test_parallel_executes_multiple_windows():
    par = ParallelEngine(nparts=2, seed=0)
    build_ring(par, n=4, laps=5, latency=0.5)
    par.run()
    assert par.windows_executed > 1
    assert par.lookahead == 0.5


def test_lookahead_infinite_without_cross_links():
    # the block split keeps each worker next to its own sink
    par = ParallelEngine(nparts=2, seed=0)
    sinks = []
    for group in "ab":
        sink = par.register(Sink(f"{group}_sink"))
        worker = par.register(NoisyWorker(f"{group}_w", 3))
        connect(worker, "out", sink, "in_0", latency=0.1)
        sinks.append(sink)
    par.run()
    assert par._assignment == {"a_sink": 0, "a_w": 0, "b_sink": 1, "b_w": 1}
    assert par.lookahead == float("inf")
    assert [len(sink.log) for sink in sinks] == [3, 3]


def test_run_until_matches_sequential():
    seq = Engine(seed=5)
    sink_s = build_workers(seq, n=4, bursts=6)
    seq.run(until=3.0)

    par = ParallelEngine(nparts=2, seed=5)
    sink_p = build_workers(par, n=4, bursts=6)
    par.run(until=3.0)

    assert sorted(sink_s.log) == sorted(sink_p.log)
    assert seq.now == par.now == 3.0


def test_invalid_nparts():
    with pytest.raises(SimulationError):
        ParallelEngine(nparts=0)


def test_nparts_exceeding_components_rejected():
    # every partition must own at least one component; silently clamping
    # would make windows_executed/lookahead lie about the topology
    par = ParallelEngine(nparts=5, seed=0)
    build_ring(par, n=4, laps=1)
    with pytest.raises(SimulationError, match="nparts=5 exceeds the 4"):
        par.run()


def test_nparts_exceeding_components_rejected_when_empty():
    par = ParallelEngine(nparts=1)
    with pytest.raises(SimulationError, match="0 registered component"):
        par.run()


def test_zero_latency_cross_partition_link_rejected():
    # Link construction already enforces latency > 0; this guards the
    # engine against post-construction mutation (e.g. a dynamic-latency
    # model extension) that would silently break conservative windows.
    par = ParallelEngine(nparts=2, seed=0)
    build_ring(par, n=4, laps=1, latency=0.5)
    cross = next(  # n_1 -> n_2 spans partitions 0 and 1
        ln for ln in par.links
        if {ln.a.component.name, ln.b.component.name} == {"n_1", "n_2"}
    )
    cross.latency = 0.0
    with pytest.raises(SimulationError, match="zero-latency cross-partition"):
        par.run()
    assert cross.name in _raised_message(par)


def _raised_message(par):
    try:
        par._compute_lookahead()
    except SimulationError as exc:
        return str(exc)
    return ""


def test_zero_latency_internal_link_is_fine():
    # zero lookahead only matters across partitions: an intra-partition
    # link may (hypothetically) carry any latency without breaking windows
    par = ParallelEngine(nparts=2, seed=0)
    build_ring(par, n=4, laps=1, latency=0.5)
    # n_0 <-> n_1 is internal to partition 0
    internal = next(
        ln for ln in par.links
        if {ln.a.component.name, ln.b.component.name} == {"n_0", "n_1"}
    )
    internal.latency = 0.0
    par.run()  # does not raise; cross-partition lookahead still 0.5
    assert par.lookahead == 0.5


def test_parallel_max_events_counts_fired_handlers():
    eng = ParallelEngine(nparts=2, seed=0)
    build_ring(eng, n=8, laps=100)
    with pytest.raises(SimulationError):
        eng.run(max_events=50)
    assert eng.events_fired == 50


# -- sequential-only hooks ----------------------------------------------------


def test_defer_rejected():
    # lazy events are committed only by the sequential loop; accepting one
    # here would drop it silently
    par = ParallelEngine(nparts=2, seed=0)
    build_ring(par, n=2, laps=1)
    with pytest.raises(SimulationError, match="sequential"):
        par.defer(0.5)
    assert par._lazy == []


def test_autosnapshot_rejected(tmp_path):
    par = ParallelEngine(nparts=2, seed=0)
    build_ring(par, n=8, laps=2)
    par.enable_autosnapshot(str(tmp_path), every_events=10)
    with pytest.raises(SimulationError, match="auto-snapshots.*sequential Engine"):
        par.run()
    assert par.events_fired == 0
    assert list(tmp_path.iterdir()) == []


def test_journal_rejected(tmp_path):
    par = ParallelEngine(nparts=2, seed=0)
    build_ring(par, n=8, laps=2)
    with EventJournal(str(tmp_path / "j.jsonl"), fresh=True) as journal:
        par.attach_journal(journal)
        with pytest.raises(SimulationError, match="journal.*sequential Engine"):
            par.run()
    assert par.events_fired == 0


def test_flight_recorder_rejected():
    par = ParallelEngine(nparts=2, seed=0)
    build_ring(par, n=8, laps=2)
    par.attach_flightrec(FlightRecorder(tick_stride=1))
    with pytest.raises(SimulationError, match="flight recorder.*sequential Engine"):
        par.run()
    assert par.events_fired == 0


# -- block partitioning --------------------------------------------------------


def test_block_partition_contiguous_and_balanced():
    names = [f"c{i:02d}" for i in range(10)]
    assign = block_partition(names, 3)
    sizes = [list(assign.values()).count(p) for p in range(3)]
    assert sizes == [4, 3, 3]
    # contiguity in sorted order
    seen = [assign[n] for n in sorted(names)]
    assert seen == sorted(seen)


@given(n=st.integers(min_value=1, max_value=40), data=st.data())
def test_partition_covers_all_names(n, data):
    nparts = data.draw(st.integers(min_value=1, max_value=n))
    names = [f"x{i}" for i in range(n)]
    assign = block_partition(names, nparts)
    assert set(assign) == set(names)
    sizes = Counter(assign.values())
    assert set(sizes) == set(range(nparts))
    assert max(sizes.values()) - min(sizes.values()) <= 1


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(min_value=0, max_value=1000), nparts=st.integers(min_value=1, max_value=5))
def test_equivalence_property(seed, nparts):
    seq = Engine(seed=seed)
    sink_s = build_workers(seq, n=5, bursts=4)
    seq.run()
    par = ParallelEngine(nparts=nparts, seed=seed)
    sink_p = build_workers(par, n=5, bursts=4)
    par.run()
    assert sorted(sink_s.log) == sorted(sink_p.log)
