"""Unit tests for the sequential engine, components, links and clocks."""

import pytest

from repro.des import Component, Engine, EventJournal, Link, ParallelEngine, SimulationError
from repro.des.link import connect
from repro.obs import EngineObs, FlightRecorder, MetricsRegistry


class Recorder(Component):
    """Collects (time, port, payload) for every event it receives."""

    def __init__(self, name):
        super().__init__(name)
        self.received = []
        self.setup_called = False
        self.finish_called = False

    def setup(self):
        self.setup_called = True

    def finish(self):
        self.finish_called = True

    def handle_event(self, port_name, payload, time):
        self.received.append((time, port_name, payload))


class Pinger(Component):
    """Sends `count` pings out of port 'out', spaced by `gap` seconds."""

    def __init__(self, name, count, gap=1.0):
        super().__init__(name)
        self.count = count
        self.gap = gap

    def setup(self):
        for i in range(self.count):
            self.schedule(i * self.gap, self._fire, payload=i)

    def _fire(self, ev):
        self.send("out", ev.payload)

    def handle_event(self, port_name, payload, time):
        pass


def test_register_and_run_empty():
    eng = Engine()
    eng.register(Recorder("r"))
    assert eng.run() == 0.0
    assert eng.components["r"].finish_called


def test_duplicate_name_rejected():
    eng = Engine()
    eng.register(Recorder("x"))
    with pytest.raises(SimulationError):
        eng.register(Recorder("x"))


def test_component_cannot_join_two_engines():
    c = Recorder("c")
    Engine().register(c)
    with pytest.raises(SimulationError):
        Engine().register(c)


def test_self_schedule_advances_clock():
    eng = Engine()
    r = eng.register(Recorder("r"))
    marks = []
    r.engine = eng  # already set by register; keep explicit for clarity
    eng.schedule(5.0, lambda ev: marks.append(eng.now))
    assert eng.run() == 5.0
    assert marks == [5.0]


def test_link_delivers_with_latency():
    eng = Engine()
    src = eng.register(Pinger("src", count=3, gap=1.0))
    dst = eng.register(Recorder("dst"))
    connect(src, "out", dst, "in", latency=0.25)
    eng.run()
    assert dst.received == [(0.25, "in", 0), (1.25, "in", 1), (2.25, "in", 2)]


def test_link_requires_positive_latency():
    eng = Engine()
    a = eng.register(Recorder("a"))
    b = eng.register(Recorder("b"))
    with pytest.raises(ValueError):
        Link(a.port("x"), b.port("y"), latency=0.0)


def test_port_single_link():
    eng = Engine()
    a = eng.register(Recorder("a"))
    b = eng.register(Recorder("b"))
    c = eng.register(Recorder("c"))
    connect(a, "p", b, "p", latency=1.0)
    with pytest.raises(ValueError):
        connect(a, "p", c, "p", latency=1.0)


def test_cross_engine_link_rejected():
    e1, e2 = Engine(), Engine()
    a = e1.register(Recorder("a"))
    b = e2.register(Recorder("b"))
    with pytest.raises(ValueError):
        connect(a, "p", b, "p", latency=1.0)


def test_send_on_unconnected_port_raises():
    eng = Engine()
    a = eng.register(Recorder("a"))
    with pytest.raises(RuntimeError):
        a.send("nowhere", 42)


def test_run_until_pauses_and_resumes():
    eng = Engine()
    src = eng.register(Pinger("src", count=5, gap=1.0))
    dst = eng.register(Recorder("dst"))
    connect(src, "out", dst, "in", latency=0.5)
    eng.run(until=2.0)
    assert len(dst.received) == 2  # arrivals at 0.5, 1.5
    assert eng.now == 2.0
    eng.run()
    assert len(dst.received) == 5


def test_event_at_exact_until_horizon_fires():
    eng = Engine()
    hits = []
    eng.schedule(2.0, lambda ev: hits.append(eng.now))
    eng.run(until=2.0)
    assert hits == [2.0]


def test_negative_delay_rejected():
    eng = Engine()
    r = eng.register(Recorder("r"))
    with pytest.raises(ValueError):
        r.schedule(-1.0, lambda ev: None)


def test_past_event_rejected():
    from repro.des.event import Event

    eng = Engine()
    eng.schedule(1.0, lambda ev: None)
    eng.run()
    with pytest.raises(SimulationError):
        eng.schedule_event(Event(time=0.5, handler=lambda ev: None))


def test_max_events_guard():
    eng = Engine()
    r = eng.register(Recorder("r"))

    def loop(ev):
        r.schedule(0.0, loop)

    r.engine.schedule(0.0, loop)
    with pytest.raises(SimulationError):
        eng.run(max_events=100)
    # the counter reports only events whose handlers actually ran
    assert eng.events_fired == 100


def test_max_events_exact_budget_completes():
    """A run needing exactly max_events handlers must not trip the guard."""
    eng = Engine()
    r = eng.register(Recorder("r"))
    for i in range(10):
        r.schedule(float(i), lambda ev: None)
    eng.run(max_events=10)
    assert eng.events_fired == 10
    # a subsequent run gets a fresh budget
    r.schedule(100.0, lambda ev: None)
    eng.run(max_events=1)
    assert eng.events_fired == 11


def test_cancel_via_engine():
    eng = Engine()
    hits = []
    ev = eng.schedule(1.0, lambda e: hits.append(1))
    eng.cancel(ev)
    eng.run()
    assert hits == [] and len(eng.queue) == 0


def test_rng_streams_independent_and_deterministic():
    def draw(seed):
        eng = Engine(seed=seed)
        a = eng.register(Recorder("a"))
        b = eng.register(Recorder("b"))
        return a.rng.random(3).tolist(), b.rng.random(3).tolist()

    a1, b1 = draw(7)
    a2, b2 = draw(7)
    a3, _ = draw(8)
    assert a1 == a2 and b1 == b2
    assert a1 != b1
    assert a1 != a3


def test_events_fired_counter_and_trace():
    eng = Engine(trace=True)
    src = eng.register(Pinger("src", count=2, gap=1.0))
    dst = eng.register(Recorder("dst"))
    connect(src, "out", dst, "in", latency=0.1)
    eng.run()
    assert eng.events_fired == 4  # 2 self fires + 2 deliveries
    assert len(eng.trace_log) == 4
    times = [t[0] for t in eng.trace_log]
    assert times == sorted(times)


# -- lazy events --------------------------------------------------------------


def test_lazy_events_commit_in_queue_order():
    eng = Engine()
    log = []
    eng.schedule(1.0, lambda ev: log.append(("heap", ev.time)))
    eng.defer(1.0, lambda t, p: log.append(("lazy", t, p)), "a")  # later seq
    eng.defer(0.5, lambda t, p: log.append(("lazy", t, p)), "b")
    eng.defer(2.0)  # counted only
    eng.schedule(3.0, lambda ev: log.append(("heap", ev.time)))
    eng.run()
    assert log == [("lazy", 0.5, "b"), ("heap", 1.0), ("lazy", 1.0, "a"), ("heap", 3.0)]
    assert eng.events_fired == 5


def test_lazy_events_respect_the_until_horizon():
    eng = Engine()
    seen = []
    eng.defer(1.0, lambda t, p: seen.append(t))
    eng.defer(5.0, lambda t, p: seen.append(t))
    eng.run(until=2.0)
    assert seen == [1.0] and eng.events_fired == 1
    eng.run()
    assert seen == [1.0, 5.0] and eng.events_fired == 2


def test_undefer_and_drop_lazy_withdraw_events():
    eng = Engine()
    seen = []
    keep = eng.defer(1.0, lambda t, p: seen.append(p), "keep")
    gone = eng.defer(2.0, lambda t, p: seen.append(p), "gone")
    eng.undefer(gone)
    eng.run()
    assert seen == ["keep"] and keep[2] < gone[2]
    eng.defer(1.0, lambda t, p: seen.append(p), "dropped")
    eng.drop_lazy()
    eng.run()
    assert seen == ["keep"] and eng.events_fired == 1


def test_max_events_counts_lazy_events():
    eng = Engine()
    for i in range(5):
        eng.defer(float(i))
    eng.schedule(10.0, lambda ev: None)
    with pytest.raises(SimulationError):
        eng.run(max_events=5)
    assert eng.events_fired == 5


class WindowProbe(Component):
    """Records the engine's inline window as its one event fires."""

    def __init__(self):
        super().__init__("probe")
        self.seen = []

    def setup(self):
        self.schedule(1.0, self._look)

    def _look(self, ev):
        self.seen.append(self.engine.run_ahead)

    def handle_event(self, port_name, payload, time):
        pass


@pytest.mark.parametrize(
    "observer, window",
    [
        (None, (5.0, 10)),
        ("obs", (5.0, 10)),
        ("flight", (5.0, 10)),
        ("autosnap", (5.0, 3)),  # below the first check, at 4 events
        ("trace", None),
        ("journal", None),
        ("parallel", None),
    ],
)
def test_inline_window_closes_only_for_event_recorders(tmp_path, observer, window):
    """``run_ahead`` holds the horizon and the events_fired count that
    events fired inline may reach (the budget's, capped below the next
    autosnapshot check) unless a trace log or event journal records each
    event, and is closed once the run ends.  The parallel engine never
    opens it."""
    eng = ParallelEngine(nparts=1) if observer == "parallel" else Engine()
    probe = eng.register(WindowProbe())
    journal = None
    if observer == "trace":
        eng.trace = True
    elif observer == "journal":
        journal = EventJournal(str(tmp_path / "events.jsonl"))
        eng.attach_journal(journal)
    elif observer == "obs":
        eng.attach_obs(EngineObs(registry=MetricsRegistry()))
    elif observer == "flight":
        eng.attach_flightrec(FlightRecorder())
    elif observer == "autosnap":
        eng.enable_autosnapshot(str(tmp_path), every_events=4)
    eng.run(until=5.0, max_events=10)
    if journal is not None:
        journal.close()
    assert probe.seen == [window]
    assert eng.run_ahead is None
