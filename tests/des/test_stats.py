"""Engine statistics utilities."""

import pytest

from repro.des import Component, Engine
from repro.des.link import connect
from repro.des.stats import EventCounter, UtilizationTracker, event_rate


class Chatter(Component):
    def __init__(self, name, count):
        super().__init__(name)
        self.count = count

    def setup(self):
        for i in range(self.count):
            self.schedule(float(i), lambda ev: self.send("out", "hi"))

    def handle_event(self, port_name, payload, time):
        pass


def build():
    eng = Engine(trace=True)
    a = eng.register(Chatter("a", 3))
    b = eng.register(Chatter("b", 1))
    connect(a, "out", b, "in", latency=0.1)
    connect(b, "out", a, "in2", latency=0.1)
    eng.run()
    return eng


def test_event_counter_counts():
    eng = build()
    counter = EventCounter(eng)
    assert counter.total() == eng.events_fired
    by_dst = counter.by_destination()
    # a self-schedules 3 + receives 1; b self-schedules 1 + receives 3
    assert by_dst["a"] == 4 and by_dst["b"] == 4


def test_event_counter_requires_trace():
    with pytest.raises(ValueError):
        EventCounter(Engine(trace=False))


def test_utilization_tracker():
    u = UtilizationTracker()
    u.add_busy("cpu", 2.0)
    u.add_busy("cpu", 3.0)
    assert u.busy_time("cpu") == 5.0
    assert u.utilization("cpu", horizon=10.0) == 0.5
    assert u.utilization("cpu", horizon=4.0) == 1.0  # clamped
    assert u.utilization("idle", horizon=10.0) == 0.0
    assert u.report(10.0) == {"cpu": 0.5}
    with pytest.raises(ValueError):
        u.add_busy("cpu", -1)
    with pytest.raises(ValueError):
        u.utilization("cpu", 0)


def test_event_rate():
    eng = Engine()
    c = eng.register(Chatter("c", 5))
    eng.register(Chatter("d", 0))
    connect(c, "out", eng.components["d"], "in", latency=0.1)
    wall, rate = event_rate(eng, eng.run)
    assert wall >= 0
    assert rate > 0
