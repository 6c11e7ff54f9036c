"""Engine instrumentation: busy time, spans, picklability, no result drift."""

import pickle

import pytest

from repro.des import Component, Engine
from repro.des.link import connect
from repro.des.parallel import ParallelEngine
from repro.obs.instrument import EngineObs
from repro.obs.metrics import MetricsRegistry, _Family
from repro.obs.tracing import Tracer


class Chatter(Component):
    def __init__(self, name, count):
        super().__init__(name)
        self.count = count

    def setup(self):
        for i in range(self.count):
            self.schedule(float(i), lambda ev: self.send("out", "hi"))

    def handle_event(self, port_name, payload, time):
        pass


def build(engine=None, count=3):
    eng = engine if engine is not None else Engine()
    a = eng.register(Chatter("a", count))
    b = eng.register(Chatter("b", 1))
    connect(a, "out", b, "in", latency=0.1)
    connect(b, "out", a, "in2", latency=0.1)
    return eng


def test_engine_feeds_utilization_and_counters():
    eng = build()
    reg = MetricsRegistry()
    obs = EngineObs(registry=reg)
    eng.attach_obs(obs)
    eng.run()

    # every fired event's handler time lands in the utilization tracker
    util = obs.utilization.report(horizon=1.0)
    assert "a" in util and "b" in util
    assert all(v >= 0 for v in util.values())

    recs = {
        (r["name"], tuple(sorted(r["labels"].items()))): r["data"]
        for r in reg.collect()
    }
    assert recs[("engine_events_total", ())]["value"] == eng.events_fired
    assert recs[("engine_run_seconds_total", ())]["value"] > 0
    busy = [k for k in recs if k[0] == "engine_component_busy_seconds_total"]
    assert (("component", "a"),) in [k[1] for k in busy]


def test_busy_series_resolved_once_per_adapter(monkeypatch):
    """Each component's busy-seconds series is looked up on the first
    run only, later runs add to it, and a registry reset is seen."""
    eng = build(count=50)
    reg = MetricsRegistry()
    eng.attach_obs(EngineObs(registry=reg))
    with pytest.raises(Exception):
        eng.run(max_events=10)
    busy = reg.counter("engine_component_busy_seconds_total", component="a")
    first = busy.value
    created = []
    get = _Family.get
    monkeypatch.setattr(
        _Family, "get", lambda self, labels: created.append(labels) or get(self, labels)
    )
    with pytest.raises(Exception):
        eng.run(max_events=10)
    assert {"component": "a"} not in created
    assert busy.value > first
    reg.reset()
    eng.run()
    assert {"component": "a"} in created
    assert reg.counter("engine_component_busy_seconds_total", component="a").value > 0


def test_results_identical_with_and_without_obs():
    bare = build()
    t_bare = bare.run()
    observed = build()
    observed.attach_obs(EngineObs(registry=MetricsRegistry()))
    t_obs = observed.run()
    assert t_bare == t_obs
    assert bare.events_fired == observed.events_fired


def test_queue_depth_sampled_every_64_events_with_lazy_events():
    """Lazy commits move events_fired past multiples of 64 between heap
    events; the depth histogram still gets one sample per 64 events."""
    eng = Engine()

    def tick(ev):
        eng.defer(0.1)
        eng.defer(0.2)

    for t in range(200):
        eng.schedule(float(t), tick)
    obs = eng.attach_obs(EngineObs(registry=MetricsRegistry()))
    eng.run()
    assert eng.events_fired == 600  # 200 heap + 400 lazy
    assert obs.queue_depth.count == eng.events_fired // 64


def test_obs_spans_emitted_per_run():
    tracer = Tracer()
    eng = build()
    eng.attach_obs(EngineObs(registry=MetricsRegistry(), tracer=tracer))
    eng.run()
    spans = tracer.finished_spans()
    assert [s.name for s in spans] == ["engine.run"]
    assert spans[0].attrs["events"] == eng.events_fired


def test_run_finished_flushes_on_livelock_abort():
    """Metrics survive the max_events guard raising mid-run."""
    eng = build(count=50)
    reg = MetricsRegistry()
    eng.attach_obs(EngineObs(registry=reg))
    with pytest.raises(Exception):
        eng.run(max_events=3)
    recs = {r["name"]: r["data"] for r in reg.collect()}
    assert recs["engine_events_total"]["value"] == 3


def test_attached_engine_still_pickles():
    eng = build()
    eng.attach_obs(EngineObs(registry=MetricsRegistry()))
    clone = pickle.loads(pickle.dumps(eng))
    assert clone._obs is None  # telemetry never rides in snapshots
    assert clone.run() == build().run()


def test_parallel_engine_window_metrics():
    eng = ParallelEngine(nparts=2)
    build(engine=eng)
    reg = MetricsRegistry()
    eng.attach_obs(EngineObs(registry=reg))
    eng.run()
    recs = {r["name"]: r["data"] for r in reg.collect()}
    assert recs["engine_windows_total"]["value"] == eng.windows_executed
    assert recs["engine_events_total"]["value"] == eng.events_fired
