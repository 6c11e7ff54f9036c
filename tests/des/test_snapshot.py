"""Engine snapshot/restore: capture, persistence, cadence, trace identity."""

import os

import pytest

from repro.des import (
    Component,
    Engine,
    SimulationError,
    Snapshot,
    SnapshotError,
    SnapshotStore,
    trace_digest,
)
from repro.des.link import connect
from repro.des.snapshot import SNAPSHOT_VERSION, AutoSnapshotPolicy


class Chatter(Component):
    """Self-starting component exchanging random-latency messages."""

    def __init__(self, name, rounds):
        super().__init__(name)
        self.rounds = rounds
        self.heard = []

    def setup(self):
        self.schedule(0.0, self._talk, payload=self.rounds)

    def _talk(self, ev):
        remaining = ev.payload
        if remaining <= 0:
            return
        self.send("out", {"n": remaining})
        self.schedule(float(self.rng.exponential(1.0)) + 1e-9, self._talk,
                      payload=remaining - 1)

    def handle_event(self, port_name, payload, time):
        self.heard.append((round(time, 12), payload["n"]))


def build_pair(engine, rounds=6):
    a = engine.register(Chatter("a", rounds))
    b = engine.register(Chatter("b", rounds))
    connect(a, "out", b, "in", latency=0.3)
    connect(b, "out", a, "in", latency=0.3)
    return a, b


def run_reference(seed=0, rounds=6):
    eng = Engine(seed=seed, trace=True)
    build_pair(eng, rounds)
    eng.run()
    return eng


# -- capture / restore --------------------------------------------------------


def test_restore_continue_trace_identical():
    ref = run_reference(seed=7)

    # run part-way, snapshot between events, then continue on a restored copy
    eng = Engine(seed=7, trace=True)
    build_pair(eng)
    with pytest.raises(SimulationError):
        eng.run(max_events=9)
    snap = eng.snapshot()
    restored = Engine.restore(snap)
    restored.run()

    assert restored.trace_log == ref.trace_log
    assert trace_digest(restored) == trace_digest(ref)
    assert restored.now == ref.now
    assert restored.events_fired == ref.events_fired


def test_restore_preserves_component_and_rng_state():
    eng = Engine(seed=1, trace=True)
    build_pair(eng)
    with pytest.raises(Exception):
        eng.run(max_events=7)
    digest_before = eng.rngs.state_digest()
    restored = Engine.restore(eng.snapshot())
    assert restored.rngs.state_digest() == digest_before
    assert restored.components["a"].heard == eng.components["a"].heard
    # the restored graph is fully detached from the original
    assert restored.components["a"] is not eng.components["a"]
    assert restored.components["a"].engine is restored


def test_snapshot_meta_carries_clock():
    eng = Engine(seed=0)
    build_pair(eng)
    snap = eng.snapshot(meta={"note": "x"})
    assert snap.meta["version"] == SNAPSHOT_VERSION
    assert snap.meta["root"] == "Engine"
    assert snap.meta["sim_time"] == 0.0
    assert snap.meta["note"] == "x"


def test_unpicklable_handler_raises_snapshot_error():
    eng = Engine(seed=0)
    eng.schedule(1.0, lambda ev: None)
    with pytest.raises(SnapshotError, match="picklable"):
        eng.snapshot()


class _NotAnEngine:
    pass


def test_restore_rejects_wrong_root_type():
    snap = Snapshot.capture(_NotAnEngine())
    with pytest.raises(SnapshotError, match="expected Engine"):
        Engine.restore(snap)


# -- persistence --------------------------------------------------------------


def test_save_load_roundtrip(tmp_path):
    eng = Engine(seed=3, trace=True)
    build_pair(eng)
    path = str(tmp_path / "s.snap")
    eng.snapshot().save(path)
    restored = Engine.restore(path)
    restored.run()
    assert trace_digest(restored) == trace_digest(run_reference(seed=3))


def test_load_rejects_truncation_and_corruption(tmp_path):
    eng = Engine(seed=0)
    build_pair(eng)
    path = str(tmp_path / "s.snap")
    eng.snapshot().save(path)

    blob = open(path, "rb").read()
    torn = str(tmp_path / "torn.snap")
    with open(torn, "wb") as fh:
        fh.write(blob[:-10])
    with pytest.raises(SnapshotError, match="truncated"):
        Snapshot.load(torn)

    flipped = str(tmp_path / "flip.snap")
    with open(flipped, "wb") as fh:
        fh.write(blob[:-1] + bytes([blob[-1] ^ 0xFF]))
    with pytest.raises(SnapshotError, match="checksum"):
        Snapshot.load(flipped)

    junk = str(tmp_path / "junk.snap")
    with open(junk, "wb") as fh:
        fh.write(b"hello world\n")
    with pytest.raises(SnapshotError, match="not a snapshot"):
        Snapshot.load(junk)


# -- store / retention --------------------------------------------------------


def check_retention(directory, keep, older=0):
    """*older* placeholder files already on disk, then three writes: each
    write leaves the newest *keep* snapshots, and latest() is the last."""
    for i in range(older):
        (directory / f"snap-{i:012d}.snap").write_text("placeholder")
    store = SnapshotStore(str(directory), keep=keep)
    paths = []
    for budget in (3, 5, 8):
        eng = Engine(seed=0)
        build_pair(eng)
        with pytest.raises(SimulationError):
            eng.run(max_events=budget)
        paths.append(store.write(eng.snapshot()))
        assert store.paths() == paths[-keep:]
    assert os.path.basename(paths[-1]) == "snap-000000000008.snap"
    assert store.latest() == paths[-1]


def test_store_retention_and_latest(tmp_path):
    check_retention(tmp_path, keep=2)


def test_store_latest_skips_corrupt(tmp_path):
    store = SnapshotStore(str(tmp_path), keep=3)
    eng = Engine(seed=0)
    build_pair(eng)
    with pytest.raises(Exception):
        eng.run(max_events=3)
    good = store.write(eng.snapshot())
    eng2 = Engine(seed=0)
    build_pair(eng2)
    with pytest.raises(Exception):
        eng2.run(max_events=6)
    bad = store.write(eng2.snapshot())
    with open(bad, "r+b") as fh:  # tear the newer snapshot
        fh.truncate(os.path.getsize(bad) - 20)
    assert store.latest() == good
    store.clear()
    assert store.paths() == []


# -- auto-snapshot cadence ----------------------------------------------------


def test_autosnapshot_every_events(tmp_path):
    eng = Engine(seed=2, trace=True)
    build_pair(eng)
    policy = eng.enable_autosnapshot(str(tmp_path), every_events=5, keep=10)
    eng.run()
    assert policy.snapshots_taken >= 2
    assert len(SnapshotStore(str(tmp_path), keep=10).paths()) >= 2

    # resuming from the newest auto-snapshot replays the suffix identically
    restored = Engine.restore(SnapshotStore(str(tmp_path)).latest())
    restored.run()
    assert trace_digest(restored) == trace_digest(run_reference(seed=2))


def test_autosnapshot_policy_validation(tmp_path):
    store = SnapshotStore(str(tmp_path))
    with pytest.raises(TypeError):
        AutoSnapshotPolicy(store=store)
    with pytest.raises(ValueError):
        AutoSnapshotPolicy(store=store, every_events=0)
    with pytest.raises(ValueError):
        SnapshotStore(str(tmp_path), keep=0)


def test_corrupt_skip_is_counted(tmp_path):
    from repro.obs.metrics import MetricsRegistry, set_registry

    reg = MetricsRegistry()
    set_registry(reg)
    try:
        store = SnapshotStore(str(tmp_path), keep=3)
        eng = Engine(seed=0)
        build_pair(eng)
        with pytest.raises(Exception):
            eng.run(max_events=3)
        store.write(eng.snapshot())
        eng2 = Engine(seed=0)
        build_pair(eng2)
        with pytest.raises(Exception):
            eng2.run(max_events=6)
        bad = store.write(eng2.snapshot())
        with open(bad, "r+b") as fh:
            fh.truncate(os.path.getsize(bad) - 20)
        store.latest()
        assert reg.counter("snapshot_corrupt_skipped_total").value == 1
    finally:
        set_registry(None)


def test_version_1_snapshot_is_refused_and_skipped(tmp_path):
    # Version 1 pickled Event objects as heap entries; a file written in
    # that format must not be unpickled into the current queue.
    from repro.obs.metrics import MetricsRegistry, set_registry

    eng = Engine(seed=0)
    build_pair(eng)
    with pytest.raises(Exception):
        eng.run(max_events=3)
    old = eng.snapshot()
    old.meta["version"] = 1
    store = SnapshotStore(str(tmp_path))
    path = store.write(old)
    with pytest.raises(SnapshotError, match="version 1"):
        Snapshot.load(path)

    reg = MetricsRegistry()
    set_registry(reg)
    try:
        # A resumed replica finds no usable snapshot and reruns from t=0.
        assert store.latest() is None
        assert reg.counter("snapshot_corrupt_skipped_total").value == 1
    finally:
        set_registry(None)


def test_shed_oldest_keeps_newest(tmp_path):
    # keep=1 also prunes older files that were on disk before the store
    check_retention(tmp_path, keep=1, older=3)


def test_engine_disables_autosnap_on_write_failure_and_completes(tmp_path):
    from repro.guard.fsfault import FsFaultConfig, injected
    from repro.obs.metrics import MetricsRegistry, set_registry

    reg = MetricsRegistry()
    set_registry(reg)
    try:
        eng = Engine(seed=2, trace=True)
        build_pair(eng)
        eng.enable_autosnapshot(str(tmp_path), every_events=5, keep=10)
        with injected(FsFaultConfig(enospc_prob=1.0, ops=("snapshot.write",))):
            eng.run()  # must complete despite every snapshot write failing
        assert reg.counter("snapshot_autosnap_disabled_total").value == 1
        assert SnapshotStore(str(tmp_path)).paths() == []
        assert trace_digest(eng) == trace_digest(run_reference(seed=2))
    finally:
        set_registry(None)
