"""Pin the exact sequence of ``fault_check`` operations.

Chaos runs such as ``repro campaign --chaos-enospc-after N`` index into
this sequence: the N-th checked operation is the one that fails.  A
refactor of the durable-write paths must therefore keep every op name,
path and position, which these tests pin for the golden campaign and
for each other durable writer.
"""

import json
import os

import pytest

from repro.guard import fsfault
from repro.guard.fsfault import FsFaultConfig, FsFaultInjector
from repro.obs.metrics import MetricsRegistry, set_registry
from tests.core.test_golden_bitidentity import CAMPAIGN_ARGS


class RecordingInjector(FsFaultInjector):
    """A zero-probability injector that logs ``(op, relative path)``."""

    def __init__(self, root):
        super().__init__(FsFaultConfig())
        self.root = str(root)
        self.log = []

    def check(self, op, path="", nbytes=0):
        self.log.append((op, os.path.relpath(str(path), self.root)))
        super().check(op, path, nbytes)


@pytest.fixture
def recorder(tmp_path):
    set_registry(MetricsRegistry())
    inj = fsfault.install(RecordingInjector(tmp_path))
    yield inj
    fsfault.uninstall()
    set_registry(None)


def test_golden_campaign_op_sequence(tmp_path, recorder, capsys):
    from repro.cli import main

    code = main([
        *CAMPAIGN_ARGS,
        "--journal", str(tmp_path / "campaign.wal.jsonl"),
        "--flight-dir", str(tmp_path / "flight"),
        "--json", str(tmp_path / "report.json"),
    ])
    capsys.readouterr()
    assert code == 0
    with open(tmp_path / "campaign.wal.jsonl", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    seeds = [rec["seed"] for rec in records if rec.get("kind") == "replica"]
    assert len(seeds) == 4
    want = [
        ("wal.open", "campaign.wal.jsonl"),
        ("wal.append", "campaign.wal.jsonl"),  # header
        ("fsync_dir", "."),
    ]
    for seed in seeds:
        want += [
            ("wal.append", "campaign.wal.jsonl"),  # point, then replicas
            ("flight.spill", f"flight/flight-{seed}.live.jsonl"),
            ("flight.dump", f"flight/flight-{seed}.jsonl"),
            ("fsync_dir", "flight"),
        ]
    want += [
        ("wal.append", "campaign.wal.jsonl"),
        ("report.json", "report.json"),
        ("fsync_dir", "."),
    ]
    assert len(want) == 22
    assert recorder.log == want


def test_snapshot_save_op_sequence(tmp_path, recorder):
    from repro.des.engine import Engine
    from repro.des.snapshot import Snapshot

    Snapshot.capture(Engine(seed=1)).save(str(tmp_path / "s" / "a.snap"))
    assert recorder.log == [("snapshot.write", "s/a.snap"), ("fsync_dir", "s")]


def test_write_prometheus_op_sequence(tmp_path, recorder):
    from repro.obs.export import write_prometheus

    reg = MetricsRegistry()
    reg.counter("x_total").inc()
    write_prometheus(str(tmp_path / "m.prom"), reg)
    assert recorder.log == [("metrics.prom", "m.prom"), ("fsync_dir", ".")]


def test_event_journal_op_sequence(tmp_path, recorder):
    from repro.des.engine import Engine, SimulationError
    from repro.des.replay import EventJournal
    from tests.des.test_snapshot import build_pair

    path = str(tmp_path / "events.jsonl")
    eng = Engine(seed=4)
    build_pair(eng)
    with EventJournal(path, fresh=True, fsync=True) as journal:
        eng.attach_journal(journal)
        with pytest.raises(SimulationError):
            eng.run(max_events=3)
    with EventJournal(path) as journal:  # reopen for append: no header
        eng.attach_journal(journal)
        with pytest.raises(SimulationError):
            eng.run(max_events=2)
    rel = "events.jsonl"
    assert recorder.log == [
        ("journal.open", rel),
        ("journal.append", rel),  # header
        ("fsync_dir", "."),
        *[("journal.append", rel)] * 3,
        ("journal.open", rel),
        *[("journal.append", rel)] * 2,
    ]
