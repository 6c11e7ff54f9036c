"""Regression: every atomic-write path fsyncs the directory entry.

``os.replace`` (and fresh-file creation) is only durable once the
*directory* inode is fsynced; these tests pin that each durable-write
site actually reaches :func:`repro.guard.durable.fsync_dir`.  The shim
counts ``fsync_dir`` as a checked op, so installing an injector with
``ops=("fsync_dir",)`` and zero probabilities turns it into a pure
call counter — no faults, just proof the call happened.
"""

import pytest

from repro.des.engine import Engine
from repro.des.replay import EventJournal
from repro.des.snapshot import Snapshot
from repro.guard import fsfault
from repro.guard.durable import WriteAheadJournal, atomic_write
from repro.guard.fsfault import FsFaultConfig, FsFaultInjector
from repro.obs.export import write_prometheus
from repro.obs.metrics import MetricsRegistry, set_registry


@pytest.fixture
def fsync_counter():
    set_registry(MetricsRegistry())
    inj = fsfault.install(FsFaultInjector(FsFaultConfig(ops=("fsync_dir",))))
    yield inj
    fsfault.uninstall()
    set_registry(None)


def test_wal_fresh_create_fsyncs_directory(tmp_path, fsync_counter):
    wal = WriteAheadJournal(str(tmp_path / "j.wal"), {"m": 1})
    wal.close()
    assert fsync_counter.ops_seen >= 1


def test_snapshot_save_fsyncs_directory(tmp_path, fsync_counter):
    eng = Engine(seed=1)
    Snapshot.capture(eng).save(str(tmp_path / "snap-00000000.snap"))
    assert fsync_counter.ops_seen >= 1


def test_event_journal_create_fsyncs_directory(tmp_path, fsync_counter):
    journal = EventJournal(str(tmp_path / "events.jsonl"), fsync=True)
    journal.close()
    assert fsync_counter.ops_seen >= 1


def test_write_prometheus_fsyncs_directory(tmp_path, fsync_counter):
    reg = MetricsRegistry()
    reg.counter("x_total").inc()
    write_prometheus(str(tmp_path / "m.prom"), reg)
    assert fsync_counter.ops_seen >= 1


def test_cli_atomic_report_write_fsyncs_directory(tmp_path, fsync_counter):
    atomic_write(str(tmp_path / "report.json"), "{}", "report.json")
    assert fsync_counter.ops_seen >= 1


def test_replaced_file_content_is_the_new_one(tmp_path):
    """The atomic-replace semantics the fsync protects: never a torn mix."""
    path = str(tmp_path / "report.json")
    atomic_write(path, "old", "report.json")
    atomic_write(path, "new", "report.json")
    with open(path) as fh:
        assert fh.read() == "new"
    assert list(tmp_path.iterdir()) == [tmp_path / "report.json"]  # no tmp litter
