"""The durable-file module: atomic writes, torn-file reads, appenders.

The truncation sweep is the module's contract in one test: every reader
of an artifact a kill may tear returns what it would have returned for
some whole-line prefix of the file, or raises :class:`JournalError` —
never any other exception.
"""

import json
import os

import pytest

from repro.guard import fsfault
from repro.guard.durable import (
    JournalError,
    LineAppender,
    WriteAheadJournal,
    atomic_write,
    read_jsonl,
)
from repro.guard.fsfault import FsFaultConfig

# -- small real artifacts, each written by its own writer ---------------------------


def _campaign_wal(path):
    from repro.core.campaign import CampaignJournal, CampaignSpec, campaign_spec_key
    from repro.core.fault_injection import RecoveryPolicy

    policy = RecoveryPolicy()
    spec = CampaignSpec(node_mtbf_s=8.0, ckpt_period=5, timesteps=10)
    key = campaign_spec_key(spec, policy)
    journal = CampaignJournal(path, reps=2, base_seed=0, policy=policy)
    journal.ensure_point(key, spec)
    for i in range(2):
        journal.record_replica(key, i, 100 + i, {"makespan": 1.5 + i, "faults": i})
    journal.close()

    def read(p):
        return CampaignJournal.read(p)

    return read


def _event_journal(path):
    from repro.des.engine import Engine
    from repro.des.replay import EventJournal, read_journal
    from tests.des.test_snapshot import build_pair

    eng = Engine(seed=4)
    build_pair(eng, rounds=2)
    with EventJournal(path, fresh=True) as journal:
        eng.attach_journal(journal)
        eng.run()
    return read_journal


def _flight_recorder(path, dump):
    from repro.obs.flightrec import FlightRecorder, load_flight_dump

    rec = FlightRecorder(spill_path=None if dump else path)
    for i in range(4):
        rec.record("tick", float(i), events=i * 16)
    rec.record("inject", 4.5, fault=1, node=3)
    if dump:
        rec.dump(path, meta={"seed": 7, "reason": "completed"})
    rec.close()
    return load_flight_dump


def _failure_log(path):
    from repro.core.forensics import _load_harness_log
    from repro.core.supervisor import TaskSupervisor

    sup = TaskSupervisor(abs, failure_log_path=path)
    sup._log_failure("p:0", "crash", 1, "worker died")
    sup._log_failure("p:0", "timeout", 2, "no result in 1.0 s")
    sup._log_failure("p:0", "poisoned", 3, "quarantined after 3 failures")
    sup._close_failure_log()
    return _load_harness_log


ARTIFACTS = {
    "campaign_wal": _campaign_wal,
    "event_journal": _event_journal,
    "flight_spill": lambda path: _flight_recorder(path, dump=False),
    "flight_dump": lambda path: _flight_recorder(path, dump=True),
    "failure_log": _failure_log,
}


def _outcome(read, path):
    try:
        return read(path)
    except JournalError:
        return JournalError


@pytest.mark.parametrize("artifact", sorted(ARTIFACTS))
def test_every_truncation_reads_as_a_whole_line_prefix(tmp_path, artifact):
    path = str(tmp_path / "artifact.jsonl")
    read = ARTIFACTS[artifact](path)
    whole = open(path, "rb").read()
    assert whole.count(b"\n") >= 3, "the artifact must hold several lines"
    cut_path = str(tmp_path / "cut.jsonl")

    def outcome_of(data):
        with open(cut_path, "wb") as fh:
            fh.write(data)
        return _outcome(read, cut_path)

    # what the reader returns for each whole-line prefix of the file
    line_ends = [i + 1 for i, byte in enumerate(whole) if byte == ord("\n")]
    allowed = [outcome_of(whole[:end]) for end in [0, *line_ends]]
    assert allowed[-1] is not JournalError and allowed[-1] == read(path)
    for offset in range(len(whole) + 1):
        got = outcome_of(whole[:offset])
        assert got in allowed, f"{artifact} cut at byte {offset}: {got!r}"


def test_every_truncated_wal_reopens_with_the_records_on_disk(tmp_path):
    """Reopening for append cuts the torn tail; what the journal reports
    holding must be exactly what the file then holds, and a prefix."""
    path = str(tmp_path / "wal.jsonl")
    _campaign_wal(path)
    whole = open(path, "rb").read()
    meta, full = WriteAheadJournal.read(path)
    cut = str(tmp_path / "cut.jsonl")
    for offset in range(len(whole) + 1):
        with open(cut, "wb") as fh:
            fh.write(whole[:offset])
        with WriteAheadJournal(cut, meta) as wal:
            held = wal.records
        assert held == full[: len(held)], offset
        assert WriteAheadJournal.read(cut) == (meta, held), offset


# -- atomic_write ---------------------------------------------------------------------


def test_atomic_write_writes_str_as_utf8_and_bytes_verbatim(tmp_path):
    path = str(tmp_path / "sub" / "out.txt")
    assert atomic_write(path, "π\n", "report.json") == path
    assert open(path, "rb").read() == "π\n".encode()
    atomic_write(path, b"\x00\xff", "report.json")
    assert open(path, "rb").read() == b"\x00\xff"
    assert os.listdir(tmp_path / "sub") == ["out.txt"]


def test_atomic_write_fault_leaves_old_file_and_no_litter(tmp_path):
    path = str(tmp_path / "out.json")
    atomic_write(path, "old", "report.json")
    with fsfault.injected(FsFaultConfig(enospc_prob=1.0, ops=("report.json",))):
        with pytest.raises(OSError):
            atomic_write(path, "new", "report.json")
    assert open(path).read() == "old"
    assert os.listdir(tmp_path) == ["out.json"]


# -- read_jsonl ---------------------------------------------------------------------


def test_read_jsonl_policies(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"a": 1}\n\nnot json\n[1]\n{"b": "\xff"}\n{"c": 3}\n{"torn"')
    assert read_jsonl(str(path)) == ([{"a": 1}], len(path.read_bytes()) - 7)
    assert read_jsonl(str(path), skip_malformed=True)[0] == [{"a": 1}, {"c": 3}]


# -- WriteAheadJournal --------------------------------------------------------------


def test_journal_reopen_cuts_the_torn_tail(tmp_path):
    path = str(tmp_path / "wal.jsonl")
    with WriteAheadJournal(path, {"m": 1}) as wal:
        wal.append({"i": 0})
    whole = open(path, "rb").read()
    with open(path, "ab") as fh:
        fh.write(b'{"i": 1, "x"')
    with WriteAheadJournal(path, {"m": 1}) as wal:
        assert wal.records == [{"i": 0}]
    assert open(path, "rb").read() == whole


def test_journal_fresh_starts_over(tmp_path):
    path = str(tmp_path / "wal.jsonl")
    with WriteAheadJournal(path, {"m": 1}) as wal:
        wal.append({"i": 0})
    with WriteAheadJournal(path, {"m": 2}, fresh=True) as wal:
        assert wal.records == []
    assert WriteAheadJournal.read(path) == ({"m": 2}, [])


def test_journal_without_fsync_skips_the_directory_fsync(tmp_path):
    log = []

    class Recording(fsfault.FsFaultInjector):
        def check(self, op, path="", nbytes=0):
            log.append(op)

    with fsfault.injected(Recording(FsFaultConfig())):
        WriteAheadJournal(str(tmp_path / "a.jsonl"), {}, fsync=False).close()
        WriteAheadJournal(str(tmp_path / "b.jsonl"), {}).close()
    assert log == ["wal.open", "wal.append", "wal.open", "wal.append", "fsync_dir"]


# -- LineAppender -------------------------------------------------------------------


def test_line_appender_opens_lazily_and_appends(tmp_path):
    path = str(tmp_path / "sub" / "log.jsonl")
    log = LineAppender(path)
    assert not os.path.exists(path)
    log.write("a", "b")
    log.close()
    log.write("dropped")  # closed: later writes are dropped
    assert open(path).read() == "a\nb\n"
    again = LineAppender(path)
    again.write("c")
    again.close()
    assert open(path).read() == "a\nb\nc\n"


def test_line_appender_truncating_open_and_failures(tmp_path):
    path = str(tmp_path / "log.jsonl")
    with open(path, "w") as fh:
        fh.write("stale\n")
    log = LineAppender(path, op="flight.spill")
    log.open(truncate=True)
    log.write("fresh")
    with fsfault.injected(FsFaultConfig(enospc_prob=1.0, ops=("flight.spill",))):
        broken = LineAppender(str(tmp_path / "other.jsonl"), op="flight.spill")
        broken.write("never")
    assert broken.failed and broken.closed
    assert not os.path.exists(tmp_path / "other.jsonl")
    log.close()
    assert open(path).read() == "fresh\n"
    assert not log.failed


def test_line_appender_write_error_fails_the_log(tmp_path):
    log = LineAppender(str(tmp_path / "log.jsonl"))
    log.write("one")
    log._fh.close()
    log._fh = open(os.devnull, "r")  # unwritable: the next write raises OSError
    log.write("two")
    assert log.failed and log.closed
    log.write("three")
    assert open(tmp_path / "log.jsonl").read() == "one\n"


def test_campaign_read_rejects_other_journals(tmp_path):
    from repro.core.campaign import CampaignJournal
    from repro.des.replay import EventJournal

    path = str(tmp_path / "events.jsonl")
    EventJournal(path).close()
    with pytest.raises(JournalError, match="not a campaign journal"):
        CampaignJournal.read(path)
    assert json.loads(open(path).readline())["meta"] == EventJournal.META
