"""Event journal + deterministic-replay oracle tests."""

import json

import pytest

from repro.des import (
    Engine,
    EventJournal,
    SimulationError,
    diff_traces,
    read_journal,
    replay_and_diff,
)
from repro.guard.durable import JournalError
from tests.des.test_snapshot import build_pair


def make_engine(seed=4):
    eng = Engine(seed=seed, trace=True)
    build_pair(eng)
    return eng


def test_journal_records_every_fired_event(tmp_path):
    path = str(tmp_path / "j.jsonl")
    eng = make_engine()
    with EventJournal(path, fresh=True) as journal:
        eng.attach_journal(journal)
        eng.run()
    records = read_journal(path)
    assert len(records) == eng.events_fired
    assert [tuple(r) for r in records] == [tuple(r) for r in eng.trace_log]


def test_journal_survives_torn_tail(tmp_path):
    path = str(tmp_path / "j.jsonl")
    eng = make_engine()
    with EventJournal(path, fresh=True) as journal:
        eng.attach_journal(journal)
        eng.run()
    whole = read_journal(path)
    blob = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(blob[:-7])  # tear mid-record, as a kill would
    torn = read_journal(path)
    assert torn == whole[:-1]


def test_journal_append_keeps_prefix(tmp_path):
    path = str(tmp_path / "j.jsonl")
    eng = make_engine()
    with EventJournal(path, fresh=True) as journal:
        eng.attach_journal(journal)
        with pytest.raises(SimulationError):
            eng.run(max_events=5)
    prefix = read_journal(path)
    assert len(prefix) == 5
    # crash recovery: a new journal object appends after the prefix
    with EventJournal(path) as journal:
        eng.attach_journal(journal)
        eng.run()
    assert read_journal(path)[:5] == prefix
    assert len(read_journal(path)) == eng.events_fired


def test_journal_header_validation(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(JournalError, match="empty"):
        read_journal(str(empty))
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"kind": "other"}) + "\n")
    with pytest.raises(JournalError, match="header"):
        read_journal(str(bad))
    wrong = tmp_path / "wrong.jsonl"
    header = {"kind": "header", "version": 99, "meta": EventJournal.META}
    wrong.write_text(json.dumps(header) + "\n")
    with pytest.raises(JournalError, match="version"):
        read_journal(str(wrong))
    other = tmp_path / "other.jsonl"
    header = {"kind": "header", "version": 1, "meta": {"campaign": "resilience"}}
    other.write_text(json.dumps(header) + "\n")
    with pytest.raises(JournalError, match="not an event journal"):
        read_journal(str(other))


def test_diff_traces_pinpoints_divergence():
    a = [(0.0, 100, 0, None, "x"), (1.0, 100, 1, "x", "y")]
    b = [(0.0, 100, 0, None, "x"), (1.5, 100, 1, "x", "y"), (2.0, 100, 2, "y", "x")]
    divs = diff_traces(a, b)
    assert divs[0].index == 1
    assert divs[0].expected == (1.0, 100, 1, "x", "y")
    assert divs[1].index == 2 and divs[1].expected is None
    assert "expected" in str(divs[0])


def test_replay_oracle_identical(tmp_path):
    path = str(tmp_path / "j.jsonl")
    eng = make_engine(seed=9)
    with EventJournal(path, fresh=True) as journal:
        eng.attach_journal(journal)
        eng.run()
    report = replay_and_diff(lambda: make_engine(seed=9), path)
    assert report.identical
    assert report.replayed_events == report.journal_events
    assert "identical" in report.summary()


def test_replay_oracle_catches_divergence(tmp_path):
    path = str(tmp_path / "j.jsonl")
    eng = make_engine(seed=9)
    with EventJournal(path, fresh=True) as journal:
        eng.attach_journal(journal)
        eng.run()
    report = replay_and_diff(lambda: make_engine(seed=10), path)  # wrong seed
    assert not report.identical
    assert report.divergences
    assert "DIVERGED" in report.summary()


def test_replay_oracle_validates_kill_restore_continue(tmp_path):
    """The acceptance oracle: journal written across kill/restore/continue
    replays against a fresh uninterrupted engine with zero divergences."""
    path = str(tmp_path / "j.jsonl")
    eng = make_engine(seed=12)
    with EventJournal(path, fresh=True) as journal:
        eng.attach_journal(journal)
        with pytest.raises(SimulationError):
            eng.run(max_events=8)  # the "kill"
        snap = eng.snapshot()  # journal handle is excluded automatically
    restored = Engine.restore(snap)
    with EventJournal(path) as journal:  # reopen-for-append
        restored.attach_journal(journal)
        restored.run()
    report = replay_and_diff(lambda: make_engine(seed=12), path)
    assert report.identical, report.summary()
