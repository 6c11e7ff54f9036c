"""Deterministic replay: event journals and the recovery-correctness oracle.

The engine's determinism claim — and the snapshot/restore claim built on
top of it — is only worth what can be *checked*.  This module provides
the checking machinery:

* :class:`EventJournal` — an append-only JSONL log of fired events
  ``(time, priority, seq, src, dst)``.  Attach one to an engine
  (:meth:`~repro.des.engine.Engine.attach_journal`) and every fired
  event is durably recorded; after a crash the journal holds the exact
  prefix the dead run executed.
* :func:`diff_traces` — first divergences between two event traces.
* :func:`replay_and_diff` — the oracle: re-execute a simulation from a
  factory and diff its live trace against a recorded journal.  A
  restore is correct iff the journal written across kill/restore/
  continue replays with zero divergences.

Journal records serialize floats through ``repr`` round-tripping (JSON
floats in Python preserve exact values), so comparison is byte-exact,
not approximate.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.des.engine import Engine
from repro.des.event import Event
from repro.guard.fsfault import fault_check, fsync_dir

#: Journal format version.
JOURNAL_VERSION = 1

#: One trace record: (time, priority, seq, src, dst).
TraceRecord = tuple


class ReplayError(RuntimeError):
    """The journal is unreadable or structurally invalid."""


def event_record(ev: Event) -> TraceRecord:
    """The canonical trace tuple of one fired event."""
    return (ev.time, ev.priority, ev.seq, ev.src, ev.dst)


class EventJournal:
    """Append-only JSONL journal of fired events.

    Parameters
    ----------
    path:
        Journal file.  An existing journal is opened for append (the
        recorded prefix is kept — that is the crash-recovery use case);
        pass ``fresh=True`` to truncate instead.
    fsync:
        When true every record is fsynced — crash-durable but slow.
        The default flushes without fsync, which suffices for the
        determinism oracle and same-process kill tests.
    """

    def __init__(self, path: str, fresh: bool = False, fsync: bool = False) -> None:
        self.path = path
        self.fsync = fsync
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        exists = os.path.exists(path) and os.path.getsize(path) > 0
        fault_check("journal.open", path)
        if fresh or not exists:
            self._fh = open(path, "w")
            self._write({"kind": "journal", "version": JOURNAL_VERSION})
            if fsync:
                # Crash-durable journals need their directory entry
                # persisted too, or a crash can lose the whole file.
                fsync_dir(parent)
        else:
            read_journal(path)  # validate header before appending
            self._fh = open(path, "a")

    def record(self, ev: Event) -> None:
        """Append one fired event."""
        t, prio, seq, src, dst = event_record(ev)
        self._write({"t": t, "p": prio, "q": seq, "s": src, "d": dst})

    def _write(self, obj: dict) -> None:
        data = json.dumps(obj) + "\n"
        fault_check("journal.append", self.path, len(data))
        self._fh.write(data)
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "EventJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_journal(path: str) -> list[TraceRecord]:
    """Load a journal's trace records, tolerating a torn final line."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ReplayError(f"cannot read journal {path!r}: {exc}") from exc
    good = len(raw)
    if raw and not raw.endswith(b"\n"):
        good = raw.rfind(b"\n") + 1  # torn tail from a mid-write kill
    lines = raw[:good].decode().splitlines()
    if not lines:
        raise ReplayError(f"journal {path!r} is empty")
    header = json.loads(lines[0])
    if header.get("kind") != "journal":
        raise ReplayError(f"journal {path!r} has no header line")
    if header.get("version") != JOURNAL_VERSION:
        raise ReplayError(
            f"journal {path!r} has version {header.get('version')!r}, "
            f"expected {JOURNAL_VERSION}"
        )
    records: list[TraceRecord] = []
    for line in lines[1:]:
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            break  # torn interior line: drop the suspect suffix
        records.append((rec["t"], rec["p"], rec["q"], rec["s"], rec["d"]))
    return records


@dataclass(frozen=True)
class TraceDivergence:
    """One point where two traces disagree."""

    index: int
    expected: Optional[TraceRecord]  #: None = the actual trace ran longer
    actual: Optional[TraceRecord]    #: None = the actual trace ended early

    def __str__(self) -> str:
        return (
            f"event #{self.index}: expected {self.expected!r}, "
            f"got {self.actual!r}"
        )


def diff_traces(
    expected: Sequence[TraceRecord],
    actual: Sequence[TraceRecord],
    max_divergences: int = 10,
) -> list[TraceDivergence]:
    """First (up to *max_divergences*) positions where the traces differ."""
    out: list[TraceDivergence] = []
    for i in range(max(len(expected), len(actual))):
        e = tuple(expected[i]) if i < len(expected) else None
        a = tuple(actual[i]) if i < len(actual) else None
        if e != a:
            out.append(TraceDivergence(i, e, a))
            if len(out) >= max_divergences:
                break
    return out


@dataclass
class ReplayReport:
    """Outcome of one oracle replay."""

    journal_events: int
    replayed_events: int
    divergences: list[TraceDivergence]

    @property
    def identical(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        if self.identical:
            return (
                f"replay identical: {self.replayed_events} events match "
                f"the {self.journal_events}-event journal"
            )
        return (
            f"replay DIVERGED at {len(self.divergences)} position(s); "
            f"first: {self.divergences[0]}"
        )


def replay_and_diff(
    engine_factory: Callable[[], Engine],
    journal: str | Sequence[TraceRecord],
    until: Optional[float] = None,
    max_events: Optional[int] = None,
) -> ReplayReport:
    """Re-execute a simulation and diff it against a recorded journal.

    *engine_factory* must rebuild the simulation exactly as originally
    configured (same components, seeds, links) and return its engine,
    which is run here with tracing forced on.  This is the recovery
    oracle: a snapshot/restore is correct iff the journal it produced
    replays with ``identical=True``.
    """
    expected = read_journal(journal) if isinstance(journal, str) else list(journal)
    engine = engine_factory()
    engine.trace = True
    budget = max_events if max_events is not None else len(expected) + 1
    try:
        engine.run(until=until, max_events=budget)
    except Exception:
        # A diverging replay may livelock against the budget; the trace
        # collected so far still pinpoints the divergence.
        pass
    actual = [tuple(rec) for rec in engine.trace_log]
    return ReplayReport(
        journal_events=len(expected),
        replayed_events=len(actual),
        divergences=diff_traces(expected, actual),
    )
