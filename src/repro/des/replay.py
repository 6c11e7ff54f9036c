"""Deterministic replay: event journals and the recovery-correctness oracle.

The engine's determinism claim — and the snapshot/restore claim built on
top of it — is only worth what can be *checked*.  This module provides
the checking machinery:

* :class:`EventJournal` — an append-only JSONL log of fired events
  ``(time, priority, seq, src, dst)``, one use of the shared
  :class:`~repro.guard.durable.WriteAheadJournal`.  Attach one to an
  engine (:meth:`~repro.des.engine.Engine.attach_journal`) and every
  fired event is recorded; after a crash the journal holds the exact
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

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.des.engine import Engine
from repro.guard.durable import JournalError, WriteAheadJournal

#: One trace record: (time, priority, seq, src, dst).
TraceRecord = tuple


class EventJournal(WriteAheadJournal):
    """Append-only JSONL journal of fired events.

    A :class:`~repro.guard.durable.WriteAheadJournal` whose header meta
    is :attr:`META` and whose records are ``{"t", "p", "q", "s", "d"}``.

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

    META = {"journal": "events"}
    OPEN_OP = "journal.open"
    APPEND_OP = "journal.append"

    def __init__(self, path: str, fresh: bool = False, fsync: bool = False) -> None:
        super().__init__(path, self.META, fresh=fresh, fsync=fsync)

    def record(self, rec: TraceRecord) -> None:
        """Append one fired event's trace record."""
        t, prio, seq, src, dst = rec
        self.append({"t": t, "p": prio, "q": seq, "s": src, "d": dst})


def read_journal(path: str) -> list[TraceRecord]:
    """Load an event journal's trace records, tolerating a torn tail.

    Raises :class:`~repro.guard.durable.JournalError` for a file that is
    not an event journal.
    """
    meta, records = EventJournal.read(path)
    if meta != EventJournal.META:
        raise JournalError(f"journal {path!r} is not an event journal")
    trace: list[TraceRecord] = []
    for rec in records:
        try:
            trace.append((rec["t"], rec["p"], rec["q"], rec["s"], rec["d"]))
        except KeyError:
            break  # not an event record: drop the suspect suffix
    return trace


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
