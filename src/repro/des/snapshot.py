"""Versioned engine snapshots: capture, persist, restore, auto-cadence.

A :class:`Snapshot` is a self-describing capture of a simulation object
graph — typically an :class:`~repro.des.engine.Engine` (the snapshot
walks every reference: event queue with its sequence counter and
cancelled-count accounting, components, clocks, link registrations and
the per-component RNG bit-generator states) or a
:class:`~repro.core.simulator.BESSTSimulator` (whose graph includes its
engine, ranks, recovery state and fault injector).

Restoring a snapshot and continuing produces an event trace
byte-identical to an uninterrupted run: the queue's ``(time, priority,
seq)`` total order, the sequence counter and every RNG stream resume
exactly where they stopped.  That invariant is what lets a killed
replica resume mid-simulation instead of from ``t=0`` (the same
guarantee PR 2 established for whole campaigns, pushed down into the
simulator).

Persistence is torn-write safe: :meth:`Snapshot.save` writes a magic
line, a JSON header carrying the format version and a SHA-256 payload
checksum, then the pickled payload — all through one
:func:`~repro.guard.durable.atomic_write`.  :meth:`Snapshot.load`
refuses truncated, corrupt or version-mismatched files with
:class:`SnapshotError`, so a resume can always fall back to the previous
snapshot (or a fresh run) rather than continue from damaged state.

:class:`SnapshotStore` manages a directory of numbered snapshots with
bounded retention; :class:`AutoSnapshotPolicy` gives an engine a
periodic (event-count and/or wall-clock) snapshot cadence during
``run()``.

Snapshots pickle the object graph, so every event handler reachable
from the queue must be picklable: bound methods and module-level
callables work, ad-hoc lambdas and closures do not (the engine raises
:class:`SnapshotError` naming the offender).  All handlers scheduled by
``repro`` itself are picklable by construction.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import pickletools
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.guard.durable import atomic_write

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.engine import Engine

#: Current snapshot format version; bumped on incompatible changes.
#: Version 2: the event heap holds ``(time, priority, seq, event)``
#: entries and simulator ranks carry compiled instruction rows.
#: Version 3: engines carry lazy events and the simulator's rendezvous
#: state is per-phase (collective-phase stepping).
#: Version 4: array steppers (also in deterministic fault runs) carry
#: the stale-rank flag and pickle a deterministic price matrix as one
#: column.
#: Version 5: array steppers also step segments with commit hooks (their
#: hook rows and network-bound segments are stepper state).
#: Version 6: array steppers also step straggler-slowed segments (they
#: carry the rank -> node map).
#: Version 7: array steppers pickle their compiled program as its rows
#: and derive its tables on restore; a hooked rendezvous carries its
#: arrivals as lists and its seqs as a base and offsets.
#: Version 8: array steppers carry the checkpoints they committed for
#: every rank but have not yet written into the ranks' histories, and
#: engines the (always closed, between runs) inline window.
SNAPSHOT_VERSION = 8

#: First line of every snapshot file.
SNAPSHOT_MAGIC = b"repro-snapshot\n"


class SnapshotError(RuntimeError):
    """Capture, persistence or restore of a snapshot failed."""


@dataclass
class Snapshot:
    """One captured simulation state.

    Attributes
    ----------
    meta:
        JSON-serializable description: format ``version``, ``root``
        class name, simulation ``sim_time`` / ``events_fired`` at
        capture, and any user-supplied entries.
    payload:
        The pickled object graph.
    """

    meta: dict
    payload: bytes

    # -- capture ---------------------------------------------------------------

    @classmethod
    def capture(cls, root, meta: Optional[dict] = None) -> "Snapshot":
        """Snapshot *root* (an engine, a simulator, any picklable graph)."""
        try:
            payload = pickle.dumps(root, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise SnapshotError(
                f"cannot snapshot {type(root).__name__}: {exc} — every "
                "scheduled event handler must be picklable (use bound "
                "methods or module-level callables, not lambdas/closures)"
            ) from exc
        header = {
            "version": SNAPSHOT_VERSION,
            "root": type(root).__name__,
            "sim_time": _maybe_float(getattr(root, "now", None)),
            "events_fired": getattr(root, "events_fired", None),
        }
        if meta:
            header.update(meta)
        return cls(meta=header, payload=payload)

    # -- restore ---------------------------------------------------------------

    def restore(self):
        """Rebuild and return the captured object graph."""
        if self.meta.get("version") != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"snapshot version {self.meta.get('version')!r} is not "
                f"supported (expected {SNAPSHOT_VERSION})"
            )
        t0 = time.perf_counter()
        try:
            root = pickle.loads(self.payload)
        except Exception as exc:
            raise SnapshotError(f"snapshot payload is corrupt: {exc}") from exc
        _record_snapshot_metrics("restore", time.perf_counter() - t0)
        return root

    # -- persistence -----------------------------------------------------------

    def save(self, path: str) -> str:
        """Durably write the snapshot to *path* (atomic replace + fsync)."""
        header = dict(self.meta)
        header["sha256"] = hashlib.sha256(self.payload).hexdigest()
        header["payload_bytes"] = len(self.payload)
        head = SNAPSHOT_MAGIC + json.dumps(header, sort_keys=True).encode() + b"\n"
        return atomic_write(path, head + self.payload, "snapshot.write")

    @classmethod
    def load(cls, path: str) -> "Snapshot":
        """Read and integrity-check a snapshot file."""
        try:
            with open(path, "rb") as fh:
                magic = fh.readline()
                if magic != SNAPSHOT_MAGIC:
                    raise SnapshotError(f"{path!r} is not a snapshot file")
                header_line = fh.readline()
                payload = fh.read()
        except OSError as exc:
            raise SnapshotError(f"cannot read snapshot {path!r}: {exc}") from exc
        try:
            meta = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise SnapshotError(f"snapshot {path!r} has a corrupt header") from exc
        if meta.get("version") != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"snapshot {path!r} has version {meta.get('version')!r}, "
                f"expected {SNAPSHOT_VERSION}"
            )
        if len(payload) != meta.get("payload_bytes"):
            raise SnapshotError(
                f"snapshot {path!r} is truncated "
                f"({len(payload)} of {meta.get('payload_bytes')} bytes)"
            )
        if hashlib.sha256(payload).hexdigest() != meta.get("sha256"):
            raise SnapshotError(f"snapshot {path!r} failed checksum verification")
        return cls(meta=meta, payload=payload)

    def size_bytes(self) -> int:
        return len(self.payload)

    def describe(self) -> str:  # pragma: no cover - debugging aid
        buf = io.StringIO()
        pickletools.dis(self.payload, out=buf)
        return buf.getvalue()


def _maybe_float(value) -> Optional[float]:
    return None if value is None else float(value)


def _record_snapshot_metrics(op: str, seconds: float, nbytes: Optional[int] = None) -> None:
    """Rare-path telemetry into the process-global obs registry.

    Imported lazily: snapshots happen at most every few thousand events,
    so a ``sys.modules`` lookup here keeps :mod:`repro.des` free of an
    import-time dependency on the obs layer.
    """
    from repro.obs.metrics import get_registry

    reg = get_registry()
    reg.counter(
        f"snapshot_{op}s_total", help=f"Snapshot {op} operations."
    ).inc()
    reg.quantile(
        f"snapshot_{op}_seconds", help=f"Snapshot {op} latency (seconds)."
    ).observe(seconds)
    if nbytes is not None:
        reg.counter(
            "snapshot_bytes_written_total",
            help="Snapshot payload bytes persisted to disk.",
        ).inc(nbytes)


class SnapshotStore:
    """A directory of numbered snapshots with bounded retention.

    Files are named ``snap-<events_fired>.snap``; :meth:`latest` returns
    the newest *loadable* snapshot path, skipping files that fail
    integrity checks, so one torn write never blocks recovery.
    """

    def __init__(self, directory: str, keep: int = 2) -> None:
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = directory
        self.keep = keep

    def write(self, snapshot: Snapshot) -> str:
        """Persist *snapshot* and prune beyond the retention bound."""
        stamp = snapshot.meta.get("events_fired") or 0
        path = os.path.join(self.directory, f"snap-{int(stamp):012d}.snap")
        t0 = time.perf_counter()
        snapshot.save(path)
        _record_snapshot_metrics(
            "write", time.perf_counter() - t0, nbytes=snapshot.size_bytes()
        )
        for stale in self.paths()[: -self.keep]:
            if stale != path:
                try:
                    os.unlink(stale)
                except OSError:  # pragma: no cover - concurrent prune
                    pass
        return path

    def paths(self) -> list[str]:
        """All snapshot files, oldest first."""
        if not os.path.isdir(self.directory):
            return []
        names = sorted(
            n
            for n in os.listdir(self.directory)
            if n.startswith("snap-") and n.endswith(".snap")
        )
        return [os.path.join(self.directory, n) for n in names]

    def latest(self) -> Optional[str]:
        """Newest loadable snapshot path, or ``None``.

        Corrupt files are skipped — but *counted* (the
        ``snapshot_corrupt_skipped_total`` counter, surfaced by
        ``repro metrics summarize``): silent data loss is still loss.
        """
        for path in reversed(self.paths()):
            try:
                Snapshot.load(path)
            except SnapshotError:
                self._count_corrupt_skip(path)
                continue
            return path
        return None

    @staticmethod
    def _count_corrupt_skip(path: str) -> None:
        from repro.obs.metrics import get_registry

        get_registry().counter(
            "snapshot_corrupt_skipped_total",
            help="Snapshot files skipped during recovery because they "
            "failed integrity checks.",
        ).inc()

    def clear(self) -> None:
        """Delete every snapshot in the store (e.g. after completion)."""
        for path in self.paths():
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - already gone
                pass


@dataclass
class AutoSnapshotPolicy:
    """Periodic snapshot cadence applied inside ``Engine.run()``.

    Parameters
    ----------
    store:
        Destination :class:`SnapshotStore`.
    every_events:
        Snapshot after this many fired events.
    root:
        Object graph to capture; defaults to the engine itself.  A
        higher-level owner (e.g. a ``BESSTSimulator``) passes itself so
        a restore rebuilds the full simulator, not just its engine.
    """

    store: SnapshotStore
    every_events: int
    root: object = None
    snapshots_taken: int = 0
    _events_at_last: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.every_events < 1:
            raise ValueError(f"every_events must be >= 1, got {self.every_events}")

    def due(self, engine: "Engine") -> bool:
        return engine.events_fired - self._events_at_last >= self.every_events

    def take(self, engine: "Engine") -> str:
        """Capture and persist one snapshot; returns the written path."""
        root = self.root if self.root is not None else engine
        # Stamp with the engine's clock even when the captured root is a
        # higher-level owner without now/events_fired of its own.
        path = self.store.write(
            Snapshot.capture(
                root,
                meta={
                    "sim_time": float(engine.now),
                    "events_fired": engine.events_fired,
                },
            )
        )
        self.snapshots_taken += 1
        self._events_at_last = engine.events_fired
        return path

    def maybe_take(self, engine: "Engine") -> Optional[str]:
        return self.take(engine) if self.due(engine) else None

    def next_check_at(self) -> int:
        """Events-fired count at which the engine must next call
        :meth:`maybe_take` — lets the run loop reduce the cadence test
        to a single integer comparison per event."""
        return self._events_at_last + self.every_events
