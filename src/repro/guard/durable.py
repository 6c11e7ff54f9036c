"""Durable files: how a file is made durable and how a torn one is read.

The premise of checkpoint/restart — what was written must survive the
fault — applies to the harness's own files too.  This module is the one
place that implements it:

* :func:`atomic_write` — temp file in the target directory, fsync,
  atomic ``os.replace``, then :func:`fsync_dir`.  Readers see the old
  file or the new one, never a mix (reports, snapshots, flight dumps,
  Prometheus snapshots).
* :func:`read_jsonl` — the whole-line reader.  A kill mid-append tears
  at most the final line, which is dropped.
* :class:`WriteAheadJournal` — the header-validated append log behind
  the campaign WAL and the event journal.
* :class:`LineAppender` — the best-effort appender behind forensic logs
  (flight spills, the supervisor failure log): an I/O error stops the
  log, never the run.

Every write first calls :func:`~repro.guard.fsfault.fault_check` with an
op name, so chaos tests can fail the N-th durable operation.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Optional, Union

from repro.guard.fsfault import fault_check


class JournalError(RuntimeError):
    """A journal is unreadable, or does not match the requested run."""


def fsync_dir(path: str) -> None:
    """fsync the *directory* so a just-created/renamed entry survives a
    host crash.  ``os.replace`` makes a write atomic, but the rename
    itself lives in the directory inode — without this fsync a crash
    immediately after the replace can roll the directory back to the old
    entry (or to nothing, for a fresh file).

    Platforms without directory fds (e.g. Windows) degrade to a no-op.
    """
    fault_check("fsync_dir", path)
    try:
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - e.g. fsync unsupported on dir fd
        pass
    finally:
        os.close(fd)


def atomic_write(path: str, data: Union[str, bytes], op: str) -> str:
    """Durably replace *path* with *data* (str is written as UTF-8).

    Creates missing parent directories.  A crash at any point leaves the
    old file or the new one, never a truncated mix, and no temp file
    behind.  *op* names the write for :func:`fault_check`.  Returns *path*.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    fault_check(op, path, len(data))
    fd, tmp = tempfile.mkstemp(dir=parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    fsync_dir(parent)  # the rename lives in the directory inode
    return path


def read_jsonl(path: str, skip_malformed: bool = False) -> tuple[list[dict], int]:
    """The JSON objects on the whole lines of *path*.

    Only newline-terminated lines count, so a torn final line is dropped.
    A malformed line — not UTF-8, not JSON, or not a JSON object — is
    skipped with *skip_malformed* (forensic logs, where one bad line must
    not hide the rest) and otherwise ends the read (journals, where
    everything after it is suspect).

    Returns ``(objects, end)``: *end* is the byte length of the whole
    lines, where a journal cuts a torn tail off.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    end = raw.rfind(b"\n") + 1
    objects: list[dict] = []
    for line in raw[:end].split(b"\n")[:-1]:
        try:
            obj = json.loads(line.decode("utf-8"))
        except ValueError:  # UnicodeDecodeError and JSONDecodeError
            obj = None
        if isinstance(obj, dict):
            objects.append(obj)
        elif not skip_malformed:
            break
    return objects, end


def _canon(obj):
    """JSON-canonical form (numpy scalars → python, tuples → lists)."""
    return json.loads(json.dumps(obj, sort_keys=True, default=_json_default))


def _json_default(obj):
    item = getattr(obj, "item", None)  # numpy scalars
    if callable(item):
        return item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _line(obj: dict) -> str:
    return json.dumps(obj, default=_json_default) + "\n"


class WriteAheadJournal:
    """Append-only JSONL log with a validated header.

    Line 1 is ``{"kind": "header", "version": 1, "meta": {...}}``; every
    later line is one record.  Each append is flushed, and with *fsync*
    (the default) fsynced, before returning, so a record either survives
    a SIGKILL whole or was never acknowledged.

    Opening an existing log checks its *meta*, keeps the records it holds
    in :attr:`records` and cuts a torn tail away; ``fresh=True`` starts
    over instead.  A file holding only a torn header line was never
    acknowledged, so it is started over too.  Subclasses name their
    :func:`fault_check` ops through :attr:`OPEN_OP` and :attr:`APPEND_OP`.
    """

    VERSION = 1
    OPEN_OP = "wal.open"
    APPEND_OP = "wal.append"

    def __init__(
        self, path: str, meta: dict, fresh: bool = False, fsync: bool = True
    ) -> None:
        self.path = path
        self.meta = _canon(meta)
        self.fsync = fsync
        #: the records the log held when opened (appends are not kept)
        self.records: list = []
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        fault_check(self.OPEN_OP, path)
        header = _line({"kind": "header", "version": self.VERSION, "meta": self.meta})
        if fresh or self._unacknowledged(path, header):
            self._fh = open(path, "w", encoding="utf-8")
            self._write(header)
            if fsync:
                # The file's *contents* are fsynced, but its directory
                # entry is not until the directory inode itself is —
                # without this a crash here can lose the whole file.
                fsync_dir(parent)
            return
        stored_meta, self.records, end = self._load(path)
        if stored_meta != self.meta:
            raise JournalError(
                f"journal {path!r} belongs to a different run: "
                f"{stored_meta!r} != {self.meta!r}"
            )
        if end < os.path.getsize(path):
            with open(path, "r+b") as fh:
                fh.truncate(end)
        self._fh = open(path, "a", encoding="utf-8")

    @staticmethod
    def _unacknowledged(path: str, header: str) -> bool:
        """Whether *path* is missing, empty or a torn prefix of *header*."""
        try:
            with open(path, "rb") as fh:
                head = fh.read(len(header))
        except FileNotFoundError:
            return True
        return len(head) < len(header) and header.encode().startswith(head)

    @classmethod
    def read(cls, path: str) -> tuple[dict, list]:
        """Load ``(meta, records)`` without opening for append."""
        meta, records, _ = cls._load(path)
        return meta, records

    @classmethod
    def _load(cls, path: str) -> tuple[dict, list, int]:
        objects, end = read_jsonl(path)
        if end == 0:
            raise JournalError(f"journal {path!r} is empty or holds only a torn line")
        header = objects[0] if objects else {}
        if header.get("kind") != "header" or not isinstance(header.get("meta"), dict):
            raise JournalError(f"journal {path!r} has no header line")
        if header.get("version") != cls.VERSION:
            raise JournalError(
                f"journal {path!r} has version {header.get('version')!r}, "
                f"expected {cls.VERSION}"
            )
        return header["meta"], objects[1:], end

    def append(self, record: dict) -> None:
        """Append one record (flushed, and fsynced with ``fsync``)."""
        self._write(_line(_canon(record)))

    def _write(self, data: str) -> None:
        fault_check(self.APPEND_OP, self.path, len(data))
        self._fh.write(data)
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class LineAppender:
    """Best-effort line log for forensics.

    Each :meth:`write` appends and flushes, so a crash leaves at worst a
    torn final line.  The file opens on the first write, or on an
    explicit :meth:`open`.  The first ``OSError`` sets :attr:`failed` and
    ends the log, exactly as :meth:`close` does: later writes are dropped,
    because a full disk must never take the run down.  *op* names the
    open for :func:`fault_check`.
    """

    def __init__(self, path: str, op: Optional[str] = None) -> None:
        self.path = path
        self.op = op
        self.failed = False
        self.closed = False
        self._fh = None

    def open(self, truncate: bool = False) -> None:
        try:
            os.makedirs(os.path.dirname(os.path.abspath(self.path)), exist_ok=True)
            if self.op is not None:
                fault_check(self.op, self.path)
            self._fh = open(self.path, "w" if truncate else "a", encoding="utf-8")
        except OSError:
            self.failed = True
            self.close()

    def write(self, *lines: str) -> None:
        if self._fh is None and not self.closed:
            self.open()
        if self._fh is None:
            return
        try:
            for line in lines:
                self._fh.write(line + "\n")
            self._fh.flush()
        except OSError:
            self.failed = True
            self.close()

    def close(self) -> None:
        """End the log: release the file and drop later writes."""
        self.closed = True
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None
