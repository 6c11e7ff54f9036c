"""Span tracing with IDs that survive process boundaries.

A :class:`Span` is a named wall-clock interval with a ``trace_id``
(shared by everything in one campaign), a ``span_id`` and an optional
``parent_id``.  The campaign, its supervisor tasks, the replica worker
processes and the engine runs inside them each record spans; because
IDs for cross-process edges are *derived deterministically*
(:func:`derive_span_id` — a hash of the trace id plus a stable key),
the campaign process and a worker process independently compute the
same parent/child IDs without shipping live objects between them.

Concretely: the campaign opens a root span, derives the span id for
supervisor task ``"p0:3"`` as ``derive_span_id(trace_id, "task",
"p0:3")``, and hands the worker an :class:`ObsContext` carrying the
trace id and that derived id as ``parent_span_id``.  The worker's
spans (replica body, engine run) parent onto it; both sides dump spans
to JSONL files in a shared directory and :func:`load_spans` merges them
into the single timeline `core.trace` renders for Perfetto.

Spans use epoch wall-clock (`time.time`) so files written by different
processes align on a common axis.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.guard.durable import read_jsonl


def new_trace_id() -> str:
    """A fresh 32-hex-digit trace id."""
    return uuid.uuid4().hex


def derive_span_id(trace_id: str, *parts: object) -> str:
    """Deterministic 16-hex-digit span id for a cross-process edge.

    Any process holding the trace id and the same key *parts* computes
    the same id, which is how parent/child links line up across the
    campaign/worker boundary without passing span objects around.
    """
    h = hashlib.sha256(trace_id.encode())
    for part in parts:
        h.update(b"\x00" + str(part).encode())
    return h.hexdigest()[:16]


@dataclass
class Span:
    """One named interval; ``end()`` stamps the close time."""

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str] = None
    t_start: float = 0.0
    t_end: Optional[float] = None
    pid: int = 0
    tid: int = 0
    attrs: dict = field(default_factory=dict)
    _tracer: Optional["Tracer"] = field(default=None, repr=False, compare=False)

    def end(self, **attrs) -> "Span":
        if self.t_end is None:
            self.t_end = time.time()
            if attrs:
                self.attrs.update(attrs)
            if self._tracer is not None:
                self._tracer._close(self)
        return self

    @property
    def duration(self) -> float:
        return (self.t_end if self.t_end is not None else time.time()) - self.t_start

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(
            name=data["name"],
            trace_id=data["trace_id"],
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            t_start=float(data["t_start"]),
            t_end=None if data.get("t_end") is None else float(data["t_end"]),
            pid=int(data.get("pid", 0)),
            tid=int(data.get("tid", 0)),
            attrs=dict(data.get("attrs") or {}),
        )

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc) -> None:
        self.end()


class Tracer:
    """Collects spans for one process.

    ``start_span`` with the default ``push=True`` maintains an implicit
    stack: nested calls parent onto the enclosing open span.  Pass
    ``push=False`` (plus an explicit ``parent_id`` or ``span_id``) for
    detached spans — e.g. the supervisor tracks many concurrently
    running task spans, which cannot live on one stack.
    """

    def __init__(
        self,
        trace_id: Optional[str] = None,
        default_parent_id: Optional[str] = None,
    ) -> None:
        self.trace_id = trace_id or new_trace_id()
        self.default_parent_id = default_parent_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._lock = threading.Lock()
        self._next_tid = 0
        # Auto-assigned span ids must be unique across every process in
        # the trace; a per-tracer nonce keeps two workers' span #3 apart.
        self._nonce = uuid.uuid4().hex[:12]
        self._seq = 0

    def start_span(
        self,
        name: str,
        parent_id: Optional[str] = None,
        span_id: Optional[str] = None,
        push: bool = True,
        tid: Optional[int] = None,
        **attrs,
    ) -> Span:
        with self._lock:
            if parent_id is None:
                parent_id = (
                    self._stack[-1].span_id if self._stack else self.default_parent_id
                )
            if tid is None:
                tid = self._stack[-1].tid if (push and self._stack) else self._next_tid
                if not (push and self._stack):
                    self._next_tid += 1
            self._seq += 1
            span = Span(
                name=name,
                trace_id=self.trace_id,
                span_id=span_id
                or derive_span_id(self.trace_id, self._nonce, self._seq),
                parent_id=parent_id,
                t_start=time.time(),
                pid=os.getpid(),
                tid=tid,
                attrs=dict(attrs),
                _tracer=self,
            )
            self.spans.append(span)
            if push:
                self._stack.append(span)
            return span

    def _close(self, span: Span) -> None:
        with self._lock:
            if span in self._stack:
                # Close any children left open below it, then pop it.
                while self._stack and self._stack[-1] is not span:
                    self._stack.pop()
                if self._stack:
                    self._stack.pop()

    def finished_spans(self) -> list[Span]:
        return [s for s in self.spans if s.t_end is not None]

    # -- persistence ---------------------------------------------------------

    def dump_jsonl(self, path: str, append: bool = True, drain: bool = False) -> int:
        """Write every *finished* span to *path* as JSON lines.

        Returns the number of spans written.  Open spans are skipped —
        dump again after closing them.  With ``drain=True`` the written
        spans are removed from the tracer, so a long-lived worker that
        dumps after every task appends each span exactly once.
        """
        spans = self.finished_spans()
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        mode = "a" if append else "w"
        with open(path, mode, encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
        if drain:
            written = {id(s) for s in spans}
            with self._lock:
                self.spans = [s for s in self.spans if id(s) not in written]
        return len(spans)


def load_spans(source: str) -> list[Span]:
    """Load spans from a ``spans-*.jsonl`` directory or a single file.

    Later records win on duplicate span ids (a process may dump its
    cumulative span list more than once).  Malformed lines are skipped:
    a worker killed mid-write must not poison the merged timeline.
    """
    if os.path.isdir(source):
        paths = sorted(
            os.path.join(source, n)
            for n in os.listdir(source)
            if n.startswith("spans-") and n.endswith(".jsonl")
        )
    else:
        paths = [source]
    by_id: dict[str, Span] = {}
    for path in paths:
        try:
            records, _ = read_jsonl(path, skip_malformed=True)
        except OSError:
            continue
        for rec in records:
            try:
                span = Span.from_dict(rec)
            except (ValueError, KeyError, TypeError):
                continue  # a foreign line
            by_id[span.span_id] = span
    return sorted(by_id.values(), key=lambda s: (s.t_start, s.span_id))


@dataclass(frozen=True)
class ObsContext:
    """Everything a worker process needs to join the campaign's trace.

    Carried inside the replica's ReplicaTask; the worker builds its own
    :class:`Tracer` with ``default_parent_id=parent_span_id`` and dumps
    spans/metrics into ``obs_dir`` for the campaign to merge.
    ``host_pid`` lets in-process (sequential/degraded) execution skip
    the metrics dump that would double-count the campaign's own
    registry.
    """

    trace_id: str
    parent_span_id: Optional[str]
    obs_dir: str
    host_pid: int


def spans_jsonl_path(obs_dir: str, pid: Optional[int] = None) -> str:
    """Per-process span dump path inside *obs_dir*."""
    return os.path.join(obs_dir, f"spans-{os.getpid() if pid is None else pid}.jsonl")


def metrics_json_path(obs_dir: str, pid: Optional[int] = None) -> str:
    """Per-process metrics dump path inside *obs_dir*."""
    return os.path.join(obs_dir, f"metrics-{os.getpid() if pid is None else pid}.json")


def dump_worker_metrics(obs_dir: str, records: Iterable[dict]) -> str:
    """Atomically write this process's cumulative metric records."""
    path = metrics_json_path(obs_dir)
    tmp = f"{path}.tmp-{os.getpid()}"
    os.makedirs(obs_dir, exist_ok=True)
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(list(records), fh)
    os.replace(tmp, path)
    return path


def load_worker_metrics(obs_dir: str, skip_pid: Optional[int] = None) -> list[list[dict]]:
    """Read every ``metrics-<pid>.json`` dump except *skip_pid*'s.

    Each dump is a process's *cumulative* registry, so the last file per
    pid (there is only one — dumps overwrite) is summed across pids by
    the caller via :func:`repro.obs.metrics.merge_records`.
    """
    out: list[list[dict]] = []
    if not os.path.isdir(obs_dir):
        return out
    for name in sorted(os.listdir(obs_dir)):
        if not (name.startswith("metrics-") and name.endswith(".json")):
            continue
        try:
            pid = int(name[len("metrics-") : -len(".json")])
        except ValueError:
            continue
        if skip_pid is not None and pid == skip_pid:
            continue
        try:
            with open(os.path.join(obs_dir, name), encoding="utf-8") as fh:
                records = json.load(fh)
        except (OSError, ValueError):
            continue  # torn write from a killed worker
        if isinstance(records, list):
            out.append(records)
    return out
