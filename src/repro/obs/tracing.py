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
spans (replica body, engine run) parent onto it and travel home as
:meth:`Span.to_dict` records inside the replica result, where the
campaign merges them into the single timeline `core.trace` renders for
Perfetto.

Spans use epoch wall-clock (`time.time`) so spans recorded by different
processes align on a common axis.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Optional


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


@dataclass(frozen=True)
class ObsContext:
    """Everything a worker process needs to join the campaign's trace.

    Carried inside the replica's ReplicaTask; the worker builds its own
    :class:`Tracer` with ``default_parent_id=parent_span_id`` and sends
    its finished spans (and, in a worker process, its metrics) back in
    the replica result's transient ``"obs"`` key.  ``host_pid`` tells a
    worker process from in-process (sequential/degraded) execution,
    which records straight into the campaign's registry.
    """

    trace_id: str
    parent_span_id: Optional[str]
    host_pid: int
