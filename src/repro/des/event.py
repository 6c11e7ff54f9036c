"""Simulation events and the pending-event queue.

Events are totally ordered by ``(time, priority, seq)``.  The sequence
number is assigned at scheduling time and breaks ties deterministically,
which is what makes both engines reproducible: two events scheduled for the
same timestamp always fire in scheduling order regardless of heap
internals.

The queue's heap holds ``(time, priority, seq, event)`` entries rather
than events, so :mod:`heapq` orders them with C-level float and int
comparisons.  ``seq`` is unique per queue, so two entries never tie and
an :class:`Event` itself is never compared.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

#: Default event priority.  Lower values fire first at equal timestamps.
PRIORITY_NORMAL = 100
#: Priority used by clock ticks so that periodic work precedes messages
#: delivered at the same instant.
PRIORITY_CLOCK = 50
#: Priority for engine-internal bookkeeping (fires before everything else).
PRIORITY_SYSTEM = 0


@dataclass(order=False)
class Event:
    """A single scheduled occurrence in simulated time.

    Parameters
    ----------
    time:
        Absolute simulation time (seconds) at which the event fires.
    handler:
        Callable invoked as ``handler(event)`` when the event fires.
    payload:
        Arbitrary user data carried by the event.
    priority:
        Secondary ordering key; lower fires first at equal ``time``.
    seq:
        Tertiary ordering key; assigned by the queue, unique per event.
    src / dst:
        Optional component names, used for tracing and for routing
        cross-partition events in the parallel engine.
    """

    time: float
    handler: Optional[Callable[["Event"], None]] = None
    payload: Any = None
    priority: int = PRIORITY_NORMAL
    seq: int = -1
    src: Optional[str] = None
    dst: Optional[str] = None
    cancelled: bool = field(default=False, compare=False)

    def sort_key(self) -> tuple:
        """The queue order; :class:`EventQueue` heap entries extend it."""
        return (self.time, self.priority, self.seq)

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event(t={self.time:.9g}, prio={self.priority}, seq={self.seq}, "
            f"src={self.src!r}, dst={self.dst!r})"
        )


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects.

    Wraps :mod:`heapq` with a monotonically increasing sequence counter so
    that ties on ``(time, priority)`` are broken in insertion order.
    """

    def __init__(self) -> None:
        #: ``(time, priority, seq, event)`` entries; see the module docstring
        self._heap: list[tuple[float, int, int, Event]] = []
        # A plain int rather than itertools.count(): the counter is part
        # of engine snapshots, so it must pickle and resume exactly.
        self._next_seq = 0
        self._cancelled_in_heap = 0

    def take_seq(self) -> int:
        """Claim the next sequence number (shared tie-break ordering)."""
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def take_seqs(self, n: int) -> int:
        """Claim the next *n* sequence numbers at once; returns the first
        (the same numbers *n* :meth:`take_seq` calls would claim)."""
        seq = self._next_seq
        self._next_seq += n
        return seq

    @property
    def next_seq(self) -> int:
        """The sequence number the next :meth:`take_seq` will claim."""
        return self._next_seq

    def __len__(self) -> int:
        return max(0, len(self._heap) - self._cancelled_in_heap)

    def __bool__(self) -> bool:
        return self.peek_time() != float("inf")

    def push(self, event: Event) -> Event:
        """Insert *event*, assigning its sequence number.

        Returns the event for convenience (e.g. to keep a cancellation
        handle).
        """
        if event.seq < 0:
            event.seq = self.take_seq()
        heapq.heappush(self._heap, event.sort_key() + (event,))
        return event

    def pop(self) -> Event:
        """Remove and return the earliest live event.

        Raises
        ------
        IndexError
            If the queue holds no live events.
        """
        while self._heap:
            ev = heapq.heappop(self._heap)[3]
            if ev.cancelled:
                self._cancelled_in_heap = max(0, self._cancelled_in_heap - 1)
                continue
            return ev
        raise IndexError("pop from empty EventQueue")

    def peek_time(self) -> float:
        """Timestamp of the earliest live event, or ``inf`` if empty."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
            self._cancelled_in_heap = max(0, self._cancelled_in_heap - 1)
        if not heap:
            return float("inf")
        return heap[0][0]

    def peek_key(self) -> tuple:
        """``(time, priority, seq)`` of the earliest live event; the queue
        must not be empty."""
        self.peek_time()
        return self._heap[0][:3]

    def note_cancelled(self) -> None:
        """Account for an event cancelled while still in the heap.

        Cancellation via :meth:`Event.cancel` alone still works (cancelled
        events are skipped when popped); this hook merely keeps
        :func:`len` accurate.
        """
        self._cancelled_in_heap += 1
