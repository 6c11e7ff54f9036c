"""Host-speed normalisation of measured times.

The processors of a shared host change speed in phases, by up to 2x for
seconds to minutes, as other tenants load the machine.  Process CPU time
slows with them, so neither wall nor CPU time of a run is comparable
between two moments.  A fixed pure-Python kernel, run on the same
processor right before and after a part of a run, slows with it: over
144 replica runs of ``replica_mixed`` the log of a part's slowdown
followed the log of the kernel's with slope 0.92 and correlation 0.82.
So a part's seconds divided by the kernel's seconds measures the
program's own cost; times :data:`REF_S` it reads as host seconds at the
kernel's unloaded speed.
"""

from __future__ import annotations

import contextlib
import heapq
import os
import signal
import time

#: seconds of :func:`kernel` on an unloaded core of the host the
#: benchmark was built on (a 2-core x86-64 Linux VM, Python 3.11); only
#: scales the normalised times back to seconds
REF_S = 0.0185
#: seconds between the probes taken inside a sampled part
EVERY = 0.5


class _Event:
    __slots__ = ("t", "seq", "key")

    def __init__(self, t: float, seq: int, key: int) -> None:
        self.t, self.seq, self.key = t, seq, key

    def fire(self, table: dict) -> float:
        v = table.get(self.key, 0.0) + self.t * 1.0000001
        table[self.key] = v
        return v


def kernel(steps: int = 20000) -> float:
    """A fixed event loop with the simulator's mix of operations.

    Heap pushes and pops of tuples, small slotted objects, dict lookups,
    method calls, float arithmetic and short strings.
    """
    heap, table, acc = [], {}, 0.0
    for i in range(64):
        heapq.heappush(heap, (i * 0.5, i, _Event(i * 0.5, i, i % 17)))
    for seq in range(64, 64 + steps):
        t, _, ev = heapq.heappop(heap)
        acc += ev.fire(table)
        nt = t + ((seq * 2654435761) % 1000) / 997.0
        heapq.heappush(heap, (nt, seq, _Event(nt, seq, (seq * 7) % 97)))
        if seq % 5 == 0:
            table["label"] = len("".join((str(seq), "/", str(ev.key))))
    return acc


def probe() -> float:
    """Seconds of one :func:`kernel` run on each allowed CPU, averaged.

    The process is moved to each CPU in turn, so a run spread over
    several CPUs (a process pool) is normalised by all of them.
    """
    cpus = sorted(os.sched_getaffinity(0))
    total = 0.0
    try:
        for cpu in cpus:
            if len(cpus) > 1:
                os.sched_setaffinity(0, {cpu})
            t0 = time.perf_counter()
            kernel()
            total += time.perf_counter() - t0
    finally:
        if len(cpus) > 1:
            os.sched_setaffinity(0, cpus)
    return total / len(cpus)


class PartTimer:
    """Normalised seconds of the parts of a run, by name.

    Each part's seconds are divided by the mean of the probes taken
    right before and right after it.  With *sample*, a timer signal also
    probes every :data:`EVERY` seconds while the part runs, so a host
    phase that starts or ends inside a long part is caught, and the
    probes' own time is taken out of the part's.  Sampling suits work in
    this process only: a probe taken while a child process runs would
    compete with it for the processor.
    """

    def __init__(self, sample: bool) -> None:
        self.parts: dict = {}
        self.sample = sample
        self._last = probe()

    @contextlib.contextmanager
    def part(self, name: str):
        probes = [self._last]
        if self.sample:
            previous = signal.signal(signal.SIGALRM, lambda *_: probes.append(probe()))
            signal.setitimer(signal.ITIMER_REAL, EVERY, EVERY)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - t0
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        seconds -= sum(probes[1:])
        self._last = probe()
        probes.append(self._last)
        self.parts[name] = seconds * REF_S / (sum(probes) / len(probes))


def normalised(fn, sample: bool) -> float:
    """Normalised seconds of one call of *fn* (see :class:`PartTimer`)."""
    timer = PartTimer(sample)
    with timer.part("call"):
        fn()
    return timer.parts["call"]
