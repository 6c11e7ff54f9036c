"""repro.guard — resource-exhaustion resilience for the durability stack.

Four pieces:

* :mod:`repro.guard.durable` — how a file is made durable (atomic
  write, :func:`fsync_dir`, the write-ahead journal) and how a torn one
  is read.
* :mod:`repro.guard.fsfault` — deterministic, injectable filesystem
  faults (``ENOSPC``/``EIO``/``EMFILE``/slow I/O) at every durable write.
* :mod:`repro.guard.resource` — the :class:`ResourceGuard` watchdog
  (disk headroom, RSS, open fds) polled at supervisor cadence.
* :mod:`repro.guard.ladder` — the :class:`DegradationLadder` of ordered,
  observable, reversible stages, from shedding old snapshots all the way
  to a checkpoint-and-clean-abort that leaves a resumable journal.

:mod:`repro.guard.circuit` provides the :class:`CircuitBreaker` used for
exporter suspension and half-open recovery probes.
"""

from repro.guard.circuit import CircuitBreaker
from repro.guard.durable import fsync_dir
from repro.guard.fsfault import (
    FS_FAULT_KINDS,
    FsFaultConfig,
    FsFaultInjector,
    active,
    fault_check,
    injected,
    install,
    uninstall,
)
from repro.guard.ladder import STAGES, DegradationLadder
from repro.guard.resource import (
    ResourceGuard,
    ResourceLimits,
    ResourceSample,
    disk_free_bytes,
    open_fd_count,
    rss_bytes,
)

__all__ = [
    "FS_FAULT_KINDS",
    "STAGES",
    "CircuitBreaker",
    "DegradationLadder",
    "FsFaultConfig",
    "FsFaultInjector",
    "ResourceGuard",
    "ResourceLimits",
    "ResourceSample",
    "active",
    "disk_free_bytes",
    "fault_check",
    "fsync_dir",
    "injected",
    "install",
    "open_fd_count",
    "rss_bytes",
    "uninstall",
]
