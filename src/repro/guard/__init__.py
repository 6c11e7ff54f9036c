"""repro.guard — resource-exhaustion resilience for the durability stack.

Three pieces:

* :mod:`repro.guard.durable` — how a file is made durable (atomic
  write, :func:`fsync_dir`, the write-ahead journal) and how a torn one
  is read.
* :mod:`repro.guard.fsfault` — deterministic, injectable filesystem
  faults (``ENOSPC``/``EIO``/``EMFILE``/slow I/O) at every durable write.
* :mod:`repro.guard.resource` — the :class:`ResourceGuard`: polled at
  supervisor cadence, it probes disk headroom, RSS and open fds and
  walks the degradation ladder of ordered, observable, reversible
  :data:`STAGES`, from suspending the metric exporters through pausing
  task submission to a clean abort that leaves a resumable journal.

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
from repro.guard.resource import (
    STAGES,
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
