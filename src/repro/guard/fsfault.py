"""Injectable filesystem faults for the durability stack.

The writers in :mod:`repro.guard.durable` — the campaign WAL and the
event journal, atomic writes of snapshots, flight dumps, reports and
Prometheus snapshots, the flight spill — and the JSONL metric sink call
:func:`fault_check` before touching the filesystem.  One writer does
not, because losing it costs forensics, not results: the supervisor
failure log.

With no injector installed the call is one module-global read and an
``is None`` test; with one installed, each checked operation draws a
deterministic uniform from ``sha256(seed:op_index)`` and may raise
``ENOSPC`` / ``EIO`` / ``EMFILE`` or stall (slow I/O), exactly as a
full disk, dying device or fd-exhausted host would.

Determinism is the point: a given :class:`FsFaultConfig` produces the
same fault at the same operation index every run, so a chaos test that
kills the Nth WAL append can assert byte-exact resume behaviour.  An
installed shim covers one process only: campaign workers get theirs
from ``HarnessFaultInjector.fs``, installed once per worker by the
supervisor's pool initializer (:func:`repro.core.supervisor._init_worker`),
which also drops any shim a forked worker inherited from its parent.
"""

from __future__ import annotations

import errno
import hashlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

#: Fault kinds the shim can inject, in threshold-stacking order.
FS_FAULT_KINDS = ("enospc", "eio", "emfile", "slow")

_ERRNO = {
    "enospc": errno.ENOSPC,
    "eio": errno.EIO,
    "emfile": errno.EMFILE,
}


@dataclass(frozen=True)
class FsFaultConfig:
    """What to inject, how often, and where.

    Parameters
    ----------
    enospc_prob / eio_prob / emfile_prob:
        Per-checked-operation probability of raising the corresponding
        :class:`OSError` (stacked thresholds over one uniform draw, so
        each lies in [0, 1] and they sum to <= 1 with ``slow_prob``).
    slow_prob / slow_s:
        Probability of stalling the operation by ``slow_s`` seconds
        instead of failing it (a congested or thrashing device).
    after_ops:
        Arm the injector only after this many eligible operations —
        ``after_ops=N`` with ``enospc_prob=1.0`` deterministically
        fails the (N+1)-th durable write, the "disk fills mid-run"
        scenario.
    max_faults:
        Stop injecting after this many fired faults (``None`` = never):
        models space being freed / the device recovering.
    path_substring:
        Only operations whose path contains this substring are eligible
        (e.g. ``"wal"`` to starve just the journal).  Empty = all.
    ops:
        Restrict eligibility to these operation names (``None`` = all).
        DESIGN.md §11 lists the vocabulary (``wal.append``,
        ``snapshot.write``, ``metrics.jsonl``, ...).
    seed:
        Keys the deterministic draw stream.
    """

    enospc_prob: float = 0.0
    eio_prob: float = 0.0
    emfile_prob: float = 0.0
    slow_prob: float = 0.0
    slow_s: float = 0.01
    after_ops: int = 0
    max_faults: Optional[int] = None
    path_substring: str = ""
    ops: Optional[tuple] = None
    seed: int = 0

    def __post_init__(self) -> None:
        probs = (self.enospc_prob, self.eio_prob, self.emfile_prob, self.slow_prob)
        for prob in probs:
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"fs fault probabilities must lie in [0, 1], got {prob}")
        if sum(probs) > 1.0:
            raise ValueError(f"fs fault probabilities must sum to <= 1, got {sum(probs)}")
        if self.after_ops < 0:
            raise ValueError(f"after_ops must be >= 0, got {self.after_ops}")
        if self.max_faults is not None and self.max_faults < 0:
            raise ValueError(f"max_faults must be >= 0, got {self.max_faults}")
        if self.slow_s < 0:
            raise ValueError(f"slow_s must be >= 0, got {self.slow_s}")
        if self.ops is not None and not isinstance(self.ops, tuple):
            # Normalize a list so the frozen config compares and hashes.
            object.__setattr__(self, "ops", tuple(self.ops))


class FsFaultInjector:
    """Deterministic fault stream over checked filesystem operations."""

    def __init__(self, config: FsFaultConfig) -> None:
        self.config = config
        #: eligible operations seen so far (the deterministic draw index)
        self.ops_seen = 0
        #: faults actually fired
        self.injected = 0
        self.by_kind: dict[str, int] = {kind: 0 for kind in FS_FAULT_KINDS}

    def draw(self, index: int) -> float:
        digest = hashlib.sha256(f"{self.config.seed}:{index}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def check(self, op: str, path: str = "", nbytes: int = 0) -> None:
        """Maybe fail/stall the operation *op* targeting *path*."""
        cfg = self.config
        if cfg.ops is not None and op not in cfg.ops:
            return
        if cfg.path_substring and cfg.path_substring not in str(path):
            return
        index = self.ops_seen
        self.ops_seen += 1
        if index < cfg.after_ops:
            return
        if cfg.max_faults is not None and self.injected >= cfg.max_faults:
            return
        u = self.draw(index)
        edge = 0.0
        for kind, prob in (
            ("enospc", cfg.enospc_prob),
            ("eio", cfg.eio_prob),
            ("emfile", cfg.emfile_prob),
            ("slow", cfg.slow_prob),
        ):
            edge += prob
            if u < edge:
                self._fire(kind, op, path)
                return

    def _fire(self, kind: str, op: str, path: str) -> None:
        self.injected += 1
        self.by_kind[kind] += 1
        _count_injected(kind, op)
        if kind == "slow":
            time.sleep(self.config.slow_s)
            return
        code = _ERRNO[kind]
        raise OSError(
            code, f"{os.strerror(code)} [injected by fsfault: {op}]", str(path)
        )


def _count_injected(kind: str, op: str) -> None:
    """Rare-path telemetry (lazy import keeps this module obs-free)."""
    from repro.obs.metrics import get_registry

    get_registry().counter(
        "guard_fsfaults_injected_total",
        help="Filesystem faults injected by the fsfault shim.",
        kind=kind,
        op=op,
    ).inc()


# -- process-wide installation -----------------------------------------------

_installed: Optional[FsFaultInjector] = None


def install(injector: FsFaultInjector) -> FsFaultInjector:
    """Make *injector* the process-wide shim (replacing any previous)."""
    global _installed
    _installed = injector
    return injector


def uninstall() -> None:
    global _installed
    _installed = None


def active() -> Optional[FsFaultInjector]:
    return _installed


@contextmanager
def injected(config_or_injector):
    """``with injected(FsFaultConfig(...)):`` — scoped installation."""
    inj = (
        config_or_injector
        if isinstance(config_or_injector, FsFaultInjector)
        else FsFaultInjector(config_or_injector)
    )
    prev = _installed
    install(inj)
    try:
        yield inj
    finally:
        install(prev) if prev is not None else uninstall()


def fault_check(op: str, path: str = "", nbytes: int = 0) -> None:
    """The hook durable-write paths call before touching the filesystem.

    Near-zero cost when no injector is installed (one global read).
    """
    inj = _installed
    if inj is not None:
        inj.check(op, path, nbytes)
