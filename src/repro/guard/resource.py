"""Resource guard: probe disk/RSS/fds, walk the degradation ladder.

The :class:`ResourceGuard` is polled from the supervisor loop at
heartbeat cadence.  Each (throttled) tick it samples

* free disk bytes under the campaign's durable-write directory,
* this process's resident set size (``/proc/self/status`` VmRSS),
* this process's open file-descriptor count (``/proc/self/fd``),

publishes the sample to the ``guard_disk_free_bytes`` /
``guard_rss_bytes`` / ``guard_open_fds`` gauges and compares it against
:class:`ResourceLimits`.  Sustained pressure climbs the degradation
ladder one rung at a time, sacrificing the cheapest capability first:

====================  ========================================================
stage                 what is sacrificed
====================  ========================================================
``normal``            nothing
``suspend_exporters`` metric sinks (circuit-breaker opened) — telemetry lag
``pause_submission``  new task launches (backpressure) — throughput
``abort``             the run itself — but *resumably*: journal stays valid
====================  ========================================================

Pacing: the first pressured poll escalates at once (normal never
absorbs pressure); each further rung takes :data:`POLLS_PER_STAGE`
consecutive pressured polls, and each rung back down
:data:`RECOVER_POLLS` consecutive healthy ones.  So sustained pressure
aborts on the fifth poll, with the pressure reason.  At
``pause_submission`` the pressured polls need not be consecutive: a
healthy poll does not reset their count, so pressure that flaps too fast
to recover still ends the pause in ``abort``, within
``POLLS_PER_STAGE * RECOVER_POLLS`` polls.

Every transition is logged, appended to :attr:`ResourceGuard.transitions`,
counted in ``guard_ladder_transitions_total{direction,stage}``, mirrored
into the ``guard_ladder_stage`` gauge and reported to the one
``on_stage(frm, to, reason)`` hook, where the campaign applies the stage
actions.  A hook that raises is counted in ``guard_action_errors_total``
and never propagates: it must not take down the run the guard protects.

Probes are injectable (``disk_probe=...`` etc.) so tests can simulate
a filling disk without actually filling one; on platforms without
``/proc`` the RSS/fd probes return ``None`` and their limits simply
never trip.
"""

from __future__ import annotations

import logging
import math
import os
import shutil
import time
from dataclasses import dataclass
from typing import Callable, Optional

log = logging.getLogger("repro.guard")

STAGE_NORMAL = "normal"
STAGE_SUSPEND_EXPORTERS = "suspend_exporters"
STAGE_PAUSE_SUBMISSION = "pause_submission"
STAGE_ABORT = "abort"

#: The ladder, mildest first.  Index into this tuple is the severity.
STAGES = (
    STAGE_NORMAL,
    STAGE_SUSPEND_EXPORTERS,
    STAGE_PAUSE_SUBMISSION,
    STAGE_ABORT,
)

#: consecutive pressured polls per rung climbed (after the first)
POLLS_PER_STAGE = 2
#: consecutive healthy polls per rung stepped back down
RECOVER_POLLS = 3


def disk_free_bytes(path: str) -> Optional[int]:
    """Free bytes on the filesystem holding *path* (None if unstattable)."""
    try:
        return shutil.disk_usage(path).free
    except OSError:
        return None


def rss_bytes() -> Optional[int]:
    """Resident set size of this process, via /proc (None elsewhere)."""
    try:
        with open("/proc/self/status", "r", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    # "VmRSS:      123456 kB"
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


def open_fd_count() -> Optional[int]:
    """Open file descriptors of this process, via /proc (None elsewhere)."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return None


@dataclass(frozen=True)
class ResourceLimits:
    """Thresholds below/above which a poll counts as pressured.

    ``min_disk_free_bytes`` is a *floor* on headroom; ``max_rss_bytes``
    and ``max_open_fds`` are ceilings.  ``None`` disables that check.
    """

    min_disk_free_bytes: Optional[int] = 64 * 1024 * 1024
    max_rss_bytes: Optional[int] = None
    max_open_fds: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("min_disk_free_bytes", "max_rss_bytes", "max_open_fds"):
            val = getattr(self, name)
            if val is not None and not val >= 0:
                raise ValueError(f"{name} must be >= 0, got {val}")


@dataclass(frozen=True)
class ResourceSample:
    """One poll's measurements (None = probe unavailable)."""

    disk_free: Optional[int]
    rss: Optional[int]
    open_fds: Optional[int]

    def pressure_reasons(self, limits: ResourceLimits) -> list[str]:
        reasons = []
        if (
            limits.min_disk_free_bytes is not None
            and self.disk_free is not None
            and self.disk_free < limits.min_disk_free_bytes
        ):
            reasons.append(
                f"disk free {self.disk_free} < floor {limits.min_disk_free_bytes}"
            )
        if (
            limits.max_rss_bytes is not None
            and self.rss is not None
            and self.rss > limits.max_rss_bytes
        ):
            reasons.append(f"rss {self.rss} > ceiling {limits.max_rss_bytes}")
        if (
            limits.max_open_fds is not None
            and self.open_fds is not None
            and self.open_fds > limits.max_open_fds
        ):
            reasons.append(f"open fds {self.open_fds} > ceiling {limits.max_open_fds}")
        return reasons


class ResourceGuard:
    """Polls resource probes and walks the degradation ladder."""

    def __init__(
        self,
        watch_path: str = ".",
        limits: Optional[ResourceLimits] = None,
        poll_interval_s: float = 1.0,
        registry=None,
        clock: Callable[[], float] = time.monotonic,
        disk_probe: Optional[Callable[[str], Optional[int]]] = None,
        rss_probe: Optional[Callable[[], Optional[int]]] = None,
        fd_probe: Optional[Callable[[], Optional[int]]] = None,
    ) -> None:
        # Written so that NaN fails them too.
        if not 0 <= poll_interval_s < math.inf:
            raise ValueError(
                f"poll_interval_s must be finite and >= 0, got {poll_interval_s}"
            )
        self.watch_path = str(watch_path)
        self.limits = limits or ResourceLimits()
        self.poll_interval_s = float(poll_interval_s)
        self.registry = registry
        self._clock = clock
        self._disk_probe = disk_probe or disk_free_bytes
        self._rss_probe = rss_probe or rss_bytes
        self._fd_probe = fd_probe or open_fd_count
        self._next_poll_at = 0.0  # first tick always polls
        self.polls = 0
        self.last_sample: Optional[ResourceSample] = None
        #: called as ``on_stage(frm, to, reason)`` after each transition
        self.on_stage: Optional[Callable[[str, str, str], None]] = None
        #: chronological ``(from, to, reason)`` record of every transition
        self.transitions: list[tuple[str, str, str]] = []
        self.action_errors = 0
        self._stage_i = 0
        #: pressured polls on this rung: consecutive ones, except at
        #: ``pause_submission``, where healthy polls do not reset it
        self._pressured_polls = 0
        self._healthy_streak = 0

    @property
    def stage(self) -> str:
        return STAGES[self._stage_i]

    @property
    def paused(self) -> bool:
        """Task submission should be held back (pause or abort stage)."""
        return self._stage_i >= STAGES.index(STAGE_PAUSE_SUBMISSION)

    @property
    def abort_requested(self) -> bool:
        return self.stage == STAGE_ABORT

    @property
    def abort_reason(self) -> str:
        return self.transitions[-1][2] if self.abort_requested else ""

    def sample(self) -> ResourceSample:
        """Probe now, unconditionally (no throttle, no stage change)."""
        return ResourceSample(
            disk_free=self._disk_probe(self.watch_path),
            rss=self._rss_probe(),
            open_fds=self._fd_probe(),
        )

    def tick(self, force: bool = False) -> Optional[ResourceSample]:
        """Throttled poll: probe, publish gauges, maybe change stage.

        Returns the sample when a poll ran, else ``None``.
        """
        now = self._clock()
        if not force and now < self._next_poll_at:
            return None
        self._next_poll_at = now + self.poll_interval_s
        self.polls += 1
        samp = self.sample()
        self.last_sample = samp
        self._publish(samp)
        reasons = samp.pressure_reasons(self.limits)
        if reasons:
            self._note_pressure(", ".join(reasons))
        else:
            self._note_healthy()
        return samp

    def _note_pressure(self, reason: str) -> None:
        self._healthy_streak = 0
        self._pressured_polls += 1
        if self._stage_i > 0 and self._pressured_polls < POLLS_PER_STAGE:
            return
        self._pressured_polls = 0
        if self.stage != STAGE_ABORT:
            self._move(+1, reason)

    def _note_healthy(self) -> None:
        # While paused, pressured polls add up until the stage moves, so
        # pressure that flaps faster than RECOVER_POLLS cannot hold
        # submission back forever: it climbs to abort instead.
        if self.stage != STAGE_PAUSE_SUBMISSION:
            self._pressured_polls = 0
        if self._stage_i == 0:
            return
        self._healthy_streak += 1
        if self._healthy_streak >= RECOVER_POLLS:
            self._healthy_streak = 0
            self._pressured_polls = 0
            self._move(-1, "pressure cleared")

    def _move(self, step: int, reason: str) -> None:
        """One rung up (``step=+1``) or down (``-1``): record, report."""
        frm = self.stage
        self._stage_i += step
        to = self.stage
        direction = "up" if step > 0 else "down"
        self.transitions.append((frm, to, reason))
        log.warning("[guard] degradation ladder %s: %s -> %s (%s)", direction, frm, to, reason)
        reg = self._registry()
        reg.counter(
            "guard_ladder_transitions_total",
            help="Degradation-ladder stage transitions.",
            direction=direction,
            stage=to,
        ).inc()
        reg.gauge(
            "guard_ladder_stage",
            help="Current degradation-ladder stage index (0 = normal).",
        ).set(self._stage_i)
        if self.on_stage is None:
            return
        try:
            self.on_stage(frm, to, reason)
        except Exception:
            # An upward move runs the entered stage's actions, a downward
            # one undoes the left stage's; the error is counted under it.
            stage, kind = (to, "enter") if step > 0 else (frm, "exit")
            self.action_errors += 1
            reg.counter(
                "guard_action_errors_total",
                help="Ladder stage actions that raised.",
                stage=stage,
            ).inc()
            log.exception("ladder %s action for %s failed", kind, stage)

    def _registry(self):
        if self.registry is not None:
            return self.registry
        from repro.obs.metrics import get_registry

        return get_registry()

    def _publish(self, samp: ResourceSample) -> None:
        reg = self._registry()
        if samp.disk_free is not None:
            reg.gauge(
                "guard_disk_free_bytes",
                help="Free disk bytes under the guarded write directory.",
            ).set(samp.disk_free)
        if samp.rss is not None:
            reg.gauge(
                "guard_rss_bytes", help="Supervisor resident set size."
            ).set(samp.rss)
        if samp.open_fds is not None:
            reg.gauge(
                "guard_open_fds", help="Supervisor open file descriptors."
            ).set(samp.open_fds)
