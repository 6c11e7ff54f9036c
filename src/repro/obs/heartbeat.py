"""Live terminal heartbeat for long campaign runs.

One rate-limited status line to stderr::

    [campaign] 37/128 done · 2 failed · 1 quarantined · 184k ev/s · ETA 0:42

Progress is replica-granular (the campaign knows its total up front),
the event rate is cumulative engine events over wall time, and the ETA
extrapolates from mean seconds-per-completed-replica.  Writes go
through :func:`repro.obs.export.guarded_export`, so a broken stderr
(or redirected file) never interrupts the simulation.
"""

from __future__ import annotations

import sys
import time
from typing import Optional, TextIO

from repro.obs.export import guarded_export


def _fmt_eta(seconds: float) -> str:
    seconds = max(0, int(seconds))
    h, rem = divmod(seconds, 3600)
    m, s = divmod(rem, 60)
    return f"{h}:{m:02d}:{s:02d}" if h else f"{m}:{s:02d}"


def _fmt_rate(rate: float) -> str:
    if rate >= 1e6:
        return f"{rate / 1e6:.1f}M"
    if rate >= 1e3:
        return f"{rate / 1e3:.0f}k"
    return f"{rate:.0f}"


class CampaignHeartbeat:
    """Tracks campaign progress and prints a throttled status line.

    The campaign calls :meth:`replica_done` / :meth:`replica_failed` /
    :meth:`replica_quarantined` as results arrive and :meth:`beat` from
    its supervision loop; :meth:`beat` is a no-op until ``interval_s``
    has elapsed since the last line.
    """

    def __init__(
        self,
        interval_s: float = 2.0,
        stream: Optional[TextIO] = None,
        label: str = "campaign",
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.interval_s = float(interval_s)
        self.stream = stream
        self.label = label
        self.total = 0
        self.done = 0
        self.failed = 0
        self.quarantined = 0
        self.events = 0
        self.resumed = 0
        self.lines_printed = 0
        #: degradation-ladder stage shown in the line ("" or "normal" hides it)
        self.stage = ""
        self._t_start = time.monotonic()
        self._last_beat: Optional[float] = None

    # -- progress feed -------------------------------------------------------

    def set_total(self, total: int) -> None:
        self.total = total

    def replica_done(self, events_fired: int = 0, from_journal: bool = False) -> None:
        self.done += 1
        self.events += int(events_fired)
        if from_journal:
            self.resumed += 1

    def replica_failed(self) -> None:
        self.failed += 1

    def replica_quarantined(self) -> None:
        self.quarantined += 1
        self.done += 1  # quarantined replicas no longer count toward ETA work

    def set_stage(self, stage: str) -> None:
        """Record the degradation-ladder stage for the status line."""
        self.stage = stage

    # -- output --------------------------------------------------------------

    def status_line(self) -> str:
        elapsed = max(time.monotonic() - self._t_start, 1e-9)
        parts = [f"{self.done}/{self.total or '?'} done"]
        if self.failed:
            parts.append(f"{self.failed} failed")
        if self.quarantined:
            parts.append(f"{self.quarantined} quarantined")
        if self.resumed:
            parts.append(f"{self.resumed} from journal")
        if self.events:
            parts.append(f"{_fmt_rate(self.events / elapsed)} ev/s")
        fresh = self.done - self.resumed
        remaining = max(self.total - self.done, 0)
        if fresh > 0 and remaining > 0:
            parts.append(f"ETA {_fmt_eta(elapsed / fresh * remaining)}")
        if self.stage and self.stage != "normal":
            parts.append(f"degraded: {self.stage}")
        return f"[{self.label}] " + " · ".join(parts)

    def beat(self, force: bool = False) -> bool:
        """Print the status line if the interval elapsed (or *force*)."""
        now = time.monotonic()
        if not force and self._last_beat is not None:
            if now - self._last_beat < self.interval_s:
                return False
        self._last_beat = now
        line = self.status_line()

        def _write() -> None:
            stream = self.stream if self.stream is not None else sys.stderr
            stream.write(line + "\n")
            stream.flush()

        if guarded_export(f"heartbeat:{self.label}", _write):
            self.lines_printed += 1
            return True
        return False
