#!/usr/bin/env python
"""Degraded-mode campaign: watch the ladder climb, abort, and resume.

Runs a resilience sweep under simulated resource exhaustion and shows
the full degradation story end to end:

* a :class:`ResourceGuard` with fake probes reports a disk that keeps
  filling, so the ladder climbs rung by rung — suspend exporters, pause
  submission — each transition visible in the heartbeat line
  (``degraded: <stage>``),
* the pressure outlasts the pause and the run aborts *cleanly* with a
  valid journal,
* "space is freed" (the fake probe turns healthy) and a resumed
  campaign completes, bit-identical to a run that never saw pressure.

The script fails (non-zero exit) unless the pressured run entered the
three stages in ladder order and aborted, and the resumed report equals
the calm one.

Run:  python examples/degraded_campaign.py        (seconds)
"""

import os
import tempfile

from repro.core.campaign import ResilienceCampaign
from repro.guard.resource import STAGES, ResourceGuard, ResourceLimits
from repro.obs.instrument import CampaignObs, ObsOptions

MTBFS = [8.0, 32.0]
PERIODS = [5]
TIMESTEPS = 20
REPS = 8

MiB = 1024 * 1024


class ShrinkingDisk:
    """Fake disk probe: loses ~'one snapshot' of headroom per poll."""

    def __init__(self, start=512 * MiB, leak=48 * MiB):
        self.free = start
        self.leak = leak

    def __call__(self, path: str):
        self.free = max(0, self.free - self.leak)
        return self.free


def make_guard(disk_probe) -> ResourceGuard:
    return ResourceGuard(
        watch_path=".",
        limits=ResourceLimits(min_disk_free_bytes=256 * MiB),
        poll_interval_s=0.0,  # poll every supervisor tick (demo pacing)
        disk_probe=disk_probe,
        rss_probe=lambda: None,
        fd_probe=lambda: None,
    )


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-wal-") as workdir:
        demo(os.path.join(workdir, "wal.jsonl"))


def demo(journal: str) -> None:
    print("== Pressured run: the disk 'fills' while the sweep executes ==")
    guard = make_guard(ShrinkingDisk())
    camp = ResilienceCampaign(
        reps=REPS,
        base_seed=0,
        journal_path=journal,
        guard=guard,
        obs=CampaignObs(ObsOptions(heartbeat_s=0.001)),
    )
    pressured = camp.run_grid(MTBFS, PERIODS, timesteps=TIMESTEPS)
    camp.close()
    print(f"\naborted: {camp.aborted} — {camp.abort_reason}")
    print(f"partial report covers {sum(p.replicas_done for p in pressured.points)} "
          f"journaled replicas")
    print("\nladder transitions, in order:")
    for frm, to, reason in guard.transitions:
        print(f"  {frm:>18s} -> {to:<18s} ({reason})")
    entered = [to for _, to, _ in guard.transitions]
    if not (camp.aborted and entered == list(STAGES[1:])):
        raise SystemExit(f"pressured run must climb {STAGES[1:]} in order and abort")

    print("\n== Space freed: resume completes the sweep ==")
    resumed = ResilienceCampaign.resume(journal)
    report = resumed.run_grid(MTBFS, PERIODS, timesteps=TIMESTEPS)
    resumed.close()
    print(report.format())

    print("\n== Same sweep with a guard that never saw pressure ==")
    calm_guard = make_guard(lambda path: 512 * MiB)
    calm_camp = ResilienceCampaign(reps=REPS, base_seed=0, guard=calm_guard)
    calm = calm_camp.run_grid(MTBFS, PERIODS, timesteps=TIMESTEPS)
    print(f"guard stayed at stage: {calm_guard.stage!r}")
    identical = report.to_json() == calm.to_json()
    print(f"resumed report bit-identical to calm run: {identical}")
    if not identical:
        raise SystemExit("resumed report must equal the calm run's")


if __name__ == "__main__":
    main()
