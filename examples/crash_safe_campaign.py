#!/usr/bin/env python
"""Crash-safe campaign execution: chaos injection, journal, resume.

Runs a resilience sweep while the *harness itself* is under attack —
workers are made to crash, hang and return garbage with the configured
probabilities — and shows that:

* the supervisor retries/rebuilds its way to a complete report,
* every completed replica is durably journaled exactly once,
* the chaos run's report is bit-identical to a calm run's,
* a resumed campaign recomputes nothing, and
* a partial report is available from the journal at any time.

Run:  python examples/crash_safe_campaign.py        (seconds)
"""

import os
import tempfile

from repro.core.campaign import ResilienceCampaign
from repro.core.supervisor import HarnessFaultInjector, RetryPolicy

MTBFS = [8.0, 32.0]
PERIODS = [5]
TIMESTEPS = 20


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-wal-") as workdir:
        demo(os.path.join(workdir, "wal.jsonl"))


def demo(journal: str) -> None:
    print("== Chaos run: 20% of worker attempts crash or hang ==")
    camp = ResilienceCampaign(
        reps=8,
        base_seed=0,
        n_workers=2,
        retry=RetryPolicy(timeout_s=5.0, max_retries=20, backoff_base_s=0.01),
        journal_path=journal,
        fault_injector=HarnessFaultInjector(
            crash_prob=0.15, hang_prob=0.05, hang_s=60.0, seed=11
        ),
    )
    chaotic = camp.run_grid(MTBFS, PERIODS, timesteps=TIMESTEPS)
    camp.close()
    print(chaotic.format())
    print(f"harness: {camp.harness_stats.summary()}")

    print("\n== Same sweep without chaos — reports must match ==")
    calm = ResilienceCampaign(reps=8, base_seed=0).run_grid(
        MTBFS, PERIODS, timesteps=TIMESTEPS
    )
    print(f"bit-identical to chaos run: {calm.to_json() == chaotic.to_json()}")

    print("\n== Resume: the journal already holds every replica ==")
    resumed = ResilienceCampaign.resume(journal)
    report = resumed.run_grid(MTBFS, PERIODS, timesteps=TIMESTEPS)
    resumed.close()
    print(f"recomputed replicas: {resumed.harness_stats.completed}")
    print(f"bit-identical after resume: {report.to_json() == chaotic.to_json()}")

    print("\n== Partial report straight from the journal ==")
    print(ResilienceCampaign.report_from_journal(journal).format())


if __name__ == "__main__":
    main()
