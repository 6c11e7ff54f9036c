"""Regenerate ``reference.json``, the digests every benchmark run is checked against.

    python3 perfbench/record_reference.py

Run it only when a change is meant to alter simulated outputs.  fig7's
outputs depend on the seed, so it records seeds ``0 .. FIG7_SEEDS-1``; a
run at any other seed checks its timed runs against its own warm-up run.
The two campaign workloads run a fixed replica set whatever the seed, so
they record one digest table each, and this script checks that two
different seeds (two different run orders) agree on it.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: fig7 seeds with a committed reference
FIG7_SEEDS = 32


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import run, workloads

    work = os.path.join(run.OUT, "work")
    ref: dict = {"fig7": {}}
    fig7 = workloads.make("fig7", 0, work)
    fig7.setup()
    for seed in range(FIG7_SEEDS):
        fig7.seed = seed
        ref["fig7"][fig7.reference_key] = fig7.run().digests
        print(f"fig7 seed {seed}", flush=True)
    for name in ("replica_mixed", "campaign_sweep"):
        tables = []
        for seed in (0, 1):
            w = workloads.make(name, seed, work)
            w.setup()
            tables.append(w.run().digests)
        if tables[0] != tables[1]:
            raise SystemExit(f"{name}: digests depend on the run order")
        ref[name] = {w.reference_key: tables[0]}
        print(name, flush=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
