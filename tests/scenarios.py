"""Campaign scenario table: the CLI-level determinism and kill/resume gates.

Each row is one fault scenario, run through ``python -m repro campaign``
as a subprocess (so exit codes mean what they mean to a shell) in a
fresh temporary directory.  For every row the driver

1. takes a reference report: a baseline run (``argv`` + ``base``,
   journaled to ``base.wal``), or the committed golden report;
2. reruns ``argv`` + each variant's flags and requires the report
   byte-equal to the reference;
3. for each cut point N in ``enospc_after``, fails the (N+1)-th durable
   write through the fsfault shim (``--chaos-enospc-after N``), requires
   exit 4 and a non-empty WAL, then resumes from that WAL and requires
   the reference report again.  At least one of a row's cuts must leave
   a journaled replica behind, so a resume merges journaled replicas
   with fresh ones rather than rerunning the whole sweep;
4. with ``replicas``, requires that many distinct replica records, and
   no duplicate, in the baseline's journal;
5. checks the reference report: ``partial`` false, every point's
   ``replicas_done == reps``, its ``fault_kinds`` within ``kinds``, each
   named result block's exact key set, and the row's own ``check``.

Run every row from the repository root (no flags)::

    python -m tests.scenarios

It exits 1 and prints ``FAIL <row>: <check>`` for each failing row.
Not collected by pytest; ``tests/test_scenarios.py`` checks in
milliseconds that every row's argv still parses.
"""

from __future__ import annotations

import difflib
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Optional

REPO = Path(__file__).resolve().parent.parent
GOLDEN_REPORT = REPO / "tests" / "core" / "golden" / "report.json"

#: a variant that adds no flag: the same campaign, run again
RERUN = ""
#: per-run wall limit: a hung campaign fails its row instead of the job
RUN_TIMEOUT_S = 600


@dataclass(frozen=True)
class Scenario:
    name: str
    #: campaign flags shared by every run of the row
    argv: str
    #: flags only the baseline run adds (harness chaos that must not
    #: move the report); variants, the kill and the resume omit them
    base: str = ""
    #: flags appended to ``argv``, one run each; each report must equal
    #: the reference byte for byte
    variants: tuple[str, ...] = ()
    #: ``--chaos-enospc-after`` cut points, one killed run and one resume
    #: each: the kill must exit 4 with a non-empty WAL, the resume equal
    #: the reference.  Four durable writes (WAL open, header, directory
    #: fsync, point) precede the first replica record, so N = 4 + k
    #: keeps k replicas journaled (without ``--flight-dir``).
    enospc_after: tuple[int, ...] = ()
    #: the reference is the committed golden report, not a baseline run
    golden: bool = False
    #: distinct replica records the baseline's journal must hold
    replicas: Optional[int] = None
    #: the fault kinds a point may report (``None``: not checked);
    #: when given, ``fault_kinds`` must also be non-empty
    kinds: Optional[frozenset] = None
    #: exact key set of each named result block of every point
    blocks: Mapping[str, frozenset] = field(default_factory=dict)
    #: row-specific arithmetic on each point of the reference report
    check: Optional[Callable[[dict], None]] = None


def _sdc_accounts(point: dict) -> None:
    sdc = point["sdc"]
    assert sdc["detected"] + sdc["undetected"] == sdc["injected"], sdc
    assert point["wrong_results"] >= 0, point["wrong_results"]


def _links_fault(point: dict) -> None:
    kinds, net = point["fault_kinds"], point["net"]
    assert kinds.get("link", 0) > 0, f"no link faults drawn: {kinds}"
    assert net["faults"] >= kinds.get("link", 0), (net, kinds)


_SDC_MIX = (
    "--reps 6 --mtbf 16 --periods 5 --timesteps 10"
    " --fault-mix software=0.3 node=0.1 sdc=0.4 straggler=0.1 burst=0.1"
    " --verify-period 2 --sdc-coverage 0.9"
)
_NET_MIX = (
    "--reps 6 --mtbf 16 --periods 5 --timesteps 10"
    " --fault-mix node=0.5 link=0.5"
    " --net-topology torus --net-repair-time 1"
)
_HARNESS_CHAOS = (
    "--workers 2 --retries 20 --timeout 5"
    " --chaos-crash 0.2 --chaos-hang 0.05 --chaos-seed 1"
)

SCENARIOS: tuple[Scenario, ...] = (
    # in-simulation snapshots never change the report
    Scenario(
        name="snapshot",
        argv="--reps 2 --mtbf 16 --periods 5 --timesteps 10",
        variants=(
            "--sim-snapshot-dir ci-snaps --sim-snapshot-every 500",
            # every worker snapshot write fails ENOSPC: snapshots degrade,
            # the report does not move
            "--workers 2 --sim-snapshot-dir ci-snaps --sim-snapshot-every 50"
            " --chaos-enospc 1 --chaos-fs-path ci-snaps",
        ),
    ),
    # the pinned all-kinds campaign, killed mid-sweep, resumes to the
    # committed golden report; pool workers, whose replicas share one
    # compiled program per worker, produce it too
    Scenario(
        name="golden-resume",
        argv=(
            "--seed 13 --reps 4 --mtbf 2.5 --periods 4 --timesteps 20"
            " --fault-mix software=0.2 node=0.1 sdc=0.25 straggler=0.15"
            " burst=0.05 link=0.1 switch=0.05 netdeg=0.1"
            " --verify-period 3 --sdc-coverage 0.9"
            " --net-topology torus --net-repair-time 1"
        ),
        variants=("--workers 2",),
        golden=True,
        enospc_after=(2, 6),
    ),
    # a full disk mid-campaign aborts resumably
    Scenario(
        name="enospc",
        argv="--reps 8 --mtbf 16 --periods 5 --timesteps 10",
        enospc_after=(4, 8),
    ),
    # SDC, stragglers and bursts alongside fail-stop share one seeded
    # stream; SDC latency accounting survives a resume
    Scenario(
        name="sdc",
        argv=_SDC_MIX,
        variants=(RERUN,),
        enospc_after=(4, 7),
        kinds=frozenset({"software", "node", "sdc", "straggler", "burst"}),
        blocks={
            "sdc": frozenset(
                {"injected", "detected", "corrected", "undetected", "detect_latency_s"}
            ),
        },
        check=_sdc_accounts,
    ),
    # node deaths and link faults share one draw stream; overlay state
    # is rebuilt from the seed on resume
    Scenario(
        name="network",
        argv=_NET_MIX,
        variants=(RERUN,),
        enospc_after=(4, 7),
        kinds=frozenset({"node", "link", "switch", "netdeg"}),
        blocks={
            "net": frozenset(
                {
                    "faults",
                    "repairs",
                    "partition_stalls",
                    "degraded_commits",
                    "reroutes",
                    "retransmits",
                }
            ),
        },
        check=_links_fault,
    ),
    # injected worker crashes and hangs lose and duplicate no replica
    Scenario(
        name="chaos-crash",
        argv="--reps 4 --mtbf 16 --periods 5 --timesteps 10 " + _HARNESS_CHAOS,
        replicas=4,
    ),
    # chaos across grid-point boundaries on one pool equals a clean
    # sequential run
    Scenario(
        name="chaos-grid",
        argv="--reps 4 --mtbf 16 32 --periods 5 10 --timesteps 10",
        base=_HARNESS_CHAOS,
        variants=("--workers 1",),
        replicas=16,
    ),
    # the flight recorder never perturbs the report
    Scenario(
        name="flight",
        argv=(
            "--reps 4 --mtbf 8 --periods 5 --timesteps 20"
            " --fault-mix software=0.4 node=0.2 sdc=0.2 straggler=0.1 burst=0.1"
            " --verify-period 5"
        ),
        variants=("--journal forensic.wal --flight-dir flight",),
    ),
)


def planned_runs(row: Scenario) -> list[tuple[str, list[str]]]:
    """Every ``(label, campaign argv)`` the driver runs for *row*, in order."""
    argv = row.argv.split()
    runs = []
    if not row.golden:
        base = [*argv, *row.base.split(), "--journal", "base.wal", "--json", "base.json"]
        runs.append(("baseline", base))
    for i, flags in enumerate(row.variants):
        label = f"variant {flags!r}" if flags else "rerun"
        runs.append((label, [*argv, *flags.split(), "--json", f"variant{i}.json"]))
    for n in row.enospc_after:
        journal = ["--journal", f"kill{n}.wal"]
        kill = ["--json", f"partial{n}.json", "--chaos-enospc-after", str(n)]
        runs.append((f"enospc@{n}", [*argv, *journal, *kill]))
        runs.append((f"resume@{n}", [*argv, *journal, "--resume", "--json", f"resumed{n}.json"]))
    return runs


class ScenarioFailure(Exception):
    """One failed check of one row."""


def _campaign(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    try:
        return subprocess.run(
            [sys.executable, "-m", "repro", "campaign", *argv],
            cwd=cwd,
            env=env,
            capture_output=True,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise ScenarioFailure(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(argv)}") from exc


def _same_report(label: str, got: str, want: str) -> None:
    if got != want:
        diff = difflib.unified_diff(
            want.splitlines(), got.splitlines(), "reference", label, lineterm="", n=1
        )
        raise ScenarioFailure(
            f"{label} report differs from the reference:\n" + "\n".join(list(diff)[:20])
        )


def _journaled_replicas(wal: Path) -> list[tuple]:
    records = [json.loads(line) for line in wal.read_text().splitlines() if line]
    return [(r["spec_key"], r["replica"]) for r in records if r.get("kind") == "replica"]


def _check_report(row: Scenario, report: dict) -> None:
    if report["partial"]:
        raise ScenarioFailure("report: campaign left the sweep incomplete (partial)")
    for i, point in enumerate(report["points"]):
        where = f"report point {i}"
        if point["replicas_done"] != point["reps"]:
            raise ScenarioFailure(
                f"{where}: replicas_done {point['replicas_done']} != reps {point['reps']}"
            )
        if row.kinds is not None:
            kinds = point["fault_kinds"]
            if not kinds or not set(kinds) <= row.kinds:
                raise ScenarioFailure(
                    f"{where}: fault_kinds {sorted(kinds)} not a non-empty subset "
                    f"of {sorted(row.kinds)}"
                )
        for block, keys in row.blocks.items():
            if set(point.get(block, ())) != keys:
                raise ScenarioFailure(
                    f"{where}: {block!r} block keys {sorted(point.get(block, ()))} "
                    f"!= {sorted(keys)}"
                )
        if row.check is not None:
            try:
                row.check(point)
            except AssertionError as exc:
                raise ScenarioFailure(f"{where}: {row.check.__name__}: {exc}") from exc


def run_scenario(row: Scenario, workdir: Path) -> None:
    """Run every check of *row* in *workdir*; raise ScenarioFailure on the first miss."""
    reference = GOLDEN_REPORT.read_text() if row.golden else None
    kept = 0  # most replicas any cut left journaled
    for label, argv in planned_runs(row):
        proc = _campaign(argv, workdir)
        killed = label.startswith("enospc")
        want_code = 4 if killed else 0
        if proc.returncode != want_code:
            raise ScenarioFailure(
                f"{label}: exit {proc.returncode}, expected {want_code}\n{proc.stderr[-2000:]}"
            )
        out = workdir / argv[argv.index("--json") + 1]
        if label == "baseline":
            reference = out.read_text()
        elif killed:
            wal = workdir / argv[argv.index("--journal") + 1]
            if not (wal.exists() and wal.stat().st_size > 0):
                raise ScenarioFailure(f"{label}: the aborted run left no journal to resume")
            kept = max(kept, len(_journaled_replicas(wal)))
        else:
            _same_report(label, out.read_text(), reference)
    if row.enospc_after and not kept:
        raise ScenarioFailure(
            "enospc: no cut left a journaled replica, so no resume merged "
            "journaled replicas with fresh ones"
        )
    if row.replicas is not None:
        replicas = _journaled_replicas(workdir / "base.wal")
        if len(replicas) != len(set(replicas)):
            raise ScenarioFailure("journal: duplicated replica records")
        if len(replicas) != row.replicas:
            raise ScenarioFailure(
                f"journal: {len(replicas)} replica records, expected {row.replicas}"
            )
    _check_report(row, json.loads(reference))


def main() -> int:
    failed = []
    start = time.perf_counter()
    for row in SCENARIOS:
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix=f"scenario-{row.name}-") as tmp:
            try:
                run_scenario(row, Path(tmp))
                detail = None
            except ScenarioFailure as exc:
                detail = str(exc)
            except Exception as exc:  # e.g. an unreadable report fails its row, not the run
                detail = f"{type(exc).__name__}: {exc}"
        if detail is None:
            print(f"ok   {row.name} ({time.perf_counter() - t0:.1f} s)", flush=True)
        else:
            failed.append(row.name)
            print(f"FAIL {row.name}: {detail}", flush=True)
    print(
        f"{len(SCENARIOS) - len(failed)}/{len(SCENARIOS)} scenarios passed "
        f"in {time.perf_counter() - start:.1f} s"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
