"""Golden bit-identity gate for the fault machinery.

Regenerates the pinned campaign from ``tests/core/golden/README.md``
and byte-compares every artifact against the committed fixtures:
report JSON, WAL journal, campaign stdout, and the per-replica
flight-recorder dumps (pid-normalized — the only volatile field).

This is the hard gate behind the pluggable fault-domain refactor: any
change to draw-stream order, recovery bookkeeping, episode layout,
metric side effects that feed the report, or flight-note text shows up
here as a byte diff at identical seeds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"

#: the pinned configuration (mirrors golden/README.md); exercises all
#: eight fault kinds and produces at least one aborted replica
CAMPAIGN_ARGS = [
    "campaign",
    "--seed", "13",
    "--reps", "4",
    "--mtbf", "2.5",
    "--periods", "4",
    "--timesteps", "20",
    "--fault-mix", "software=0.2", "node=0.1", "sdc=0.25",
    "straggler=0.15", "burst=0.05", "link=0.1", "switch=0.05",
    "netdeg=0.1",
    "--verify-period", "3",
    "--sdc-coverage", "0.9",
    "--net-topology", "torus",
    "--net-repair-time", "1",
]


def normalize_flight(text: str) -> str:
    """Zero the volatile ``pid`` field; everything else is byte-exact."""
    out = []
    for line in text.splitlines():
        rec = json.loads(line)
        if "pid" in rec:
            rec["pid"] = 0
        out.append(json.dumps(rec, sort_keys=True))
    return "\n".join(out) + "\n"


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden_regen")
    cmd = [sys.executable, "-m", "repro", *CAMPAIGN_ARGS,
           "--journal", str(out / "campaign.wal.jsonl"),
           "--flight-dir", str(out / "flight"),
           "--json", str(out / "report.json")]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    (out / "stdout.txt").write_text(proc.stdout)
    return out


def test_report_bit_identical(regenerated):
    got = (regenerated / "report.json").read_bytes()
    want = (GOLDEN / "report.json").read_bytes()
    assert got == want


def test_journal_bit_identical(regenerated):
    got = (regenerated / "campaign.wal.jsonl").read_bytes()
    want = (GOLDEN / "campaign.wal.jsonl").read_bytes()
    assert got == want


def test_stdout_bit_identical(regenerated):
    got = (regenerated / "stdout.txt").read_bytes()
    want = (GOLDEN / "stdout.txt").read_bytes()
    assert got == want


def test_flight_dumps_bit_identical(regenerated):
    want_dir = GOLDEN / "flight"
    got_dir = regenerated / "flight"
    want_names = sorted(p.name for p in want_dir.glob("flight-*.jsonl"))
    got_names = sorted(p.name for p in got_dir.glob("flight-*.jsonl"))
    assert got_names == want_names
    for name in want_names:
        got = normalize_flight((got_dir / name).read_text())
        want = (want_dir / name).read_text()
        assert got == want, f"flight dump {name} diverged"


#: the same taxonomy as CAMPAIGN_ARGS, stated as a --fault-config file
FAULT_CONFIG = {
    "mix": {"software": 0.2, "node": 0.1, "sdc": 0.25, "straggler": 0.15,
            "burst": 0.05, "link": 0.1, "switch": 0.05, "netdeg": 0.1},
    "sdc": {"coverage": 0.9},
    "network": {"topology": "torus", "repair_s": 1},
}


def test_fault_config_report_bit_identical(tmp_path):
    """The --fault-config file is a pure front-end for the flags."""
    cfg = tmp_path / "faults.json"
    cfg.write_text(json.dumps(FAULT_CONFIG))
    report = tmp_path / "report.json"
    cmd = [sys.executable, "-m", "repro", "campaign",
           "--seed", "13", "--reps", "4", "--mtbf", "2.5", "--periods", "4",
           "--timesteps", "20", "--fault-config", str(cfg),
           "--verify-period", "3", "--json", str(report)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert report.read_bytes() == (GOLDEN / "report.json").read_bytes()


def test_golden_covers_every_fault_kind():
    """The fixture config must keep exercising the whole taxonomy."""
    from repro.faults.domains import FAULT_KINDS

    report = json.loads((GOLDEN / "report.json").read_text())
    seen = set()
    for point in report["points"]:
        seen.update(point.get("fault_kinds", {}))
    assert seen == set(FAULT_KINDS)
