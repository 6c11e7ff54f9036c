"""Flight recorder: bounded ring, crash-surviving spill, atomic dumps."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.campaign import CampaignSpec, build_campaign_simulator
from repro.core.fault_injection import RecoveryPolicy
from repro.obs.flightrec import (
    FlightRecorder,
    flight_dump_path,
    flight_spill_path,
    load_flight_dir,
    load_flight_dump,
)


def test_ring_is_bounded():
    rec = FlightRecorder(capacity=16)
    for i in range(100):
        rec.record("tick", float(i), n=i)
    assert len(rec.ring) == 16
    assert rec.seq == 100
    # the ring keeps the newest records
    assert [r["n"] for r in rec.ring] == list(range(84, 100))


def test_constructor_validation():
    with pytest.raises(ValueError):
        FlightRecorder(capacity=4)
    with pytest.raises(ValueError):
        FlightRecorder(tick_stride=1000)  # not a power of two


def test_record_allows_kind_payload_key():
    """Fault records carry their own ``kind``; it must not clobber the
    record type (the parameters are positional-only)."""
    rec = FlightRecorder()
    rec.record("inject", 1.0, kind="node", fault=3)
    (r,) = rec.ring
    assert r["kind"] == "inject" or r["kind"] == "node"
    # payload wins inside the dict, but the call itself must not raise
    assert r["fault"] == 3


def test_dump_roundtrip_and_no_tmp_litter(tmp_path):
    rec = FlightRecorder(capacity=16)
    for i in range(5):
        rec.record("tick", float(i), n=i)
    path = flight_dump_path(str(tmp_path), 42)
    rec.dump(path, meta={"seed": 42, "reason": "completed"})
    meta, records = load_flight_dump(path)
    assert meta == {"seed": 42, "reason": "completed"}
    assert [r["n"] for r in records] == list(range(5))
    # the atomic-write idiom leaves no temp files behind
    assert sorted(os.listdir(tmp_path)) == [os.path.basename(path)]


def test_load_skips_torn_tail_and_garbage(tmp_path):
    rec = FlightRecorder()
    rec.record("tick", 0.0, n=0)
    rec.record("tick", 1.0, n=1)
    path = rec.dump(flight_dump_path(str(tmp_path), 7), meta={"seed": 7})
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("not json at all\n")
        fh.write('{"kind": "tick", "n": 99}')  # torn: no trailing newline
    meta, records = load_flight_dump(path)
    assert meta == {"seed": 7}
    assert [r["n"] for r in records] == [0, 1]


def test_spill_survives_without_dump(tmp_path):
    """A recorder that never dumps (SIGKILL) leaves a readable spill."""
    rec = FlightRecorder(spill_path=flight_spill_path(str(tmp_path), 9))
    rec.record("tick", 0.5, n=1)
    rec.record("inject", 0.7, fault=0)
    # no close(), no dump(): simulate sudden death
    dumps = load_flight_dir(str(tmp_path))
    assert set(dumps) == {9}
    assert dumps[9]["in_flight"] is True
    assert [r["kind"] for r in dumps[9]["records"]] == ["tick", "inject"]
    rec.close()


def test_final_dump_wins_over_spill(tmp_path):
    rec = FlightRecorder(spill_path=flight_spill_path(str(tmp_path), 3))
    rec.record("tick", 1.0, n=1)
    rec.dump(flight_dump_path(str(tmp_path), 3), meta={"reason": "completed"})
    rec.close(remove_spill=True)
    assert not os.path.exists(flight_spill_path(str(tmp_path), 3))
    dumps = load_flight_dir(str(tmp_path))
    assert dumps[3]["in_flight"] is False
    assert dumps[3]["meta"]["reason"] == "completed"


def test_spill_failure_is_nonfatal(tmp_path):
    """A broken spill device must never take the simulation down."""
    spill = flight_spill_path(str(tmp_path), 1)
    rec = FlightRecorder(spill_path=spill)
    rec._spill._fh.close()  # break the handle: next write hits ValueError/OSError
    unwritable = rec._spill._fh = open(os.devnull, "r")
    rec.record("tick", 0.0)
    assert rec.spill_failed is True
    with pytest.raises(Exception):
        unwritable.write("x")  # sanity: the handle really is unwritable
    rec.close()


def test_unwritable_spill_dir_disables_spill():
    rec = FlightRecorder(spill_path="/proc/definitely/not/writable/f.jsonl")
    assert rec.spill_failed is True
    rec.record("tick", 0.0)  # memory ring still works
    assert len(rec.ring) == 1


# -- simulator integration --------------------------------------------------------


def _spec():
    return CampaignSpec(node_mtbf_s=8.0, ckpt_period=5, timesteps=30)


def test_engine_ticks_and_fault_notes_recorded(tmp_path):
    sim = build_campaign_simulator(_spec(), seed=0, policy=RecoveryPolicy())
    rec = FlightRecorder(capacity=8192, tick_stride=16)
    sim.attach_flightrec(rec)
    res = sim.run()
    kinds = {r["kind"] for r in rec.ring}
    assert "tick" in kinds  # hot-loop sampling fired
    if res.faults_injected:
        assert "inject" in kinds


def test_attached_recorder_does_not_change_results(tmp_path):
    bare = build_campaign_simulator(_spec(), seed=5, policy=RecoveryPolicy()).run()
    sim = build_campaign_simulator(_spec(), seed=5, policy=RecoveryPolicy())
    sim.attach_flightrec(
        FlightRecorder(spill_path=flight_spill_path(str(tmp_path), 5))
    )
    recorded = sim.run()
    assert recorded.total_time == bare.total_time
    assert recorded.faults_injected == bare.faults_injected
    assert recorded.events_fired == bare.events_fired
    assert recorded.waste_rework == bare.waste_rework
    assert recorded.episodes == bare.episodes


# -- SIGKILL acceptance scenario --------------------------------------------------


def test_sigkilled_campaign_leaves_ingestible_flight_data(tmp_path):
    """Kill -9 a campaign mid-sweep: the dead replica's spill must be
    readable (torn-tail-safe) and `repro analyze` must ingest it."""
    journal = str(tmp_path / "wal.jsonl")
    flight_dir = str(tmp_path / "flight")
    repo_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(repo_root, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign",
         "--reps", "30", "--mtbf", "4", "--periods", "5",
         "--timesteps", "300", "--seed", "3",
         "--journal", journal, "--flight-dir", flight_dir],
        env=env,
        cwd=repo_root,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    # wait until at least one replica spill exists, then SIGKILL
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            break
        try:
            if any(
                f.endswith(".live.jsonl") for f in os.listdir(flight_dir)
            ) and os.path.exists(journal):
                break
        except FileNotFoundError:
            pass
        time.sleep(0.02)
    assert proc.poll() is None, "campaign finished before it could be killed"
    proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=30)

    dumps = load_flight_dir(flight_dir)
    assert dumps, "no flight data survived the kill"
    in_flight = [d for d in dumps.values() if d["in_flight"]]
    assert in_flight, "the killed replica left no live spill behind"

    # analyze must ingest the journal + flight dir without choking
    from repro.cli import main

    out_json = str(tmp_path / "an.json")
    assert main(["analyze", journal, "--flight-dir", flight_dir,
                 "--json", out_json]) == 0
    with open(out_json) as fh:
        analysis = json.load(fh)
    assert analysis["flight"]["dumps"] >= 1
    assert any(e["in_journal"] is False for e in analysis["flight"]["in_flight"])
