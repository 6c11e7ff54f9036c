"""Fault forensics: causal chains, waste attribution, analytical checks."""

import json
import os

import pytest

from repro.core.campaign import CampaignSpec, ResilienceCampaign
from repro.core.fault_injection import FAULT_ROW_FIELDS, RecoveryPolicy
from repro.core.forensics import (
    analyze_journal,
    attribute_replica,
    chain_trace_events,
    fault_rows,
    format_analysis,
    reconstruct_chains,
    worst_fault_trace,
)

MIX = {
    "software": 0.3,
    "node": 0.2,
    "sdc": 0.2,
    "straggler": 0.1,
    "burst": 0.1,
    "link": 0.1,
}


def _mixed_spec(**over):
    kw = dict(
        node_mtbf_s=8.0,
        ckpt_period=5,
        timesteps=40,
        fault_mix=tuple(sorted(MIX.items())),
        verify_period=5,
        net_repair_s=1.0,
    )
    kw.update(over)
    return CampaignSpec(**kw)


def _replica_result(spec, seed):
    """One worker-shaped replica record (what the journal stores)."""
    from repro.core.campaign import ReplicaTask, _run_replica

    return _run_replica(ReplicaTask(spec, RecoveryPolicy(), seed))


# -- per-replica attribution ------------------------------------------------------


def test_attribution_reconciles_exactly():
    """Every waste charge flows through an episode, so attributed waste
    equals measured waste bit-for-bit — not just within tolerance."""
    for seed in range(6):
        r = _replica_result(_mixed_spec(), seed)
        a = attribute_replica(r)
        assert a["attributed_waste_s"] == pytest.approx(
            a["measured_waste_s"], abs=1e-12
        )
        assert a["coverage"] == pytest.approx(1.0)


def test_chains_join_fault_log_by_id():
    r = _replica_result(_mixed_spec(), 1)
    rows = fault_rows(r)
    assert [row["id"] for row in rows] == list(range(len(r["fault_log"])))
    assert list(rows[0]) == list(FAULT_ROW_FIELDS) + ["id"]
    chains = reconstruct_chains(r)
    assert [c.fault_id for c in chains] == [row["id"] for row in rows]
    for c, row in zip(chains, rows):
        assert c.kind == row["kind"]
        assert c.t_inject == row["time"]
    # every episode's primary fault owns it; others only contribute
    owners = [c for c in chains if c.episode is not None]
    contributors = [c for c in chains if c.contributes_to is not None]
    for c in owners:
        assert c.episode["faults"][0] == c.fault_id
    for c in contributors:
        assert c.episode is None


def test_straggler_excess_split_across_node_stragglers():
    spec = _mixed_spec(
        node_mtbf_s=4.0, fault_mix=(("straggler", 1.0),), verify_period=0
    )
    r = _replica_result(spec, 0)
    a = attribute_replica(r)
    chains = reconstruct_chains(r)
    strag_total = sum(
        c.waste.get("straggler_s", 0.0) for c in chains if c.kind == "straggler"
    )
    assert strag_total == pytest.approx(a["straggler_excess_s"])


def test_unknown_kind_gets_a_chain_and_no_straggler_waste():
    """A journal written by a build with an extra kind still classifies:
    the unknown row gets a chain, and no share of the straggler excess."""
    spec = _mixed_spec(
        node_mtbf_s=4.0, fault_mix=(("straggler", 1.0),), verify_period=0
    )
    r = _replica_result(spec, 0)
    assert len(r["fault_log"]) > 1
    r["fault_log"][0][FAULT_ROW_FIELDS.index("kind")] = "thermal"
    chains = reconstruct_chains(r)
    assert [c.fault_id for c in chains] == list(range(len(r["fault_log"])))
    assert chains[0].kind == "thermal"
    assert "straggler_s" not in chains[0].waste
    assert all("straggler_s" in c.waste for c in chains[1:])


def test_legacy_journal_without_forensics_key_is_tolerated():
    r = _replica_result(_mixed_spec(), 2)
    del r["forensics"]
    a = attribute_replica(r)
    assert a["attributed_waste_s"] == 0.0
    assert a["episodes"] == 0
    assert reconstruct_chains(r)  # chains still come from the fault log


# -- campaign-level analysis ------------------------------------------------------


@pytest.fixture(scope="module")
def mixed_campaign(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("forensics")
    journal = str(tmp / "wal.jsonl")
    flight_dir = str(tmp / "flight")
    camp = ResilienceCampaign(
        reps=6, base_seed=0, journal_path=journal, flight_dir=flight_dir
    )
    try:
        report = camp.run_grid(
            [8.0], [5], timesteps=40, fault_mix=MIX, verify_period=5,
            net_repair_s=1.0,
        )
    finally:
        camp.close()
    return journal, flight_dir, report


def test_analyze_mixed_campaign_covers_95_percent(mixed_campaign):
    journal, flight_dir, _ = mixed_campaign
    analysis = analyze_journal(journal, flight_dir=flight_dir)
    assert analysis["totals"]["measured_waste_s"] > 0
    assert analysis["totals"]["coverage"] >= 0.95
    (point,) = analysis["points"]
    assert point["coverage"] >= 0.95
    assert point["episodes"] > 0
    # the mixed taxonomy shows up in the per-kind breakdown
    assert set(point["per_kind"]) & {"software", "node", "sdc", "burst"}
    # all six replicas dumped flight data
    assert analysis["flight"]["dumps"] == 6
    assert analysis["flight"]["by_reason"].get("completed", 0) >= 1


def test_analyze_ranks_top_faults_by_waste(mixed_campaign):
    journal, _, _ = mixed_campaign
    analysis = analyze_journal(journal, top_k=3)
    top = analysis["top_faults"]
    assert 0 < len(top) <= 3
    wastes = [f["total_waste_s"] for f in top]
    assert wastes == sorted(wastes, reverse=True)
    assert all(f["kind"] in MIX or f["episode_kind"] in MIX for f in top)


def test_worst_fault_trace_export(mixed_campaign):
    journal, _, _ = mixed_campaign
    analysis = analyze_journal(journal, top_k=1)
    trace = worst_fault_trace(analysis)
    events = trace["traceEvents"]
    assert events[0]["ph"] == "i"  # injection marker
    spans = [e for e in events if e["ph"] == "X"]
    assert spans, "episode phases must become duration events"
    assert all(e["dur"] >= 0 for e in spans)
    # phase events tile the episode: starts are monotonic
    starts = [e["ts"] for e in spans]
    assert starts == sorted(starts)
    assert chain_trace_events(analysis["top_faults"][0])  # direct API too


def test_format_analysis_mentions_key_facts(mixed_campaign):
    journal, flight_dir, _ = mixed_campaign
    analysis = analyze_journal(journal, flight_dir=flight_dir)
    text = format_analysis(analysis)
    assert "coverage" in text
    assert "young/daly" in text
    assert "top" in text
    assert "flight dumps: 6" in text


def test_youngdaly_failstop_attribution_within_50_percent():
    """Fail-stop-only campaign under the legacy policy (the regime the
    Young/Daly model prices): the forensics fail-stop attribution must
    land within +-50% of ``expected_waste``."""
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        journal = os.path.join(tmp, "wal.jsonl")
        camp = ResilienceCampaign(
            reps=25,
            base_seed=0,
            policy=RecoveryPolicy.legacy(),
            journal_path=journal,
        )
        try:
            camp.run_point(
                CampaignSpec(node_mtbf_s=16.0, ckpt_period=5, timesteps=40)
            )
        finally:
            camp.close()
        analysis = analyze_journal(journal)
    (point,) = analysis["points"]
    yd = point["youngdaly"]
    assert yd["ratio"] is not None
    assert 0.5 <= yd["ratio"] <= 1.5
    # fail-stop-only mix: attributed == fail-stop attributed == measured
    assert point["coverage"] == pytest.approx(1.0)


def test_two_error_block_present_only_with_abft_and_sdc(mixed_campaign):
    journal, _, _ = mixed_campaign
    analysis = analyze_journal(journal)
    (point,) = analysis["points"]
    assert point["two_error"] is not None
    assert point["two_error"]["predicted_fraction"] > 0


def test_outlier_detection_flags_aborts():
    """A spare-exhausting burst campaign produces aborted replicas; each
    must be flagged as an outlier."""
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        journal = os.path.join(tmp, "wal.jsonl")
        camp = ResilienceCampaign(reps=6, base_seed=0, journal_path=journal)
        try:
            camp.run_point(
                CampaignSpec(
                    node_mtbf_s=2.0,
                    ckpt_period=5,
                    timesteps=40,
                    fault_mix=(("burst", 1.0),),
                    burst_size=3,
                )
            )
        finally:
            camp.close()
        analysis = analyze_journal(journal)
    (point,) = analysis["points"]
    if point["aborted"]:
        flagged = {
            o["replica"]: o["reasons"] for o in point["outliers"]
        }
        aborted_flagged = [
            r for r, reasons in flagged.items() if "aborted" in reasons
        ]
        assert len(aborted_flagged) == point["aborted"]


# -- bit-identicality -------------------------------------------------------------


def test_report_and_journal_bit_identical_with_flight_on(tmp_path):
    """The flight recorder and forensics layer must not perturb results:
    reports and journals are byte-identical with and without them."""

    def run(flight):
        sub = tmp_path / ("on" if flight else "off")
        sub.mkdir()
        journal = str(sub / "wal.jsonl")
        camp = ResilienceCampaign(
            reps=3,
            base_seed=0,
            journal_path=journal,
            flight_dir=str(sub / "flight") if flight else None,
        )
        try:
            report = camp.run_grid(
                [8.0], [5], timesteps=30, fault_mix=MIX, verify_period=5,
                net_repair_s=1.0,
            )
        finally:
            camp.close()
        with open(journal, "rb") as fh:
            return report.to_json(), fh.read()

    report_off, journal_off = run(flight=False)
    report_on, journal_on = run(flight=True)
    assert report_on == report_off
    assert journal_on == journal_off


# -- error handling ---------------------------------------------------------------


def test_analyze_missing_journal_raises():
    with pytest.raises(FileNotFoundError):
        analyze_journal("/nonexistent/journal.jsonl")


def test_analyze_ingests_harness_failure_log(tmp_path):
    flight_dir = tmp_path / "flight"
    flight_dir.mkdir()
    log = flight_dir / "harness-failures.jsonl"
    rows = [
        {"t_wall": 1.0, "key": "abc:0", "kind": "crash", "attempt": 0, "detail": ""},
        {"t_wall": 2.0, "key": "abc:0", "kind": "poisoned", "attempt": 5, "detail": ""},
    ]
    with open(log, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
        fh.write('{"torn')  # torn tail must be skipped
    from repro.core.forensics import _load_harness_log

    summary = _load_harness_log(str(log))
    assert summary["failures"] == 2
    assert summary["by_kind"] == {"crash": 1, "poisoned": 1}
    assert summary["quarantined"] == ["abc:0"]


def test_golden_journal_crosschecks_are_pinned():
    """The analytical cross-check blocks of the golden journal's
    post-mortem, bit for bit (float hex recorded while forensics still
    carried its own copy of the kind mix and the Young/Daly inputs)."""
    from pathlib import Path

    journal = Path(__file__).parent / "golden" / "campaign.wal.jsonl"
    (point,) = analyze_journal(str(journal))["points"]
    got = {
        block: {k: v.hex() for k, v in point[block].items()}
        for block in ("youngdaly", "two_error")
    }
    assert got == {
        "youngdaly": {
            "predicted_waste_s": "0x1.2cbda0d2c8c72p+1",
            "simulated_failstop_waste_s": "0x1.97c2e2d3c8cbbp+1",
            "ratio": "0x1.5b1968f8d7625p+0",
        },
        "two_error": {
            "predicted_fraction": "0x1.b020c49ba5e36p-2",
            "simulated_fraction": "0x1.de70d3635df50p+1",
            "ratio": "0x1.1b6fbb1b525a8p+3",
        },
    }
