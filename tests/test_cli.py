"""CLI smoke tests (fast targets only)."""

import pytest

from repro.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for target in ("fig9", "table3", "abl2", "ext2"):
        assert target in out


def test_importing_the_cli_loads_neither_numpy_nor_repro_exps():
    # `repro list` and `--help` stay instant: experiment modules load when a target runs
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    code = (
        "import sys, repro.cli; "
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('repro.exps')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parent.parent)),
    ).stdout
    assert out.strip() == "[]"


def test_abl3_runs(capsys):
    assert main(["abl3"]) == 0
    assert "Amdahl" in capsys.readouterr().out


def test_abl4_runs(capsys):
    assert main(["abl4"]) == 0
    out = capsys.readouterr().out
    assert "identical=True" in out


def test_campaign_runs_and_writes_json(tmp_path, capsys):
    import json

    path = tmp_path / "campaign.json"
    assert (
        main(
            [
                "campaign",
                "--reps", "2",
                "--mtbf", "8", "32",
                "--periods", "5",
                "--timesteps", "10",
                "--json", str(path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "RESILIENCE CAMPAIGN" in out
    report = json.loads(path.read_text())
    assert len(report["points"]) == 2
    for point in report["points"]:
        assert 0.0 <= point["completion_probability"] <= 1.0
        assert set(point["waste"]) == {"rework", "downtime", "checkpoint", "requeue"}
        assert "youngdaly" in point


def test_campaign_legacy_policy_flag(capsys):
    assert (
        main(
            [
                "campaign",
                "--reps", "2",
                "--mtbf", "16",
                "--periods", "5",
                "--timesteps", "10",
                "--legacy-policy",
            ]
        )
        == 0
    )
    assert "RESILIENCE CAMPAIGN" in capsys.readouterr().out


def test_campaign_json_creates_parent_dirs_atomically(tmp_path, capsys):
    import json

    path = tmp_path / "deep" / "nested" / "dir" / "campaign.json"
    assert (
        main(
            [
                "campaign",
                "--reps", "2",
                "--mtbf", "16",
                "--periods", "5",
                "--timesteps", "10",
                "--json", str(path),
            ]
        )
        == 0
    )
    capsys.readouterr()
    report = json.loads(path.read_text())
    assert len(report["points"]) == 1
    # the temp file used for the atomic replace is gone
    assert [p.name for p in path.parent.iterdir()] == ["campaign.json"]


def test_write_text_atomic_never_truncates_existing(tmp_path, monkeypatch):
    from repro.guard import durable

    target = tmp_path / "out.json"
    target.write_text("precious")

    def exploding_replace(src, dst):
        raise OSError("simulated crash at replace time")

    monkeypatch.setattr(durable.os, "replace", exploding_replace)
    with pytest.raises(OSError):
        durable.atomic_write(str(target), "new content", "report.json")
    assert target.read_text() == "precious"  # old report untouched
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]  # no temp litter


def test_campaign_resume_requires_journal(capsys):
    for flag in ("--resume", "--partial-report"):
        assert main(["campaign", flag]) == 2
        err = capsys.readouterr().err
        assert err == "repro campaign: error: --resume/--partial-report require --journal\n"


@pytest.mark.parametrize("flag", ["--resume", "--partial-report"])
@pytest.mark.parametrize(
    "content",
    [
        '{\n  "points": []\n}\n',  # an indented JSON report
        '["kind", "header"]\n',
        "",
    ],
)
def test_campaign_unreadable_journal_is_a_usage_error(tmp_path, capsys, flag, content):
    journal = tmp_path / "report.json"
    journal.write_text(content)
    assert main(["campaign", "--journal", str(journal), flag]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro campaign: error: journal ")
    assert "report.json" in err and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--resume", "--partial-report"])
def test_campaign_missing_journal_is_a_usage_error(tmp_path, capsys, flag):
    missing = str(tmp_path / "nope.jsonl")
    assert main(["campaign", "--journal", missing, flag]) == 2
    err = capsys.readouterr().err
    assert err == f"repro campaign: error: journal {missing!r} does not exist\n"


def test_campaign_journal_of_another_campaign_is_a_usage_error(tmp_path, capsys):
    from repro.core.campaign import CampaignJournal
    from repro.core.fault_injection import RecoveryPolicy

    journal = str(tmp_path / "wal.jsonl")
    CampaignJournal(journal, reps=2, base_seed=0, policy=RecoveryPolicy()).close()
    before = open(journal, "rb").read()
    args = ["campaign", "--reps", "3", "--mtbf", "16", "--periods", "5",
            "--timesteps", "10", "--journal", journal]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("repro campaign: error: journal ")
    assert "belongs to a different run" in captured.err
    assert open(journal, "rb").read() == before


def test_campaign_journal_holding_a_torn_header_starts_fresh(tmp_path, capsys):
    journal = tmp_path / "wal.jsonl"
    args = ["campaign", "--reps", "2", "--mtbf", "16", "--periods", "5",
            "--timesteps", "10", "--journal", str(journal)]
    assert main(args) == 0
    whole = capsys.readouterr().out
    full = journal.read_bytes()
    journal.write_bytes(full[: full.index(b"\n") // 2])  # killed mid-header
    assert main(args) == 0
    assert capsys.readouterr().out == whole
    assert journal.read_bytes() == full


def test_campaign_journal_resume_and_partial_report(tmp_path, capsys):
    journal = str(tmp_path / "wal.jsonl")
    args = ["campaign", "--reps", "2", "--mtbf", "16", "--periods", "5",
            "--timesteps", "10", "--journal", journal]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main([*args, "--resume"]) == 0
    resumed = capsys.readouterr().out
    assert resumed == first
    assert main(["campaign", "--journal", journal, "--partial-report"]) == 0
    assert "RESILIENCE CAMPAIGN" in capsys.readouterr().out


def test_campaign_chaos_flags_survive_injected_crashes(tmp_path, capsys):
    assert (
        main(
            [
                "campaign",
                "--reps", "3",
                "--mtbf", "16",
                "--periods", "5",
                "--timesteps", "10",
                "--workers", "2",
                "--chaos-crash", "0.3",
                "--chaos-seed", "2",
                "--retries", "15",
                "--timeout", "30",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "RESILIENCE CAMPAIGN" in out
    assert " 3/3 " in out  # nothing lost despite the chaos


def test_campaign_all_poisoned_exits_nonzero_with_summary(capsys):
    import json

    # garbage on every attempt + zero retries => every replica quarantined
    # (chaos only fires in forked workers, hence --workers 2)
    code = main(
        [
            "campaign",
            "--reps", "2",
            "--mtbf", "16",
            "--periods", "5",
            "--timesteps", "10",
            "--workers", "2",
            "--chaos-garbage", "1.0",
            "--retries", "0",
        ]
    )
    assert code == 3
    captured = capsys.readouterr()
    assert "0/2" in captured.out  # the partial report still prints
    summary = json.loads(captured.err)
    assert summary["error"] == "campaign-produced-no-results"
    assert summary["points"] == 1
    assert summary["reps"] == 2
    assert len(summary["quarantined"]) == 2
    assert summary["failure_kinds"]["error"] == 2
    assert summary["failure_kinds"]["poisoned"] == 2


def test_campaign_sim_snapshot_flags_must_be_paired(tmp_path, capsys):
    base = ["campaign", "--reps", "1", "--mtbf", "16", "--periods", "5",
            "--timesteps", "10"]
    for flag in (["--sim-snapshot-dir", str(tmp_path)], ["--sim-snapshot-every", "500"]):
        assert main([*base, *flag]) == 2
        assert "must be given together" in capsys.readouterr().err


def test_campaign_with_sim_snapshots_runs_clean(tmp_path, capsys):
    code = main(
        [
            "campaign",
            "--reps", "2",
            "--mtbf", "16",
            "--periods", "5",
            "--timesteps", "10",
            "--sim-snapshot-dir", str(tmp_path / "snaps"),
            "--sim-snapshot-every", "500",
        ]
    )
    assert code == 0
    assert "RESILIENCE CAMPAIGN" in capsys.readouterr().out
    # completed replicas clear their stores: no *.snap files left behind
    assert list((tmp_path / "snaps").rglob("*.snap")) == []


def test_campaign_obs_flags_write_all_exporters(tmp_path, capsys):
    import json

    from repro.obs.export import parse_prometheus_text

    code = main(
        [
            "campaign",
            "--reps", "2",
            "--mtbf", "16",
            "--periods", "5",
            "--timesteps", "8",
            "--metrics-out", str(tmp_path / "m.jsonl"),
            "--metrics-interval", "0.1",
            "--prom-out", str(tmp_path / "m.prom"),
            "--trace-out", str(tmp_path / "trace.json"),
        ]
    )
    assert code == 0
    assert "RESILIENCE CAMPAIGN" in capsys.readouterr().out
    # all three exporters delivered valid artifacts
    fams = parse_prometheus_text((tmp_path / "m.prom").read_text())
    assert "supervisor_tasks_completed_total" in fams
    lines = (tmp_path / "m.jsonl").read_text().splitlines()
    assert lines and json.loads(lines[-1])["metrics"]
    trace = json.loads((tmp_path / "trace.json").read_text())
    names = {e["name"] for e in trace["traceEvents"]}
    assert "campaign" in names and "replica" in names


def test_campaign_heartbeat_flag(tmp_path, capsys):
    code = main(
        [
            "campaign",
            "--reps", "2",
            "--mtbf", "16",
            "--periods", "5",
            "--timesteps", "8",
            "--heartbeat", "0.01",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "RESILIENCE CAMPAIGN" in captured.out
    assert "done" in captured.err  # heartbeat lines go to stderr


def test_metrics_summarize(tmp_path, capsys):
    from repro.obs.export import write_prometheus
    from repro.obs.metrics import MetricsRegistry

    reg = MetricsRegistry()
    reg.counter("events_total").inc(7)
    path = tmp_path / "m.prom"
    write_prometheus(str(path), reg)
    assert main(["metrics", "summarize", str(path)]) == 0
    out = capsys.readouterr().out
    assert "events_total" in out and "7" in out


def test_requires_command(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_unknown_command(capsys):
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_fit_and_show_models(tmp_path, capsys, monkeypatch):
    # shrink the campaign: patch the kernel list to one model
    import repro.cli as cli_mod

    path = tmp_path / "models.json"

    def tiny_fit(out, seed, all_levels):
        from repro.core.workflow import ModelDevelopment
        from repro.models.registry import ModelRegistry
        from repro.models.symreg import GPConfig
        from repro.testbed.quartz import make_quartz

        machine = make_quartz()
        dev = ModelDevelopment(
            machine,
            ["lulesh_timestep"],
            samples_per_point=4,
            gp_config=GPConfig(population_size=40, generations=4),
            seed=seed,
        ).run()
        reg = ModelRegistry.from_fitted(dev.fitted, machine=machine.name)
        reg.save(out)
        return f"saved {len(reg)} models to {out}"

    monkeypatch.setattr(cli_mod, "_fit_models", tiny_fit)
    assert main(["fit-models", "--out", str(path)]) == 0
    assert "saved 1 models" in capsys.readouterr().out

    assert main(["show-models", str(path)]) == 0
    out = capsys.readouterr().out
    assert "lulesh_timestep" in out and "quartz" in out


def test_campaign_fault_mix_flags(tmp_path, capsys):
    import json

    path = tmp_path / "mix.json"
    assert (
        main(
            [
                "campaign",
                "--reps", "3",
                "--mtbf", "3",
                "--periods", "5",
                "--timesteps", "20",
                "--fault-mix", "software=0.3", "sdc=0.4", "straggler=0.2",
                "burst=0.1",
                "--verify-period", "2",
                "--sdc-coverage", "0.9",
                "--burst-size", "2",
                "--json", str(path),
            ]
        )
        == 0
    )
    assert "RESILIENCE CAMPAIGN" in capsys.readouterr().out
    report = json.loads(path.read_text())
    (point,) = report["points"]
    assert set(point["fault_kinds"]) <= {"software", "node", "sdc",
                                         "straggler", "burst"}
    assert set(point["sdc"]) == {"injected", "detected", "corrected",
                                 "undetected", "detect_latency_s"}
    assert point["wrong_results"] >= 0


def test_campaign_fault_mix_flag_syntax_errors(capsys):
    base = ["campaign", "--reps", "1", "--mtbf", "16", "--periods", "5",
            "--timesteps", "10"]
    assert main([*base, "--fault-mix", "sdc"]) == 2
    assert "kind=weight" in capsys.readouterr().err
    assert main([*base, "--fault-mix", "sdc=lots"]) == 2
    assert "not a number" in capsys.readouterr().err


def test_campaign_fault_mix_semantic_errors_from_model(capsys):
    base = ["campaign", "--reps", "1", "--mtbf", "16", "--periods", "5",
            "--timesteps", "10"]
    assert main([*base, "--fault-mix", "gremlin=1.0"]) == 2
    assert "unknown fault kinds" in capsys.readouterr().err
    assert main([*base, "--fault-mix", "sdc=0.4"]) == 2
    assert "sum to 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad",
    [
        ["--mtbf", "8", "-1"],  # the first point alone is valid
        ["--periods", "0"],
        ["--sdc-coverage", "1.5"],
        ["--burst-size", "0"],
        ["--fault-mix", "node=2"],
        ["--workers", "0"],
        ["--retries", "-1"],
        ["--timeout", "0"],
        ["--resume", "--no-journal"],
        ["--sim-snapshot-every", "10"],
        ["--reps", "0"],
        ["--mtbf", "nan"],
        ["--net-link-mtbf", "nan"],
        ["--net-repair-time", "nan"],
        ["--net-degrade-factor", "nan"],
        ["--straggler-slowdown", "nan"],
        ["--straggler-repair", "nan"],
        ["--verify-cost", "-1", "--verify-period", "2"],
        ["--verify-cost", "nan", "--verify-period", "2"],
        ["--guard", "--guard-min-disk-mb", "nan"],
        ["--guard", "--guard-max-rss-mb", "-1"],
        ["--guard", "--guard-max-fds", "-3"],
        ["--guard", "--guard-poll", "nan"],
        ["--guard", "--guard-poll", "inf"],
        ["--chaos-crash", "0.7", "--chaos-hang", "0.7"],
        ["--chaos-crash", "-0.5", "--chaos-hang", "0.6"],
        ["--chaos-enospc", "-1", "--chaos-eio", "1.5"],
        ["--chaos-enospc-after", "-1"],
        ["--straggler-slowdown", "inf"],
        ["--net-degrade-factor", "inf"],
    ],
)
def test_campaign_rejects_bad_values_before_running(tmp_path, capsys, bad):
    journal = tmp_path / "wal.jsonl"
    # "--no-journal" is not a flag: it drops --journal from the command line
    journal_args = [] if "--no-journal" in bad else ["--journal", str(journal)]
    argv = ["campaign", "--reps", "1", "--mtbf", "8", "--periods", "5",
            "--timesteps", "5", *journal_args,
            *[arg for arg in bad if arg != "--no-journal"]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("repro campaign: error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert not journal.exists()


def test_campaign_network_fault_flags(tmp_path, capsys):
    import json

    path = tmp_path / "net.json"
    assert (
        main(
            [
                "campaign",
                "--reps", "3",
                "--mtbf", "8",
                "--periods", "5",
                "--timesteps", "10",
                "--fault-mix", "node=0.5", "link=0.5",
                "--net-topology", "torus",
                "--net-link-mtbf", "16",
                "--net-repair-time", "1",
                "--net-degrade-factor", "6",
                "--net-loss-prob", "0.1",
                "--json", str(path),
            ]
        )
        == 0
    )
    assert "RESILIENCE CAMPAIGN" in capsys.readouterr().out
    report = json.loads(path.read_text())
    (point,) = report["points"]
    assert set(point["fault_kinds"]) <= {"node", "link", "switch", "netdeg"}
    assert point["fault_kinds"].get("link", 0) > 0
    assert set(point["net"]) == {"faults", "repairs", "partition_stalls",
                                 "degraded_commits", "reroutes",
                                 "retransmits"}
    assert point["net"]["faults"] >= point["fault_kinds"].get("link", 0)


def test_campaign_net_topology_torus_accepts_non_square_rank_counts():
    # default nranks=8 is not a perfect square: the spec must factor the
    # torus near-square instead of rejecting the CLI default
    assert (
        main(
            ["campaign", "--reps", "1", "--mtbf", "1e9", "--periods", "5",
             "--timesteps", "5", "--net-topology", "torus"]
        )
        == 0
    )


def test_ext9_listed_and_dispatchable(capsys, monkeypatch):
    import repro.cli as cli_mod

    assert main(["list"]) == 0
    assert "ext9" in capsys.readouterr().out

    called = {}

    def fake_dse(reps, seed):
        called["args"] = (reps, seed)
        return []

    monkeypatch.setattr(
        "repro.exps.extensions.network_fault_dse", fake_dse
    )
    assert main(["ext9", "--reps", "2", "--seed", "5"]) == 0
    assert called["args"] == (2, 5)
    assert "EXT9" in capsys.readouterr().out


# -- repro analyze ---------------------------------------------------------------


def _run_forensic_campaign(tmp_path):
    journal = str(tmp_path / "wal.jsonl")
    flight_dir = str(tmp_path / "flight")
    assert (
        main(
            ["campaign", "--reps", "3", "--mtbf", "8", "--periods", "5",
             "--timesteps", "30",
             "--fault-mix", "software=0.5", "node=0.3", "sdc=0.2",
             "--verify-period", "5",
             "--journal", journal, "--flight-dir", flight_dir]
        )
        == 0
    )
    return journal, flight_dir


def test_campaign_flight_dir_writes_dumps(tmp_path, capsys):
    import os

    _, flight_dir = _run_forensic_campaign(tmp_path)
    capsys.readouterr()
    dumps = [f for f in os.listdir(flight_dir)
             if f.startswith("flight-") and not f.endswith(".live.jsonl")]
    assert len(dumps) == 3  # one final dump per replica
    # completed replicas clean their live spills up
    assert not [f for f in os.listdir(flight_dir) if f.endswith(".live.jsonl")]


def test_analyze_end_to_end(tmp_path, capsys):
    import json

    journal, flight_dir = _run_forensic_campaign(tmp_path)
    capsys.readouterr()
    out_json = str(tmp_path / "analysis.json")
    trace_out = str(tmp_path / "worst.trace.json")
    assert (
        main(["analyze", journal, "--flight-dir", flight_dir,
              "--top", "2", "--json", out_json, "--trace-out", trace_out])
        == 0
    )
    out = capsys.readouterr().out
    assert "FAULT FORENSICS POST-MORTEM" in out
    assert "coverage" in out
    with open(out_json) as fh:
        analysis = json.load(fh)
    assert analysis["totals"]["coverage"] >= 0.95
    assert len(analysis["top_faults"]) <= 2
    assert analysis["flight"]["dumps"] == 3
    with open(trace_out) as fh:
        trace = json.load(fh)
    assert "traceEvents" in trace


def test_analyze_missing_journal_exits_5(tmp_path, capsys):
    import json

    code = main(["analyze", str(tmp_path / "nope.jsonl")])
    assert code == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    summary = json.loads(captured.err)
    assert summary["error"] == "analyze-journal-not-found"


def test_analyze_unreadable_journal_exits_5(tmp_path, capsys):
    import json

    bad = tmp_path / "bad.jsonl"
    bad.write_text("this is not a journal\n")
    code = main(["analyze", str(bad)])
    assert code == 5
    summary = json.loads(capsys.readouterr().err)
    assert summary["error"].startswith("analyze-journal-")
