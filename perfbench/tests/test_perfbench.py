"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests

They run every workload briefly (about a minute in all, most of it
fig7's model development).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import run, speed, workloads  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _brief(monkeypatch, name):
    monkeypatch.setitem(run.SETUPS, name, 1)
    return run.measure(name, 0, seconds=0, trace=False)


@pytest.fixture(scope="module")
def fig7_traced():
    return run.measure("fig7", 0, seconds=0, trace=True)


def test_metric_names_and_workloads():
    with open(run.BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [m["name"] for block in ("end_to_end", "per_layer") for m in spec[block]]
    for name in (*names, *run.REPORTED):
        assert NAME.match(name), name
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_each_workload_emits_every_end_to_end_metric(monkeypatch, name):
    result = _brief(monkeypatch, name)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert set(result["metrics"]) == set(run.declared_units("end_to_end"))
    assert all(m["value"] > 0 for m in result["metrics"].values())
    report = "\n".join(result["lines"])
    assert "reference=committed" in report and "failed_frac" in report
    assert ("sim_err_pct" in report) == (name == "fig7")


def test_traced_run_reports_every_layer_metric(fig7_traced):
    assert fig7_traced["correct"]
    assert set(fig7_traced["metrics"]) == set(run.declared_units("per_layer"))


def test_fig7_runs_are_not_served_from_a_cache(fig7_traced):
    events = [window["des.events"] for window in fig7_traced["runs"]]
    assert len(events) >= 2 and events[0] > 0
    assert len(set(events)) == 1


def test_seed_reaches_the_generated_inputs():
    for name in workloads.NAMES:
        same = [workloads.make(name, 5, "unused").inputs() for _ in range(2)]
        assert same[0] == same[1]
        assert len({json.dumps(workloads.make(name, s, "unused").inputs()) for s in range(10)}) > 1
    # fig7's seed changes the simulated outputs; the campaign workloads'
    # seed changes the order the program receives its replicas in
    ref = json.load(open(run.REFERENCE, encoding="utf-8"))
    assert ref["fig7"]["0"] != ref["fig7"]["1"]
    w = workloads.make("replica_mixed", 3, "unused")
    w.setup()
    assert list(w.run().digests) == [str(s) for s in w.order]


def test_digest_mismatch_counts_in_failed_frac(monkeypatch):
    reference = dict(run.load_reference("replica_mixed", "*"))
    reference["4"] = "0" * 16
    monkeypatch.setattr(run, "load_reference", lambda name, key: reference)
    result = _brief(monkeypatch, "replica_mixed")
    runs = 1 + run.MIN_RUNS  # the warm-up run is checked too
    assert not result["correct"]
    assert result["failed"] == runs and result["attempted"] == 8 * runs
    frac = next(line for line in result["lines"] if "failed_frac" in line)
    assert float(frac.split()[1]) == pytest.approx(1 / 8)


def test_spans_are_checked_against_the_run_host_time():
    t = Tracer()

    def leaf(x):
        return sum(range(x))

    t_leaf = t.wrap("leaf", leaf)
    inner = t.wrap("inner", lambda: [t_leaf(2000) for _ in range(3)])
    outer = t.wrap("sim.run", lambda: (inner(), t_leaf(5000)))
    t0 = time.perf_counter()
    for _ in range(4):
        outer()
    host_s = time.perf_counter() - t0
    assert t.calls("sim.run") == 4 and t.calls("leaf") == 16
    assert 0 < t.self_seconds("sim.run") < t.seconds("sim.run") <= host_s
    assert run.spans_fit(t, host_s)
    # spans longer than the run that holds them, or children longer than
    # their parent, fail the check
    assert not run.spans_fit(t, t.seconds("sim.run") / 2)
    rec = t.spans[("", "sim.run")]
    rec[2] = rec[1] * 2
    assert not run.spans_fit(t, host_s)


def test_sampled_part_restores_the_signal_state():
    previous = signal.getsignal(signal.SIGALRM)
    timer = speed.PartTimer(sample=True)
    with timer.part("spin"):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 2.5 * speed.EVERY:
            speed.kernel(500)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0 < timer.parts["spin"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "fig7", "--seed", "0"]
    cmd += ["--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""
