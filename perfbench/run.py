"""Layered host-time benchmark of the simulator, one workload per run.

    python3 perfbench/run.py --workload fig7 --seed 0 --seconds 15 --trace 0

Sets the workload up, runs it once untimed (warm-up and oracle), then
runs it back to back for ``--seconds`` seconds, checking every run's
simulated outputs against ``reference.json``.  Times are normalised
against the host's momentary speed (``speed.py``).  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced runs and reports the per-layer metrics, written in
full to ``perfbench/out/``.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  See
README.md for the workloads and the metric-to-layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
#: declares every metric's name and unit; the command reads it from there
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

#: timed runs made even when one run outlasts ``--seconds``
MIN_RUNS = 3
#: set-ups per measurement; ``setup_s`` is their median
SETUPS = {"fig7": 2, "replica_mixed": 5, "campaign_sweep": 5}

#: printed with the metrics but kept out of the JSON: ``failed_frac`` is
#: ``failed / attempted`` and is 0 on a correct run; ``sim_err_pct``
#: (simulated vs measured totals) exists for ``fig7`` only
REPORTED = {"failed_frac": "ratio", "sim_err_pct": "%"}

#: traced layers per workload; campaign_sweep traces its simulations in
#: an extra in-process pass, because pool workers run outside this process
TRACED = {
    "fig7": ("des", "sim", "beo", "faults", "testbed"),
    "replica_mixed": ("des", "sim", "beo", "faults"),
    "campaign_sweep": ("harness",),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Oracle:
    """Checks each run's digests against the reference and counts failures.

    Without a committed reference for the seed, the warm-up run's digests
    become the reference, so later runs are still checked for drift.
    """

    def __init__(self, reference, sims_per_run: int) -> None:
        self.reference = dict(reference) if reference is not None else None
        self.committed = reference is not None
        self.sims_per_run = len(self.reference) if self.reference else sims_per_run
        self.attempted = 0
        self.failed = 0

    def check(self, outcome) -> None:
        if self.reference is None:
            self.reference = dict(outcome.digests)
        bad = {k for k, d in self.reference.items() if outcome.digests.get(k) != d}
        bad |= outcome.harness_failed
        self.attempted += self.sims_per_run
        self.failed += len(bad)

    def crashed(self) -> None:
        self.attempted += self.sims_per_run
        self.failed += self.sims_per_run


def load_reference(name: str, key: str, path: str = REFERENCE):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(name, {}).get(key)


def declared_units(block: str) -> dict:
    """``name -> unit`` of the metrics in *block* of BENCHMARK.json."""
    with open(BENCHMARK, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[block]}


def timed_run(run, oracle: Oracle):
    """``(outcome, seconds)``; a raising run counts all its simulations failed."""
    t0 = time.perf_counter()
    try:
        outcome = run()
    except Exception:
        traceback.print_exc()
        oracle.crashed()
        return None, time.perf_counter() - t0
    seconds = time.perf_counter() - t0
    oracle.check(outcome)
    return outcome, seconds


_PROBE = (
    "import sys; sys.path[:0] = [{src!r}, {root!r}]; "
    "from perfbench.workloads import make; make({name!r}, 0, {work!r}).setup()"
)


def measure_setup(w, n: int, work: str) -> list:
    """Set *w* up, timing *n* set-ups (normalised); the last in-process one is kept."""
    from perfbench.speed import normalised

    if w.name == "fig7":  # Model Development, in this process
        return [normalised(w.setup, sample=True) for _ in range(n)]
    # Imports plus spec validation, in a fresh interpreter each time.
    code = _PROBE.format(src=SRC, root=ROOT, name=w.name, work=work)
    cmd = [sys.executable, "-c", code]
    times = [normalised(lambda: subprocess.run(cmd, check=True), sample=False) for _ in range(n)]
    w.setup()
    return times


def peak_rss_mb(include_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        # the largest child: a pool worker (or a set-up probe)
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def layer_metrics(t, outcome, inproc_s: float = 0.0, workers: int = 1) -> dict:
    """Per-layer metrics of one traced window."""
    c = t.counts.get
    push = t.calls("des.push")
    predict = t.calls("beo.predict")
    builds = t.calls("apps.build")
    supervisor_s = t.seconds("harness.supervisor")
    return {
        "des.events": c("des.events", 0),
        "des.push.calls": push,
        "des.push_s": t.seconds("des.push"),
        "des.pop_s": t.seconds("des.pop"),
        "des.cancel.calls": t.calls("des.cancel"),
        "des.cancelled_frac": _ratio(c("des.cancelled", 0), push),
        "sim.run_s": t.seconds("sim.run"),
        "sim.self_s": t.self_seconds("sim.run"),
        "beo.predict.calls": predict,
        "beo.predict_s": t.seconds("beo.predict"),
        "beo.collective.calls": t.calls("beo.collective"),
        "beo.collective_s": t.seconds("beo.collective"),
        "beo.exchange.calls": t.calls("beo.exchange"),
        "beo.exchange_s": t.seconds("beo.exchange"),
        "beo.predict.repeat_frac": _ratio(
            c("beo.predict.repeats", 0), c("beo.predict.deterministic", 0)
        ),
        "beo.predict.useful_frac": _ratio(c("apps.priced", 0), predict),
        "apps.build.calls": builds,
        "apps.build_s": t.seconds("apps.build"),
        "apps.build.distinct_frac": _ratio(c("apps.build.distinct", 0), builds),
        "faults.inject.calls": t.calls("faults.inject"),
        "faults.inject_s": t.seconds("faults.inject"),
        "faults.verify_attempt.calls": t.calls("faults.verify_attempt"),
        "faults.verify_attempt_s": t.seconds("faults.verify_attempt"),
        "faults.hooks_s": t.seconds("faults.hooks"),
        "faults.rollbacks": c("faults.rollbacks", 0),
        "faults.waste_frac": _ratio(c("sim.waste", 0), c("sim.total_time", 0)),
        "testbed.measure_s": t.seconds("testbed.measure"),
        "setup.model_dev_s": t.seconds("setup.model_dev"),
        "harness.supervisor_s": supervisor_s,
        "harness.pool_starts": c("harness.pool_starts", 0),
        "harness.wal.appends": t.calls("harness.wal"),
        "harness.wal_s": t.seconds("harness.wal"),
        "harness.wal_bytes": outcome.extra.get("wal_bytes", 0) if outcome else 0,
        "harness.payload_bytes": c("harness.payload_bytes", 0),
        "harness.result_bytes": c("harness.result_bytes", 0),
        "harness.aggregate_s": t.seconds("harness.aggregate"),
        "harness.retries": c("harness.retries", 0),
        "harness.overhead_frac": (
            1.0 - (inproc_s / workers) / supervisor_s if supervisor_s else 0.0
        ),
    }


def spans_fit(t, host_s: float) -> bool:
    """The simulation spans fit the run they were recorded in.

    *host_s* is the run's own host time, timed outside the tracer: the
    ``sim.run`` spans must not exceed it, and the child spans of
    ``sim.run`` must not exceed their parent (``sim.self_s`` >= 0).
    """
    return t.seconds("sim.run") <= host_s and t.self_seconds("sim.run") >= 0.0


def _loop(seconds: float, step) -> None:
    """Call ``step()`` until *seconds* have passed and MIN_RUNS were made."""
    t0 = time.perf_counter()
    n = 0
    while n < MIN_RUNS or time.perf_counter() - t0 < seconds:
        step()
        n += 1


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return the result object plus a ``lines`` report."""
    from perfbench import workloads

    work = os.path.join(OUT, "work")
    w = workloads.make(name, seed, work)
    oracle = Oracle(load_reference(name, w.reference_key), w.sims_per_run)
    if trace:
        result, extra = _measure_traced(w, oracle, seconds)
    else:
        result, extra = _measure_untraced(w, oracle, seconds, work)
    reported = {"failed_frac": _ratio(oracle.failed, oracle.attempted)}
    if "sim_err_pct" in extra:
        reported["sim_err_pct"] = extra["sim_err_pct"]
    lines = [
        f"perfbench {name} seed={seed} trace={int(trace)} runs={extra['runs']} "
        f"reference={'committed' if oracle.committed else 'warm-up run'} "
        f"inputs={json.dumps(w.inputs())}"
    ]
    units = {**declared_units("per_layer" if trace else "end_to_end"), **REPORTED}
    for key, value in {**result, **reported}.items():
        lines.append(f"  {key:<28s} {value!r:>24} {units[key]}")
    lines.append("  seconds per run: " + " ".join(f"{s:.4f}" for s in extra["walls"]))
    return {
        "correct": oracle.failed == 0 and extra["consistent"],
        "attempted": oracle.attempted,
        "failed": oracle.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result.items()},
        "lines": lines,
        "runs": extra.get("windows", []),
    }


def _measure_untraced(w, oracle, seconds, work):
    setup_times = measure_setup(w, SETUPS[w.name], work)
    timed_run(w.run, oracle)  # warm-up, checked like every run
    walls, outcomes = [], []

    def step():
        outcome, wall = timed_run(w.run, oracle)
        if outcome is not None:
            walls.append(wall)
            outcomes.append(outcome)

    _loop(seconds, step)
    if not walls:
        raise RuntimeError(f"every run of {w.name} raised")
    events = outcomes[-1].events
    # Each part's median over the runs, summed: a part slowed by a host
    # phase its speed probes missed moves one sample, not the result.
    run_s = sum(statistics.median(o.parts[k] for o in outcomes) for k in outcomes[-1].parts)
    metrics = {
        "run_norm_s": run_s,
        "events_per_norm_s": events / run_s,
        "sims_per_norm_s": w.sims_per_run / run_s,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(include_children=w.name == "campaign_sweep"),
    }
    extra = {
        "runs": len(walls),
        "walls": walls,
        "consistent": all(o.events == events for o in outcomes),
    }
    if "sim_err_pct" in outcomes[-1].extra:
        extra["sim_err_pct"] = outcomes[-1].extra["sim_err_pct"]
    return metrics, extra


def _measure_traced(w, oracle, seconds):
    from perfbench.tracer import SIM_GROUPS, Tracer, write_trace

    t = Tracer()
    w.sample = False  # no speed probes inside the traced spans
    setup_window = {}
    if w.name == "fig7":
        with t.installed("setup"):
            w.setup()
        setup_window = {"setup.model_dev_s": t.seconds("setup.model_dev")}
        t.reset()
    else:
        w.setup()
    timed_run(w.run, oracle)  # warm-up
    inproc_s, sim_window, windows = 0.0, {}, []
    consistent = True
    if w.name == "campaign_sweep":
        # The pool's workers are separate processes: the simulation layers
        # are traced on the same 64 replicas run in this process instead.
        _, inproc_s = timed_run(lambda: w.run(n_workers=1, journal=False), oracle)
        with t.installed(*SIM_GROUPS):
            _, host_s = timed_run(lambda: w.run(n_workers=1, journal=False), oracle)
        consistent = spans_fit(t, host_s)
        sim_window = layer_metrics(t, None)
        windows.append({"pass": "in-process", **t.table()})
        t.reset()
    plain, traced, per_run = [], [], []

    def step():
        nonlocal consistent
        _, wall = timed_run(w.run, oracle)
        plain.append(wall)
        t.reset()
        with t.installed(*TRACED[w.name]):
            outcome, wall = timed_run(w.run, oracle)
        traced.append(wall)
        consistent = consistent and spans_fit(t, wall)
        m = layer_metrics(t, outcome, inproc_s, getattr(w, "WORKERS", 1))
        if sim_window:
            m = {**sim_window, **{k: v for k, v in m.items() if k.startswith("harness.")}}
        m.update(setup_window)
        per_run.append(m)
        windows.append({"pass": "traced run", "wall_s": wall, **t.table()})

    _loop(seconds, step)
    write_trace(os.path.join(OUT, f"trace-{w.name}-seed{w.seed}.json"), windows)
    # One coherent window, the fastest traced run, so that self times and
    # child spans of the reported metrics come from the same run.
    metrics = dict(per_run[traced.index(min(traced))])
    metrics["trace.overhead_ratio"] = min(traced) / min(plain)
    extra = {
        "runs": len(traced),
        "walls": [s for pair in zip(plain, traced) for s in pair],
        "consistent": consistent,
        "windows": per_run,
    }
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(TRACED))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench import workloads

    if workloads.make(args.workload, args.seed, OUT).sample:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in result.pop("lines"):
        print(line)
    result.pop("runs")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
