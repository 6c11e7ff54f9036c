"""The benchmark's three workloads.

Each workload object is built from the benchmark seed and exposes

* ``setup()`` — the set-up a user pays before the first run;
* ``run()`` — one run of the workload, returning an :class:`Outcome`
  whose ``digests`` map every simulation of the run to a digest of its
  simulated outputs (the correctness oracle compares them with
  ``reference.json``).
* ``sample`` — true when the workload runs in this process alone, so
  the host's speed can be sampled from inside its parts (see
  ``speed.py``); the command then pins it to one CPU, so that the work
  and the probes run on the same processor.

Program imports happen inside ``setup()`` so that a fresh interpreter
running only ``setup()`` measures the imports the workload needs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field

from perfbench.speed import PartTimer

#: fault mix shared by the two campaign workloads
MIX = {"software": 0.30, "node": 0.15, "sdc": 0.25, "straggler": 0.10, "burst": 0.10, "link": 0.10}


def digest(obj) -> str:
    """Digest of JSON-serialisable simulated outputs (floats compare by repr)."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class Outcome:
    """What one run of a workload produced."""

    events: int
    digests: dict  #: simulation id -> digest of its simulated outputs
    #: normalised seconds (see ``speed.py``) of each part of the run:
    #: the whole run, a replica or a grid point
    parts: dict = field(default_factory=dict)
    #: simulations the harness retried or quarantined
    harness_failed: set = field(default_factory=set)
    extra: dict = field(default_factory=dict)


class Fig7:
    """Fig. 7: LULESH at 64 ranks, epr 10, 200 timesteps, three FT scenarios.

    The seed is the case-study context seed, which sets the Monte-Carlo
    model draws and the virtual-Quartz measurement noise.  The number of
    events does not depend on it.  Model development is the set-up and
    always uses seed 0, like ``get_context()``.
    """

    name = "fig7"
    sims_per_run = 6
    sample = True
    RANKS = 64
    REPS = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._parts = None

    @property
    def reference_key(self) -> str:
        return str(self.seed)

    def inputs(self) -> dict:
        return {"context_seed": self.seed}

    def setup(self) -> None:
        from repro.core.workflow import ModelDevelopment, build_archbeo
        from repro.exps.casestudy import CASE_KERNELS
        from repro.testbed.quartz import make_quartz

        machine = make_quartz(allocation_nodes=500)
        dev = ModelDevelopment(machine, CASE_KERNELS, samples_per_point=10, seed=0).run()
        self._parts = (machine, dev, build_archbeo(machine, dev.models()))

    def run(self) -> Outcome:
        from repro.exps.casestudy import CaseStudyContext, case_scenarios
        from repro.exps.fig7_8 import FIG78_EPR, full_system_curves

        machine, dev, archbeo = self._parts
        timer = PartTimer(self.sample)
        with timer.part("curves"):
            # A fresh context per run: nothing is served from a previous run's cache.
            ctx = CaseStudyContext(machine=machine, dev=dev, archbeo=archbeo, seed=self.seed)
            curves = full_system_curves(self.RANKS, ctx=ctx, reps=self.REPS)
        digests, events = {}, 0
        for scenario, curve in zip(case_scenarios(), curves):
            # this run's own cached result: the simulations full_system_curves ran
            mc = ctx.simulate(FIG78_EPR, self.RANKS, scenario, reps=self.REPS)
            shared = {
                "measured_total": curve.measured_total,
                "simulated_total_mean": curve.simulated_total_mean,
                "percent_error": curve.percent_error,
            }
            for rep, res in enumerate(mc.results):
                events += res.events_fired
                digests[f"{curve.scenario}/{rep}"] = digest(
                    {
                        **shared,
                        "total_time": res.total_time,
                        "events": res.events_fired,
                        "completed": res.completed,
                    }
                )
        err = sum(c.percent_error for c in curves) / len(curves)
        return Outcome(events, digests, timer.parts, extra={"sim_err_pct": err})


def _replica_digest(res) -> str:
    return digest(
        {
            "events": res.events_fired,
            "total_time": res.total_time,
            "faults": res.faults_injected,
            "rollbacks": res.rollbacks,
            "waste": [res.waste_rework, res.waste_downtime, res.waste_requeue],
            "completed": res.completed,
        }
    )


class ReplicaMixed:
    """Eight 64-rank campaign replicas under the mixed fault taxonomy.

    The replica seeds are fixed (0-7): the work a replica does depends on
    its fault stream (rework), and varying the replica set with the seed
    would move wall time by far more than any bound.  The benchmark seed
    sets the order in which the replicas are run.
    """

    name = "replica_mixed"
    sims_per_run = 8
    sample = True
    reference_key = "*"
    SPEC = dict(
        node_mtbf_s=64,
        ckpt_period=10,
        nranks=64,
        nnodes=32,
        timesteps=200,
        verify_period=5,
        net_topology="torus",
        fault_mix=MIX,
    )

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.order = list(range(self.sims_per_run))
        random.Random(seed).shuffle(self.order)

    def inputs(self) -> dict:
        return {"replica_order": self.order}

    def setup(self) -> None:
        from repro.core.campaign import CampaignSpec
        from repro.core.fault_injection import RecoveryPolicy

        self.spec = CampaignSpec(**self.SPEC)
        self.policy = RecoveryPolicy()

    def run(self) -> Outcome:
        from repro.core.campaign import build_campaign_simulator

        digests, timer, events = {}, PartTimer(self.sample), 0
        for seed in self.order:
            with timer.part(str(seed)):
                res = build_campaign_simulator(self.spec, seed, self.policy).run()
            events += res.events_fired
            digests[str(seed)] = _replica_digest(res)
        return Outcome(events, digests, timer.parts)


class CampaignSweep:
    """A 4 x 2 ResilienceCampaign grid, 8 replicas per point, 2 workers, WAL on.

    Like ``replica_mixed`` the replicas are fixed (campaign base seed 0);
    the benchmark seed sets the order of the MTBF and period axes, and
    with it the order of grid points, pools and journal records.
    """

    name = "campaign_sweep"
    sims_per_run = 64
    sample = False
    reference_key = "*"
    MTBFS = (16, 32, 64, 128)
    PERIODS = (5, 10)
    REPS = 8
    WORKERS = 2
    SPEC = dict(
        nranks=16,
        nnodes=8,
        timesteps=100,
        verify_period=5,
        net_topology="torus",
        fault_mix=MIX,
    )

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        rng = random.Random(seed)
        self.mtbfs = rng.sample(self.MTBFS, len(self.MTBFS))
        self.periods = rng.sample(self.PERIODS, len(self.PERIODS))

    def inputs(self) -> dict:
        return {"mtbfs": self.mtbfs, "periods": self.periods}

    def setup(self) -> None:
        from repro.core.campaign import CampaignSpec, campaign_spec_key
        from repro.core.fault_injection import RecoveryPolicy

        policy = RecoveryPolicy()
        self.points = {}  # journal spec key -> (mtbf, period)
        for m in self.mtbfs:
            for p in self.periods:
                spec = CampaignSpec(node_mtbf_s=m, ckpt_period=p, **self.SPEC)
                self.points[campaign_spec_key(spec, policy)] = (m, p)

    def run(self, n_workers: int = WORKERS, journal: bool = True) -> Outcome:
        from repro.core.campaign import CampaignSpec, ResilienceCampaign

        os.makedirs(self.workdir, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="sweep-", dir=self.workdir)
        wal = os.path.join(tmp, "wal.jsonl")
        points, timer = [], PartTimer(self.sample)
        try:
            campaign = ResilienceCampaign(
                reps=self.REPS,
                base_seed=0,
                n_workers=n_workers,
                journal_path=wal if journal else None,
            )
            try:
                # run_grid's loop, with each grid point timed on its own
                for m in self.mtbfs:
                    for p in self.periods:
                        with timer.part(f"{m}/{p}"):
                            spec = CampaignSpec(node_mtbf_s=m, ckpt_period=p, **self.SPEC)
                            points.append(campaign.run_point(spec))
            finally:
                campaign.close()
            wal_bytes = os.path.getsize(wal) if journal else 0
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        digests, events = {}, 0
        for point in points:
            # Per-point digest of the report: journal line order depends on
            # which worker finishes first, the report does not.
            d = digest(point.to_dict())
            m, p = point.spec.node_mtbf_s, point.spec.ckpt_period
            for i, rep in enumerate(point.replicas):
                events += rep["events_fired"]
                digests[f"{m}/{p}/{i}"] = d
        failed = set()
        for failure in campaign.harness_stats.failures:
            spec_key, i = failure.key.rsplit(":", 1)
            m, p = self.points[spec_key]
            failed.add(f"{m}/{p}/{i}")
        return Outcome(events, digests, timer.parts, failed, extra={"wal_bytes": wal_bytes})


def make(name: str, seed: int, workdir: str):
    """The workload called *name*, built from the benchmark seed."""
    if name == "fig7":
        return Fig7(seed)
    if name == "replica_mixed":
        return ReplicaMixed(seed)
    if name == "campaign_sweep":
        return CampaignSweep(seed, workdir)
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")


NAMES = ("fig7", "replica_mixed", "campaign_sweep")
