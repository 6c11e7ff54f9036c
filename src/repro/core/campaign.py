"""Resilience campaigns: survivability statistics over fault sweeps.

A :class:`ResilienceCampaign` runs the full fault lifecycle (torn
checkpoints, nested faults, escalation, requeue — see
:mod:`repro.core.simulator`) across a grid of fault rates × checkpoint
configurations, replicating each point Monte-Carlo style, optionally
across worker processes.  Each grid point reports

* **completion probability** — the fraction of replicas that finished
  (the rest aborted after exhausting retries, requeues and spares),
* **expected makespan** over the completed replicas,
* a **wasted-time breakdown** — rework, downtime, checkpoint overhead,
  and requeue stalls,
* **faults per completion**, and
* a cross-check of the simulated waste against the Young/Daly
  analytical expectation (:mod:`repro.analytical.youngdaly`).

Workloads are the synthetic SPMD pattern used throughout the test suite
(compute → optional checkpoint → allreduce per timestep) so each grid
point is a pure function of its :class:`CampaignSpec` — which is what
makes the process-parallel path bit-identical to the sequential one.

Execution is **crash-safe** (see :mod:`repro.core.supervisor`): replicas
are individually scheduled tasks with timeouts, retries and a failure
taxonomy, a dying worker rebuilds the pool instead of discarding the
sweep, and — with a ``journal_path`` — every completed replica is
durably appended to a write-ahead journal keyed by a spec hash, so
:meth:`ResilienceCampaign.resume` (or ``campaign --resume``) skips
completed replicas bit-identically after a kill.  Partial results are
reportable at any time via :meth:`ResilienceCampaign.report_from_journal`.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import shutil
from dataclasses import asdict, dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.analytical.youngdaly import expected_waste
from repro.core.beo import AppBEO, ArchBEO
from repro.core.fault_injection import (
    FaultInjector,
    FaultModel,
    RecoveryPolicy,
    fold_link_rate,
)
from repro.core.instructions import Checkpoint, Collective, Compute, Verify
from repro.core.montecarlo import derive_seeds
from repro.core.simulator import BESSTSimulator
from repro.core.supervisor import (
    HarnessFaultInjector,
    RetryPolicy,
    SupervisorStats,
    TaskSupervisor,
)
from repro.des.snapshot import SnapshotStore
from repro.faults.domains import FailStopDomain, NetworkDomain, SdcDomain
from repro.guard.durable import JournalError, WriteAheadJournal
from repro.guard.resource import STAGE_SUSPEND_EXPORTERS, STAGES
from repro.models import ConstantModel
from repro.network import FullyConnected, Torus, TwoStageFatTree, link_count


def _sorted_weights(weights) -> tuple:
    """A ``{kind: weight}`` mapping or ``(kind, weight)`` pairs as sorted
    ``(str, float)`` pairs: the frozen, hashable form ``asdict`` sees."""
    pairs = weights.items() if isinstance(weights, Mapping) else weights
    return tuple(sorted((str(k), float(v)) for k, v in pairs))


@dataclass(frozen=True)
class CampaignSpec:
    """One grid point: a workload under one fault/checkpoint regime."""

    node_mtbf_s: float
    ckpt_period: int                #: timesteps between checkpoints
    level: int = 1                  #: checkpoint level taken each period
    nranks: int = 8
    nnodes: int = 4
    timesteps: int = 60
    compute_s: float = 0.1          #: modeled per-timestep compute cost
    ckpt_cost_s: float = 0.05       #: modeled checkpoint cost
    allreduce_bytes: int = 8
    recovery_time_s: float = 0.2    #: failure detection + restore downtime
    software_fraction: float = 1.0  #: share of transient (vs node-loss) faults
    #: full fault-taxonomy mix as sorted ``(kind, weight)`` pairs (kept a
    #: tuple so the spec stays frozen/hashable; pass a dict, it is
    #: normalised).  Empty = the two-kind ``software_fraction`` mix.
    fault_mix: tuple = ()
    # -- per-domain fault knobs --------------------------------------------------------
    # These fields are the one definition of each knob and its default:
    # the ``campaign`` flags default to None and fall through to them,
    # and each fault domain's ``config`` map (``repro.faults.domains``)
    # maps its ``--fault-config`` file section onto them.
    verify_period: int = 0          #: ABFT verification cadence (0 = off)
    verify_cost_s: float = 0.01     #: modeled verification-kernel cost
    sdc_coverage: float = 0.95      #: P(SDC strike is ABFT-detectable)
    sdc_correct_prob: float = 0.5   #: P(detected strike fixable in place)
    straggler_slowdown: float = 2.0
    straggler_repair_s: float = 5.0
    burst_size: int = 2             #: nodes felled per correlated burst
    #: per-link MTBF folded into the fault stream (0 = no implicit
    #: network faults; the mix can still name link/switch/netdeg)
    net_link_mtbf_s: float = 0.0
    net_degrade_factor: float = 4.0  #: netdeg bandwidth de-rate
    net_loss_prob: float = 0.05      #: netdeg transient-loss probability
    net_repair_s: float = 5.0        #: link/switch repair delay
    #: rank-level interconnect of the replica simulators: "full"
    #: (crossbar baseline), "torus" (square 2-D) or "fattree"
    net_topology: str = "full"
    #: how the folded link rate splits across link/switch/netdeg, as
    #: sorted (kind, weight) pairs; empty = ``network.health.NET_KIND_SPLIT``
    net_fault_split: tuple = ()

    def __post_init__(self) -> None:
        # Float bounds are written so that NaN fails them too; an
        # infinite MTBF stays valid (a fault-free sweep point).
        if not self.node_mtbf_s > 0:
            raise ValueError(f"node_mtbf_s must be > 0, got {self.node_mtbf_s}")
        # Counts must be real ints: a float would change asdict() (the
        # journal hash) and fail later inside every replica.
        for name in (
            "ckpt_period", "level", "timesteps", "nranks", "nnodes",
            "verify_period", "burst_size", "allreduce_bytes",
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
        for name in ("ckpt_period", "timesteps", "nranks", "nnodes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        # Ranks sit nranks // nnodes to a node: a remainder would strand
        # ranks past the last node the injector draws, and a surplus node
        # would hold no rank yet still roll the job back.
        if self.nranks % self.nnodes:
            raise ValueError(
                f"nranks ({self.nranks}) must be a multiple of nnodes ({self.nnodes})"
            )
        if not 1 <= self.level <= 4:
            raise ValueError(f"level must be in 1-4, got {self.level}")
        if self.allreduce_bytes < 0:
            raise ValueError(
                f"allreduce_bytes must be >= 0, got {self.allreduce_bytes}"
            )
        for name in ("compute_s", "ckpt_cost_s", "verify_cost_s", "recovery_time_s"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(
                    f"{name} must be finite and >= 0, got {getattr(self, name)}"
                )
        if self.verify_period < 0:
            raise ValueError(
                f"verify_period must be >= 0, got {self.verify_period}"
            )
        for name in ("fault_mix", "net_fault_split"):
            object.__setattr__(self, name, _sorted_weights(getattr(self, name)))
        if not self.net_link_mtbf_s >= 0:
            raise ValueError(
                f"net_link_mtbf_s must be >= 0, got {self.net_link_mtbf_s}"
            )
        if self.net_topology not in ("full", "torus", "fattree"):
            raise ValueError(
                f"net_topology must be 'full', 'torus' or 'fattree', "
                f"got {self.net_topology!r}"
            )
        # Fail fast on an invalid mix / taxonomy parameters / topology: a
        # bad spec should be rejected here, not quarantine every replica
        # later.
        self.build_topology()
        self.fault_model()

    def build_topology(self):
        """The rank-level interconnect of this grid point's replicas."""
        if self.net_topology == "torus":
            # Nearest-to-square 2-D factoring; primes degrade to a ring.
            d = next(
                k
                for k in range(math.isqrt(self.nranks), 0, -1)
                if self.nranks % k == 0
            )
            return Torus((d, self.nranks // d))
        if self.net_topology == "fattree":
            per_edge = max(2, self.nranks // 4)
            return TwoStageFatTree(
                self.nranks,
                nodes_per_edge=per_edge,
                uplinks_per_edge=max(1, per_edge // 2),
            )
        return FullyConnected(self.nranks)

    def fault_model(self) -> FaultModel:
        """The (validated) failure process of this grid point.

        With ``net_link_mtbf_s`` set, the per-link failure stream is
        superposed onto the node stream
        (:func:`~repro.core.fault_injection.fold_link_rate`): the
        effective MTBF and kind weights shift so network faults arrive
        at ``nlinks / link_mtbf`` while the configured mix keeps its
        relative shares.
        """
        model = self._node_fault_model()
        if self.net_link_mtbf_s > 0:
            model = fold_link_rate(
                model,
                nnodes=self.nnodes,
                nlinks=link_count(self.build_topology()),
                link_mtbf_s=self.net_link_mtbf_s,
                split=self.net_fault_split or None,
            )
        return model

    def _node_fault_model(self) -> FaultModel:
        """The node failure stream, before any link rate is folded in."""
        return FaultModel(
            node_mtbf_s=self.node_mtbf_s,
            software_fraction=self.software_fraction,
            kind_weights=dict(self.fault_mix) if self.fault_mix else None,
            sdc_coverage=self.sdc_coverage,
            sdc_correct_prob=self.sdc_correct_prob,
            straggler_slowdown=self.straggler_slowdown,
            straggler_repair_s=self.straggler_repair_s,
            burst_size=self.burst_size,
            net_degrade_factor=self.net_degrade_factor,
            net_loss_prob=self.net_loss_prob,
            net_repair_s=self.net_repair_s,
        )

    @property
    def kind_mix(self) -> dict[str, float]:
        """The configured fault-kind mix: the validated weights of the
        node failure stream (zero weights dropped, canonical kind
        order), before any link rate is folded in."""
        return self._node_fault_model().weights

    @property
    def work_s(self) -> float:
        """Failure-free useful compute per rank."""
        return self.timesteps * self.compute_s

    @property
    def interval_s(self) -> float:
        """Compute time between checkpoints (the Young/Daly tau)."""
        return self.ckpt_period * self.compute_s

    @property
    def system_mtbf_s(self) -> float:
        return self.node_mtbf_s / self.nnodes

    @property
    def expected_waste_s(self) -> float:
        """Young/Daly expected waste (checkpoint overhead, rework and
        restarts) of this point's workload under its system MTBF."""
        return expected_waste(
            self.work_s,
            self.interval_s,
            self.ckpt_cost_s,
            self.system_mtbf_s,
            restart_cost=self.recovery_time_s,
        )

    @property
    def two_error_mtbfs(self) -> tuple[float, float]:
        """``(fail-stop, SDC)`` MTBFs of the two-error-type model.

        The injector draws one system-wide arrival stream and then a kind
        from :attr:`kind_mix`, so each error type's MTBF is the system
        MTBF over its share; ``math.inf`` when the mix has none.  The
        fail-stop share sums the weights in ``FailStopDomain.kinds``
        order, so it does not depend on set iteration order.
        """
        mix = self.kind_mix

        def mtbf(kinds: tuple[str, ...]) -> float:
            share = sum(mix.get(k, 0.0) for k in kinds)
            return self.system_mtbf_s / share if share > 0 else math.inf

        return mtbf(FailStopDomain.kinds), mtbf(SdcDomain.kinds)


class CampaignWorkload:
    """The campaign's synthetic SPMD program builder.

    A module-level class (not a closure) so simulators built from it are
    fully picklable — the property in-simulation snapshot/restore needs
    to resume a replica mid-run.
    """

    def __init__(self, spec: CampaignSpec) -> None:
        self.spec = spec

    def __call__(self, rank: int, nranks: int, params) -> list:
        spec = self.spec
        body = []
        for ts in range(1, spec.timesteps + 1):
            body.append(Compute.of("work"))
            # Verification precedes any same-timestep checkpoint, so a
            # strike caught here never taints the written version.
            if spec.verify_period > 0 and ts % spec.verify_period == 0:
                body.append(Verify.of("verify"))
            if ts % spec.ckpt_period == 0:
                body.append(Checkpoint.of(spec.level, "ckpt"))
            body.append(Collective("allreduce", nbytes=spec.allreduce_bytes))
        return body


@functools.lru_cache(maxsize=4)
def _campaign_workload(spec: CampaignSpec) -> CampaignWorkload:
    """One builder per spec: the simulator keeps an SPMD app's compiled
    program with its builder, so the replicas of one grid point run in
    a process (a pool worker, or the parent) compile it once.  Equal
    specs share one; the few most recent are kept."""
    return CampaignWorkload(spec)


def build_campaign_app(spec: CampaignSpec) -> AppBEO:
    """The campaign's synthetic SPMD workload."""
    return AppBEO(
        f"campaign_p{spec.ckpt_period}_l{spec.level}",
        _campaign_workload(spec),
        spmd=True,
    )


def build_campaign_simulator(
    spec: CampaignSpec,
    seed: int,
    policy: RecoveryPolicy,
    inject: bool = True,
) -> BESSTSimulator:
    """Assemble one replica's simulator (pure function of its inputs)."""
    arch = ArchBEO(
        "campaign",
        topology=spec.build_topology(),
        cores_per_node=spec.nranks // spec.nnodes,
    )
    arch.bind("work", ConstantModel(spec.compute_s))
    arch.bind("ckpt", ConstantModel(spec.ckpt_cost_s))
    arch.bind("verify", ConstantModel(spec.verify_cost_s))
    arch.recovery_time_s = spec.recovery_time_s
    injector = None
    if inject:
        injector = FaultInjector(
            spec.fault_model(),
            nnodes=spec.nnodes,
            seed=seed + 777,
        )
    return BESSTSimulator(
        build_campaign_app(spec),
        arch,
        nranks=spec.nranks,
        seed=seed,
        monte_carlo=False,
        fault_injector=injector,
        recovery_policy=policy,
    )


#: event budget per replica; aborts make runs short, fault storms long
_REPLICA_MAX_EVENTS = 20_000_000

#: keys every replica metrics dict must carry (the supervisor's result
#: validator — an injected-garbage return fails this and is retried)
_REPLICA_KEYS = frozenset(
    {
        "seed",
        "completed",
        "total_time",
        "faults",
        "rollbacks",
        "nested_faults",
        "torn_checkpoints",
        "verify_failures",
        "escalations",
        "requeues",
        "waste_rework",
        "waste_downtime",
        "waste_requeue",
        "checkpoint_time",
        "fault_log",
        "fault_kinds",
        "sdc",
        "net",
        "wrong_result",
        "forensics",
    }
)


@dataclass(frozen=True)
class ReplicaSnapshotConfig:
    """In-simulation snapshot cadence for one replica.

    When a :class:`ReplicaTask` carries one, the simulator checkpoints
    itself into *directory* every *every_events* fired events, and a retried
    replica (after a timeout, kill or worker crash) resumes from the
    newest loadable snapshot instead of restarting from ``t=0``.  The
    resumed metrics are bit-identical to an uninterrupted run, so
    journals and reports are unaffected by how often a replica died.
    """

    directory: str
    every_events: int = 2000
    keep: int = 2

    def __post_init__(self) -> None:
        if self.every_events < 1:
            raise ValueError(
                f"every_events must be >= 1, got {self.every_events}"
            )


@dataclass(frozen=True)
class ReplicaTask:
    """One replica's work order, shipped to a worker as its payload.

    ``spec``, ``policy`` and ``seed`` fix the replica's result.  The
    optional rest only change how it runs: ``snapshot`` makes a retry
    resume mid-simulation, ``obs_ctx`` (an
    :class:`~repro.obs.tracing.ObsContext`) joins the replica to the
    campaign's trace, and ``flight_dir`` points its flight recorder at
    the campaign's dump directory.
    """

    spec: CampaignSpec
    policy: RecoveryPolicy
    seed: int
    snapshot: Optional[ReplicaSnapshotConfig] = None
    obs_ctx: object = None
    flight_dir: Optional[str] = None


def _run_replica(task: ReplicaTask) -> dict:
    """One Monte-Carlo replica → a slim, picklable metrics dict.

    Module-level so :class:`ProcessPoolExecutor` can ship it to workers.
    A pure function of ``(task.spec, task.policy, task.seed)``: retrying
    it (after a worker crash, hang or injected harness fault) reproduces
    the original result bit-identically.  With a snapshot config the
    retry resumes from the replica's newest in-simulation snapshot
    rather than recomputing from scratch.  With an ``obs_ctx`` the
    replica's spans and worker metrics ride home in a transient
    ``"obs"`` key, which the campaign pops before journaling;
    observability never touches the metrics dict beyond that and
    adding ``events_fired``, so journals and reports stay bit-identical
    with it on or off.  With a ``flight_dir`` the replica records its
    fault/recovery timeline out-of-band (live spill + atomic final
    dump, both named by seed); the recorder is observation-only, so the
    metrics dict — and with it journal and report bytes — is identical
    with it on or off.
    """
    seed, snap_cfg = task.seed, task.snapshot
    tracer = engine_obs = span = None
    if task.obs_ctx is not None:
        from repro.obs.instrument import replica_obs_begin

        tracer, engine_obs, span = replica_obs_begin(task.obs_ctx, seed)
    flight = None
    if task.flight_dir is not None:
        from repro.obs.flightrec import FlightRecorder, flight_spill_path

        flight = FlightRecorder(
            spill_path=flight_spill_path(task.flight_dir, seed)
        )
        flight.record("replica_start", 0.0, seed=seed, pid=os.getpid())
    sim = None
    store = None
    if snap_cfg is not None:
        store = SnapshotStore(snap_cfg.directory, keep=snap_cfg.keep)
        latest = store.latest()
        if latest is not None:
            sim = BESSTSimulator.restore(latest)
    if sim is None:
        sim = build_campaign_simulator(task.spec, seed, task.policy)
        if snap_cfg is not None:
            sim.enable_snapshots(
                snap_cfg.directory,
                every_events=snap_cfg.every_events,
                keep=snap_cfg.keep,
            )
    if engine_obs is not None:
        sim.engine.attach_obs(engine_obs)
    if flight is not None:
        sim.attach_flightrec(flight)
    res = sim.run(max_events=_REPLICA_MAX_EVENTS)
    if store is not None:
        store.clear()  # completed: the snapshots are dead weight now
    result = {
        "seed": seed,
        "completed": res.completed,
        "total_time": res.total_time,
        "faults": res.faults_injected,
        "rollbacks": res.rollbacks,
        "nested_faults": res.nested_faults,
        "torn_checkpoints": res.torn_checkpoints,
        "verify_failures": res.verify_failures,
        "escalations": res.escalations,
        "requeues": res.requeues,
        "waste_rework": res.waste_rework,
        "waste_downtime": res.waste_downtime,
        "waste_requeue": res.waste_requeue,
        "checkpoint_time": res.checkpoint_time,
        "fault_log": sim.fault_injector.log.to_rows(),
        "fault_kinds": sim.fault_injector.log.kind_counts(),
        "sdc": res.sdc,
        "net": res.net,
        "wrong_result": res.wrong_result,
        # Always present (forensics is derived from the run, not from
        # any recorder): per-episode waste attribution + phase timelines.
        "forensics": {"episodes": res.episodes, **res.straggler},
        # Extra key (not in _REPLICA_KEYS): feeds the heartbeat's
        # events/sec; aggregation ignores it, so reports are unchanged.
        "events_fired": res.events_fired,
    }
    if flight is not None:
        from repro.obs.export import guarded_export
        from repro.obs.flightrec import flight_dump_path

        reason = (
            "aborted"
            if not res.completed
            else "wrong_result"
            if res.wrong_result
            else "completed"
        )
        meta = {
            "seed": seed,
            "reason": reason,
            "sim_time": res.total_time,
            "events": res.events_fired,
            "completed": res.completed,
            "wrong_result": res.wrong_result,
        }
        dumped = guarded_export(
            "flight-dump",
            lambda: flight.dump(
                flight_dump_path(task.flight_dir, seed), meta=meta
            ),
        )
        # Only a successfully-dumped replica may drop its spill: a live
        # spill left behind is the post-mortem signal for a killed worker.
        flight.close(remove_spill=dumped)
    if task.obs_ctx is not None:
        from repro.obs.instrument import replica_obs_end

        replica_obs_end(task.obs_ctx, tracer, span, result)
    return result


def _is_replica_result(value) -> bool:
    return isinstance(value, dict) and _REPLICA_KEYS <= value.keys()


def campaign_spec_key(spec: CampaignSpec, policy: RecoveryPolicy) -> str:
    """Stable hash of (spec, policy) — the journal's grid-point key."""
    blob = json.dumps(
        {"spec": asdict(spec), "policy": asdict(policy)}, sort_keys=True
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# -- write-ahead journal (campaign semantics over WriteAheadJournal) -------------


class CampaignJournal:
    """Spec-hash-keyed replica journal backing ``--resume``.

    Record kinds: ``point`` (one per grid point, carrying the spec) and
    ``replica`` (one fsynced record per completed replica).  Reopening
    with a different (reps, base_seed, policy) raises
    :class:`repro.guard.durable.JournalError`.
    """

    def __init__(
        self, path: str, reps: int, base_seed: int, policy: RecoveryPolicy
    ) -> None:
        meta = {
            "campaign": "resilience",
            "reps": reps,
            "base_seed": base_seed,
            "policy": asdict(policy),
        }
        self._wal = WriteAheadJournal(path, meta)
        self.points: dict[str, dict] = {}
        self.replicas: dict[str, dict[int, dict]] = {}
        for rec in self._wal.records:
            self._index(rec)

    def _index(self, rec: dict) -> None:
        if rec.get("kind") == "point":
            self.points[rec["spec_key"]] = rec["spec"]
        elif rec.get("kind") == "replica":
            self.replicas.setdefault(rec["spec_key"], {})[
                int(rec["replica"])
            ] = rec["result"]

    def ensure_point(self, spec_key: str, spec: CampaignSpec) -> None:
        if spec_key not in self.points:
            rec = {"kind": "point", "spec_key": spec_key, "spec": asdict(spec)}
            self._wal.append(rec)
            self._index(rec)

    def record_replica(
        self, spec_key: str, replica: int, seed: int, result: dict
    ) -> None:
        rec = {
            "kind": "replica",
            "spec_key": spec_key,
            "replica": replica,
            "seed": seed,
            "result": result,
        }
        self._wal.append(rec)
        self._index(rec)

    def completed(self, spec_key: str) -> dict[int, dict]:
        return self.replicas.get(spec_key, {})

    def close(self) -> None:
        self._wal.close()

    @classmethod
    def read(cls, path: str):
        """Load ``(meta, points, replicas)`` without opening for append."""
        meta, records = WriteAheadJournal.read(path)
        if meta.get("campaign") != "resilience":
            raise JournalError(f"journal {path!r} is not a campaign journal")
        view = cls.__new__(cls)  # the index alone, with no file open
        view.points, view.replicas = {}, {}
        for rec in records:
            view._index(rec)
        return meta, view.points, view.replicas


# -- reports ---------------------------------------------------------------------


@dataclass
class CampaignPointReport:
    """Aggregated survivability statistics of one grid point."""

    spec: CampaignSpec
    reps: int                            #: replicas configured
    replicas_done: int                   #: replicas actually available
    completion_probability: float
    expected_makespan: Optional[float]   #: mean over completed replicas
    makespan_p95: Optional[float]
    faults_per_completion: Optional[float]
    mean_faults: float
    mean_nested_faults: float
    mean_torn_checkpoints: float
    mean_verify_failures: float
    mean_requeues: float
    waste: dict                          #: rework/downtime/checkpoint/requeue means
    youngdaly: dict                      #: analytical cross-check
    fault_kinds: dict = field(default_factory=dict)  #: kind -> injected, summed
    sdc: dict = field(default_factory=dict)  #: injected/detected/corrected/undetected sums
    net: dict = field(default_factory=dict)  #: network fault-domain sums
    wrong_results: int = 0               #: completed replicas carrying undetected SDC
    replicas: list = field(default_factory=list, repr=False)

    @property
    def partial(self) -> bool:
        return self.replicas_done < self.reps

    def to_dict(self) -> dict:
        d = {
            "spec": asdict(self.spec),
            "reps": self.reps,
            "replicas_done": self.replicas_done,
            "completion_probability": self.completion_probability,
            "expected_makespan": self.expected_makespan,
            "makespan_p95": self.makespan_p95,
            "faults_per_completion": self.faults_per_completion,
            "mean_faults": self.mean_faults,
            "mean_nested_faults": self.mean_nested_faults,
            "mean_torn_checkpoints": self.mean_torn_checkpoints,
            "mean_verify_failures": self.mean_verify_failures,
            "mean_requeues": self.mean_requeues,
            "waste": self.waste,
            "youngdaly": self.youngdaly,
            "fault_kinds": self.fault_kinds,
            "sdc": self.sdc,
            "net": self.net,
            "wrong_results": self.wrong_results,
        }
        return d


@dataclass
class CampaignReport:
    """The full campaign grid."""

    points: list[CampaignPointReport]
    reps: int
    base_seed: int
    partial: bool = False  #: some grid point has replicas_done < reps

    def to_dict(self) -> dict:
        return {
            "campaign": "resilience",
            "reps": self.reps,
            "base_seed": self.base_seed,
            "partial": self.partial,
            "points": [p.to_dict() for p in self.points],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def format(self) -> str:
        """Human-readable summary table."""
        tag = ", PARTIAL" if self.partial else ""
        lines = [
            "RESILIENCE CAMPAIGN "
            f"({self.reps} replicas/point, base seed {self.base_seed}{tag})",
            f"{'mtbf/node':>10s} {'period':>7s} {'done':>7s} {'P(done)':>8s} "
            f"{'makespan':>9s} {'faults':>7s} {'waste r/d/c/q':>24s} {'YD ratio':>9s}",
        ]
        for p in self.points:
            w = p.waste
            mk = f"{p.expected_makespan:.3f}" if p.expected_makespan is not None else "-"
            fpc = f"{p.faults_per_completion:.2f}" if p.faults_per_completion is not None else "-"
            ratio = p.youngdaly.get("ratio")
            yd = f"{ratio:.2f}" if ratio is not None else "-"
            lines.append(
                f"{p.spec.node_mtbf_s:>10.1f} {p.spec.ckpt_period:>7d} "
                f"{p.replicas_done:>3d}/{p.reps:<3d} "
                f"{p.completion_probability:>8.2f} {mk:>9s} {fpc:>7s} "
                f"{w['rework']:>6.3f}/{w['downtime']:.3f}/{w['checkpoint']:.3f}/{w['requeue']:.3f}"
                f" {yd:>9s}"
            )
        return "\n".join(lines)


def _youngdaly_check(spec: CampaignSpec, replicas: list[dict]) -> dict:
    """Compare mean simulated waste with the Young/Daly expectation.

    The analytical model prices exactly what the simulator charges to
    waste + checkpoint overhead: E[runtime] − work.  ``ratio`` is
    simulated/predicted; at moderate fault rates (a handful of faults
    per run) it should sit within ±50 % (see tests/docs), the renewal
    approximation's documented accuracy band here.
    """
    predicted = spec.expected_waste_s
    completed = [r for r in replicas if r["completed"]]
    if not completed:
        return {
            "interval_s": spec.interval_s,
            "predicted_waste_s": predicted,
            "simulated_waste_s": None,
            "ratio": None,
        }
    simulated = float(
        np.mean(
            [
                r["waste_rework"]
                + r["waste_downtime"]
                + r["waste_requeue"]
                + r["checkpoint_time"]
                for r in completed
            ]
        )
    )
    return {
        "interval_s": spec.interval_s,
        "predicted_waste_s": predicted,
        "simulated_waste_s": simulated,
        "ratio": simulated / predicted if predicted > 0 else None,
    }


def aggregate_point(
    spec: CampaignSpec, replicas: list[dict], reps: int
) -> CampaignPointReport:
    """Aggregate available replica metrics into one point report.

    Safe on any replica subset: an empty list (nothing run yet, or all
    quarantined) and an all-aborted point both serialize cleanly —
    no NaN and no division by zero anywhere in the waste breakdown or
    faults-per-completion.
    """
    n_avail = len(replicas)
    completed = [r for r in replicas if r["completed"]]
    n_done = len(completed)
    makespans = np.array([r["total_time"] for r in completed])
    total_faults = sum(r["faults"] for r in replicas)

    def mean(key: str) -> float:
        return float(np.mean([r[key] for r in replicas])) if replicas else 0.0

    waste = {
        "rework": mean("waste_rework"),
        "downtime": mean("waste_downtime"),
        "checkpoint": mean("checkpoint_time"),
        "requeue": mean("waste_requeue"),
    }
    # Per-kind and fault-domain block totals across every available
    # replica.  Older journals predate these keys; .get keeps resume
    # compatible.
    fault_kinds: dict[str, int] = {}
    blocks = {"sdc": dict(SdcDomain.ZERO_BLOCK), "net": dict(NetworkDomain.ZERO_BLOCK)}
    wrong_results = 0
    for r in replicas:
        for kind, n in r.get("fault_kinds", {}).items():
            fault_kinds[kind] = fault_kinds.get(kind, 0) + int(n)
        for name, totals in blocks.items():
            for key, v in r.get(name, {}).items():
                totals[key] = totals.get(key, 0) + v
        if r.get("wrong_result"):
            wrong_results += 1
    return CampaignPointReport(
        spec=spec,
        reps=reps,
        replicas_done=n_avail,
        completion_probability=(n_done / n_avail) if n_avail else 0.0,
        expected_makespan=float(makespans.mean()) if n_done else None,
        makespan_p95=float(np.percentile(makespans, 95)) if n_done else None,
        faults_per_completion=(total_faults / n_done) if n_done else None,
        mean_faults=mean("faults"),
        mean_nested_faults=mean("nested_faults"),
        mean_torn_checkpoints=mean("torn_checkpoints"),
        mean_verify_failures=mean("verify_failures"),
        mean_requeues=mean("requeues"),
        waste=waste,
        youngdaly=_youngdaly_check(spec, replicas),
        fault_kinds=dict(sorted(fault_kinds.items())),
        sdc=blocks["sdc"],
        net=blocks["net"],
        wrong_results=wrong_results,
        replicas=replicas,
    )


# -- the campaign runner ---------------------------------------------------------


class ResilienceCampaign:
    """Crash-safe, process-parallel Monte-Carlo sweep of fault survivability.

    Parameters
    ----------
    reps / base_seed:
        Replicas per grid point (at least 1); replica *i* of every grid
        point runs with an independent seed explicitly derived from
        ``base_seed`` (:func:`repro.core.montecarlo.derive_seeds`).
    policy:
        The :class:`RecoveryPolicy` applied to every replica.
    n_workers:
        Worker processes; 1 (default) runs in-process.  Both paths
        produce byte-identical reports (replicas are pure functions of
        ``(spec, policy, seed)``).  With more than one, every grid point
        runs on one worker pool, started by the first point that needs
        it and stopped by :meth:`close` or when :meth:`run_specs`
        returns; a crashed or hung worker replaces it.
    retry:
        Supervisor :class:`RetryPolicy` (timeouts, backoff, quarantine).
    journal_path:
        Write-ahead journal; every completed replica is durably recorded
        and never recomputed on a rerun/resume with the same journal.
    fault_injector:
        Optional :class:`HarnessFaultInjector` for chaos testing the
        harness itself (workers only; never the supervisor process).
    sim_snapshot_dir / sim_snapshot_every:
        When both are set, each replica checkpoints its *simulator state*
        into a private subdirectory of ``sim_snapshot_dir`` every
        ``sim_snapshot_every`` fired events, and a retried replica
        (timeout, kill, worker crash) resumes mid-simulation from its
        newest snapshot — complementing the journal, which only skips
        replicas that already *finished*.
    obs:
        Optional :class:`~repro.obs.instrument.CampaignObs`.  Enables
        the full telemetry pipeline: campaign/point/task spans with ids
        propagated into replica worker processes, engine-level metrics,
        the live heartbeat, and the JSONL / Prometheus / Chrome-trace
        exporters.  Each replica result carries its spans and worker
        metrics home in a transient ``"obs"`` key, popped and absorbed
        before anything else sees the result, so observability data
        never enters the journal or report (beyond the report-ignored
        ``events_fired`` key) and runs are bit-identical with it on or
        off.
    guard:
        Optional :class:`~repro.guard.resource.ResourceGuard`.  Polled
        from the supervision loop; its ``on_stage`` hook is set to apply
        the degradation ladder's stages to this campaign — suspend the
        metric exporters, pause task submission, and finally a clean
        resumable abort (``self.aborted`` / ``self.abort_reason``) that
        leaves the journal valid for :meth:`resume`.  With the guard
        attached but no resource pressure, reports and journals are
        bit-identical to an unguarded run.
    """

    def __init__(
        self,
        reps: int = 20,
        base_seed: int = 0,
        policy: Optional[RecoveryPolicy] = None,
        n_workers: int = 1,
        retry: Optional[RetryPolicy] = None,
        journal_path: Optional[str] = None,
        fault_injector: Optional[HarnessFaultInjector] = None,
        sim_snapshot_dir: Optional[str] = None,
        sim_snapshot_every: Optional[int] = None,
        obs=None,
        guard=None,
        flight_dir: Optional[str] = None,
    ) -> None:
        if reps < 1:
            raise ValueError(f"reps must be >= 1, got {reps}")
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if (sim_snapshot_dir is None) != (sim_snapshot_every is None):
            raise ValueError(
                "sim_snapshot_dir and sim_snapshot_every must be set together"
            )
        self.reps = reps
        self.base_seed = base_seed
        self.policy = policy or RecoveryPolicy()
        self.n_workers = n_workers
        self.retry = retry or RetryPolicy()
        self.fault_injector = fault_injector
        self.journal_path = journal_path
        self.sim_snapshot_dir = sim_snapshot_dir
        self.sim_snapshot_every = sim_snapshot_every
        self.obs = obs
        self.guard = guard
        #: flight-recorder directory: each replica spills its fault/
        #: recovery timeline there and dumps it atomically at exit; the
        #: harness failure log lands there too.  Out-of-band by design —
        #: journal and report bytes are identical with it on or off.
        self.flight_dir = flight_dir
        if flight_dir is not None:
            os.makedirs(flight_dir, exist_ok=True)
        #: set when a run stopped on resource exhaustion; the journal
        #: holds every completed replica, so :meth:`resume` finishes the
        #: sweep bit-identically once the pressure clears
        self.aborted = False
        self.abort_reason = ""
        self._journal: Optional[CampaignJournal] = None
        self._supervisor: Optional[TaskSupervisor] = None
        #: accumulated supervisor telemetry (kept out of report JSON so
        #: resumed and uninterrupted runs stay bit-identical)
        self.harness_stats = SupervisorStats()
        if guard is not None:
            guard.on_stage = self._on_stage

    @classmethod
    def resume(cls, journal_path: str, **options) -> "ResilienceCampaign":
        """Rebuild a campaign from a journal's header (reps/seed/policy).

        *options* are the other ``__init__`` parameters (workers, retry,
        harness faults, snapshots, obs, guard, flight directory).
        Calling :meth:`run_grid` with the original grid then recomputes
        only the replicas the journal is missing — and, with the
        ``sim_snapshot_*`` options, resumes each unfinished replica from
        its latest in-simulation snapshot rather than from ``t=0``.
        """
        meta, _, _ = CampaignJournal.read(journal_path)
        return cls(
            reps=meta["reps"],
            base_seed=meta["base_seed"],
            policy=RecoveryPolicy(**meta["policy"]),
            journal_path=journal_path,
            **options,
        )

    @staticmethod
    def report_from_journal(journal_path: str) -> CampaignReport:
        """Aggregate whatever the journal holds — partial or complete.

        Usable at any time, including while another process is mid-sweep
        or after a kill; points missing replicas are flagged via
        ``replicas_done`` and the report-level ``partial`` bit.
        """
        meta, points, replicas = CampaignJournal.read(journal_path)
        reps = int(meta["reps"])
        reports = []
        for spec_key, spec_dict in points.items():
            done = replicas.get(spec_key, {})
            ordered = [done[i] for i in sorted(done)]
            reports.append(
                aggregate_point(CampaignSpec(**spec_dict), ordered, reps)
            )
        return CampaignReport(
            points=reports,
            reps=reps,
            base_seed=int(meta["base_seed"]),
            partial=any(p.partial for p in reports),
        )

    # -- degradation-ladder stage actions ----------------------------------------

    def _on_stage(self, frm: str, to: str, reason: str) -> None:
        """The guard's stage hook: apply (climbing) or undo (recovering)
        this campaign's stage actions, one rung at a time."""
        up = STAGES.index(to) > STAGES.index(frm)
        heartbeat = self.obs.heartbeat if self.obs is not None else None
        if heartbeat is not None:
            heartbeat.set_stage(to)
            heartbeat.beat(force=True)
        sink = self.obs.sink if self.obs is not None else None
        if sink is not None:
            if up and to == STAGE_SUSPEND_EXPORTERS:
                sink.breaker.force_open()
            elif not up and frm == STAGE_SUSPEND_EXPORTERS:
                sink.breaker.reset()

    # -- execution ---------------------------------------------------------------

    def _replica_snapshot_dir(self, spec_key: str, replica) -> str:
        return os.path.join(self.sim_snapshot_dir, f"{spec_key}-r{replica}")

    def _replica_task(
        self, spec: CampaignSpec, spec_key: str, seeds, i: int
    ) -> ReplicaTask:
        snap_cfg = None
        if self.sim_snapshot_dir is not None:
            snap_cfg = ReplicaSnapshotConfig(
                directory=self._replica_snapshot_dir(spec_key, i),
                every_events=self.sim_snapshot_every,
            )
        return ReplicaTask(
            spec,
            self.policy,
            seeds[i],
            snapshot=snap_cfg,
            # parented on the task's derived span in the campaign trace
            obs_ctx=(
                self.obs.worker_context(f"{spec_key}:{i}")
                if self.obs is not None
                else None
            ),
            flight_dir=self.flight_dir,
        )

    def _get_journal(self) -> Optional[CampaignJournal]:
        if self.journal_path is not None and self._journal is None:
            self._journal = CampaignJournal(
                self.journal_path, self.reps, self.base_seed, self.policy
            )
        return self._journal

    def _get_supervisor(self) -> TaskSupervisor:
        """The supervisor every grid point runs on, and with it the one
        worker pool of the campaign (until :meth:`close`).  Built on
        first use, so options set after construction still apply."""
        if self._supervisor is None:
            if self.n_workers > 1:
                # Load what a replica imports lazily before the pool
                # forks, so workers inherit it instead of each importing
                # it again on its first replica: networkx routes network
                # faults, repro.obs holds the recovery metrics registry.
                # Here, not at module top, so plain imports stay cheap;
                # tests/core/test_supervisor.py checks the list is whole.
                import networkx  # noqa: F401
                import numpy.random  # noqa: F401
                import repro.obs  # noqa: F401
            self._supervisor = TaskSupervisor(
                _run_replica,
                n_workers=self.n_workers,
                retry=self.retry,
                validate=_is_replica_result,
                on_result=self._record_replica,
                on_quarantine=self._discard_replica_snapshots,
                fault_injector=self.fault_injector,
                seed=self.base_seed,
                guard=self.guard,
                # harness failures (crashes, hangs, quarantines) land
                # next to the flight dumps so `repro analyze` can
                # explain replicas that never produced a journal row
                failure_log_path=(
                    os.path.join(self.flight_dir, "harness-failures.jsonl")
                    if self.flight_dir is not None
                    else None
                ),
            )
        return self._supervisor

    def _stop_workers(self) -> None:
        if self._supervisor is not None:
            self._supervisor.close()
            self._supervisor = None

    def _record_replica(self, key: str, result: dict) -> None:
        """The supervisor's write-ahead hook, once per fresh replica."""
        # Popped so telemetry never reaches the journal or the report;
        # WAL first: durability beats it.
        telemetry = result.pop("obs") if self.obs is not None else None
        if self._journal is not None:
            spec_key, idx = key.rsplit(":", 1)
            self._journal.record_replica(spec_key, int(idx), result["seed"], result)
        if self.obs is not None:
            self.obs.absorb(telemetry)
            self.obs.replica_done(result)

    def _discard_replica_snapshots(self, key: str, failures) -> None:
        # A poisoned replica never completes; its snapshots must not
        # seed a future resume of the same key.
        if self.sim_snapshot_dir is None:
            return
        spec_key, idx = key.rsplit(":", 1)
        shutil.rmtree(self._replica_snapshot_dir(spec_key, idx), ignore_errors=True)

    def _run_replicas(self, spec: CampaignSpec) -> list[dict]:
        seeds = derive_seeds(self.base_seed, self.reps)
        spec_key = campaign_spec_key(spec, self.policy)
        obs = self.obs
        done: dict[int, dict] = {}
        # Journal open and point-header append are host-side durable
        # writes: under ENOSPC they must abort the sweep resumably, not
        # escape as an unhandled OSError.
        try:
            journal = self._get_journal()
            if journal is not None:
                journal.ensure_point(spec_key, spec)
        except OSError as exc:
            self.aborted = True
            if not self.abort_reason:
                self.abort_reason = (
                    f"durable write failed for point {spec_key}: {exc}"
                )
            return []
        if journal is not None:
            done = dict(journal.completed(spec_key))
        if obs is not None:
            obs.point_started(spec_key)
            for replayed in done.values():
                obs.replica_done(replayed, from_journal=True)
        try:
            tasks = [
                (f"{spec_key}:{i}", self._replica_task(spec, spec_key, seeds, i))
                for i in range(self.reps)
                if i not in done
            ]
            fresh: dict[int, dict] = {}
            if tasks:
                supervisor = self._get_supervisor()
                supervisor.obs = obs.supervisor_obs() if obs is not None else None
                out = supervisor.run(tasks)
                if supervisor.obs is not None:
                    supervisor.obs.close()
                if out.stats.aborted:
                    self.aborted = True
                    if not self.abort_reason:
                        self.abort_reason = out.stats.abort_reason
                self.harness_stats.merge(out.stats)
                fresh = {
                    int(key.rsplit(":", 1)[1]): value
                    for key, value in out.results.items()
                }
            replicas = []
            for i in range(self.reps):
                if i in done:
                    replicas.append(done[i])
                elif i in fresh:
                    replicas.append(fresh[i])
                # quarantined replicas are missing: reported via replicas_done
            return replicas
        finally:
            if obs is not None:
                obs.point_finished()

    def run_point(self, spec: CampaignSpec) -> CampaignPointReport:
        """Run every replica of one grid point and aggregate."""
        return aggregate_point(spec, self._run_replicas(spec), self.reps)

    def run_grid(
        self,
        mtbfs: Sequence[float],
        periods: Sequence[int],
        **spec_kwargs,
    ) -> CampaignReport:
        """Sweep fault rates × checkpoint periods (see :meth:`run_specs`).

        Every grid point's spec is built, and so validated, before any
        replica runs or the journal is opened.
        """
        return self.run_specs(
            [
                CampaignSpec(node_mtbf_s=m, ckpt_period=p, **spec_kwargs)
                for m in mtbfs
                for p in periods
            ]
        )

    def run_specs(self, specs: Sequence[CampaignSpec]) -> CampaignReport:
        """Run every grid point in *specs*, in order, on one worker pool.

        The pool is stopped when this returns.  On a resource-guard abort
        the sweep stops early: already-run points are reported
        (``partial`` set), every journaled replica is durable, and
        :meth:`resume` completes the grid bit-identically once resources
        recover.
        """
        if self.obs is not None:
            self.obs.begin_campaign(len(specs) * self.reps, points=len(specs))
        points: list[CampaignPointReport] = []
        try:
            for spec in specs:
                points.append(self.run_point(spec))
                if self.aborted:
                    break
        finally:
            self._stop_workers()
            if self.obs is not None:
                # Exporters run even on a failed sweep: a partial trace
                # and metrics snapshot are the debugging artifacts.
                self.obs.end_campaign()
        return CampaignReport(
            points=points,
            reps=self.reps,
            base_seed=self.base_seed,
            partial=self.aborted or any(p.partial for p in points),
        )

    def close(self) -> None:
        """Stop the worker pool and release the journal file handle (safe
        to call repeatedly)."""
        self._stop_workers()
        if self._journal is not None:
            self._journal.close()
            self._journal = None
