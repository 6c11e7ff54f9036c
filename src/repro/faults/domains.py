"""Fault domains: one class per fault family, and the taxonomy they share.

Each :class:`FaultDomain` subclass is the one definition of its domain.
Its class attributes name it, list the fault kinds it owns, summarise
it, and map its section of a ``--fault-config`` file onto
:class:`~repro.core.campaign.CampaignSpec` fields (which hold the
defaults).  Its methods own the state and mechanics of the family
(fail-stop, SDC, straggler, network, torn-checkpoint).  A domain talks
to the rest of the system only through the shared
:class:`~repro.faults.context.RecoveryContext`, never to another domain
directly.  :data:`DOMAINS` lists the classes; the simulator builds one
object of each per run, and ``repro faults list`` prints them, with the
hooks each class overrides.

Draw-stream stability
---------------------
``FAULT_KINDS`` is the *cumulative-weight walk order* of
:meth:`repro.core.fault_injection.FaultModel.draw_kind`: a single
uniform draw is compared against the running sum of per-kind weights in
exactly this tuple order.  The order is therefore a frozen contract:
reordering it (or inserting a kind anywhere but the end) silently
reshuffles which kinds historical seeds produce.  New kinds must be
APPENDED, and an import-time check asserts that every kind is owned by
exactly one class of :data:`DOMAINS`.

Adding a domain means: append its kinds to ``FAULT_KINDS``, subclass
:class:`FaultDomain`, and add the class to :data:`DOMAINS`; the
simulator core needs no edits (see README, "Adding a fault domain").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.des.event import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.fault_injection import FaultDetail, FaultEvent
    from repro.core.simulator import BESSTSimulator, _Rank
    from repro.faults.context import RecoveryContext

#: canonical fault-kind order: the FaultModel draw-stream contract
#: (append-only; see module docstring)
FAULT_KINDS: tuple[str, ...] = (
    "software",
    "node",
    "sdc",
    "straggler",
    "burst",
    "link",
    "switch",
    "netdeg",
)

#: fault-kind severity ordering for nested-fault merging (network kinds
#: leave node storage intact, so they rank with the mild kinds)
KIND_SEVERITY: dict[str, int] = {
    "software": 0,
    "netdeg": 0,
    "sdc": 1,
    "link": 1,
    "switch": 1,
    "node": 2,
    "burst": 3,
}

#: minimum checkpoint level whose protection domain covers each fault
#: kind: software/transient crashes leave node storage intact (any
#: level), node losses and correlated bursts need partner/RS/PFS
#: protection (Table I); detected SDC restores from any level: the
#: data on disk is intact, it just has to be a *clean* version.
#: Network faults never touch storage, so any level recovers once
#: connectivity is back.
MIN_LEVEL_FOR_KIND: dict[str, int] = {
    "software": 1,
    "sdc": 1,
    "node": 2,
    "burst": 2,
    "link": 1,
    "switch": 1,
    "netdeg": 1,
}


class FaultDomain:
    """Protocol base for one pluggable fault family.

    Subclasses override ``apply`` (mandatory for domains that own
    kinds) plus whichever lifecycle hooks their semantics need; every
    hook has a no-op default so the context can broadcast without
    caring which domains participate.
    """

    #: domain name: the ``repro faults list`` heading and the
    #: ``--fault-config`` section
    name: str = ""
    #: fault kinds this domain owns (canonical order)
    kinds: tuple[str, ...] = ()
    #: one-line description for ``repro faults list``
    summary: str = ""
    #: this domain's section of a fault-config file: file field -> the
    #: ``CampaignSpec`` field it sets (which holds the default)
    config: dict[str, str] = {}
    #: the lifecycle hooks, in the order ``repro faults list`` prints them
    HOOKS = (
        "on_checkpoint_commit",
        "on_verify_point",
        "on_failstop_strike",
        "on_rewind",
        "blocks_resume",
        "on_resume_blocked",
        "reset",
    )

    def __init__(self, sim: "BESSTSimulator", ctx: "RecoveryContext") -> None:
        self.sim = sim
        self.ctx = ctx

    @classmethod
    def hooks(cls) -> tuple[str, ...]:
        """The lifecycle hooks this class overrides.  The attributes are
        read on each call, so a patch of either class is seen."""
        return tuple(
            hook
            for hook in cls.HOOKS
            if getattr(cls, hook) is not getattr(FaultDomain, hook)
        )

    # -- dispatch ----------------------------------------------------------------------

    def default_detail(self, kind: str, node: int) -> FaultDetail:
        """Kind-specific parameters applied when ``inject_fault`` is
        called directly (the injector always draws its own)."""
        from repro.core.fault_injection import FaultDetail

        return FaultDetail(victims=(node,), slowdown=2.0)

    def apply(
        self,
        kind: str,
        node: int,
        detail: FaultDetail,
        event: FaultEvent,
        fid: int = -1,
    ) -> None:
        """Apply one injected fault of *kind* at *node*."""
        raise NotImplementedError(f"{type(self).__name__} owns no kinds")

    # -- lifecycle hooks (broadcast by the context / simulator) ------------------------

    def on_checkpoint_commit(self, rank: "_Rank", seq: int) -> bool:
        """A rank committed checkpoint *seq*.  Return True when the hook
        started a recovery episode (the caller must not advance)."""
        return False

    def on_verify_point(self, rank: "_Rank") -> bool:
        """A rank committed an ABFT Verify kernel.  Return True when the
        hook started a recovery episode."""
        return False

    def commit_hooks_idle(self) -> bool:
        """True while neither :meth:`on_checkpoint_commit` nor
        :meth:`on_verify_point` can act: a call would return False and
        change nothing.  The array stepper then calls neither for a
        segment stepped for every rank at once.  A domain whose hooks
        can act must say when."""
        return True

    def on_failstop_strike(self, now: float, node: int) -> None:
        """A fail-stop fault struck *node* at *now*."""

    def on_rewind(self, seq: int) -> None:
        """A verified rollback restored checkpoint *seq* job-wide."""

    def blocks_resume(self) -> bool:
        """True while this domain prevents the job from resuming."""
        return False

    def on_resume_blocked(self) -> None:
        """This domain's ``blocks_resume`` stalled a recovery attempt."""

    def reset(self) -> None:
        """Requeue onto a fresh allocation: drop this domain's live state."""

    def result_fields(self) -> dict:
        """This domain's result block, ``{block name: block}`` (``{}``:
        none).  The simulator stores it as the ``SimulationResult``
        attribute of that name; the campaign copies it into the replica
        record unchanged."""
        return {}


class FailStopDomain(FaultDomain):
    """Fail-stop crashes: software faults, node losses, correlated bursts.

    The context's strike broadcast lets the torn-checkpoint domain
    invalidate in-progress writes before it enters the escalation ladder.
    """

    name = "failstop"
    kinds = ("software", "node", "burst")
    summary = "Fail-stop crashes: coordinated rollback along the escalation ladder."
    config = {"burst_size": "burst_size"}

    def apply(self, kind, node, detail, event, fid=-1):
        now = self.sim.engine.now
        for victim in detail.victims if kind == "burst" else (node,):
            self.ctx.failstop_strike(now, victim)
        self.ctx.enter_recovery(kind, now, fid)


class TornCheckpointDomain(FaultDomain):
    """Torn-checkpoint semantics, triggered by fail-stop strikes."""

    name = "torn"
    summary = "Torn-checkpoint invalidation on fail-stop strikes."

    def on_failstop_strike(self, now: float, node: int) -> None:
        """Invalidate checkpoints torn by a fault at *now*.

        The in-progress instance never commits (its batch is cancelled).
        Additionally, with in-place L1 writes, a rank mid-L1-checkpoint
        on the failed node has already destroyed its previous local copy;
        if that previous committed checkpoint is only L1-protected, the
        whole instance becomes unusable as a restart point (L1 recovery
        needs every node's copy).
        """
        sim, ctx = self.sim, self.ctx
        for rank in sim._ranks:
            level = rank.checkpoint_in_progress(now)
            if level is None:
                continue
            ctx.torn_checkpoints += 1
            ctx.note("torn_checkpoint", rank=rank.rank, level=level)
            if (
                level == 1
                and ctx.policy.l1_inplace_writes
                and sim.archbeo.node_of_rank(rank.rank) == node
            ):
                seq = rank.ckpt_seq
                if seq > 0 and rank.restart_history[seq][4] == 1:
                    ctx.invalid_seqs.add(seq)


class SdcDomain(FaultDomain):
    """Silent data corruption: latent strikes and their detection points."""

    name = "sdc"
    kinds = ("sdc",)
    summary = "Silent data corruption: latent strikes, ABFT/validation detection."
    config = {"coverage": "sdc_coverage", "correct_prob": "sdc_correct_prob"}
    #: the ``sdc`` result block's keys in report order, with typed zeros
    #: (the campaign sums replica blocks starting from it)
    ZERO_BLOCK = {
        "injected": 0,          #: strikes armed
        "detected": 0,          #: strikes observed at a detection point
        "corrected": 0,         #: detected strikes fixed in place (ABFT)
        "undetected": 0,        #: strikes still latent at the end of the run
        "detect_latency_s": 0.0,  #: summed injection-to-detection latency
    }

    def __init__(self, sim, ctx):
        super().__init__(sim, ctx)
        self.rng = sim.engine.rngs.get("__sdc__")
        #: rank -> latent strikes: {"armed", "covered", "correctable", "event"}
        self.latent: dict[int, list[dict]] = {}
        self.injected = 0
        self.detected = 0
        self.corrected = 0
        self.detect_latency_s = 0.0

    def apply(self, kind, node, detail, event, fid=-1):
        """Arm a latent corruption flag on the first rank of *node*."""
        sim = self.sim
        self.injected += 1
        victim = next(
            (
                r.rank
                for r in sim._ranks
                if sim.archbeo.node_of_rank(r.rank) == node
            ),
            None,
        )
        if victim is None:
            # The strike hit memory no simulated rank owns: benign.
            event.outcome = "no_effect"
            return
        self.latent.setdefault(victim, []).append(
            {
                "armed": sim.engine.now,
                "covered": detail.covered,
                "correctable": detail.correctable,
                "event": event,
                "fid": fid,
            }
        )

    def commit_hooks_idle(self):
        """Both hooks act only on a rank with a latent strike."""
        return not self.latent

    def on_checkpoint_commit(self, rank, seq):
        """A rank committed checkpoint *seq*.

        A flagged rank bakes its corruption into the written version
        (the whole global instance becomes unusable as a clean restart
        point).  With write validation enabled, the corrupt write is a
        secondary detection point.  Returns True when detection started
        a recovery episode (the caller must not advance).
        """
        strikes = self.latent.get(rank.rank)
        if not strikes:
            return False
        self.ctx.corrupt_seqs.add(seq)
        if self.ctx.policy.ckpt_validate_prob > 0 and any(
            s["covered"] for s in strikes
        ):
            caught = (
                float(self.rng.random()) < self.ctx.policy.ckpt_validate_prob
            )
            if caught:
                return self._detect(rank, path="ckpt_validate")
        return False

    def on_verify_point(self, rank):
        """A rank committed an ABFT Verify kernel — the primary detector.

        Returns True when detection started a recovery episode.
        """
        if not self.latent.get(rank.rank):
            return False
        return self._detect(rank, path="verify")

    def _detect(self, rank, path: str) -> bool:
        """Observe *rank*'s covered latent strikes at a detection point.

        All covered strikes are detected together (the checksum check
        sees the accumulated damage).  If every one is within ABFT's
        correction capability, they are fixed in place; otherwise the
        job enters a recovery episode that rolls back past the last
        clean checkpoint.  Uncovered strikes stay latent — the detector
        cannot see them.
        """
        ctx = self.ctx
        if ctx.recovery is not None:
            return False
        strikes = self.latent.get(rank.rank, [])
        covered = [s for s in strikes if s["covered"]]
        if not covered:
            return False
        now = self.sim.engine.now
        all_correctable = all(s["correctable"] for s in covered)
        for s in covered:
            self.detected += 1
            latency = now - s["armed"]
            self.detect_latency_s += latency
            ev = s["event"]
            ev.detected_time = now
            ev.outcome = "corrected" if all_correctable else "rolled_back"
            self._record_detection(path, latency, ev.outcome)
        if all_correctable:
            self.corrected += len(covered)
            ctx.note("sdc_corrected", rank=rank.rank, path=path, n=len(covered))
            remaining = [s for s in strikes if not s["covered"]]
            if remaining:
                self.latent[rank.rank] = remaining
            else:
                del self.latent[rank.rank]
            return False
        # Rollback path: recover past the last clean checkpoint.
        ctx.begin_avoidant_recovery(
            "sdc",
            [s.get("fid", -1) for s in covered],
            path=path,
            n=len(covered),
        )
        return True

    def _record_detection(self, path: str, latency: float, outcome: str) -> None:
        self.ctx.emit_counter(
            "sdc_detected_total",
            help="Latent SDC strikes observed, by detection path and outcome.",
            path=path,
            outcome=outcome,
        )
        self.ctx.emit_histogram(
            "sdc_detection_latency_s",
            help="Injection-to-detection latency of observed SDC strikes.",
            value=latency,
        )

    def clear_latent(self, outcome: str) -> None:
        """Drop every latent strike (a rewind restored clean state),
        recording *outcome* on events that never reached a detector."""
        for strikes in self.latent.values():
            for s in strikes:
                ev = s["event"]
                if not ev.outcome:
                    ev.outcome = outcome
        self.latent.clear()

    def on_rewind(self, seq: int) -> None:
        # The restored state predates every surviving latent strike (a
        # strike armed before this checkpoint's commit would have tainted
        # it), so the rewind erases them all.
        if seq not in self.ctx.corrupt_seqs:
            self.clear_latent("erased")

    def reset(self) -> None:
        self.clear_latent("erased")

    def finalize_undetected(self) -> int:
        """Stamp strikes still latent at the end of the run: they were
        never seen by any detector."""
        undetected = 0
        for strikes in self.latent.values():
            for s in strikes:
                undetected += 1
                ev = s["event"]
                if not ev.outcome:
                    ev.outcome = "undetected"
        return undetected

    @staticmethod
    def wrong_result(completed: bool, block: dict) -> bool:
        """A completed run that carries undetected corruption."""
        return completed and block["undetected"] > 0

    def result_fields(self) -> dict:
        block = dict(
            self.ZERO_BLOCK,
            injected=self.injected,
            detected=self.detected,
            corrected=self.corrected,
            undetected=self.finalize_undetected(),
            detect_latency_s=self.detect_latency_s,
        )
        if self.wrong_result(not self.ctx.aborted, block):
            self.ctx.emit_counter(
                "sim_wrong_result_total",
                help="Runs that finished carrying undetected silent corruption.",
            )
            self.ctx.note("wrong_result", undetected=block["undetected"])
        return {"sdc": block}


class StragglerDomain(FaultDomain):
    """Degraded compute clocks with token-guarded repairs."""

    name = "straggler"
    kinds = ("straggler",)
    summary = "Degraded compute clocks with token-guarded repairs."
    config = {"slowdown": "straggler_slowdown", "repair_s": "straggler_repair_s"}

    def __init__(self, sim, ctx):
        super().__init__(sim, ctx)
        #: node -> compute-clock slowdown factor
        self.node_slowdown: dict[int, float] = {}
        #: node -> generation token guarding stale repair events
        self.token: dict[int, int] = {}
        self.excess_s = 0.0
        self.excess_by_node: dict[int, float] = {}

    def apply(self, kind, node, detail, event, fid=-1):
        """Degrade *node*'s compute clock; schedule its repair."""
        self.node_slowdown[node] = max(
            self.node_slowdown.get(node, 1.0), detail.slowdown
        )
        token = self.token.get(node, 0) + 1
        self.token[node] = token
        if detail.repair_s > 0:
            # Token-guarded: a newer straggler on the same node outdates
            # this repair (the node stays degraded until the *last* one
            # is fixed).
            self.sim.engine.schedule(
                detail.repair_s, self._repaired, payload=(node, token)
            )

    def _repaired(self, ev: Event) -> None:
        node, token = ev.payload
        if self.token.get(node) != token:
            return  # a newer degradation superseded this repair
        self.node_slowdown.pop(node, None)

    def slowdown_for_rank(self, rank: int) -> float:
        if not self.node_slowdown:
            return 1.0
        return self.node_slowdown.get(self.sim.archbeo.node_of_rank(rank), 1.0)

    def note_excess(self, rank: int, excess: float) -> None:
        """Credit one batch's straggler-inflated runtime (job-time share)."""
        share = excess / self.sim.nranks
        self.excess_s += share
        node = self.sim.archbeo.node_of_rank(rank)
        self.excess_by_node[node] = self.excess_by_node.get(node, 0.0) + share

    def reset(self) -> None:
        # The repaired allocation has no degraded nodes (repair tokens
        # keep guarding in-flight events from the old allocation).
        self.node_slowdown.clear()

    def result_fields(self) -> dict:
        # The replica's ``forensics`` record carries this block as is,
        # so node keys are strings (JSON object keys).
        return {
            "straggler": {
                "straggler_excess_s": self.excess_s,
                "straggler_excess_by_node": {
                    str(k): v for k, v in sorted(self.excess_by_node.items())
                },
            }
        }


class NetworkDomain(FaultDomain):
    """Network fault family: health-overlay mutations and partitions."""

    name = "network"
    kinds = ("link", "switch", "netdeg")
    summary = "Topology health overlay: failed/degraded links, partitions."
    config = {
        "link_mtbf_s": "net_link_mtbf_s",
        "repair_s": "net_repair_s",
        "degrade_factor": "net_degrade_factor",
        "loss_prob": "net_loss_prob",
        "topology": "net_topology",
        "fault_split": "net_fault_split",
    }
    #: the ``net`` result block's keys in report order, with typed zeros
    #: (the campaign sums replica blocks starting from it)
    ZERO_BLOCK = {
        "faults": 0,            #: link/switch/netdeg faults applied to the overlay
        "repairs": 0,           #: network repairs that restored service
        "partition_stalls": 0,  #: recovery attempts stalled by a partitioned group
        "degraded_commits": 0,  #: L2+ checkpoints degraded to L1 (partner unreachable)
        "reroutes": 0,          #: messages priced over a detour route
        "retransmits": 0.0,     #: expected retransmissions on lossy routes
    }

    def __init__(self, sim, ctx):
        super().__init__(sim, ctx)
        self.rng = sim.engine.rngs.get("__net__")
        #: ("node", endpoint) / ("edge", (a, b)) -> generation token
        #: guarding stale network-repair events
        self.token: dict[tuple, int] = {}
        #: fast gate for the hot checkpoint-pricing path: True while any
        #: overlay mutation from this fault domain may be active
        self.active = False
        self.faults = 0
        self.repairs = 0
        self.partition_stalls = 0
        self.degraded_commits = 0
        #: LogGP reroute/retransmit stats at construction — the model may
        #: be shared across simulators, so the result reports the delta
        p2p = getattr(getattr(sim.archbeo, "comm", None), "p2p", None)
        self.stats_base = dict(getattr(p2p, "stats", None) or {})

    def default_detail(self, kind, node):
        from repro.core.fault_injection import FaultDetail

        if kind == "netdeg":
            return FaultDetail(repair_s=30.0, derate=4.0, loss_prob=0.05)
        return FaultDetail(repair_s=30.0)

    def endpoints_of_node(self, node: int) -> list[int]:
        """Topology endpoints owned by compute node *node*.

        Two conventions coexist: when the topology spans exactly the
        rank count it is a rank-level network (endpoints = the node's
        ranks); otherwise it is a node-level network (endpoint = the
        node id, when in range).
        """
        sim = self.sim
        topo = sim.archbeo.topology
        if topo.num_nodes == sim.nranks:
            cpn = max(1, sim.archbeo.cores_per_node)
            return [
                r for r in range(node * cpn, (node + 1) * cpn) if r < sim.nranks
            ]
        return [node] if node < topo.num_nodes else []

    def participants(self) -> list[int]:
        """Every topology endpoint the job's ranks live on — the set
        that must rendezvous for collectives and checkpoint commits."""
        sim = self.sim
        topo = sim.archbeo.topology
        if topo.num_nodes == sim.nranks:
            return list(range(sim.nranks))
        return sorted(
            {
                sim.archbeo.node_of_rank(r)
                for r in range(sim.nranks)
                if sim.archbeo.node_of_rank(r) < topo.num_nodes
            }
        )

    def draw_edge(self, node: int) -> Optional[tuple[int, int]]:
        """Deterministically pick the victim link of a fault seeded at
        *node*: a uniform draw (engine-seeded ``__net__`` stream) over
        the sorted baseline neighbours of the node's first endpoint."""
        topo = self.sim.archbeo.topology
        eps = self.endpoints_of_node(node)
        ep = eps[0] if eps else int(self.rng.integers(0, topo.num_nodes))
        nbrs = sorted(topo.neighbors(ep))
        if not nbrs:
            return None
        peer = int(nbrs[int(self.rng.integers(0, len(nbrs)))])
        return (min(ep, peer), max(ep, peer))

    def apply(self, kind, node, detail, event, fid=-1):
        """Mutate the health overlay for one network fault and schedule
        its repair; enter recovery when the job is partitioned."""
        sim, ctx = self.sim, self.ctx
        now = sim.engine.now
        h = sim.archbeo.topology.health()
        victims: list[tuple] = []
        if kind == "switch":
            eps = self.endpoints_of_node(node)
            if not eps:
                event.outcome = "no_effect"
                return
            for ep in eps:
                h.fail_node(ep)
                victims.append(("node", ep))
        else:
            edge = tuple(int(e) for e in detail.edge) or self.draw_edge(node)
            if edge is None:
                event.outcome = "no_effect"  # e.g. single-endpoint topology
                return
            if kind == "link":
                h.fail_link(*edge)
            else:
                h.degrade_link(
                    edge[0],
                    edge[1],
                    derate=detail.derate,
                    loss_prob=detail.loss_prob,
                )
            victims.append(("edge", edge))
        self.active = True
        self.faults += 1
        if detail.repair_s > 0:
            for victim in victims:
                # Token-guarded like straggler repairs: a newer fault on
                # the same link/endpoint outdates this repair.
                token = self.token.get(victim, 0) + 1
                self.token[victim] = token
                sim.engine.schedule(
                    detail.repair_s, self._repaired, payload=(victim, token)
                )
        self._push_gauges()
        # Degradations never partition; hard failures may cut the
        # participant set in two — then the job cannot rendezvous and
        # the existing escalation ladder takes over.
        if kind in ("link", "switch") and h.group_partitioned(
            self.participants()
        ):
            self.on_resume_blocked()
            event.outcome = "partitioned"
            ctx.enter_recovery(kind, now, fid)

    def _repaired(self, ev: Event) -> None:
        victim, token = ev.payload
        if self.token.get(victim) != token:
            return  # a newer fault on the same victim superseded this repair
        h = self.sim.archbeo.topology._health
        if h is None:
            return
        vtype, vid = victim
        if vtype == "node":
            h.repair_node(vid)
        else:
            h.repair_link(*vid)
        self.repairs += 1
        if h.healthy:
            self.active = False
        self._push_gauges()

    def blocks_resume(self) -> bool:
        """True while the participant set cannot rendezvous (resuming
        from recovery would hang on the first collective)."""
        h = self.sim.archbeo.topology._health
        if h is None or h.healthy:
            return False
        return h.group_partitioned(self.participants())

    def on_resume_blocked(self) -> None:
        self.partition_stalls += 1
        self.ctx.emit_counter(
            "net_partition_stalls_total",
            help="Recovery attempts stalled by a partitioned participant set.",
        )

    def partner(self, rank: int) -> tuple[int, int]:
        """(src, dst) endpoints of *rank*'s partner-copy checkpoint
        traffic (next node over, FTI L2 partner semantics)."""
        sim = self.sim
        topo = sim.archbeo.topology
        if topo.num_nodes == sim.nranks:
            cpn = max(1, sim.archbeo.cores_per_node)
            return rank, (rank + cpn) % sim.nranks
        src = sim.archbeo.node_of_rank(rank)
        if src >= topo.num_nodes:
            return src, src
        return src, (src + 1) % topo.num_nodes

    def ckpt_factor(self, rank: int) -> float:
        """Degraded-network cost multiplier for one rank's L2+ checkpoint
        write (the partner copy crosses the faulty fabric)."""
        sim = self.sim
        h = sim.archbeo.topology._health
        if h is None or h.healthy:
            return 1.0
        src, dst = self.partner(rank)
        if src == dst or h.is_partitioned(src, dst):
            # Unreachable partner: the copy is skipped, not slowed — the
            # commit degrades to an effective L1 instead.
            return 1.0
        p2p = getattr(getattr(sim.archbeo, "comm", None), "p2p", None)
        if p2p is None or not hasattr(p2p, "p2p_penalty"):
            return 1.0
        return max(1.0, float(p2p.p2p_penalty(src, dst)))

    def effective_ckpt_level(self, rank: int, level: int) -> int:
        """The protection level a checkpoint commit actually achieved:
        an L2+ instance whose partner copy cannot cross a partition
        degrades to node-local (level 1) protection."""
        if level < 2 or not self.active:
            return level
        h = self.sim.archbeo.topology._health
        if h is None or h.healthy:
            return level
        src, dst = self.partner(rank)
        if src != dst and h.is_partitioned(src, dst):
            self.degraded_commits += 1
            return 1
        return level

    def reset(self) -> None:
        """Back to a healthy fabric (requeued onto a repaired machine)."""
        self.token.clear()
        self.active = False
        h = self.sim.archbeo.topology._health
        if h is not None and not h.healthy:
            h.reset()
            self._push_gauges()

    def _push_gauges(self) -> None:
        """Publish the overlay's current gauge values into the obs registry."""
        h = self.sim.archbeo.topology._health
        if h is None:
            return
        _stretch, derate, _loss = h.aggregate_penalty()
        emit = self.ctx.emit_gauge
        emit("net_links_failed", "Links currently out of service.", float(len(h.failed_links)))
        emit("net_links_degraded", "Links currently de-rated or lossy.", float(len(h.degraded)))
        emit(
            "net_bandwidth_derate",
            "Worst active bandwidth de-rate factor (1 = full speed).",
            float(derate),
        )

    def result_fields(self) -> dict:
        # LogGP reroute/retransmit accounting: the model may be shared
        # across simulators, so report the delta against construction.
        p2p = getattr(getattr(self.sim.archbeo, "comm", None), "p2p", None)
        stats = getattr(p2p, "stats", None) or {}
        reroutes = int(
            stats.get("reroutes", 0.0) - self.stats_base.get("reroutes", 0.0)
        )
        retransmits = float(
            stats.get("retransmits", 0.0) - self.stats_base.get("retransmits", 0.0)
        )
        if reroutes:
            self.ctx.emit_counter(
                "net_reroutes_total",
                help="Messages priced over a detour around a network fault.",
                inc=reroutes,
            )
        if retransmits:
            self.ctx.emit_counter(
                "net_retransmits_total",
                help="Expected retransmissions on lossy (degraded) routes.",
                inc=retransmits,
            )
        return {
            "net": dict(
                self.ZERO_BLOCK,
                faults=self.faults,
                repairs=self.repairs,
                partition_stalls=self.partition_stalls,
                degraded_commits=self.degraded_commits,
                reroutes=reroutes,
                retransmits=retransmits,
            )
        }


#: every fault domain, in ``repro faults list`` order; the simulator
#: builds one object of each per run
DOMAINS: tuple[type[FaultDomain], ...] = (
    FailStopDomain,
    SdcDomain,
    StragglerDomain,
    NetworkDomain,
    TornCheckpointDomain,
)


def _check_domains() -> None:
    seen: dict[str, str] = {}
    for cls in DOMAINS:
        for kind in cls.kinds:
            if kind in seen:
                raise AssertionError(
                    f"fault kind {kind!r} claimed by both {seen[kind]!r} "
                    f"and {cls.name!r}"
                )
            seen[kind] = cls.name
    missing = [k for k in FAULT_KINDS if k not in seen]
    extra = [k for k in seen if k not in FAULT_KINDS]
    if missing or extra:
        raise AssertionError(
            f"domain/kind mismatch: missing={missing} extra={extra}"
        )


_check_domains()


# -- structured fault-config files -----------------------------------------------------


def campaign_kwargs_from_config(cfg: dict) -> dict:
    """Map a structured fault-config document onto flat campaign kwargs.

    The document has one section per domain plus an optional top-level
    ``"mix"`` (kind -> weight).  Unknown sections or fields raise
    ``ValueError`` naming the offender: a config file that silently
    ignored a typo would be worse than no file.
    """
    if not isinstance(cfg, dict):
        raise ValueError(f"fault config must be a JSON object, got {type(cfg).__name__}")
    by_name = {cls.name: cls for cls in DOMAINS}
    out: dict = {}
    for section, value in cfg.items():
        if section == "mix":
            if not isinstance(value, dict):
                raise ValueError("fault config 'mix' must map kind -> weight")
            unknown = sorted(set(value) - set(FAULT_KINDS))
            if unknown:
                raise ValueError(f"unknown fault kinds in mix: {unknown}")
            out["fault_mix"] = {
                str(k): _config_number(f"mix.{k}", v) for k, v in value.items()
            }
            continue
        if section not in by_name:
            raise ValueError(
                f"unknown fault-config section {section!r}; expected one of "
                f"{sorted([*by_name, 'mix'])}"
            )
        field_map = by_name[section].config
        if not isinstance(value, dict):
            raise ValueError(f"fault-config section {section!r} must be an object")
        for key, raw in value.items():
            dest = field_map.get(key)
            if dest is None:
                raise ValueError(
                    f"unknown field {key!r} in fault-config section {section!r}; "
                    f"expected one of {sorted(field_map)}"
                )
            if dest == "net_fault_split":
                if not isinstance(raw, dict):
                    raise ValueError("network.fault_split must map kind -> share")
                raw = tuple(sorted(
                    (str(k), _config_number(f"{section}.{key}.{k}", v))
                    for k, v in raw.items()
                ))
            elif dest == "net_topology":
                raw = str(raw)
            else:
                raw = _config_number(
                    f"{section}.{key}", raw, integral=dest == "burst_size"
                )
            out[dest] = raw
    return out


def _config_number(where: str, raw, integral: bool = False):
    """A fault-config number as its ``CampaignSpec`` type.

    JSON ``1`` and ``1.0`` build byte-identical spec records.  Bools and
    strings are rejected rather than coerced, and so are non-integral
    values of an *integral* field, which ``int()`` would truncate.
    """
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValueError(f"fault-config {where} must be a number, got {raw!r}")
    if not integral:
        return float(raw)
    if not float(raw).is_integer():
        raise ValueError(f"fault-config {where} must be an integer, got {raw!r}")
    return int(raw)
