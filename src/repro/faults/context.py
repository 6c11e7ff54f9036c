"""Shared recovery context for the pluggable fault domains.

:class:`RecoveryContext` owns everything the fault domains coordinate
through — the escalation-ladder walk, :class:`RecoveryEpisode`
attribution, the waste buckets, flight-recorder notes, and guarded
metric emission — so the domains themselves stay stateless about each
other.  The lifecycle logic is moved verbatim from the pre-refactor
``BESSTSimulator`` methods: the RNG draw sites, their order, and every
charge to the waste buckets are unchanged, which is what keeps
identical seeds byte-identical across the refactor (see
``tests/core/test_golden_bitidentity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.des.event import Event
from repro.faults.domains import KIND_SEVERITY, MIN_LEVEL_FOR_KIND

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.simulator import BESSTSimulator


@dataclass
class RecoveryEpisode:
    """Mutable state of one fault episode (fault → recovered/requeued).

    Nested faults extend the episode: they refresh ``kind`` (to the worst
    severity seen) but keep ``fault_time``, the credited rework and the
    cumulative ``attempts`` bound — the latter is what guarantees
    termination under fault storms.
    """

    kind: str
    fault_time: float
    #: escalation ladder, frozen when the episode starts (each attempt's
    #: rollback truncates newer restart history, so recomputing it per
    #: attempt would shift the rung targets under the episode's feet)
    ladder: list = field(default_factory=list)
    attempts: int = 0
    rung: int = 0                  #: escalation-ladder index
    rework_credited: float = 0.0   #: lost progress already charged to waste
    requeued: bool = False         #: waiting out a resubmission delay
    #: detection-triggered SDC recovery: the ladder must skip checkpoints
    #: written while the corruption was latent (sticky across nested-fault
    #: kind merging — the corrupt data does not get cleaner because a
    #: node also died)
    avoid_corrupt: bool = False
    # -- forensic bookkeeping (observation-only: derived from charges the
    # -- lifecycle already makes, never feeding back into scheduling) ----
    episode_id: int = -1
    downtime_s: float = 0.0        #: detection/restore/retry delays charged here
    requeue_s: float = 0.0         #: resubmission delays charged here
    fault_ids: list = field(default_factory=list)  #: injector-log ids, primary first
    phases: list = field(default_factory=list)     #: [t, phase, data] timeline


#: per-episode phase timelines are bounded so a fault storm cannot grow
#: a replica record without limit (the waste charges stay exact)
MAX_EPISODE_PHASES = 128


class RecoveryContext:
    """Coordinates the fault domains through one shared lifecycle.

    The context owns the recovery state machine (episode, ladder walk,
    attempts, requeue/abort), the fault-attributable waste accounting,
    and the observational plumbing (flight-recorder notes, episode phase
    timelines, metric emission).  Domains reach each other only through
    broadcast hooks the context fans out (``on_failstop_strike``,
    ``on_rewind``, ``reset``, ``blocks_resume``), never directly.
    """

    def __init__(self, sim: "BESSTSimulator") -> None:
        self.sim = sim
        self.policy = sim.policy
        #: filled by the simulator right after domain construction
        self.domains: tuple = ()
        self.recovery: Optional[RecoveryEpisode] = None
        self.recovery_event: Optional[Event] = None
        self.recovery_rng = sim.engine.rngs.get("__recovery__")
        #: globally committed checkpoint seqs invalidated by torn writes
        self.invalid_seqs: set[int] = set()
        #: globally committed checkpoint seqs written while SDC was latent
        self.corrupt_seqs: set[int] = set()
        self.aborted = False
        self.abort_time = 0.0
        self.spares_left = self.policy.n_spares
        # lifecycle counters
        self.faults_injected = 0
        self.faults_by_kind: dict[str, int] = {}
        self.rollbacks = 0
        self.nested_faults = 0
        self.torn_checkpoints = 0
        self.verify_failures = 0
        self.escalations = 0
        self.recovery_attempts = 0
        self.requeues = 0
        # fault-attributable waste buckets
        self.waste_rework = 0.0
        self.waste_downtime = 0.0
        self.waste_requeue = 0.0
        # forensic state (observation-only; nothing here touches a draw
        # stream or schedules an event, so results are identical with or
        # without a flight recorder attached)
        self.episodes: list[dict] = []
        self.episode_seq = 0

    # -- guarded metric emission -------------------------------------------------------
    #
    # One lazy-import funnel for every fault/recovery metric: faults are
    # rare relative to simulation events, and keeping the registry lookup
    # here means domains never repeat the import/None-guard boilerplate.

    def _metrics(self):
        from repro.obs.metrics import get_registry

        return get_registry()

    def emit_counter(self, name: str, help: str, inc: float = 1, **labels) -> None:
        """Increment a process-global counter (no-op-safe, lazily bound)."""
        self._metrics().counter(name, help=help, **labels).inc(inc)

    def emit_gauge(self, name: str, help: str, value: float) -> None:
        """Set a process-global gauge."""
        self._metrics().gauge(name, help=help).set(float(value))

    def emit_histogram(self, name: str, help: str, value: float) -> None:
        """Observe one sample on a process-global histogram."""
        self._metrics().histogram(name, help=help).observe(value)

    # -- forensics ---------------------------------------------------------------------

    def note(self, what: str, **data) -> None:
        """Mirror one lifecycle record into the attached flight recorder."""
        rec = self.sim._flightrec
        if rec is not None:
            rec.record(what, self.sim.engine.now, **data)

    def episode_phase(self, episode: RecoveryEpisode, phase: str, **data) -> None:
        """Append one phase to the episode timeline (bounded) and mirror
        it into the flight recorder."""
        if len(episode.phases) < MAX_EPISODE_PHASES:
            episode.phases.append([self.sim.engine.now, phase, data])
        self.note(phase, episode=episode.episode_id, **data)

    def close_episode(self, episode: RecoveryEpisode, outcome: str) -> None:
        """Freeze one finished recovery episode into a summary record.

        The waste fields are the exact charges this episode made to the
        rework/downtime/requeue buckets, so summing episode waste
        reproduces the replica totals (the reconciliation invariant
        ``core.forensics`` relies on).
        """
        self.episodes.append(
            {
                "id": episode.episode_id,
                "kind": episode.kind,
                "t_fault": episode.fault_time,
                "t_end": self.sim.engine.now,
                "outcome": outcome,
                "attempts": episode.attempts,
                "rung": episode.rung,
                "rework_s": episode.rework_credited,
                "downtime_s": episode.downtime_s,
                "requeue_s": episode.requeue_s,
                "faults": [f for f in episode.fault_ids if f >= 0],
                "phases": list(episode.phases),
            }
        )
        self.note("episode_end", episode=episode.episode_id, outcome=outcome)

    def new_episode(self, fid: int, **kwargs) -> RecoveryEpisode:
        episode = RecoveryEpisode(episode_id=self.episode_seq, **kwargs)
        self.episode_seq += 1
        if fid >= 0:
            episode.fault_ids.append(fid)
        return episode

    # -- injection bookkeeping ---------------------------------------------------------

    def count_injection(self, kind: str) -> None:
        """Per-kind injection counters plus the obs-registry mirror."""
        self.faults_injected += 1
        self.faults_by_kind[kind] = self.faults_by_kind.get(kind, 0) + 1
        self.emit_counter(
            "fault_injected_total",
            help="Faults injected into the simulator, by kind.",
            kind=kind,
        )

    # -- recovery lifecycle ------------------------------------------------------------

    def pause_job(self) -> None:
        """Pause the whole job: collectives, batches, pending resumes."""
        sim = self.sim
        sim.sync.reset(sim.engine)
        for rank in sim._ranks:
            rank.pause()
        sim._finished = 0

    def failstop_strike(self, now: float, node: int) -> None:
        """Broadcast one fail-stop strike at *node* to every domain
        (torn-checkpoint invalidation rides on this hook)."""
        for domain in self.domains:
            domain.on_failstop_strike(now, node)

    def enter_recovery(self, kind: str, now: float, fid: int = -1) -> None:
        """Pause the whole job and enter (or re-enter) a recovery episode."""
        self.pause_job()
        if self.recovery is not None:
            # Nested fault: the recovery in flight is itself interrupted.
            # Re-enter recovery, paying fresh downtime; the episode's
            # attempt budget keeps accumulating so fault storms terminate.
            self.nested_faults += 1
            if self.recovery_event is not None:
                self.sim.engine.cancel(self.recovery_event)
                self.recovery_event = None
            episode = self.recovery
            if fid >= 0:
                episode.fault_ids.append(fid)
            self.episode_phase(episode, "nested_fault", fault=fid, fault_kind=kind)
            if KIND_SEVERITY[kind] > KIND_SEVERITY[episode.kind]:
                episode.kind = kind
                # A worse kind shrinks the candidate set; refresh the
                # ladder so no rung points at an uncovered checkpoint.
                episode.ladder = self.candidate_ladder(
                    kind, avoid_corrupt=episode.avoid_corrupt
                )
            # The episode's fault_time and credited rework stand: ranks
            # are paused during recovery, so the nested fault exposes no
            # new lost progress — only fresh downtime (charged below).
        else:
            self.recovery = self.new_episode(
                fid, kind=kind, fault_time=now, ladder=self.candidate_ladder(kind)
            )
            self.episode_phase(self.recovery, "detect", fault=fid, fault_kind=kind)
        self.start_attempt()

    def begin_avoidant_recovery(
        self, kind: str, fault_ids: list[int], **phase_data
    ) -> None:
        """Detection-triggered recovery (SDC): pause the job and recover,
        skipping checkpoints written while the corruption was latent."""
        self.pause_job()
        episode = self.new_episode(
            -1,
            kind=kind,
            fault_time=self.sim.engine.now,
            ladder=self.candidate_ladder(kind, avoid_corrupt=True),
            avoid_corrupt=True,
        )
        episode.fault_ids.extend(f for f in fault_ids if f >= 0)
        self.recovery = episode
        self.episode_phase(episode, "detect", **phase_data)
        self.start_attempt()

    def candidate_ladder(self, kind: str, avoid_corrupt: bool = False) -> list[int]:
        """Restart candidates, newest-first along the escalation ladder.

        One rung per protection tier (L1, L2, L4) at or above the fault
        kind's minimum level, each resolved to the newest globally
        committed, non-torn checkpoint covered by that tier; the final
        rung is always 0 — full restart from the input deck.  With
        *avoid_corrupt* (detected-SDC recovery) checkpoints written while
        the corruption was latent are skipped too: recovery reaches past
        the newest checkpoint to the last *clean* version.
        """
        ranks = self.sim._ranks
        min_level = MIN_LEVEL_FOR_KIND[kind]
        seq_star = min(r.ckpt_seq for r in ranks)
        # A seq committed on every rank is in rank 0's short history
        # window, so only those keys (newest first) are candidates.
        history = ranks[0].restart_history
        committed: list[tuple[int, int]] = []
        for seq in sorted(history, reverse=True):
            if seq > seq_star or seq == 0:
                continue
            if seq in self.invalid_seqs:
                continue
            if avoid_corrupt and seq in self.corrupt_seqs:
                continue
            if not all(seq in r.restart_history for r in ranks):
                continue
            committed.append((seq, history[seq][4]))
        ladder: list[int] = []
        for tier in (1, 2, 4):
            if tier < min_level:
                continue
            for seq, level in committed:
                if level >= tier:
                    if seq not in ladder:
                        ladder.append(seq)
                    break
        ladder.append(0)
        return ladder

    def start_attempt(self) -> None:
        """Begin one recovery attempt: roll back, pay downtime, verify."""
        sim = self.sim
        episode = self.recovery
        episode.attempts += 1
        if episode.attempts > self.policy.max_attempts:
            self.requeue_or_abort()
            return
        self.recovery_attempts += 1
        seq = episode.ladder[min(episode.rung, len(episode.ladder) - 1)]
        delay = sim.archbeo.recovery_time_s + self.policy.retry_extra_delay(
            episode.attempts
        )
        self.charge_rework(episode, seq)
        self.waste_downtime += delay
        episode.downtime_s += delay
        self.episode_phase(
            episode, "attempt", n=episode.attempts, rung=episode.rung,
            seq=seq, delay=delay,
        )
        self.rollbacks += 1
        # Verification is scheduled before the per-rank resumes so it
        # fires first on timestamp ties (deterministic seq ordering).
        self.recovery_event = sim.engine.schedule(
            delay, self.verify_attempt, payload=seq
        )
        for rank in sim._ranks:
            ckpt_cost = rank.restart_history[seq][3]
            rank.rollback(seq, delay + ckpt_cost)

    def charge_rework(self, episode: RecoveryEpisode, seq: int) -> None:
        """Charge newly exposed lost progress (relative to the episode's
        latest fault) to the rework-waste bucket, without double-counting
        across escalating attempts."""
        sim = self.sim
        lost = sum(
            (episode.fault_time - rank.restart_history[seq][2]) / sim.nranks
            for rank in sim._ranks
        )
        if lost > episode.rework_credited:
            self.waste_rework += lost - episode.rework_credited
            episode.rework_credited = lost

    def verify_attempt(self, ev: Event) -> None:
        """Read-back verification at the end of one recovery attempt."""
        sim = self.sim
        self.recovery_event = None
        episode = self.recovery
        seq = ev.payload
        ok = (
            seq == 0  # restart from the input deck: nothing to verify
            or self.policy.verify_fail_prob <= 0.0
            or float(self.recovery_rng.random()) >= self.policy.verify_fail_prob
        )
        if ok:
            blocker = next(
                (d for d in self.domains if d.blocks_resume()), None
            )
            if blocker is not None:
                # The data verified, but the participant set is still
                # partitioned: resuming would hang on the first rendezvous.
                # Stall in recovery (one attempt consumed — the episode's
                # attempt budget bounds the wait) until a repair restores
                # connectivity or the job requeues onto a healthy fabric.
                blocker.on_resume_blocked()
                self.episode_phase(episode, "partition_stall", seq=seq)
                for rank in sim._ranks:
                    rank.pause()
                self.start_attempt()
                return
            # Checkpoints discarded by the rollback may get their sequence
            # numbers reused; drop their stale torn- and corrupt-markers.
            self.invalid_seqs = {q for q in self.invalid_seqs if q <= seq}
            self.corrupt_seqs = {q for q in self.corrupt_seqs if q <= seq}
            for domain in self.domains:
                # SDC: the restored state predates every surviving latent
                # strike, so the rewind erases them all (unless the target
                # itself is corrupt).
                domain.on_rewind(seq)
            self.episode_phase(episode, "verify_ok", seq=seq)
            self.close_episode(episode, "recovered")
            self.recovery = None
            return  # ranks resume on their already-scheduled events
        self.verify_failures += 1
        self.escalations += 1
        episode.rung += 1
        self.episode_phase(episode, "verify_fail", seq=seq, rung=episode.rung)
        for rank in sim._ranks:
            rank.pause()  # cancel the resumes; stay in recovery
        self.start_attempt()

    def requeue_or_abort(self) -> None:
        """Recovery exhausted: resubmit the job, or give up."""
        episode = self.recovery
        if self.requeues >= self.policy.max_requeues:
            self.abort()
            return
        self.requeues += 1
        delay = self.policy.requeue_delay_s
        if episode.kind in ("node", "burst"):
            if self.spares_left > 0:
                self.spares_left -= 1
                delay += self.policy.spare_swap_s
            else:
                # Graceful degradation: no spare left — stall for a full
                # node rebuild instead of failing the resubmission.
                delay += self.policy.spare_rebuild_s
        self.waste_requeue += delay
        episode.requeue_s += delay
        self.charge_rework(episode, 0)
        self.rollbacks += 1
        episode.requeued = True
        self.episode_phase(
            episode, "requeue", delay=delay, spares_left=self.spares_left
        )
        self.recovery_event = self.sim.engine.schedule(delay, self.requeue_done)

    def requeue_done(self, ev: Event) -> None:
        """The resubmitted job starts from the input deck."""
        sim = self.sim
        self.recovery_event = None
        episode = self.recovery
        self.episode_phase(episode, "requeue_done")
        self.close_episode(episode, "requeued")
        self.recovery = None
        self.invalid_seqs.clear()
        self.corrupt_seqs.clear()
        # The repaired allocation has no latent corruption, no degraded
        # nodes, and a healthy fabric: every domain resets.
        for domain in self.domains:
            domain.reset()
        if sim.fault_injector is not None:
            sim.fault_injector.notify_requeue()
        for rank in sim._ranks:
            rank.rollback(0, 0.0)

    def abort(self) -> None:
        """Requeues exhausted: the job is lost.  Ranks stay paused, the
        event queue drains, and ``run`` reports ``completed=False``
        instead of raising."""
        self.aborted = True
        self.abort_time = self.sim.engine.now
        episode = self.recovery
        if episode is not None:
            self.episode_phase(episode, "abort")
            self.close_episode(episode, "aborted")
        self.recovery = None
        if self.sim.fault_injector is not None:
            self.sim.fault_injector.detach()

    # -- result assembly ---------------------------------------------------------------

    def result_fields(self) -> dict:
        """Lifecycle counters for :class:`SimulationResult` assembly."""
        return {
            "faults_injected": self.faults_injected,
            "rollbacks": self.rollbacks,
            "wasted_time": self.wasted_time,
            "completed": not self.aborted,
            "nested_faults": self.nested_faults,
            "torn_checkpoints": self.torn_checkpoints,
            "verify_failures": self.verify_failures,
            "escalations": self.escalations,
            "recovery_attempts": self.recovery_attempts,
            "requeues": self.requeues,
            "waste_rework": self.waste_rework,
            "waste_downtime": self.waste_downtime,
            "waste_requeue": self.waste_requeue,
            "faults_by_kind": dict(sorted(self.faults_by_kind.items())),
            "episodes": list(self.episodes),
        }

    @property
    def wasted_time(self) -> float:
        """Total fault-attributable waste (rework + downtime + requeue)."""
        return self.waste_rework + self.waste_downtime + self.waste_requeue
