"""The BE-SST simulator: ranks executing abstract instructions.

Each simulated MPI rank is a DES component; executing an instruction polls
the ArchBEO for its predicted runtime and advances that rank's clock.
Collectives rendezvous all ranks and release them together at
``max(arrival) + modeled cost``.  Consecutive non-synchronizing
instructions are batched into a single event, which keeps a
1000-rank × 200-timestep case-study simulation at a few hundred thousand
events.  A batch with no commit hook (``Checkpoint``/``Verify``) that ends
at a collective is not even a heap event: its rank arrives at the
rendezvous at once, as a lazy engine event (:meth:`Engine.defer`), and
only the rendezvous itself goes on the heap.  A run of one program on
every rank goes further (:class:`_ArrayStepper`): it prices every row at
run start (drawing all its model noise then, if fault-free) and steps
each segment that ends at a collective, commit hooks or not, for every
rank in one array operation whenever that is exact.  With no per-event
observer attached, it fires each such segment's rendezvous and release
itself, inline, while they sort before the next pending event.  A
deterministic fault run is array-stepped between its faults and steps
per rank where a fault, a latent corruption, a straggler or a degraded
link is in play.

Fault injection (Cases 2 and 4 of Fig. 4) plugs in through
:meth:`BESSTSimulator.run`'s ``fault_injector``: node failures trigger a
coordinated rollback of every rank to its last completed checkpoint (or to
the very beginning when the application carries no checkpoints), plus the
ArchBEO's recovery downtime.

The fault *lifecycle* follows a four-state machine driven by the
:class:`~repro.core.fault_injection.RecoveryPolicy`::

    running ──fault──▶ recovering ──verify ok──▶ running
       ▲                   │  ▲
       │                   │  └── nested fault / failed verification
       │                   │      (escalate L1 → L2 → L4 → restart)
       │            attempts exhausted
       │                   ▼
       └──requeue ok── requeued ──spares+requeues exhausted──▶ aborted

A fault that lands while a rank is *inside* a ``Checkpoint`` instruction
tears that in-progress instance (it never becomes a restart point), and —
with in-place L1 writes — destroys the previous committed L1 copy on the
failed node, pushing recovery one checkpoint further back.

Beyond fail-stop, the simulator handles three more fault kinds
end-to-end:

* ``"sdc"`` — silent data corruption arms a *latent* flag on the victim
  rank.  Nothing happens until a detection point: an ABFT ``Verify``
  instruction commits (primary detector) or a checkpoint write validates
  its data (``RecoveryPolicy.ckpt_validate_prob``).  Checkpoints written
  by a flagged rank are *corrupt*: detection-triggered recovery skips
  them and rolls back past the last clean checkpoint.  Covered,
  correctable strikes are fixed in place at the detection point;
  uncovered strikes evade detection entirely and — if they survive to
  the end of the run — turn the result into a *wrong result*
  (``SimulationResult.wrong_result``).
* ``"straggler"`` — the victim node's compute clock runs slower by the
  drawn factor until the repair event fires (batch granularity: an
  already-priced batch keeps its price).
* ``"burst"`` — a correlated failure: every node in the drawn
  neighborhood fails at once (fail-stop semantics, L2+ recovery).

The network fault domain (``"link"``/``"switch"``/``"netdeg"``) mutates
the topology's :class:`~repro.network.health.NetworkHealth` overlay
instead of felling compute endpoints: traffic reroutes over surviving
paths (the LogGP model prices hop inflation, de-rated bandwidth and
retransmission delay transparently), L2/partner-copy checkpoint traffic
pays the degraded-network cost, and when the participant set is
*partitioned* the job cannot rendezvous — recovery attempts stall
(bounded by the episode's attempt budget) until a repair restores
connectivity or the ladder escalates into requeue/abort.  A checkpoint
whose partner copy cannot cross a partition commits at an *effective*
level of 1 (local-only protection) and is counted in the ``net``
result block.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Mapping, Optional

import numpy as np

from repro.core.beo import AppBEO, ArchBEO
from repro.core.fault_injection import (
    FAULT_KINDS,
    FaultDetail,
    FaultEvent,
    RecoveryPolicy,
)
from repro.core.instructions import (
    Checkpoint,
    Collective,
    Compute,
    Exchange,
    Instruction,
    Marker,
    Verify,
)
from repro.des.component import Component
from repro.des.engine import Engine
from repro.des.event import PRIORITY_NORMAL, Event
from repro.des.snapshot import AutoSnapshotPolicy, Snapshot, SnapshotError
from repro.faults.context import RecoveryContext
from repro.faults.domains import DOMAINS, NetworkDomain, SdcDomain


@dataclass
class TimelineEntry:
    """One executed instruction on one rank."""

    t_start: float
    t_end: float
    kind: str           #: "compute" | "checkpoint" | "verify" | "collective" | "exchange" | "marker" | "rollback"
    label: str
    level: int = 0      #: checkpoint level when kind == "checkpoint"

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass
class RankTimeline:
    """Recorded execution history of one rank."""

    rank: int
    entries: list[TimelineEntry] = field(default_factory=list)

    def checkpoint_marks(self) -> list[tuple[float, int]]:
        """(completion time, level) of every checkpoint instance — the
        black dots on Figs. 7-8."""
        return [
            (e.t_end, e.level) for e in self.entries if e.kind == "checkpoint"
        ]

    def durations_by_kind(self) -> dict[str, list[float]]:
        """Every entry's duration, grouped by kind in entry order (one
        walk; ``sum()`` of a group is the time spent in that kind)."""
        groups: dict[str, list[float]] = {}
        for e in self.entries:
            groups.setdefault(e.kind, []).append(e.duration)
        return groups

    def __getstate__(self) -> dict:
        # Entries pickle as plain tuples, about 4x faster than as
        # objects: recorded timelines are most of a simulator snapshot.
        rows = [(e.t_start, e.t_end, e.kind, e.label, e.level) for e in self.entries]
        return {"rank": self.rank, "entries": rows}

    def __setstate__(self, state: dict) -> None:
        self.rank = state["rank"]
        self.entries = [TimelineEntry(*row) for row in state["entries"]]


@dataclass
class SimulationResult:
    """Output of one BE-SST simulation run."""

    total_time: float
    finish_times: list[float]
    timelines: dict[int, RankTimeline]
    nranks: int
    events_fired: int
    checkpoint_time: float          #: rank-0 time spent inside Checkpoint instructions
    compute_time: float             #: rank-0 time in Compute instructions
    collective_time: float          #: rank-0 time in collectives
    faults_injected: int = 0
    rollbacks: int = 0
    wasted_time: float = 0.0        #: recomputed + downtime + requeue attributable to faults
    completed: bool = True          #: False when the job aborted (requeues exhausted)
    nested_faults: int = 0          #: faults that landed inside a recovery window
    torn_checkpoints: int = 0       #: checkpoint instances interrupted mid-write
    verify_failures: int = 0        #: recovery read-backs that failed verification
    escalations: int = 0            #: ladder rungs climbed after failed verifications
    recovery_attempts: int = 0      #: total recovery attempts across all episodes
    requeues: int = 0               #: job resubmissions after recovery exhaustion
    waste_rework: float = 0.0       #: lost forward progress (recomputation)
    waste_downtime: float = 0.0     #: detection + restore + retry delays
    waste_requeue: float = 0.0      #: resubmission + spare-swap/rebuild stalls
    verify_time: float = 0.0        #: rank-0 time inside ABFT Verify kernels
    faults_by_kind: dict = field(default_factory=dict)  #: kind -> injected count
    #: closed forensic recovery-episode summaries (see ``core.forensics``):
    #: each carries its owning fault ids, phase timeline and the exact
    #: per-episode waste charges, so attribution sums to the totals
    episodes: list = field(default_factory=list)
    #: fault-domain result blocks, each from its domain's ``result_fields``
    sdc: dict = field(default_factory=SdcDomain.ZERO_BLOCK.copy)
    net: dict = field(default_factory=NetworkDomain.ZERO_BLOCK.copy)
    straggler: dict = field(default_factory=dict)

    @property
    def wrong_result(self) -> bool:
        """The job "completed" but carries undetected SDC."""
        return SdcDomain.wrong_result(self.completed, self.sdc)

    @property
    def ft_overhead_fraction(self) -> float:
        """Share of rank-0 busy time spent on FT work (checkpoint+verify)."""
        busy = (
            self.compute_time
            + self.collective_time
            + self.checkpoint_time
            + self.verify_time
        )
        ft = self.checkpoint_time + self.verify_time
        return ft / busy if busy > 0 else 0.0

    def checkpoint_marks(self) -> list[tuple[float, int]]:
        tl = self.timelines.get(0)
        return tl.checkpoint_marks() if tl else []


#: (instruction type, timeline kind), indexed by a compiled row's kind
#: code.  The priced kinds come first: ``code <= _VERIFY`` polls a model.
_KINDS = (
    (Compute, "compute"),
    (Checkpoint, "checkpoint"),
    (Verify, "verify"),
    (Exchange, "exchange"),
    (Marker, "marker"),
    (Collective, "collective"),
)
_COMPUTE, _CHECKPOINT, _VERIFY, _EXCHANGE, _MARKER, _COLLECTIVE = range(len(_KINDS))


def _compile_row(instr: Instruction) -> tuple:
    """Resolve *instr* once into ``(code, instr, kernel, params, timeline
    kind, timeline label, level)``.  Rows are shared (see
    :meth:`BESSTSimulator._row`), so models get a copy of ``params``."""
    code = next((c for c, (cls, _) in enumerate(_KINDS) if isinstance(instr, cls)), None)
    if code is None:
        raise TypeError(f"cannot simulate instruction {instr!r}")
    kernel = getattr(instr, "kernel", None)
    label = kernel or getattr(instr, "name", type(instr).__name__.lower())
    params = dict(instr.params) if code <= _VERIFY else None
    return (code, instr, kernel, params, _KINDS[code][1], label, getattr(instr, "level", 0))


#: sort key of a ``(key, rank, lazy entry)`` arrival
_arrival_key = itemgetter(0)

#: checkpoints a rank's ``restart_history`` keeps, besides seq 0
_HISTORY = 6


class _SyncDomain:
    """Rendezvous state for one collective call site sequence.

    Collectives are totally ordered per rank (SPMD), so a single counter
    per call-index suffices: the n-th collective executed by each rank is
    matched with every other rank's n-th collective.

    A rank arrives either in the event that reaches the collective
    (:meth:`arrive`) or lazily, when it prices a hook-free batch ending
    there (:meth:`arrive_lazy`).  Each arrival carries its key in the
    queue order: the firing event's, or the lazy event's.  When the last
    rank has arrived, the arrivals sorted by key give the order the
    ranks are released in.  If the largest key is a lazy event still
    ahead, one rendezvous event takes it over, so it fires exactly where
    that rank's own batch event would have, and prices the collective
    then.
    """

    def __init__(self, sim: "BESSTSimulator") -> None:
        self.sim = sim
        #: call index -> [(key, rank, lazy entry or None)]
        self._arrivals: dict[int, list] = {}
        #: the rendezvous or release event not fired yet (one at a time:
        #: no rank reaches collective n+1 before collective n releases)
        self._pending: Optional[Event] = None

    def arrive(self, comp: "_Rank", call_index: int, instr: Collective) -> None:
        """*comp* reaches collective *call_index* in the firing event."""
        key = self.sim.engine.firing.sort_key()
        self._add(call_index, instr, (key, comp, None))

    def arrive_lazy(
        self, comp: "_Rank", call_index: int, instr: Collective, dt: float, batch
    ) -> None:
        """*comp* reaches collective *call_index* at ``now + dt``, the end
        of its hook-free *batch*.  The lazy event writes the batch's
        timeline rows of a recorded rank; for any other rank it only
        counts."""
        if comp.record:
            entry = self.sim.engine.defer(dt, comp._record_lazy_batch, batch)
        else:
            entry = self.sim.engine.defer(dt)
        self._add(call_index, instr, (entry, comp, entry))

    def _add(self, call_index: int, instr: Collective, arrival: tuple) -> None:
        arrivals = self._arrivals.get(call_index)
        if arrivals is None:
            arrivals = self._arrivals[call_index] = []
        arrivals.append(arrival)
        if len(arrivals) < self.sim.nranks:
            return
        del self._arrivals[call_index]
        # Stable: ranks released by one event keep their release order.
        arrivals.sort(key=_arrival_key)
        ranks = [comp for _, comp, _ in arrivals]
        last = arrivals[-1][2]
        if last is None:  # the firing event holds the largest key
            self._price(ranks, instr)
            return
        engine = self.sim.engine
        engine.undefer(last)
        t, priority, seq, handler, payload = last
        self._pending = engine.schedule_event(
            Event(
                time=t,
                handler=self._rendezvous,
                payload=(ranks, instr, handler, payload),
                priority=priority,
                seq=seq,
            )
        )

    def _rendezvous(self, ev: Event) -> None:
        ranks, instr, handler, payload = ev.payload
        if handler is not None:
            handler(ev.time, payload)
        self._price(ranks, instr)

    def _price(self, ranks: list, instr: Collective) -> None:
        """Every rank has arrived, the last one now: schedule the release."""
        self.schedule_release(ranks, instr, *self.release_at(instr))

    def release_at(self, instr: Collective) -> tuple[float, float]:
        """Price *instr* at its last arrival, now: ``(cost, the time its
        release frees the ranks)``."""
        now = self.sim.engine.now
        cost = self.sim.archbeo.collective_time(instr, self.sim.nranks)
        return cost, max(now + cost, now)

    def schedule_release(self, ranks, instr: Collective, cost: float, t: float) -> None:
        # One release event frees every rank (equivalent to per-rank
        # events at the same timestamp, at 1/nranks the event count).
        self._pending = self.sim.engine.schedule_event(
            Event(time=t, handler=self._release_all, payload=(ranks, instr, cost))
        )

    def _release_all(self, ev: Event) -> None:
        self._pending = None
        ranks, instr, cost = ev.payload
        stepper = self.sim._stepper
        if stepper is not None:
            stepper.release(ranks, instr, cost)
            return
        for c in ranks:
            if c.record:
                c.timeline.entries.append(
                    TimelineEntry(c.now - cost, c.now, "collective", instr.op)
                )
            c.advance()

    def reset(self, engine: Engine) -> None:
        """Drop all rendezvous state (used on fault rollback).

        Lazy arrivals ahead of the firing event never happen, exactly as
        a cancelled batch event would not; the earlier ones were already
        committed before it fired.
        """
        if self._pending is not None:
            engine.cancel(self._pending)
            self._pending = None
        engine.drop_lazy()
        self._arrivals.clear()


class _Rank(Component):
    """One simulated MPI rank executing its AppBEO instruction stream."""

    def __init__(self, rank: int, sim: "BESSTSimulator", rows: list):
        super().__init__(f"rank{rank}")
        self.rank = rank
        self.sim = sim
        #: the program as compiled rows (see :func:`_compile_row`); ranks
        #: with equal programs share one list
        self.rows = rows
        self.pc = 0
        self.collective_calls = 0
        self.done = False
        self.finish_time: Optional[float] = None
        self.record = rank in sim._recorded_ranks
        self.timeline = RankTimeline(rank)
        #: checkpoints completed by this rank
        self.ckpt_seq = 0
        #: ckpt_seq -> (resume pc, collective_calls, completion time,
        #: ckpt cost, checkpoint level); seq 0 is "the beginning" and is
        #: never pruned.  A short history window is retained so
        #: level-aware recovery can walk back to an older, higher-level
        #: checkpoint when the newest one does not cover the fault kind.
        self.restart_history: dict[int, tuple[int, int, float, float, int]] = {
            0: (0, 0, 0.0, 0.0, 0)
        }
        self._pending: Optional[Event] = None
        #: duration of the batch in ``_pending`` (its start is end - span)
        self._batch_span = 0.0

    def setup(self) -> None:
        self._pending = self.schedule(0.0, self._on_resume)

    def _on_resume(self, _ev: Event) -> None:
        # Bound-method resume handler (not a lambda) so the whole rank —
        # pending events included — stays snapshot-picklable.
        stepper = self.sim._stepper
        if stepper is None or self.sim.rollbacks:
            # A rollback's resume steps per rank; the next release
            # brings an array-stepped run back to lockstep.
            self.advance()
        else:  # a start event
            stepper.start(self)

    # -- execution ---------------------------------------------------------------

    def advance(self) -> None:
        """Execute instructions until blocking on a collective or finishing."""
        self._pending = None
        rows = self.rows
        while self.pc < len(rows):
            row = rows[self.pc]
            code = row[0]
            if code == _COLLECTIVE:
                self.pc += 1
                self.collective_calls += 1
                self.sim.sync.arrive(self, self.collective_calls - 1, row[1])
                return
            if code == _MARKER:
                if self.record:
                    self.timeline.entries.append(
                        TimelineEntry(self.now, self.now, "marker", row[5])
                    )
                self.pc += 1
                continue
            # Batch consecutive non-synchronizing instructions.
            dt, batch, hooked = self._price_batch()
            self._batch_span = dt
            if hooked or self.pc == len(rows):
                self._pending = self.schedule(dt, self._on_batch_done, payload=batch)
                return
            # Hook-free and ending at a collective: arrive there now.
            self.pc += 1
            self.collective_calls += 1
            self.sim.sync.arrive_lazy(
                self, self.collective_calls - 1, rows[self.pc - 1][1], dt, batch
            )
            return
        if not self.done:
            self.done = True
            self.finish_time = self.now
            self.sim._rank_finished(self)

    def _price_batch(self) -> tuple[float, list, bool]:
        """Price the run of local instructions starting at ``pc``.

        Returns total duration, ``(instr, start_offset, duration)``
        records for the timeline, and whether a ``Checkpoint`` or
        ``Verify`` (a commit hook) is among them.
        """
        sim = self.sim
        arch = sim.archbeo
        rng = self.rng if sim.monte_carlo else None
        # An array-stepped run drew every price at run start
        # (``prices[pc, rank]`` holds what ``predict`` would return).
        prices = sim._stepper.prices if sim._stepper is not None else None
        rows = self.rows
        n = len(rows)
        pc = self.pc
        t_off = 0.0
        batch = []
        # Straggler degradation: local (clocked) work on a degraded node
        # runs slower by the node's slowdown factor.  Exchanges are
        # network-bound and keep their modeled time.  The factor is read
        # once per batch — an already-priced batch keeps its price even
        # if a repair lands mid-flight (batch granularity).
        slow = sim._straggler_dom.slowdown_for_rank(self.rank)
        slowed_t = 0.0
        hooked = False
        while pc < n:
            code, instr, kernel, params, _kind, _label, level = rows[pc]
            if code <= _VERIFY:
                if code:
                    hooked = True
                if prices is not None:
                    dt = slow * float(prices[pc, self.rank])
                else:
                    dt = slow * arch.predict(kernel, dict(params), rng)
                if code == _CHECKPOINT and level >= 2 and sim._net_dom.active:
                    # L2/partner-copy traffic crosses the (possibly
                    # degraded) fabric and pays the real network cost.
                    dt *= sim._net_dom.ckpt_factor(self.rank)
                if slow != 1.0:
                    slowed_t += dt
            elif code == _EXCHANGE:
                dt = arch.exchange_time(instr)
            elif code == _MARKER:
                dt = 0.0
            else:
                break
            batch.append((instr, t_off, dt))
            t_off += dt
            pc += 1
        self.pc = pc
        if slowed_t > 0.0:
            # Forensic accounting only: the excess over healthy-clock time
            # for this batch's slowed instructions (dt includes the factor,
            # so excess = dt - dt/slow).
            sim._straggler_dom.note_excess(self.rank, slowed_t * (1.0 - 1.0 / slow))
        return t_off, batch, hooked

    def _record_lazy_batch(self, t_end: float, batch: list) -> None:
        """Timeline rows of the hook-free batch that ended at *t_end*
        (the lazy event of :meth:`_SyncDomain.arrive_lazy`)."""
        t_start = t_end - self._batch_span
        base = self.pc - 1 - len(batch)  # pc has passed the collective
        for i, (_instr, off, dt) in enumerate(batch):
            _, _, _, _, kind, label, level = self.rows[base + i]
            self.timeline.entries.append(
                TimelineEntry(t_start + off, t_start + off + dt, kind, label, level=level)
            )

    def _on_batch_done(self, ev: Event) -> None:
        sim = self.sim
        batch = ev.payload
        t_start = self.now - self._batch_span
        base = self.pc - len(batch)  # pc of the first batched instruction
        for i, (_instr, off, dt) in enumerate(batch):
            code, _, _, _, kind, label, level = self.rows[base + i]
            if self.record:
                self.timeline.entries.append(
                    TimelineEntry(t_start + off, t_start + off + dt, kind, label, level=level)
                )
            if code == _CHECKPOINT:
                # Restart point: resume AFTER this checkpoint instruction.
                # The recorded level is the protection actually achieved
                # (a partitioned partner degrades an L2+ write to L1).
                self.ckpt_seq += 1
                self.restart_history[self.ckpt_seq] = (
                    base + i + 1,
                    self.collective_calls,
                    t_start + off + dt,
                    dt,
                    sim._net_dom.effective_ckpt_level(self.rank, level),
                )
                stale = self.ckpt_seq - _HISTORY
                if stale > 0:
                    self.restart_history.pop(stale, None)
                if sim._on_checkpoint_commit(self, self.ckpt_seq):
                    # Write-validation caught latent SDC: recovery has
                    # paused every rank and the rest of the batch is
                    # discarded by the rollback — do not advance.
                    return
            elif code == _VERIFY:
                if sim._on_verify_point(self):
                    return  # detection started a recovery episode
        self.advance()

    # -- fault handling -----------------------------------------------------------

    def rollback(self, seq: int, resume_delay: float) -> None:
        """Reset to checkpoint *seq*; resume after *resume_delay*."""
        if self._pending is not None:
            self.engine.cancel(self._pending)
            self._pending = None
        pc, coll, t_ckpt, ckpt_cost, _level = self.restart_history[seq]
        # discard any checkpoint taken after the committed one
        for later in [s for s in self.restart_history if s > seq]:
            del self.restart_history[later]
        self.ckpt_seq = seq
        self.pc = pc
        self.collective_calls = coll
        self.done = False
        self.finish_time = None
        if self.record:
            self.timeline.entries.append(
                TimelineEntry(self.now, self.now + resume_delay, "rollback", "rollback")
            )
        # Track the resume event so a second fault during recovery can
        # cancel it (otherwise the rank would resume twice).
        self._pending = self.schedule(resume_delay, self._on_resume)

    def pause(self) -> None:
        """Cancel whatever this rank is doing (fault arrived)."""
        if self._pending is not None:
            self.engine.cancel(self._pending)
            self._pending = None

    def checkpoint_in_progress(self, t: float) -> Optional[int]:
        """Level of the Checkpoint instruction this rank is inside at *t*,
        or None.  Batched instructions commit only when the batch event
        fires, so the pending batch localises the write window exactly."""
        ev = self._pending
        if ev is None or ev.cancelled or not isinstance(ev.payload, list):
            return None
        start = ev.time - self._batch_span
        for instr, off, dt in ev.payload:
            if (
                isinstance(instr, Checkpoint)
                and dt > 0
                and start + off <= t < start + off + dt
            ):
                return instr.level
        return None

    def handle_event(self, port_name, payload, time) -> None:  # pragma: no cover
        raise RuntimeError("rank components do not use ports")


def _segments(rows: list) -> dict:
    """``start pc -> (first batch pc, collective pc)`` of each segment of
    *rows* that an array step can take.  A segment starts at 0 or after a
    collective; after its leading markers comes a batch, which ends at a
    collective.  Its ``Checkpoint`` and ``Verify`` rows (commit hooks)
    are the stepper's to replay (:attr:`_ArrayStepper.hooks`)."""
    n = len(rows)
    starts = [0] + [pc + 1 for pc, row in enumerate(rows) if row[0] == _COLLECTIVE]
    segments = {}
    for start in starts:
        first = start
        while first < n and rows[first][0] == _MARKER:
            first += 1
        end = first
        while end < n and rows[end][0] != _COLLECTIVE:
            end += 1
        if first < end < n:
            segments[start] = (first, end)
    return segments


class _Program:
    """A compiled program and what the array stepper derives from its
    rows alone: the segments (:func:`_segments`), their commit hooks,
    the segments priced for a healthy network, and the rows that share
    one model value.

    Simulators of one SPMD app share it (:func:`_spmd_program`), so the
    replicas of a campaign point build, compile and table their program
    once per process.  Nothing here changes after construction but the
    one-entry cache of :meth:`equal_steps`.  It pickles as its rows: a
    restored simulator derives the rest again.
    """

    def __init__(self, rows: list) -> None:
        self.rows = rows
        self.segments = _segments(rows)
        #: start pc -> ``(pc, kind code, level)`` of each ``Checkpoint``
        #: and ``Verify`` row of the segment, for the segments with any
        self.hooks = {}
        #: start pcs of the segments whose prices assume a healthy
        #: network: an ``Exchange`` row (priced at run start) or an L2+
        #: ``Checkpoint`` row (its partner copy crosses the fabric)
        self.net_bound = set()
        for start, (first, end) in self.segments.items():
            batch = [(pc, rows[pc][0], rows[pc][6]) for pc in range(first, end)]
            hooks = tuple(row for row in batch if row[1] in (_CHECKPOINT, _VERIFY))
            if hooks:
                self.hooks[start] = hooks
            if any(
                code == _EXCHANGE or (code == _CHECKPOINT and level >= 2)
                for _, code, level in batch
            ):
                self.net_bound.add(start)
        #: the pcs of each distinct priced row, which share one model value
        pcs_of: dict[Instruction, list] = {}
        for pc, row in enumerate(rows):
            if row[0] <= _EXCHANGE:
                pcs_of.setdefault(row[1], []).append(pc)
        self.groups = list(pcs_of.values())
        #: ``(price column bytes, its equal-price step tables)``
        self._equal: Optional[tuple] = None

    def __reduce__(self):
        return (_Program, (self.rows,))

    def equal_steps(self, column: np.ndarray) -> dict:
        """``start pc -> (row durations, span, checkpoints)`` of each
        segment when every rank pays *column*'s prices.  Durations are
        floats, added into the span from 0.0 in row order as
        ``_price_batch`` adds them, so every sum is bit-identical;
        ``checkpoints`` holds ``(offset, duration)`` of each
        ``Checkpoint`` row.  The tables of the last column are kept."""
        key = column.tobytes()
        if self._equal is None or self._equal[0] != key:
            rows = self.rows
            steps = {}
            for start, (first, end) in self.segments.items():
                durations = column[first:end].tolist()
                span, ckpts = 0.0, []
                for pc, dt in enumerate(durations, first):
                    if rows[pc][0] == _CHECKPOINT:
                        ckpts.append((span, dt))
                    span += dt
                steps[start] = (durations, span, tuple(ckpts))
            self._equal = (key, steps)
        return self._equal[1]


#: builder -> ``(key, program)`` of the last SPMD program compiled from
#: it, so the cache lives as long as the app's builder
_PROGRAMS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _spmd_program(sim: "BESSTSimulator") -> _Program:
    """*sim*'s SPMD program: rank 0's, compiled once per builder, rank
    count and parameters.  Replicas of one campaign point share it; an
    app used with other parameters recompiles and keeps the new one."""
    appbeo = sim.appbeo
    params = {**appbeo.default_params, **sim.params}
    key = (sim.nranks, repr(sorted(params.items())))
    try:
        cached = _PROGRAMS.get(appbeo._builder)
    except TypeError:  # a builder that cannot be weakly referenced
        return _Program(sim._compile(0))
    if cached is None or cached[0] != key:
        cached = _PROGRAMS[appbeo._builder] = (key, _Program(sim._compile(0)))
    return cached[1]


def _price_matrix(sim: "BESSTSimulator", program: _Program) -> Optional[np.ndarray]:
    """``prices[pc, rank]``: the duration of row *pc* on each rank in a
    fault-free run, or ``None`` when a model cannot list its prices
    (:meth:`~repro.models.base.PerformanceModel.price_table`).

    A model that can is a pure function of its parameters, so
    deterministic pricing polls it once per distinct row.  A fault-free
    run prices every priced row once per rank, in program order, so one
    ``rng.integers(0, bounds)`` per rank over the rows' table sizes draws
    the same values as the per-row ``predict`` calls and leaves the
    rank's stream in the same state; one
    :meth:`~repro.des.rng.RNGRegistry.draw_bounded` call makes them
    all.  Without noise every column is equal, and the matrix is one
    column broadcast across the ranks.
    """
    arch = sim.archbeo
    rows = program.rows
    column = np.zeros(len(rows))
    tables = []
    for pcs in program.groups:
        code, instr, kernel, params = rows[pcs[0]][:4]
        if code == _EXCHANGE:
            column[pcs] = arch.exchange_time(instr)
            continue
        table = arch.model(kernel).price_table(dict(params))
        if table is None:
            return None
        if sim.monte_carlo:
            tables.append((pcs, table))
        else:
            column[pcs] = arch.predict(kernel, dict(params))
    prices = np.broadcast_to(column[:, None], (len(rows), sim.nranks))
    if tables:
        prices = prices.copy()
        bound = np.zeros(len(rows), dtype=np.int64)
        for pcs, table in tables:
            bound[pcs] = len(table)
        drawn = np.flatnonzero(bound)
        names = [rank.name for rank in sim._ranks]
        draws = sim.engine.rngs.draw_bounded(names, bound[drawn])
        at = np.cumsum(bound > 0) - 1  # pc -> its row of draws
        for pcs, table in tables:
            prices[pcs] = table[draws[at[pcs]]]
    return prices


class _ArrayStepper:
    """Steps every rank through a segment in one array operation.

    A run gets one when :meth:`plan` finds one program shared by every
    rank and every row's price known at run start (:func:`_price_matrix`:
    all noise drawn then, or none).  Its ranks move through the program
    in lockstep: each segment starts, for all of them, at a release (or
    at the last start event).  :meth:`step` decides per segment: it steps
    a segment (:func:`_segments`) here, for every rank at once, when that
    is exact, and the ranks' own ``pc``, ``collective_calls`` and
    checkpoint history go stale.  It steps any other segment per rank, as
    without a stepper, after writing them back (:meth:`write_back`).  So
    does ``inject_fault``, before the fault touches a rank.
    (``_batch_span`` needs no write-back: each per-rank batch sets it
    before it is read.)

    A Monte-Carlo run gets one only when it is fault-free, because a
    rank re-executing rows after a rollback draws fresh noise.  A
    deterministic run gets one with a fault injector or foreign events
    too: between faults its ranks are in lockstep, and the next fault is
    a heap event no array step passes.  A rollback's resume events step
    per rank; the next release restores lockstep, because SPMD ranks
    that pass collective *n* share a pc.

    An array step reserves one seq per rank in release order, as the
    per-rank batches would, and fires one rendezvous.  For a hook-free
    segment it does what the per-rank lazy arrivals would: the
    rendezvous takes the largest ``(time, seq)`` arrival's key and
    counts the other ranks' lazy events in ``events_fired``.  A segment
    with commit hooks (:attr:`hooks`) stands for one heap batch event
    per rank; it is stepped so only while no domain's commit or verify
    hook can act (``FaultDomain.commit_hooks_idle``), so it calls none.
    Its rendezvous takes the smallest key and counts the others; every
    rank commits the segment's checkpoints alike, so the step notes
    them once, as lockstep commits that :meth:`write_back` writes into
    each rank's ``restart_history``.  Either way the ranks are released
    in ``(time, seq)`` order, and recorded ranks get their timeline rows
    at once.

    *Run-ahead.*  While the engine's inline window is open
    (``Engine.run_ahead``: no trace log or event journal attached), a
    rendezvous within the run's horizon and event budget fires inline,
    in the step, since nothing sorts between it and the step; so does
    the release it prices, if it too sorts before the queue's next live
    event.  Then the next segment is stepped in the same loop, and a
    stretch between faults costs no heap event at all.  A flight
    recorder gets the ticks these events would have (:meth:`_count`).
    With the window closed, the rendezvous and release are heap events,
    so a trace or journal records every event it would record per rank
    (:meth:`_commit`, :meth:`_commit_hooked`).  An obs adapter times
    and counts heap events only, as it does lazy ones.

    While a straggler slows a node, an array step scales the clocked
    rows of that node's ranks by its factor, as their per-rank batches
    would, and credits each slowed rank's excess in release order.

    Deterministic pricing gives every rank one price per row.  While no
    straggler slows a node, every rank then arrives at ``now + span``:
    the step reads its segment's durations, span and checkpoint costs
    from :attr:`equal` (floats, tabled once per program and price
    column), and the release order stays as it is.
    """

    def __init__(self, sim: "BESSTSimulator", program: _Program, prices: np.ndarray) -> None:
        self.sim = sim
        self.program = program
        self.prices = prices
        self._bind()
        #: the lockstep program counter and collective count
        self.pc = 0
        self.calls = 0
        #: an array step left the ranks' own ``pc``, ``collective_calls``,
        #: ``_pending`` or checkpoint history behind (see :meth:`write_back`)
        self.stale = False
        #: checkpoints every rank committed in array steps, not yet in the
        #: ranks' ``restart_history``: their number, and the last
        #: ``_HISTORY`` of them as ``(resume pc, collective count,
        #: completion time, cost, level)``, whose time and cost are one
        #: float for every rank or a list indexed by rank
        self.commits = 0
        self.last_commits: deque = deque(maxlen=_HISTORY)
        #: the ``events_fired`` count the run may reach (``max_events``)
        self.limit = float("inf")
        self.recorded = [rank for rank in sim._ranks if rank.record]
        #: rank -> the node it runs on (for a straggler's per-rank
        #: factor), built at the first slowed step
        self.node_of: Optional[np.ndarray] = None

    def _bind(self) -> None:
        """Take the program's tables, and the equal-price step tables
        when the price matrix is one column broadcast across the ranks."""
        program = self.program
        self.rows = program.rows
        self.segments = program.segments
        self.hooks = program.hooks
        self.net_bound = program.net_bound
        prices = self.prices
        #: start pc -> ``(durations, span, checkpoints)`` of each segment
        #: (:meth:`_Program.equal_steps`), or ``None`` if ranks' prices differ
        self.equal = None if prices.strides[1] else program.equal_steps(prices[:, 0])

    @classmethod
    def plan(cls, sim: "BESSTSimulator") -> Optional["_ArrayStepper"]:
        """A stepper for *sim*'s run, or ``None`` to step it per rank."""
        engine = sim.engine
        if sim._ctx.faults_injected or engine._lazy:
            return None
        if sim.monte_carlo and (
            sim.fault_injector is not None
            or engine.queue  # a foreign event, such as a scheduled fault
            or len(engine.components) != sim.nranks  # one could schedule one
        ):
            return None
        rows = sim._ranks[0].rows
        if any(rank.rows is not rows for rank in sim._ranks):
            return None
        program = sim._program if sim._program is not None else _Program(rows)
        prices = _price_matrix(sim, program)
        return None if prices is None else cls(sim, program, prices)

    def start(self, rank: _Rank) -> None:
        """*rank*'s start event fired.  Start events fire in rank order, so
        the last one steps the first segment for every rank."""
        if rank.rank == self.sim.nranks - 1:
            self.step(np.arange(self.sim.nranks))

    def release(self, ranks, instr: Collective, cost: float) -> None:
        """The release of *instr* fired: record it, step the next segment."""
        self._record_release(instr, cost)
        self.step(ranks)

    def _record_release(self, instr: Collective, cost: float) -> None:
        now = self.sim.engine.now
        for rank in self.recorded:
            rank.timeline.entries.append(TimelineEntry(now - cost, now, "collective", instr.op))

    def step(self, order) -> None:
        """Step segments from the lockstep pc; *order* is the release
        order of the first, as ranks (after a per-rank segment) or rank
        ids.  While a segment's release fires inline, the next segment
        follows in this loop."""
        if isinstance(order, list):  # ranks hold the lockstep state
            self.pc, self.calls = order[0].pc, order[0].collective_calls
        inline = False
        while order is not None:
            order = self._segment(order, inline)
            inline = True

    def _segment(self, order, inline: bool):
        """Step the segment at the lockstep pc, whose ranks were released
        in *order* (by a release fired *inline* or not).

        It is stepped for all ranks at once only when that is exact: it
        cannot cross ``max_events``; its exchanges and L2+ checkpoints
        cross a healthy network; no domain's commit or verify hook can
        act on it; and no pending event sorts among its arrivals
        (:meth:`_arrivals`).  Otherwise it is stepped per rank.  Returns
        the next segment's release order if this one's release fired
        inline (:meth:`_fire`), else ``None``."""
        sim = self.sim
        engine = sim.engine
        pc = self.pc
        segment = self.segments.get(pc)
        hooks = self.hooks.get(pc)
        if not (
            segment is None
            or engine.events_fired + sim.nranks > self.limit
            or (sim._net_dom.active and pc in self.net_bound)
            or (hooks and not sim._hooks_idle())
        ):
            arrivals = self._arrivals(order, segment, hooks)
            if arrivals is not None:
                return self._fire(segment, hooks, arrivals)
        if inline:  # the ranks' arrivals key on the release fired inline
            engine.firing = Event(time=engine.now, seq=engine.queue.next_seq - 1)
        for rank in self._per_rank(order):
            rank.advance()
        return None

    def _arrivals(self, order, segment: tuple, hooks: Optional[tuple]) -> Optional[tuple]:
        """The arrivals of *segment*, whose commit hooks are *hooks*, for
        every rank, unless a pending event (a fault, a repair) sorts
        before the last and so would fire between the per-rank arrivals.

        Returns ``times`` and ``perm``, the arrival times and seq offsets
        in release order; ``ids``, the ranks in it; ``records``, the
        recorded ranks' row durations and span; ``credits``, straggler
        excess per rank; and ``commits``, each checkpoint's completion
        time and cost."""
        sim = self.sim
        if isinstance(order, list):
            order = np.array([rank.rank for rank in order])
        engine = sim.engine
        now = engine.now
        if self.equal is not None and not sim._straggler_dom.node_slowdown:
            arrivals = self._equal_arrivals(now, order, self.equal[self.pc])
        else:
            arrivals = self._spread_arrivals(now, order, segment, hooks)
        queue = engine.queue
        t_last = float(arrivals[0][-1])
        if queue.peek_time() <= t_last:  # the next event may sort first
            if queue.peek_key() < (t_last, PRIORITY_NORMAL, queue.next_seq + int(arrivals[1][-1])):
                return None
        return arrivals

    def _fire(self, segment: tuple, hooks: Optional[tuple], arrivals: tuple):
        """Step *segment* for every rank (:meth:`_arrivals`): take its
        seqs, write the recorded ranks' rows and fire its rendezvous.

        In the engine's inline window, the rendezvous fires here: it
        counts the arrivals' events, moves the clock to the last one,
        notes a hooked segment's checkpoints and prices the collective.
        So does the release, if it sorts before the queue's next live
        event, within the window; then this returns the release order.
        Otherwise the rendezvous or release is a heap event, and this
        returns ``None``."""
        times, _, ids, records, credits, commits = arrivals
        sim = self.sim
        engine = sim.engine
        now = engine.now
        for r, excess in credits:
            sim._straggler_dom.note_excess(r, excess)
        first, end = segment
        for rank, durations, span in records:
            self._record(rank, now, first, durations, span)
        queue = engine.queue
        n = len(ids)
        seq = queue.take_seqs(n)
        instr = self.rows[end][1]
        calls = self.calls
        self.pc = end + 1
        self.calls += 1
        self.stale = True
        sync = sim.sync
        t_last = float(times[-1])
        window = engine.run_ahead
        if (
            window is None
            or engine._lazy
            or t_last > window[0]
            or engine.events_fired + n > window[1]
        ):
            event = self._rendezvous_event(arrivals, seq, instr, hooks, calls)
            sync._pending = engine.schedule_event(event)
            return None
        # The rendezvous fires inline, with the arrivals' events before it.
        self._count(times)
        engine.now = t_last
        if hooks:
            self._note_commits(hooks, calls, commits)
        cost, t = sync.release_at(instr)
        if (
            t > window[0]
            or engine.events_fired >= window[1]
            or (queue.peek_time() <= t and queue.peek_key() < (t, PRIORITY_NORMAL, queue.next_seq))
        ):
            sync.schedule_release(ids, instr, cost, t)
            return None
        # So does the release, with the seq its heap event would take.
        queue.take_seq()
        self._count((t,))
        engine.now = t
        self._record_release(instr, cost)
        return ids

    def _rendezvous_event(self, arrivals: tuple, seq: int, instr: Collective, hooks, calls: int):
        """The heap rendezvous of a segment whose *arrivals* took seqs
        from *seq*: at the last arrival's key for a hook-free segment,
        at the first's, as that rank's batch event, for a hooked one."""
        times, perm, ids, _, _, commits = arrivals
        sync = self.sim.sync
        if not hooks:
            return Event(
                time=float(times[-1]),
                handler=sync._rendezvous,
                payload=(ids, instr, self._commit, times[:-1]),
                seq=seq + int(perm[-1]),
            )
        name = self.sim._ranks[int(ids[0])].name
        payload = (times, seq, perm, ids, calls, hooks, commits)
        return Event(
            time=float(times[0]),
            handler=sync._rendezvous,
            payload=(ids, instr, self._commit_hooked, payload),
            seq=seq + int(perm[0]),
            src=name,
            dst=name,
        )

    def _equal_arrivals(self, now: float, order: np.ndarray, table: tuple) -> tuple:
        """The arrivals of a segment every rank prices alike (*table*, its
        :attr:`equal` entry): all at ``now + span``.  A stable sort of
        equal times keeps *order*, so it is the release order, and the
        last arrival is its last rank."""
        durations, span, ckpts = table
        n = len(order)
        t = now + span
        records = [(rank, durations, span) for rank in self.recorded]
        t_start = t - span  # as :meth:`_spread_arrivals` computes it
        commits = [((t_start + off) + dt, dt) for off, dt in ckpts]
        return [t] * n, range(n), order, records, (), commits

    def _spread_arrivals(self, now: float, order: np.ndarray, segment: tuple, hooks) -> tuple:
        """The arrivals of a segment whose ranks price its rows apart
        (Monte-Carlo noise, a straggler's factor), from the price
        matrix, sorted by time: a stable argsort of the arrival times in
        *order*."""
        sim = self.sim
        prices = self.prices
        rows = self.rows
        first, end = segment
        # A straggler slows the clocked rows (``Compute``, ``Checkpoint``,
        # ``Verify``) of the ranks on its node, as ``_price_batch`` does.
        slow = slowed = None
        if sim._straggler_dom.node_slowdown:
            if self.node_of is None:
                node_of_rank = sim.archbeo.node_of_rank
                self.node_of = np.array([node_of_rank(r) for r in range(sim.nranks)])
            slow = np.ones(sim.nranks)
            for node, factor in sim._straggler_dom.node_slowdown.items():
                slow[self.node_of == node] = factor
            slowed = np.zeros(sim.nranks)  # each rank's slowed time
        ckpts = [pc for pc, code, _ in hooks if code == _CHECKPOINT] if hooks else ()
        offsets = []  # the batch offset of each checkpoint row
        dts = []  # each batch row's duration on every rank
        span = np.zeros(sim.nranks)
        for pc in range(first, end):
            if pc in ckpts:
                offsets.append(span.copy())
            dt = prices[pc]
            if slow is not None and rows[pc][0] <= _VERIFY:
                dt = slow * dt
                slowed += dt
            dts.append(dt)
            span += dt
        times = (now + span)[order]
        perm = np.argsort(times, kind="stable")
        times = times[perm]
        credits = ()
        if slow is not None:
            # The per-rank batches would credit their excess in release order.
            factors, slowed = slow.tolist(), slowed.tolist()
            credits = [
                (r, slowed[r] * (1.0 - 1.0 / factors[r]))
                for r in order.tolist()
                if factors[r] != 1.0 and slowed[r] > 0.0
            ]
        records = [
            (rank, [float(dt[rank.rank]) for dt in dts], float(span[rank.rank]))
            for rank in self.recorded
        ]
        ids = order[perm]
        if not hooks:
            return times, perm, ids, records, credits, ()
        # A checkpoint row completes at ``t_start + off + dt``, where
        # ``t_start`` is the batch event's time less the batch span.
        t_start = (now + span) - span
        commits = [
            (((t_start + off) + dts[pc - first]).tolist(), dts[pc - first].tolist())
            for pc, off in zip(ckpts, offsets)
        ]
        # :meth:`_commit_hooked` traces the arrivals from lists
        return times.tolist(), perm.tolist(), ids, records, credits, commits

    def _commit(self, _t: float, times) -> None:
        """Count the lazy arrivals that sort before the rendezvous, at
        their sorted *times*, and give a flight recorder the ticks they
        would have (the rendezvous itself was counted already, and the
        loop ticks it after this handler)."""
        engine = self.sim.engine
        first = engine.events_fired
        if engine._flightrec is not None:
            self._tick(first, len(times), lambda count: times[count - first])
        engine.events_fired += len(times)

    def _count(self, times) -> None:
        """Count events fired inline at their sorted *times*.  The loop
        ticks a flight recorder after each heap event handler, at the
        count and clock it leaves: so each count's tick waits for the
        next count, and the last waits for the loop."""
        engine = self.sim.engine
        if engine._flightrec is not None:
            first, now = engine.events_fired, engine.now
            self._tick(
                first, len(times), lambda count: times[count - first - 1] if count > first else now
            )
        engine.events_fired += len(times)

    def _tick(self, first: int, n: int, time_of) -> None:
        """Give the flight recorder the ticks of counts ``first`` to
        ``first + n - 1``, at ``time_of(count)``."""
        flight = self.sim.engine._flightrec
        s = flight.tick_stride
        for count in range(first + (-first % s), first + n, s):
            flight.tick(float(time_of(count)), count)

    def _commit_hooked(self, _t: float, payload: tuple) -> None:
        """Fire the per-rank batch events of a hooked segment, the first
        of which is the rendezvous firing now.  They are traced (the
        first by the engine) and counted at their sorted ``(time, seq)``
        keys, and the segment's checkpoints are noted as lockstep
        commits (:meth:`_note_commits`).  No commit or verify hook is
        called: none could act when the segment was stepped, and only a
        fault, which would have stepped it per rank, could change that.
        The clock then moves to the last arrival, where the collective
        is priced."""
        times, first_seq, perm, ids, calls, hooks, commits = payload
        engine = self.sim.engine
        recorders = engine._recorders()
        if recorders:
            ranks = self.sim._ranks
            for t, offset, r in zip(times[1:], perm[1:], ids[1:].tolist()):
                name = ranks[r].name
                for sink in recorders:
                    sink((t, PRIORITY_NORMAL, first_seq + offset, name, name))
        self._note_commits(hooks, calls, commits)
        self._commit(_t, times[:-1])
        engine.now = times[-1]

    def _note_commits(self, hooks: tuple, calls: int, commits: list) -> None:
        """Note the checkpoints of a hooked segment that every rank
        committed after its *calls* th collective: *hooks* are its hook
        rows, *commits* each checkpoint's completion time and cost."""
        done = iter(commits)
        for pc, code, level in hooks:
            if code == _CHECKPOINT:
                t_done, cost = next(done)
                self.last_commits.append((pc + 1, calls, t_done, cost, level))
                self.commits += 1
        self.stale = True

    def _record(self, rank: _Rank, now: float, first: int, durations: list, span: float) -> None:
        """*rank*'s marker and batch rows of the segment starting now,
        whose batch rows from *first* take *durations* and *span* in all
        on this rank."""
        entries = rank.timeline.entries
        rows = self.rows
        for pc in range(self.pc, first):
            entries.append(TimelineEntry(now, now, "marker", rows[pc][5]))
        t_start = (now + span) - span  # as the lazy event computes it
        off = 0.0
        for pc, dt in enumerate(durations, first):
            _, _, _, _, kind, label, level = rows[pc]
            entries.append(
                TimelineEntry(t_start + off, t_start + off + dt, kind, label, level=level)
            )
            off += dt

    def _per_rank(self, order) -> list:
        """The ranks in release *order*, holding their own state."""
        if isinstance(order, list):
            return order
        self.write_back()
        ranks = self.sim._ranks
        return [ranks[r] for r in order.tolist()]

    def write_back(self) -> None:
        """Give the ranks the state per-rank stepping would have left
        them in, if array steps left theirs stale: past the last
        collective, with no event pending, and with the lockstep commits
        in their ``restart_history`` (:meth:`_replay`).  It runs before
        anything reads that state: before a per-rank segment (the run's
        last segment is one) and in ``inject_fault``."""
        if self.stale:
            self.stale = False
            for rank in self.sim._ranks:
                rank.pc, rank.collective_calls, rank._pending = self.pc, self.calls, None
                if self.commits:
                    self._replay(rank)
            self.commits = 0
            self.last_commits.clear()

    def _replay(self, rank: _Rank) -> None:
        """Write the lockstep commits into *rank*'s ``ckpt_seq`` and
        ``restart_history``, as its batches would have, one by one:
        each bumps ``ckpt_seq``, stores the entry under it and prunes the
        entry ``_HISTORY`` seqs older.  Only the last ``_HISTORY``
        entries survive; each earlier commit's net effect is its prune,
        of an entry older than the commits or of one they stored."""
        r = rank.rank
        history = rank.restart_history
        seq = rank.ckpt_seq  # every key in the history is at most this
        skipped = self.commits - len(self.last_commits)
        for old in range(max(1, seq + 1 - _HISTORY), min(seq, seq + skipped - _HISTORY) + 1):
            history.pop(old, None)
        seq += skipped
        for resume, calls, t_done, cost, level in self.last_commits:
            if isinstance(t_done, list):
                t_done, cost = t_done[r], cost[r]
            seq += 1
            history[seq] = (resume, calls, t_done, cost, level)
            if seq > _HISTORY:
                history.pop(seq - _HISTORY, None)
        rank.ckpt_seq = seq

    def __getstate__(self) -> dict:
        # The program pickles as its rows; the tables taken from it are
        # derived again on restore (:meth:`_bind`).
        state = dict(self.__dict__)
        for name in ("rows", "segments", "hooks", "net_bound", "equal"):
            del state[name]
        if not self.prices.strides[1]:  # equal columns: pickle one
            state["prices"] = (self.prices[:, 0], self.prices.shape)
        return state

    def __setstate__(self, state: dict) -> None:
        if isinstance(state["prices"], tuple):
            column, shape = state["prices"]
            state["prices"] = np.broadcast_to(column[:, None], shape)
        self.__dict__.update(state)
        self._bind()


class BESSTSimulator:
    """Drives one BE-SST simulation of an AppBEO on an ArchBEO.

    Parameters
    ----------
    appbeo / archbeo:
        The application and architecture models.
    nranks:
        MPI ranks to simulate.
    params:
        Application parameters (merged over the AppBEO defaults).
    seed:
        Seed for per-rank model-noise streams.
    monte_carlo:
        When true (default), model predictions draw from calibration
        distributions; when false, deterministic central predictions.
    record_timelines:
        Which ranks record full timelines: ``"rank0"`` (default),
        ``"all"``, or ``"none"``.
    fault_injector:
        Optional :class:`~repro.core.fault_injection.FaultInjector`
        enabling Cases 2/4.
    recovery_policy:
        Optional :class:`~repro.core.fault_injection.RecoveryPolicy`
        enabling the full fault lifecycle (torn checkpoints, verification
        failures, escalation, requeue).  ``None`` keeps the seed
        semantics: one atomic, always-successful rollback per fault.
    """

    #: the array stepper of the run in progress, if it has one (a class
    #: default, so a snapshot of a simulator without one restores)
    _stepper: Optional["_ArrayStepper"] = None

    def __init__(
        self,
        appbeo: AppBEO,
        archbeo: ArchBEO,
        nranks: int,
        params: Optional[Mapping[str, float]] = None,
        seed: int = 0,
        monte_carlo: bool = True,
        record_timelines: str = "rank0",
        fault_injector=None,
        recovery_policy: Optional[RecoveryPolicy] = None,
    ) -> None:
        if record_timelines not in ("rank0", "all", "none"):
            raise ValueError(f"invalid record_timelines {record_timelines!r}")
        nranks = appbeo.check_ranks(nranks)
        self.appbeo = appbeo
        self.archbeo = archbeo
        self.nranks = nranks
        self.params = dict(params or {})
        self.monte_carlo = monte_carlo
        self.engine = Engine(seed=seed)
        self.sync = _SyncDomain(self)
        self.fault_injector = fault_injector
        self.policy = recovery_policy or RecoveryPolicy.legacy()
        self._recorded_ranks = (
            set(range(nranks))
            if record_timelines == "all"
            else {0}
            if record_timelines == "rank0"
            else set()
        )
        self._ranks: list[_Rank] = []
        self._finished = 0
        self._result: Optional[SimulationResult] = None
        self._flightrec = None
        # Pluggable fault machinery: the shared recovery context owns the
        # lifecycle (ladder walk, episodes, waste buckets, metric/forensic
        # plumbing); one domain object per fault family (DOMAINS) owns
        # the kind-specific state and behaviour (repro.faults).  Named RNG
        # streams are keyed by name, not creation order, so the domains'
        # draw streams are identical to the pre-refactor monolith.
        self._ctx = RecoveryContext(self)
        self._domains = tuple(cls(self, self._ctx) for cls in DOMAINS)
        self._ctx.domains = self._domains
        self._domain_by_kind = {
            kind: domain for domain in self._domains for kind in domain.kinds
        }
        by_name = {domain.name: domain for domain in self._domains}
        # hot-path shortcuts (batch pricing reads these every event)
        self._straggler_dom = by_name["straggler"]
        self._net_dom = by_name["network"]
        self._sdc_dom = by_name["sdc"]
        #: the domains the commit and verify hooks go to
        self._commit_domains = self._defining("on_checkpoint_commit")
        self._verify_domains = self._defining("on_verify_point")
        self._hooked_domains = [
            d for d in self._domains if d in self._commit_domains or d in self._verify_domains
        ]
        #: instruction -> compiled row, shared by every rank's program,
        #: of what this simulator compiled (nothing when it reuses an SPMD
        #: app's program)
        self._rows: dict[Instruction, tuple] = {}

        # An SPMD app is built and compiled once per builder, rank count
        # and parameters (:func:`_spmd_program`), so replicas share one
        # program; any other app once per rank, with programs equal to
        # rank 0's sharing its row list (rows are interned, so the
        # comparison only tests identities).
        #: the compiled program of an SPMD app, else ``None``
        self._program: Optional[_Program] = None
        if appbeo.spmd:
            self._program = _spmd_program(self)
            rows0 = self._program.rows
        else:
            rows0 = self._compile(0)
        for r in range(nranks):
            rows = rows0
            if r and not appbeo.spmd:
                rows = self._compile(r)
                if rows == rows0:
                    rows = rows0
            self._ranks.append(self.engine.register(_Rank(r, self, rows)))

        if fault_injector is not None:
            fault_injector.attach(self)

    def _compile(self, rank: int) -> list:
        """Rank *rank*'s program as a list of interned compiled rows."""
        program = self.appbeo.build(rank, self.nranks, self.params)
        return [self._row(instr) for instr in program]

    def _row(self, instr: Instruction) -> tuple:
        """The interned compiled row of *instr* (equal instructions share
        one row, so SPMD ranks add no per-rank row memory)."""
        row = self._rows.get(instr)
        if row is None:
            row = self._rows[instr] = _compile_row(instr)
        return row

    # -- callbacks ---------------------------------------------------------------------

    def _rank_finished(self, rank: "_Rank") -> None:
        self._finished += 1
        if self._finished == self.nranks and self.fault_injector is not None:
            self.fault_injector.detach()

    @property
    def wasted_time(self) -> float:
        """Total fault-attributable waste (rework + downtime + requeue)."""
        return self._ctx.wasted_time

    @property
    def faults_injected(self) -> int:
        """Faults injected so far (lifecycle counter on the context)."""
        return self._ctx.faults_injected

    @property
    def rollbacks(self) -> int:
        """Coordinated rollbacks performed so far."""
        return self._ctx.rollbacks

    @property
    def state(self) -> str:
        """Lifecycle state: running | recovering | requeued | aborted | done."""
        ctx = self._ctx
        if ctx.aborted:
            return "aborted"
        if self._result is not None or self._finished == self.nranks:
            return "done"
        if ctx.recovery is not None:
            return "requeued" if ctx.recovery.requeued else "recovering"
        return "running"

    # -- forensics ---------------------------------------------------------------------

    def attach_flightrec(self, rec):
        """Attach (or with ``None`` detach) a flight recorder.

        The recorder receives every fault/recovery lifecycle record plus
        the engine's periodic progress ticks.  Recording is strictly
        observational: it never draws randomness or schedules events, so
        simulation output is identical with it on or off.
        """
        self._flightrec = rec
        self.engine.attach_flightrec(rec)
        return rec

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_flightrec"] = None  # open spill handle: reattach post-restore
        return state

    # -- fault lifecycle ---------------------------------------------------------------
    #
    # The lifecycle itself lives in repro.faults (RecoveryContext + one
    # domain per fault family).  What remains here is the kind
    # dispatch in inject_fault plus the commit/verify hooks the rank
    # components call (batch pricing reads the straggler and network
    # domains directly).

    def _defining(self, hook: str) -> list:
        """The domains whose class overrides the no-op *hook*, in
        ``DOMAINS`` order.  Callers look the method up per call, so a
        patch of the class still sees every call."""
        return [d for d in self._domains if hook in type(d).hooks()]

    def _hooks_idle(self) -> bool:
        """No commit or verify hook can act now (each domain defining
        one says so: ``FaultDomain.commit_hooks_idle``)."""
        for domain in self._hooked_domains:
            if not domain.commit_hooks_idle():
                return False
        return True

    def _on_checkpoint_commit(self, rank: "_Rank", seq: int) -> bool:
        for domain in self._commit_domains:
            if domain.on_checkpoint_commit(rank, seq):
                return True
        return False

    def _on_verify_point(self, rank: "_Rank") -> bool:
        for domain in self._verify_domains:
            if domain.on_verify_point(rank):
                return True
        return False

    def inject_fault(
        self,
        node: int,
        kind: str = "software",
        detail: Optional[FaultDetail] = None,
        event: Optional[FaultEvent] = None,
    ) -> None:
        """Coordinated, level-aware, lifecycle-realistic failure handling.

        The simulator core only dispatches: the kind is resolved to its
        owning :class:`~repro.faults.domains.FaultDomain`, which owns
        the semantics (see ``repro.faults``).  Fail-stop kinds
        (``software``/``node``/``burst``) start (or re-enter, for nested
        faults) a recovery episode walking the escalation ladder; ``sdc``
        arms a latent corruption flag; ``straggler`` degrades the node's
        compute clock until repair; ``link``/``switch``/``netdeg`` mutate
        the topology health overlay.

        *detail* carries the kind-specific parameters drawn by the
        injector (domain defaults applied when called directly); *event*
        is the injector's log record, updated in place with detection
        outcomes.
        """
        ctx = self._ctx
        if ctx.aborted or self._finished == self.nranks:
            return
        stepper = self._stepper
        if stepper is not None:
            if self.monte_carlo:
                raise RuntimeError(
                    "cannot inject a fault into a Monte-Carlo run stepped for all "
                    "ranks at once; schedule it (or attach a fault injector) "
                    "before run() starts"
                )
            stepper.write_back()
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r}; expected "
                f"{sorted(FAULT_KINDS)}"
            )
        if ctx.recovery is not None and ctx.recovery.requeued:
            # The job is sitting in the scheduler queue: node failures
            # during the resubmission window do not hit it.
            return
        domain = self._domain_by_kind[kind]
        if detail is None:
            detail = domain.default_detail(kind, node)
        if event is None:
            event = FaultEvent(
                self.engine.now,
                node,
                kind,
                victims=detail.victims,
                slowdown=detail.slowdown,
            )
        ctx.count_injection(kind)
        # Forensic fault id: the injector appends its log record before
        # dispatching here, so the id is simply that record's log index
        # (joined by identity, not by a parallel counter — early returns
        # above cannot desynchronise it).  Direct calls carry no id.
        fid = -1
        if self.fault_injector is not None and event is not None:
            log = self.fault_injector.log.entries
            if log and log[-1] is event:
                fid = len(log) - 1
        ctx.note("inject", fault=fid, fault_kind=kind, node=node)
        domain.apply(kind, node, detail, event, fid)

    # -- snapshot / restore -----------------------------------------------------------------

    def enable_snapshots(
        self,
        directory: str,
        every_events: int,
        keep: int = 2,
    ) -> AutoSnapshotPolicy:
        """Checkpoint the *whole simulator* periodically during :meth:`run`.

        The capture root is this simulator (not just its engine), so
        :meth:`restore` rebuilds ranks, sync domains, recovery state and
        the fault injector together and the run can simply continue.
        """
        return self.engine.enable_autosnapshot(
            directory,
            every_events=every_events,
            keep=keep,
            root=self,
        )

    def snapshot(self, meta: Optional[dict] = None) -> Snapshot:
        """Capture the full simulator state between events."""
        extra = {
            "sim_time": float(self.engine.now),
            "events_fired": self.engine.events_fired,
        }
        if meta:
            extra.update(meta)
        return Snapshot.capture(self, meta=extra)

    @classmethod
    def restore(cls, source) -> "BESSTSimulator":
        """Rebuild a simulator from a :class:`Snapshot` or a saved path.

        The returned simulator resumes exactly where the capture stopped:
        call :meth:`run` to continue to completion.  The final result is
        byte-identical to a run that was never interrupted.
        """
        snap = Snapshot.load(source) if isinstance(source, str) else source
        sim = snap.restore()
        if not isinstance(sim, cls):
            raise SnapshotError(
                f"snapshot holds a {type(sim).__name__}, expected "
                f"{cls.__name__} (or a subclass)"
            )
        sim.engine._running = False
        return sim

    # -- run --------------------------------------------------------------------------------

    def run(self, max_events: Optional[int] = None) -> SimulationResult:
        """Execute the simulation to completion and return the result."""
        if self._result is not None:
            return self._result
        engine = self.engine
        if not engine._setup_done:
            self._stepper = _ArrayStepper.plan(self)
        if self._stepper is not None:
            budget = float("inf") if max_events is None else max_events
            self._stepper.limit = engine.events_fired + budget
        engine.run(max_events=max_events)
        # A finished simulator lingers until a full GC pass: drop the
        # price matrix now.
        self._stepper = None
        ctx = self._ctx
        if not ctx.aborted:
            unfinished = [r.rank for r in self._ranks if not r.done]
            if unfinished:
                raise RuntimeError(
                    f"simulation ended with unfinished ranks {unfinished[:5]}"
                )
        rank0 = self._ranks[0].timeline.durations_by_kind()
        # Lifecycle counters come from the recovery context; each fault
        # domain contributes its result block (in ``DOMAINS`` order, which
        # also fixes the order of end-of-run metric emission).
        fields = ctx.result_fields()
        for domain in self._domains:
            fields.update(domain.result_fields())
        self._result = SimulationResult(
            total_time=(
                ctx.abort_time
                if ctx.aborted
                else max(r.finish_time for r in self._ranks)
            ),
            finish_times=(
                [] if ctx.aborted else [r.finish_time for r in self._ranks]
            ),
            timelines={r.rank: r.timeline for r in self._ranks if r.record},
            nranks=self.nranks,
            events_fired=self.engine.events_fired,
            checkpoint_time=sum(rank0.get("checkpoint", ())),
            compute_time=sum(rank0.get("compute", ())) + sum(rank0.get("exchange", ())),
            collective_time=sum(rank0.get("collective", ())),
            verify_time=sum(rank0.get("verify", ())),
            **fields,
        )
        return self._result
