"""Fault injection for BE-SST simulations (Cases 2 and 4 of Fig. 4).

A :class:`FaultInjector` draws node time-to-failure from an exponential or
Weibull distribution and fires failures into a running
:class:`~repro.core.simulator.BESSTSimulator`.  With an FT-aware AppBEO
the simulator rolls every rank back to its last completed checkpoint
(Case 4); without checkpoints the application restarts from the beginning
(Case 2).

The fault *taxonomy* goes beyond fail-stop.  :class:`FaultModel` draws
one of five kinds from a validated kind-weight mapping:

* ``"software"`` — transient process crash; node storage intact,
* ``"node"`` — fail-stop node loss; node-local checkpoint data gone,
* ``"sdc"`` — silent data corruption: a *latent* flag armed on a victim
  rank, observed only at the next detection point (an ABFT
  :class:`~repro.core.instructions.Verify` kernel or checkpoint-write
  validation), after which recovery must reach back past the last
  *clean* checkpoint,
* ``"straggler"`` — a degraded node: a persistent slowdown factor on the
  victim's compute clock until repair,
* ``"burst"`` — a spatially correlated failure: one draw fells a whole
  topology neighborhood of nodes at once,
* ``"link"`` — a network link goes out of service: traffic reroutes over
  surviving paths (hop inflation), pairs with no surviving path are
  partitioned,
* ``"switch"`` — a switch/router dies: the victim endpoint loses *every*
  incident link (network-isolated while its node keeps computing),
* ``"netdeg"`` — a degraded link: bandwidth de-rated and/or transiently
  lossy (retransmission delay) until repair.

The three network kinds mutate the topology's
:class:`~repro.network.health.NetworkHealth` overlay instead of felling
compute endpoints; :func:`fold_link_rate` converts a per-link MTBF into
the combined system rate and kind mix.

:class:`RecoveryPolicy` configures the simulator's fault-lifecycle
realism: read-back verification failures (checkpoint corruption / SDC),
the L1→L2→L4→full-restart escalation ladder with bounded retries and
per-attempt backoff, checkpoint-write validation for latent SDC, and the
abort/requeue path with its spare-node pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Mapping, Optional

import numpy as np

# FAULT_KINDS (every kind, in canonical draw order) is defined next to
# the fault domains that own the kinds.  Its order fixes the
# cumulative-weight walk of FaultModel.draw_kind, so new kinds append
# at the END and existing mixes keep their draw streams.
from repro.faults.domains import FAULT_KINDS
from repro.network.health import NET_KIND_SPLIT

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.topology import Topology


@dataclass(frozen=True)
class FaultDetail:
    """Per-fault parameters drawn at injection time.

    Carried alongside the kind so the simulator never re-draws: replays
    and SIGKILL-resumes see bit-identical fault streams.

    * ``victims`` — every node felled by a ``burst`` (includes the seed
      node); empty for single-node kinds.
    * ``slowdown`` / ``repair_s`` — a ``straggler``'s clock-rate factor
      (finite, >= 1) and time until the node is repaired
      (``repair_s <= 0`` = never).
    * ``covered`` — an ``sdc`` strike landed inside ABFT-protected
      operations (detectable at the next Verify point); uncovered
      strikes are invisible to every detector.
    * ``correctable`` — a covered strike within ABFT's single-element
      correction capability (fixed in place, no rollback needed).
    * ``edge`` — the (a, b) link victim of a ``link``/``netdeg`` fault;
      empty = the simulator picks a link incident to the struck node
      deterministically.  ``repair_s`` doubles as the network repair
      delay for the three network kinds.
    * ``derate`` / ``loss_prob`` — a ``netdeg`` link's bandwidth de-rate
      factor (finite, >= 1) and transient message-loss probability
      (in [0, 1)).
    """

    victims: tuple[int, ...] = ()
    slowdown: float = 1.0
    repair_s: float = 0.0
    covered: bool = True
    correctable: bool = True
    edge: tuple[int, ...] = ()
    derate: float = 1.0
    loss_prob: float = 0.0

    def __post_init__(self) -> None:
        # Bounds are written ``not x > lo`` so that NaN fails them too.
        if not 1.0 <= self.slowdown < math.inf:
            raise ValueError(f"slowdown must be finite and >= 1, got {self.slowdown}")
        if math.isnan(self.repair_s):
            raise ValueError("repair_s must be a number, got nan")
        if not 1.0 <= self.derate < math.inf:
            raise ValueError(f"derate must be finite and >= 1, got {self.derate}")
        if not 0.0 <= self.loss_prob < 1.0:
            raise ValueError(f"loss_prob must be in [0, 1), got {self.loss_prob}")


@dataclass(frozen=True)
class FaultModel:
    """Per-node failure process.

    Parameters
    ----------
    node_mtbf_s:
        Mean time between failures of a single node, seconds.
    distribution:
        ``"exponential"`` (memoryless) or ``"weibull"``.
    weibull_shape:
        Weibull shape k; < 1 models infant-mortality-dominated behaviour
        typical of HPC failure logs.
    software_fraction:
        Backward-compatible alias for the two-kind mix: when
        ``kind_weights`` is omitted, failures are ``software`` with this
        probability and ``node`` otherwise.
    kind_weights:
        Full taxonomy mix: kind name -> weight.  Weights must be
        non-negative, cover only known kinds (:data:`FAULT_KINDS`) and
        sum to 1 (within 1e-6).  Overrides ``software_fraction``.
    sdc_coverage:
        Probability an SDC strike lands inside ABFT-protected operations
        (drawn once at injection; uncovered strikes evade detection).
    sdc_correct_prob:
        Probability a covered strike is within ABFT's correction
        capability (single corrupted element).
    straggler_slowdown / straggler_repair_s:
        A straggler's compute-clock factor (finite, >= 1) and repair delay
        (``<= 0`` repair = degraded until job end).
    burst_size:
        Nodes felled per correlated burst (capped at the live count).
    net_degrade_factor / net_loss_prob:
        A ``netdeg`` fault's bandwidth de-rate (finite, >= 1) and message-loss
        probability (in [0, 1)).
    net_repair_s:
        Time until a failed/degraded link or dead switch is repaired
        (``<= 0`` = out of service until job end or requeue).
    """

    node_mtbf_s: float
    distribution: str = "exponential"
    weibull_shape: float = 0.7
    software_fraction: float = 0.6
    kind_weights: Optional[Mapping[str, float]] = None
    sdc_coverage: float = 0.95
    sdc_correct_prob: float = 0.5
    straggler_slowdown: float = 2.0
    straggler_repair_s: float = 30.0
    burst_size: int = 3
    net_degrade_factor: float = 4.0
    net_loss_prob: float = 0.05
    net_repair_s: float = 30.0

    def __post_init__(self) -> None:
        # Bounds are written ``not x > lo`` so that NaN fails them too.
        if not self.node_mtbf_s > 0:
            raise ValueError(f"node_mtbf_s must be > 0, got {self.node_mtbf_s}")
        if self.distribution not in ("exponential", "weibull"):
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if not self.weibull_shape > 0:
            raise ValueError(f"weibull_shape must be > 0, got {self.weibull_shape}")
        if not 0.0 <= self.software_fraction <= 1.0:
            raise ValueError(
                f"software_fraction must be in [0,1], got {self.software_fraction}"
            )
        if not 0.0 <= self.sdc_coverage <= 1.0:
            raise ValueError(
                f"sdc_coverage must be in [0,1], got {self.sdc_coverage}"
            )
        if not 0.0 <= self.sdc_correct_prob <= 1.0:
            raise ValueError(
                f"sdc_correct_prob must be in [0,1], got {self.sdc_correct_prob}"
            )
        if not 1.0 <= self.straggler_slowdown < math.inf:
            raise ValueError(
                f"straggler_slowdown must be finite and >= 1, got {self.straggler_slowdown}"
            )
        if self.burst_size < 1:
            raise ValueError(f"burst_size must be >= 1, got {self.burst_size}")
        if not 1.0 <= self.net_degrade_factor < math.inf:
            raise ValueError(
                f"net_degrade_factor must be finite and >= 1, got {self.net_degrade_factor}"
            )
        if not 0.0 <= self.net_loss_prob < 1.0:
            raise ValueError(
                f"net_loss_prob must be in [0, 1), got {self.net_loss_prob}"
            )
        for name in ("straggler_repair_s", "net_repair_s"):
            if math.isnan(getattr(self, name)):
                raise ValueError(f"{name} must be a number, got nan")
        # Freeze the validated, canonically-ordered weight table once.
        object.__setattr__(
            self, "_weights", self._validated_weights(self.kind_weights)
        )

    def _validated_weights(
        self, weights: Optional[Mapping[str, float]]
    ) -> tuple[tuple[str, float], ...]:
        if weights is None:
            weights = {
                "software": self.software_fraction,
                "node": 1.0 - self.software_fraction,
            }
        unknown = sorted(set(weights) - set(FAULT_KINDS))
        if unknown:
            raise ValueError(
                f"unknown fault kinds {unknown}; expected a subset of "
                f"{list(FAULT_KINDS)}"
            )
        for kind, w in weights.items():
            if not w >= 0:
                raise ValueError(f"kind_weights[{kind!r}] must be >= 0, got {w}")
        total = sum(weights.values())
        if abs(total - 1.0) > 1e-6:
            raise ValueError(
                f"kind_weights must sum to 1, got {total} from {dict(weights)}"
            )
        return tuple(
            (kind, float(weights[kind]))
            for kind in FAULT_KINDS
            if weights.get(kind, 0.0) > 0.0
        )

    @property
    def weights(self) -> dict[str, float]:
        """The validated kind-weight mapping actually used for draws."""
        return dict(self._weights)

    def draw_kind(self, rng: np.random.Generator) -> str:
        """One fault kind, drawn from the validated weight mapping."""
        u = rng.random()
        acc = 0.0
        for kind, w in self._weights:
            acc += w
            if u < acc:
                return kind
        return self._weights[-1][0]  # guard against float round-off

    def draw_detail(
        self,
        rng: np.random.Generator,
        kind: str,
        node: int,
        live: list[int],
        topology: Optional["Topology"] = None,
    ) -> FaultDetail:
        """Kind-specific fault parameters, drawn deterministically."""
        if kind == "sdc":
            return FaultDetail(
                covered=bool(rng.random() < self.sdc_coverage),
                correctable=bool(rng.random() < self.sdc_correct_prob),
            )
        if kind == "straggler":
            return FaultDetail(
                slowdown=self.straggler_slowdown,
                repair_s=self.straggler_repair_s,
            )
        if kind == "burst":
            return FaultDetail(victims=self.burst_victims(node, live, topology))
        if kind in ("link", "switch"):
            # The victim edge is resolved by the simulator from its own
            # engine-seeded rng: edge choice depends on the simulator's
            # endpoint mapping, which the injector doesn't know.
            return FaultDetail(repair_s=self.net_repair_s)
        if kind == "netdeg":
            return FaultDetail(
                repair_s=self.net_repair_s,
                derate=self.net_degrade_factor,
                loss_prob=self.net_loss_prob,
            )
        return FaultDetail()

    def burst_victims(
        self,
        node: int,
        live: list[int],
        topology: Optional["Topology"] = None,
    ) -> tuple[int, ...]:
        """The neighborhood felled by a burst seeded at *node*.

        Victims are the ``burst_size`` live nodes nearest the seed —
        topology hop count when a topology covering the node range is
        available, node-index distance otherwise (adjacent indices model
        rack/chassis adjacency).  Ties break on node id, so the set is a
        pure function of (seed node, live set).
        """
        use_topo = topology is not None and all(
            n < topology.num_nodes for n in live
        )

        def distance(n: int) -> int:
            if n == node:
                return 0
            return topology.hop_count(node, n) if use_topo else abs(n - node)

        ranked = sorted(live, key=lambda n: (distance(n), n))
        return tuple(sorted(ranked[: self.burst_size]))

    def system_mtbf(self, nnodes: int) -> float:
        """MTBF of an *nnodes* system (failures superpose)."""
        if nnodes < 1:
            raise ValueError(f"nnodes must be >= 1, got {nnodes}")
        return self.node_mtbf_s / nnodes

    def draw_interarrival(self, rng: np.random.Generator, nnodes: int) -> float:
        """Time to the next system-wide failure."""
        mtbf = self.system_mtbf(nnodes)
        if self.distribution == "exponential":
            return float(rng.exponential(mtbf))
        k = self.weibull_shape
        # scale lambda so that the mean of Weibull(k, lambda) is mtbf
        from math import gamma

        lam = mtbf / gamma(1 + 1 / k)
        return float(lam * rng.weibull(k))


def fold_link_rate(
    model: FaultModel,
    nnodes: int,
    nlinks: int,
    link_mtbf_s: float,
    split: Optional[tuple[tuple[str, float], ...]] = None,
) -> FaultModel:
    """Fold a per-link failure process into *model*'s system-wide stream.

    The injector draws one superposed system failure stream whose rate is
    ``nnodes / node_mtbf_s``.  Network faults add an independent stream of
    rate ``nlinks / link_mtbf_s``; superposing them means re-deriving an
    effective per-node MTBF so the combined rate is right, then giving the
    network kinds their probability share ``link_rate / total_rate``
    (distributed over *split*, default :data:`NET_KIND_SPLIT`) while the
    existing kinds keep their relative mix.

    Returns a new :class:`FaultModel`; *model* is unchanged.
    """
    if nnodes < 1:
        raise ValueError(f"nnodes must be >= 1, got {nnodes}")
    if nlinks < 1:
        raise ValueError(f"nlinks must be >= 1, got {nlinks}")
    if link_mtbf_s <= 0:
        raise ValueError(f"link_mtbf_s must be > 0, got {link_mtbf_s}")
    if split is None:
        split = NET_KIND_SPLIT
    split = tuple((str(k), float(w)) for k, w in split)
    if abs(sum(w for _, w in split) - 1.0) > 1e-6:
        raise ValueError(f"net kind split must sum to 1, got {dict(split)}")
    unknown = sorted(set(k for k, _ in split) - {"link", "switch", "netdeg"})
    if unknown:
        raise ValueError(f"net kind split names non-network kinds {unknown}")
    node_rate = nnodes / model.node_mtbf_s
    link_rate = nlinks / link_mtbf_s
    total = node_rate + link_rate
    p_net = link_rate / total
    weights = {k: w * (1.0 - p_net) for k, w in model.weights.items()}
    for kind, w in split:
        if w > 0.0:
            weights[kind] = weights.get(kind, 0.0) + w * p_net
    return replace(
        model, node_mtbf_s=nnodes / total, kind_weights=weights
    )


@dataclass(frozen=True)
class RecoveryPolicy:
    """How the simulator handles the lifecycle of one fault.

    Parameters
    ----------
    verify_fail_prob:
        Probability that one recovery attempt's checkpoint read-back fails
        verification (corrupt/torn data, silent data corruption).  A
        failed verification escalates one rung up the recovery ladder.
        Full restart from the input deck (the last rung) never fails.
    max_attempts:
        Bound on recovery attempts per fault episode (nested faults extend
        the episode).  Exhausting the bound aborts the job and requeues it.
    retry_delay_s / backoff:
        Extra delay charged to the k-th retry: ``retry_delay_s *
        backoff**(k-1)`` (the first attempt pays none).
    l1_inplace_writes:
        When true, an L1 checkpoint write torn by a fault on the writing
        node destroys the node's *previous* local copy as well (in-place
        overwrite, FTI node-local semantics), so an L1-only restart point
        becomes unusable for the whole job.
    max_requeues:
        Job resubmissions allowed after recovery exhaustion before the
        job is declared aborted.
    requeue_delay_s:
        Scheduler latency of one resubmission.
    n_spares / spare_swap_s / spare_rebuild_s:
        Spare-node pool: a requeue caused by a node loss consumes one
        spare (paying ``spare_swap_s``); once the pool is exhausted the
        requeue degrades gracefully to a full node rebuild stall of
        ``spare_rebuild_s`` instead of failing.
    ckpt_validate_prob:
        Probability one checkpoint *write* validates its data against a
        stored checksum (FTI hash-on-write).  Validation is a secondary
        SDC detection point: a covered latent corruption caught here is
        detected at the write instead of waiting for the next ABFT
        Verify kernel.  0 (the default) disables write validation.
    """

    verify_fail_prob: float = 0.05
    max_attempts: int = 4
    retry_delay_s: float = 0.5
    backoff: float = 2.0
    l1_inplace_writes: bool = True
    max_requeues: int = 1
    requeue_delay_s: float = 30.0
    n_spares: int = 2
    spare_swap_s: float = 5.0
    spare_rebuild_s: float = 120.0
    ckpt_validate_prob: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.verify_fail_prob < 1.0:
            raise ValueError(
                f"verify_fail_prob must be in [0,1), got {self.verify_fail_prob}"
            )
        if not 0.0 <= self.ckpt_validate_prob <= 1.0:
            raise ValueError(
                f"ckpt_validate_prob must be in [0,1], got {self.ckpt_validate_prob}"
            )
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.retry_delay_s < 0 or self.backoff <= 0:
            raise ValueError("retry_delay_s must be >= 0 and backoff > 0")
        if self.max_requeues < 0:
            raise ValueError(f"max_requeues must be >= 0, got {self.max_requeues}")
        if self.requeue_delay_s < 0:
            raise ValueError(f"requeue_delay_s must be >= 0, got {self.requeue_delay_s}")
        if self.n_spares < 0:
            raise ValueError(f"n_spares must be >= 0, got {self.n_spares}")
        if self.spare_swap_s < 0 or self.spare_rebuild_s < 0:
            raise ValueError("spare costs must be >= 0")

    def retry_extra_delay(self, attempt: int) -> float:
        """Extra delay of *attempt* (1-based); the first attempt is free."""
        if attempt <= 1:
            return 0.0
        return self.retry_delay_s * self.backoff ** (attempt - 2)

    @staticmethod
    def legacy() -> "RecoveryPolicy":
        """The seed simulator's semantics: one atomic, always-successful
        rollback per fault, no torn-write damage, never aborts."""
        return RecoveryPolicy(
            verify_fail_prob=0.0,
            max_attempts=1_000_000_000,
            retry_delay_s=0.0,
            backoff=1.0,
            l1_inplace_writes=False,
            max_requeues=0,
        )


#: stable field order of :meth:`FaultEvent.to_list` rows — the contract
#: journaled replica records and ``core.forensics`` parsing both rely on
FAULT_ROW_FIELDS = (
    "time",
    "node",
    "kind",
    "victims",
    "slowdown",
    "detected_time",
    "outcome",
)


@dataclass
class FaultEvent:
    """One injected fault, with its kind metadata and detection outcome.

    ``victims`` is the full felled set for bursts; ``slowdown`` the
    straggler clock factor; ``detected_time``/``outcome`` are filled in
    by the simulator when (if) the fault is observed — SDC outcomes are
    ``"corrected"``, ``"rolled_back"`` or ``"undetected"``.
    """

    time: float
    node: int
    kind: str
    victims: tuple[int, ...] = ()
    slowdown: float = 1.0
    detected_time: Optional[float] = None
    outcome: str = ""

    def to_list(self) -> list:
        """JSON-friendly row (stable field order, journal/report safe)."""
        return [
            self.time,
            self.node,
            self.kind,
            list(self.victims),
            self.slowdown,
            self.detected_time,
            self.outcome,
        ]


@dataclass
class FaultEventLog:
    """Chronological record of injected failures."""

    entries: list[FaultEvent] = field(default_factory=list)

    def add(
        self,
        time: float,
        node: int,
        kind: str = "node",
        detail: Optional[FaultDetail] = None,
    ) -> FaultEvent:
        event = FaultEvent(
            time,
            node,
            kind,
            victims=detail.victims if detail is not None else (),
            slowdown=detail.slowdown if detail is not None else 1.0,
        )
        self.entries.append(event)
        return event

    def count(self) -> int:
        return len(self.entries)

    def times(self) -> list[float]:
        return [e.time for e in self.entries]

    def count_kind(self, kind: str) -> int:
        return sum(1 for e in self.entries if e.kind == kind)

    def kind_counts(self) -> dict[str, int]:
        """Kind -> injected count, sorted by kind name."""
        counts: dict[str, int] = {}
        for e in self.entries:
            counts[e.kind] = counts.get(e.kind, 0) + 1
        return dict(sorted(counts.items()))

    def to_rows(self) -> list[list]:
        return [e.to_list() for e in self.entries]


class FaultInjector:
    """Streams failures into a simulator until the job completes.

    Parameters
    ----------
    model:
        The failure process.
    nnodes:
        Nodes in the simulated allocation (sets the system failure rate).
    seed:
        Private RNG seed (independent of the simulator's model noise).
    max_faults:
        Safety bound; injection stops after this many failures.
    topology:
        Optional network topology used to resolve correlated-burst
        neighborhoods (node-index distance when omitted).
    """

    def __init__(
        self,
        model: FaultModel,
        nnodes: int,
        seed: int = 12345,
        max_faults: int = 10_000,
        topology: Optional["Topology"] = None,
    ) -> None:
        if nnodes < 1:
            raise ValueError(f"nnodes must be >= 1, got {nnodes}")
        self.model = model
        self.nnodes = nnodes
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.max_faults = max_faults
        self.topology = topology
        self.log = FaultEventLog()
        self.sim = None
        self._pending = None
        #: nodes lost to "node"/"burst"-kind failures and not yet
        #: replaced; failure draws only ever hit live nodes.
        self.failed_nodes: set[int] = set()

    # -- simulator binding --------------------------------------------------------

    def attach(self, sim) -> None:
        """Called by the simulator constructor; schedules the first fault."""
        if self.sim is not None:
            raise RuntimeError(
                "FaultInjector is already attached to a simulator; "
                "call detach() or reset() before reusing it"
            )
        self.sim = sim
        self._schedule_next()

    def detach(self) -> None:
        """Stop injecting and release the simulator binding.

        The injector stays usable: a subsequent :meth:`attach` continues
        the same failure stream (call :meth:`reset` for a fresh one).
        """
        if self.sim is not None and self._pending is not None:
            self.sim.engine.cancel(self._pending)
        self._pending = None
        self.sim = None

    def reset(self, seed: Optional[int] = None) -> None:
        """Restore constructor state so one injector can be rebuilt across
        Monte-Carlo replicas; *seed* optionally rekeys the stream."""
        self.detach()
        if seed is not None:
            self.seed = seed
        self.rng = np.random.default_rng(self.seed)
        self.log = FaultEventLog()
        self.failed_nodes.clear()

    def notify_requeue(self) -> None:
        """The job was requeued onto a repaired allocation: every
        previously failed node is back in service."""
        self.failed_nodes.clear()

    # -- failure stream -----------------------------------------------------------

    @property
    def live_nodes(self) -> int:
        return self.nnodes - len(self.failed_nodes)

    def _schedule_next(self) -> None:
        if self.log.count() >= self.max_faults or self.live_nodes < 1:
            return
        dt = self.model.draw_interarrival(self.rng, self.live_nodes)
        self._pending = self.sim.engine.schedule(dt, self._fire)

    def _fire(self, ev) -> None:
        self._pending = None
        live = [n for n in range(self.nnodes) if n not in self.failed_nodes]
        if not live:  # pragma: no cover - guarded by _schedule_next
            return
        node = int(live[int(self.rng.integers(0, len(live)))])
        kind = self.model.draw_kind(self.rng)
        detail = self.model.draw_detail(self.rng, kind, node, live, self.topology)
        if kind == "node":
            self.failed_nodes.add(node)
        elif kind == "burst":
            self.failed_nodes.update(detail.victims)
        event = self.log.add(self.sim.engine.now, node, kind, detail)
        sim = self.sim
        sim.inject_fault(node, kind, detail=detail, event=event)
        if self.sim is not None:  # the fault may abort the job and detach us
            self._schedule_next()
