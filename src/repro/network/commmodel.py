"""Communication cost models (LogGP plus simple collectives).

The LogGP family models a point-to-point message as

    t = L·hops + 2·o + G·bytes

with ``L`` per-hop latency, ``o`` per-end software overhead, and ``G``
time per byte (inverse bandwidth).  An optional contention factor de-rates
bandwidth when a route crosses an oversubscribed stage (fat-tree uplinks).

Collectives are modeled as logarithmic-stage algorithms over the
point-to-point primitive — the standard coarse-grained treatment, and
exactly the granularity BE-SST needs for coordinated checkpointing costs.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.network.health import NetworkHealth, NetworkPartitionedError
from repro.network.topology import Topology


class LogGPModel:
    """Point-to-point message timing on a topology.

    Parameters
    ----------
    topology:
        Supplies hop counts and (for fat trees) oversubscription.
    latency_per_hop:
        Seconds per link traversal (``L``).
    overhead:
        Per-endpoint software overhead in seconds (``o``), counted twice.
    bytes_per_second:
        Link bandwidth (``1/G``).
    contention_factor:
        Extra de-rating multiplier (>1 slows transfers) applied when the
        route actually used runs beyond the minimal 2-hop neighbourhood
        (e.g. crosses the fat-tree core — or detours around a failed
        link).  Defaults to the topology's oversubscription for
        :class:`~repro.network.fattree.TwoStageFatTree`, else 1.
    retransmit_timeout:
        Loss-detection timeout charged per expected retransmission when
        a route crosses a lossy (degraded) link.

    When the topology carries an *unhealthy* fault overlay
    (:meth:`Topology.health`), point-to-point messages are priced over
    the surviving route — hop inflation on reroute, the worst de-rated
    ``G`` along the route, and timeout + retransmit delay on lossy links
    — and :class:`NetworkPartitionedError` is raised for unreachable
    pairs.  ``stats`` counts reroutes (messages priced over a detour)
    and expected retransmissions; both stay untouched on the healthy
    path.
    """

    def __init__(
        self,
        topology: Topology,
        latency_per_hop: float = 100e-9,
        overhead: float = 300e-9,
        bytes_per_second: float = 12.5e9,
        contention_factor: Optional[float] = None,
        retransmit_timeout: float = 50e-6,
    ) -> None:
        if latency_per_hop < 0 or overhead < 0:
            raise ValueError("latencies must be non-negative")
        if bytes_per_second <= 0:
            raise ValueError("bandwidth must be positive")
        if retransmit_timeout < 0:
            raise ValueError(
                f"retransmit_timeout must be >= 0, got {retransmit_timeout}"
            )
        self.topology = topology
        self.L = float(latency_per_hop)
        self.o = float(overhead)
        self.G = 1.0 / float(bytes_per_second)
        if contention_factor is None:
            contention_factor = getattr(topology, "oversubscription", 1.0)
        if contention_factor < 1.0:
            raise ValueError(
                f"contention_factor must be >= 1, got {contention_factor}"
            )
        self.contention_factor = float(contention_factor)
        self.retransmit_timeout = float(retransmit_timeout)
        #: fault-path accounting: "reroutes" (messages priced over a
        #: detour) and "retransmits" (expected retransmissions on lossy
        #: routes); zero-cost while the network is healthy
        self.stats: dict[str, float] = {"reroutes": 0.0, "retransmits": 0.0}
        self._diameter: Optional[int] = None

    def _contention(self, hops: int) -> float:
        """Bandwidth de-rating for a route of *hops* link traversals.

        Computed from the route actually used: routes beyond the minimal
        2-hop neighbourhood cross a shared stage and see oversubscription
        under load — including healthy-minimal routes inflated past two
        hops by a reroute around a failure.
        """
        return self.contention_factor if hops > 2 else 1.0

    def _overlay(self) -> Optional[NetworkHealth]:
        """The topology's fault overlay, or None when pricing can take
        the (unchanged) healthy fast path."""
        h = self.topology._health
        if h is None or h.healthy:
            return None
        return h

    def _lossy(self, t: float, loss: float) -> float:
        """Expected delivery time of a *t*-second message over a route
        dropping it with probability *loss* (geometric retries, one
        timeout per retry)."""
        if loss <= 0.0:
            return t
        tries = 1.0 / (1.0 - loss)
        self.stats["retransmits"] += tries - 1.0
        return t * tries + (tries - 1.0) * self.retransmit_timeout

    def p2p_time(self, src: int, dst: int, nbytes: int) -> float:
        """Seconds to move *nbytes* from node *src* to node *dst*.

        Raises :class:`NetworkPartitionedError` when the fault overlay
        has severed every src→dst route.
        """
        if nbytes < 0:
            raise ValueError(f"negative message size {nbytes}")
        if src == dst:
            # Intra-node copy: overhead plus memcpy at ~10x network rate.
            return self.o + self.G * nbytes / 10.0
        h = self._overlay()
        if h is None:
            hops = self.topology.hop_count(src, dst)
            return (
                self.L * hops
                + 2 * self.o
                + self.G * nbytes * self._contention(hops)
            )
        quality = h.route_quality(src, dst)
        if quality is None:
            if h.baseline_connected(src, dst) or h.is_partitioned(src, dst):
                raise NetworkPartitionedError(
                    f"no surviving route from node {src} to node {dst} "
                    f"({len(h.failed_links)} link(s) and "
                    f"{len(h.failed_nodes)} endpoint(s) down)"
                )
            # Core-routed pair (fat tree cross-switch): the endpoint
            # graph carries no per-edge route to de-rate, so price the
            # healthy formula under the fabric-wide penalty.
            stretch, derate, loss = h.aggregate_penalty()
            hops = self.topology.hop_count(src, dst)
            t = (
                self.L * hops * stretch
                + 2 * self.o
                + self.G * nbytes * self._contention(hops) * derate
            )
            return self._lossy(t, loss)
        hops, derate, loss = quality
        if hops != self.topology.hop_count(src, dst):
            self.stats["reroutes"] += 1.0
        t = (
            self.L * hops
            + 2 * self.o
            + self.G * nbytes * self._contention(hops) * derate
        )
        return self._lossy(t, loss)

    def p2p_penalty(self, src: int, dst: int, nbytes: int = 1 << 20) -> float:
        """Faulty/healthy time ratio for one src→dst transfer — the
        multiplier degraded-network checkpoint traffic pays."""
        if src == dst:
            return 1.0
        hops = self.topology.hop_count(src, dst)
        healthy = (
            self.L * hops
            + 2 * self.o
            + self.G * nbytes * self._contention(hops)
        )
        if healthy <= 0.0:
            return 1.0
        return self.p2p_time(src, dst, nbytes) / healthy

    def neighbor_time(self, nbytes: int) -> float:
        """Typical minimal-distance (2-hop) transfer time."""
        h = self._overlay()
        if h is None:
            return self.L * 2 + 2 * self.o + self.G * nbytes
        stretch, derate, loss = h.aggregate_penalty()
        t = self.L * 2 * stretch + 2 * self.o + self.G * nbytes * derate
        return self._lossy(t, loss)

    def far_time(self, nbytes: int) -> float:
        """Typical maximal-distance transfer time (crosses the core)."""
        if self._diameter is None:
            self._diameter = self.topology.diameter()
        d = self._diameter
        h = self._overlay()
        if h is None:
            return (
                self.L * d + 2 * self.o + self.G * nbytes * self.contention_factor
            )
        # Collectives touch routes machine-wide: price them with the
        # overlay's fabric-wide expectation (hop stretch from detours,
        # worst active de-rate/loss) instead of per-pair routing.
        stretch, derate, loss = h.aggregate_penalty()
        t = (
            self.L * d * stretch
            + 2 * self.o
            + self.G * nbytes * self.contention_factor * derate
        )
        return self._lossy(t, loss)


class CollectiveCostModel:
    """Logarithmic-stage collective costs over a :class:`LogGPModel`."""

    def __init__(self, p2p: LogGPModel) -> None:
        self.p2p = p2p
        #: ``(op, nranks, nbytes)`` -> price on the healthy fabric
        self._healthy: dict[tuple, float] = {}

    def price(self, op: str, nranks: int, nbytes: int = 0) -> float:
        """Seconds of collective *op* over *nranks* ranks, *nbytes* as
        the op reads it.  On a healthy fabric the price depends on these
        arguments alone and is memoised; while a fault overlay is active
        it is priced afresh, so detours and retransmission ``stats``
        count every call."""
        healthy = self.p2p._overlay() is None
        if healthy:
            cost = self._healthy.get((op, nranks, nbytes))
            if cost is not None:
                return cost
        if op == "barrier":
            cost = self.barrier(nranks)
        elif op in ("allreduce", "broadcast", "reduce", "gather", "alltoall"):
            cost = getattr(self, op)(nranks, nbytes)
        else:
            raise ValueError(f"unpriced collective {op!r}")
        if healthy:
            self._healthy[(op, nranks, nbytes)] = cost
        return cost

    def _stages(self, nranks: int) -> int:
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        return max(1, math.ceil(math.log2(nranks))) if nranks > 1 else 0

    def barrier(self, nranks: int) -> float:
        """Dissemination barrier: ceil(log2 p) rounds of empty messages."""
        return self._stages(nranks) * self.p2p.far_time(0)

    def broadcast(self, nranks: int, nbytes: int) -> float:
        """Binomial-tree broadcast."""
        return self._stages(nranks) * self.p2p.far_time(nbytes)

    def reduce(self, nranks: int, nbytes: int, op_time_per_byte: float = 0.0) -> float:
        """Binomial-tree reduction with optional per-byte compute."""
        s = self._stages(nranks)
        return s * (self.p2p.far_time(nbytes) + op_time_per_byte * nbytes)

    def allreduce(self, nranks: int, nbytes: int, op_time_per_byte: float = 0.0) -> float:
        """Reduce + broadcast (the classic 2·log2 p construction)."""
        return self.reduce(nranks, nbytes, op_time_per_byte) + self.broadcast(
            nranks, nbytes
        )

    def gather(self, nranks: int, nbytes_per_rank: int) -> float:
        """Linear gather bounded by the root's ingest bandwidth."""
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        if nranks == 1:
            return 0.0
        return self.p2p.far_time(nbytes_per_rank * (nranks - 1))

    def alltoall(self, nranks: int, nbytes_per_pair: int) -> float:
        """Pairwise-exchange all-to-all: p-1 rounds."""
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        return (nranks - 1) * self.p2p.far_time(nbytes_per_pair)
