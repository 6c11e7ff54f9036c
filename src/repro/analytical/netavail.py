"""Closed-form network availability and degraded-fabric slowdown.

Cross-checks for the simulator's network fault domain
(:mod:`repro.network.health`), in the same spirit as the Young/Daly
waste cross-check: a renewal-style expectation the Monte-Carlo results
must agree with to within the documented tolerance band.

The model: link failures arrive Poisson at ``1 / link_mtbf_s`` per link
and each outage lasts ``repair_s`` (M/G/infinity — outages overlap
freely), so the steady-state expected number of concurrently failed
links is ``nlinks * repair_s / (link_mtbf_s + repair_s)``.  Each failed
link detours the traffic crossing it; with ``k`` failed links of ``L``
the fabric-wide hop stretch mirrors the simulator's aggregate penalty,
``1 + 2k/L``.  Endpoint isolation (every incident link dead — the pair
is *partitioned*, not just slowed) is bounded by a hypergeometric union
bound over the endpoints.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.network.commmodel import LogGPModel
from repro.network.health import NET_KIND_SPLIT, aggregate_stretch
from repro.network.topology import Topology


def steady_state_failed_links(
    nlinks: int, link_mtbf_s: float, repair_s: float
) -> float:
    """Expected concurrently failed links (M/G/infinity occupancy)."""
    if nlinks < 1:
        raise ValueError(f"nlinks must be >= 1, got {nlinks}")
    if link_mtbf_s <= 0:
        raise ValueError(f"link_mtbf_s must be > 0, got {link_mtbf_s}")
    if repair_s < 0:
        raise ValueError(f"repair_s must be >= 0, got {repair_s}")
    return nlinks * repair_s / (link_mtbf_s + repair_s)


def single_link_stretch(topology: Topology) -> float:
    """Exact mean route stretch of one failed link, by enumeration.

    For every link of the endpoint graph: remove it, recompute all-pairs
    weighted shortest paths, and average ``hops_after / hops_before``
    over the pairs that stay connected.  The mean over links is the
    exact one-failure counterpart of the ``1 + 2/L`` aggregate bound —
    small topologies only (O(L · n²) Dijkstra work).
    """
    import networkx as nx

    g = topology.to_networkx()
    base = dict(nx.all_pairs_dijkstra_path_length(g, weight="weight"))
    pairs = [
        (a, b)
        for a in g.nodes
        for b in g.nodes
        if a < b and b in base.get(a, {})
    ]
    if not pairs or g.number_of_edges() == 0:
        return 1.0
    base_total = sum(base[a][b] for a, b in pairs)
    if base_total <= 0:
        return 1.0
    stretches = []
    for edge in sorted(tuple(sorted(e)) for e in g.edges):
        h = nx.restricted_view(g, nodes=[], edges=[edge])
        after = dict(nx.all_pairs_dijkstra_path_length(h, weight="weight"))
        total = 0.0
        connected = True
        for a, b in pairs:
            d = after.get(a, {}).get(b)
            if d is None:
                connected = False
                break
            total += d
        if not connected:
            continue  # this link was a cut edge: a partition, not a detour
        stretches.append(total / base_total)
    return sum(stretches) / len(stretches) if stretches else 1.0


def expected_stretch(topology: Topology, k: float) -> float:
    """Expected route stretch with *k* (possibly fractional, an
    expectation) failed links, linearised from the exact one-failure
    enumeration: ``1 + k·(single_link_stretch − 1)``."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return 1.0 + k * (single_link_stretch(topology) - 1.0)


def torus_stretch_bound(topology: Topology, k: float) -> float:
    """Closed-form torus stretch bound ``1 + 2k/L``: each failed torus
    link detours its minimal routes around one ring step (2 extra
    hops)."""
    g = topology.to_networkx()
    return aggregate_stretch(g.number_of_edges(), k)


def fattree_degrade(topology: Topology, k: float) -> float:
    """Fat-tree bandwidth de-rate with *k* failed core uplinks: the
    surviving ``U − k`` uplinks carry the same cross-switch traffic, so
    effective bandwidth de-rates by ``1 / (1 − k/U)`` (unbounded as the
    last uplink dies; clamped at full outage)."""
    uplinks = getattr(topology, "uplinks_per_edge", None)
    num_edge = getattr(topology, "num_edge_switches", None)
    if uplinks is None or num_edge is None:
        raise ValueError(
            f"{type(topology).__name__} is not a fat tree (no uplink structure)"
        )
    total = uplinks * num_edge
    if k >= total:
        return math.inf
    return 1.0 / (1.0 - k / total)


def isolation_probability(topology: Topology, k: int) -> float:
    """Union bound on P(some endpoint loses *all* incident links) when
    *k* of the *L* links fail uniformly at random (hypergeometric):
    ``Σ_n C(L − deg(n), k − deg(n)) / C(L, k)``."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    g = topology.to_networkx()
    nlinks = g.number_of_edges()
    if nlinks == 0 or k == 0:
        return 0.0
    k = min(k, nlinks)
    denom = math.comb(nlinks, k)
    p = 0.0
    for n in g.nodes:
        deg = g.degree[n]
        if deg <= k:
            p += math.comb(nlinks - deg, k - deg) / denom
    return min(1.0, p)


def expected_availability(topology: Topology, k: int) -> float:
    """Probability no endpoint is isolated with *k* random failed links
    (1 − the isolation union bound, clamped)."""
    return max(0.0, 1.0 - isolation_probability(topology, k))


def active_probability(event_rate_per_s: float, repair_s: float) -> float:
    """Stationary probability that at least one outage is active, for
    Poisson arrivals at *event_rate_per_s* each lasting *repair_s*
    (M/G/infinity occupancy is Poisson with mean ``rate · repair``):
    ``1 − exp(−rate·repair)``."""
    if event_rate_per_s < 0:
        raise ValueError(f"event_rate_per_s must be >= 0, got {event_rate_per_s}")
    if repair_s < 0:
        raise ValueError(f"repair_s must be >= 0, got {repair_s}")
    return 1.0 - math.exp(-event_rate_per_s * repair_s)


def _far_time(
    model: LogGPModel,
    nbytes: int,
    stretch: float = 1.0,
    derate: float = 1.0,
    loss: float = 0.0,
) -> float:
    """:meth:`LogGPModel.far_time` under a fabric-wide ``(stretch,
    derate, loss)`` penalty, without its retransmit timeout; the
    defaults give the healthy time."""
    return (
        model.L * model.topology.diameter() * stretch
        + 2 * model.o
        + model.G * nbytes * model.contention_factor * derate
    ) / (1.0 - loss)


def degraded_collective_inflation(
    topology: Topology,
    nbytes: int,
    degrade_factor: float = 4.0,
    loss_prob: float = 0.05,
) -> float:
    """``far_time`` inflation *conditional on* an active link
    degradation: the bandwidth term de-rates by the full
    ``degrade_factor`` and every message pays the retransmission factor
    ``1/(1 − loss_prob)`` — the deterministic ratio one degraded window
    imposes, to be time-shared via :func:`time_shared_slowdown`."""
    if degrade_factor < 1.0:
        raise ValueError(f"degrade_factor must be >= 1, got {degrade_factor}")
    if not 0.0 <= loss_prob < 1.0:
        raise ValueError(f"loss_prob must be in [0, 1), got {loss_prob}")
    model = LogGPModel(topology)
    healthy = _far_time(model, nbytes)
    faulty = _far_time(model, nbytes, derate=degrade_factor, loss=loss_prob)
    return faulty / healthy if healthy > 0 else 1.0


def time_shared_slowdown(active_fraction: float, inflation: float) -> float:
    """Whole-run slowdown when a fraction *active_fraction* of **wall
    time** runs inflated by *inflation*.

    Work completes at rate ``1`` while healthy and ``1/inflation`` while
    degraded, so the mean rate is the time-weighted harmonic mean and
    the slowdown is its inverse: ``1 / ((1−f) + f/inflation)``.  This is
    *not* ``1 + f·(inflation−1)`` — degraded windows cover fewer
    timesteps precisely because each one is slower (length-biased
    sampling), which the arithmetic form overstates.
    """
    if not 0.0 <= active_fraction <= 1.0:
        raise ValueError(
            f"active_fraction must be in [0,1], got {active_fraction}"
        )
    if inflation < 1.0:
        raise ValueError(f"inflation must be >= 1, got {inflation}")
    return 1.0 / ((1.0 - active_fraction) + active_fraction / inflation)


def expected_slowdown(comm_fraction: float, inflation: float) -> float:
    """Application slowdown when the communication share of the runtime
    (``comm_fraction``) inflates by ``inflation``:
    ``1 + comm_fraction·(inflation − 1)`` (Amdahl over the network
    term)."""
    if not 0.0 <= comm_fraction <= 1.0:
        raise ValueError(f"comm_fraction must be in [0,1], got {comm_fraction}")
    if inflation < 1.0:
        raise ValueError(f"inflation must be >= 1, got {inflation}")
    return 1.0 + comm_fraction * (inflation - 1.0)


def expected_collective_inflation(
    topology: Topology,
    nbytes: int,
    link_mtbf_s: float,
    repair_s: float,
    split: Optional[Sequence[tuple[str, float]]] = None,
    degrade_factor: float = 4.0,
    loss_prob: float = 0.05,
) -> float:
    """Expected steady-state inflation of one ``far_time`` collective
    message under the link failure process — the analytic mirror of
    :meth:`LogGPModel.far_time` over the health overlay.

    Per-kind outage occupancies follow M/G/infinity: with total fabric
    event rate ``L / link_mtbf_s`` split across kinds, kind *i* has
    ``N_i = rate_i · repair_s`` expected concurrent outages.  Failed
    links (link faults, plus switch deaths times the mean degree)
    stretch the latency term; an active degradation (probability
    ``1 − exp(−N_netdeg)``, Poisson) de-rates the bandwidth term by
    ``degrade_factor`` and multiplies by the retransmission factor
    ``1 / (1 − loss_prob)``.
    """
    if link_mtbf_s <= 0:
        raise ValueError(f"link_mtbf_s must be > 0, got {link_mtbf_s}")
    if repair_s < 0:
        raise ValueError(f"repair_s must be >= 0, got {repair_s}")
    if split is None:
        split = NET_KIND_SPLIT
    shares = {k: 0.0 for k in ("link", "switch", "netdeg")}
    for kind, w in split:
        if kind not in shares:
            raise ValueError(f"unknown network kind {kind!r} in split")
        shares[kind] += float(w)
    g = topology.to_networkx()
    nlinks = g.number_of_edges()
    nnodes = g.number_of_nodes()
    if nlinks == 0:
        return 1.0
    rate = nlinks / link_mtbf_s
    n_link = rate * shares["link"] * repair_s
    n_switch = rate * shares["switch"] * repair_s
    n_netdeg = rate * shares["netdeg"] * repair_s
    mean_degree = 2.0 * nlinks / nnodes
    out = n_link + n_switch * mean_degree
    stretch = aggregate_stretch(nlinks, out)
    p_deg = 1.0 - math.exp(-n_netdeg)
    derate = 1.0 + p_deg * (degrade_factor - 1.0)
    loss = p_deg * loss_prob
    model = LogGPModel(topology)
    healthy = _far_time(model, nbytes)
    faulty = _far_time(model, nbytes, stretch, derate, loss)
    return faulty / healthy if healthy > 0 else 1.0
