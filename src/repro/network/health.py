"""Mutable health overlay over a :class:`~repro.network.topology.Topology`.

The structural topologies are immutable — they answer "how far is node a
from node b on a *healthy* interconnect".  Fault-aware simulation needs a
second, mutable layer on top: which links are down, which endpoints are
network-isolated (their switch died), and which links are de-rated or
lossy.  :class:`NetworkHealth` is that layer.

It is built over the topology's exported endpoint graph
(:meth:`Topology.to_networkx`, edge ``weight`` = hop count), so "one
link" here is one neighbour edge of the endpoint graph.  That graph is
built once per topology shape in a process (:func:`healthy_graph`) and
shared: overlays read it and never mutate it.  Routes are
recomputed over the surviving graph (weighted shortest path), which gives

* **hop inflation** — a detour around a failed link costs its real extra
  hops,
* **reachability** — :meth:`is_partitioned` / :meth:`group_partitioned`
  answer whether a pair (or a whole checkpoint group) can still
  communicate,
* **route quality** — the worst bandwidth de-rate and the combined loss
  probability along the route actually used.

Every mutation bumps :attr:`version` and invalidates the route cache, so
repeated pricing of the same pair between faults is O(1).  The overlay is
picklable (caches are dropped and rebuilt deterministically), which keeps
simulator snapshot/resume bit-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

    from repro.network.topology import Topology


class NetworkPartitionedError(RuntimeError):
    """No surviving route exists between two endpoints."""


#: how a network failure rate splits across the network fault kinds:
#: mostly link failures, occasional switch deaths, a steady trickle of
#: degraded links (cable/optics de-rate before they die)
NET_KIND_SPLIT = (("link", 0.6), ("switch", 0.1), ("netdeg", 0.3))


#: ``(topology class, its fields) -> healthy endpoint graph`` of the
#: last few topology shapes seen in this process
_GRAPHS: dict = {}
_GRAPHS_KEPT = 8


def healthy_graph(topology: "Topology") -> "nx.Graph":
    """*topology*'s endpoint graph (:meth:`Topology.to_networkx`), built
    once per topology class and parameters and shared by every caller,
    so a campaign's replicas do not rebuild it.  Callers must not mutate
    it.  A topology with an unhashable field gets a fresh build."""
    fields = tuple(sorted((k, v) for k, v in vars(topology).items() if k != "_health"))
    key = (type(topology), fields)
    try:
        graph = _GRAPHS.get(key)
    except TypeError:
        return topology.to_networkx()
    if graph is None:
        if len(_GRAPHS) >= _GRAPHS_KEPT:
            del _GRAPHS[next(iter(_GRAPHS))]
        graph = _GRAPHS[key] = topology.to_networkx()
    return graph


def link_count(topology: "Topology") -> int:
    """Number of links (neighbour edges) in *topology*'s endpoint graph."""
    return healthy_graph(topology).number_of_edges()


def aggregate_stretch(nlinks: int, failed: float) -> float:
    """Fabric-wide hop stretch with *failed* of *nlinks* links out of
    service: ``1 + 2·failed/nlinks`` (each detour costs ~2 extra hops).
    *failed* may be fractional (an expected count)."""
    if nlinks < 1:
        raise ValueError(f"nlinks must be >= 1, got {nlinks}")
    return 1.0 + 2.0 * max(0.0, failed) / nlinks


class NetworkHealth:
    """Link/endpoint failure and degradation state of one topology.

    Parameters
    ----------
    topology:
        The healthy structure.  The overlay never mutates it.
    """

    def __init__(self, topology: "Topology") -> None:
        self.topology = topology
        #: the healthy endpoint graph, shared (:func:`healthy_graph`)
        self._graph = healthy_graph(topology)
        #: links in the healthy endpoint graph (the "k failed of L" base)
        self.nlinks = self._graph.number_of_edges()
        self.failed_links: set[frozenset] = set()
        self.failed_nodes: set[int] = set()
        #: edge -> (bandwidth de-rate factor >= 1, loss probability)
        self.degraded: dict[frozenset, tuple[float, float]] = {}
        #: bumped on every mutation; cache invalidation token
        self.version = 0
        self._route_cache: dict[tuple[int, int], Optional[list[int]]] = {}
        self._surviving: Optional[nx.Graph] = None
        self._penalty: Optional[tuple[float, float, float]] = None
        #: node -> healthy-graph component id (baseline is immutable, so
        #: this cache is never dirtied by overlay mutations)
        self._baseline_comp: Optional[dict[int, int]] = None

    # -- state -------------------------------------------------------------------

    @property
    def healthy(self) -> bool:
        """True when no failure or degradation is active (fast path)."""
        return not (self.failed_links or self.failed_nodes or self.degraded)

    def _edge_key(self, a: int, b: int) -> frozenset:
        self.topology._check_node(a)
        self.topology._check_node(b)
        if not self._graph.has_edge(a, b):
            raise ValueError(
                f"({a}, {b}) is not a link of {type(self.topology).__name__}; "
                f"links are neighbour edges of the endpoint graph"
            )
        return frozenset((a, b))

    def _dirty(self) -> None:
        self.version += 1
        self._route_cache.clear()
        self._surviving = None
        self._penalty = None

    # -- mutations ----------------------------------------------------------------

    def fail_link(self, a: int, b: int) -> None:
        """Take the a–b link out of service."""
        self.failed_links.add(self._edge_key(a, b))
        self._dirty()

    def repair_link(self, a: int, b: int) -> None:
        """Restore the a–b link (clears failure *and* degradation)."""
        key = self._edge_key(a, b)
        self.failed_links.discard(key)
        self.degraded.pop(key, None)
        self._dirty()

    def degrade_link(
        self, a: int, b: int, derate: float = 2.0, loss_prob: float = 0.0
    ) -> None:
        """De-rate the a–b link's bandwidth by *derate* (>= 1) and make it
        drop messages with *loss_prob* (each drop costs one retransmit)."""
        if derate < 1.0:
            raise ValueError(f"derate must be >= 1, got {derate}")
        if not 0.0 <= loss_prob < 1.0:
            raise ValueError(f"loss_prob must be in [0, 1), got {loss_prob}")
        self.degraded[self._edge_key(a, b)] = (float(derate), float(loss_prob))
        self._dirty()

    def fail_node(self, node: int) -> None:
        """Network-isolate *node* (its switch/NIC died: every incident
        link is down; the node itself may keep computing)."""
        self.topology._check_node(node)
        self.failed_nodes.add(int(node))
        self._dirty()

    def repair_node(self, node: int) -> None:
        self.topology._check_node(node)
        self.failed_nodes.discard(int(node))
        self._dirty()

    def reset(self) -> None:
        """Back to a fully healthy network (job requeued onto a repaired
        allocation, or start of a fresh run)."""
        self.failed_links.clear()
        self.failed_nodes.clear()
        self.degraded.clear()
        self._dirty()

    # -- routing ------------------------------------------------------------------

    def _baseline_components(self) -> dict[int, int]:
        if self._baseline_comp is None:
            import networkx as nx

            comp: dict[int, int] = {}
            for i, members in enumerate(nx.connected_components(self._graph)):
                for n in members:
                    comp[n] = i
            self._baseline_comp = comp
        return self._baseline_comp

    def baseline_connected(self, a: int, b: int) -> bool:
        """True when the *healthy* endpoint graph connects *a* and *b*
        by neighbour edges.

        Hierarchical topologies (fat tree) route other pairs through
        internal core switches the endpoint graph does not carry; the
        overlay cannot track those routes per-edge, so such pairs are
        never reported partitioned — they are priced with the
        fabric-wide :meth:`aggregate_penalty` instead.
        """
        self.topology._check_node(a)
        self.topology._check_node(b)
        comp = self._baseline_components()
        return comp[a] == comp[b]

    def _surviving_graph(self) -> nx.Graph:
        if self._surviving is None:
            import networkx as nx

            self._surviving = nx.restricted_view(
                self._graph,
                nodes=list(self.failed_nodes),
                edges=[tuple(e) for e in self.failed_links],
            )
        return self._surviving

    def route(self, a: int, b: int) -> Optional[list[int]]:
        """Endpoint sequence of the surviving min-hop route, or None when
        *a* and *b* are partitioned (or an endpoint is isolated)."""
        self.topology._check_node(a)
        self.topology._check_node(b)
        key = (a, b) if a <= b else (b, a)
        if key in self._route_cache:
            path = self._route_cache[key]
        else:
            import networkx as nx

            try:
                path = nx.shortest_path(
                    self._surviving_graph(), key[0], key[1], weight="weight"
                )
            except (nx.NetworkXNoPath, nx.NodeNotFound):
                path = None
            self._route_cache[key] = path
        if path is None or key == (a, b):
            return path
        return list(reversed(path))

    def hop_count(self, a: int, b: int) -> Optional[int]:
        """Hops along the surviving route (None when partitioned)."""
        q = self.route_quality(a, b)
        return None if q is None else q[0]

    def route_quality(
        self, a: int, b: int
    ) -> Optional[tuple[int, float, float]]:
        """``(hops, worst_derate, combined_loss)`` of the surviving a→b
        route, or None when the pair is partitioned.

        Hops sum the healthy hop-count weights of the traversed edges, so
        a detour is priced in the same unit the structural topology uses.
        The de-rate is the worst factor along the route (the bottleneck
        link bounds throughput); losses combine as independent drops.
        """
        path = self.route(a, b)
        if path is None:
            return None
        hops = 0
        derate = 1.0
        survive = 1.0
        for u, v in zip(path, path[1:]):
            hops += self._graph[u][v].get("weight", 1)
            deg = self.degraded.get(frozenset((u, v)))
            if deg is not None:
                derate = max(derate, deg[0])
                survive *= 1.0 - deg[1]
        return hops, derate, 1.0 - survive

    def is_partitioned(self, a: int, b: int) -> bool:
        """True when *a* and *b* were reachable on the healthy fabric
        and no surviving route connects them now."""
        if a == b:
            return int(a) in self.failed_nodes
        if int(a) in self.failed_nodes or int(b) in self.failed_nodes:
            return True
        if not self.baseline_connected(a, b):
            return False  # core-routed pair: not tracked per-edge
        return self.route(a, b) is None

    def group_partitioned(self, nodes: Iterable[int]) -> bool:
        """True when the node group cannot rendezvous: some member is
        isolated, or members that shared a healthy component have been
        split across surviving components."""
        members = sorted(set(int(n) for n in nodes))
        if not members:
            return False
        if any(n in self.failed_nodes for n in members):
            return True
        if len(members) == 1:
            return False
        baseline = self._baseline_components()
        by_comp: dict[int, list[int]] = {}
        for n in members:
            by_comp.setdefault(baseline[n], []).append(n)
        import networkx as nx

        g = self._surviving_graph()
        for comp_members in by_comp.values():
            if len(comp_members) < 2:
                continue
            component = nx.node_connected_component(g, comp_members[0])
            if any(n not in component for n in comp_members[1:]):
                return True
        return False

    # -- aggregate penalty ---------------------------------------------------------

    def aggregate_penalty(self) -> tuple[float, float, float]:
        """``(hop_stretch, worst_derate, worst_loss)`` summarising the
        whole fabric for collective pricing.

        Collectives touch routes all over the machine, so they are priced
        with a fabric-wide expectation instead of per-pair routing: the
        hop stretch is :func:`aggregate_stretch` of the out-of-service
        links (links removed by isolated endpoints count as failed); the
        worst active de-rate and loss bound the bandwidth term.  Cached
        until the next mutation.
        """
        if self._penalty is None:
            out = len(self.failed_links)
            for n in self.failed_nodes:
                for peer in self._graph[n]:
                    if frozenset((n, peer)) not in self.failed_links:
                        out += 1
            stretch = aggregate_stretch(self.nlinks, out) if self.nlinks else 1.0
            derate = max((d for d, _ in self.degraded.values()), default=1.0)
            loss = max((l for _, l in self.degraded.values()), default=0.0)
            self._penalty = (stretch, derate, loss)
        return self._penalty

    # -- pickling (snapshot/resume) -------------------------------------------------

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # Caches are views into the graph and rebuild deterministically.
        state["_route_cache"] = {}
        state["_surviving"] = None
        state["_penalty"] = None
        state["_baseline_comp"] = None
        return state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NetworkHealth(failed_links={len(self.failed_links)}, "
            f"failed_nodes={sorted(self.failed_nodes)}, "
            f"degraded={len(self.degraded)})"
        )
