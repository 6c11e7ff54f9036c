"""Topology interface and trivial topologies.

A topology answers structural questions — how many hops between two
nodes, who are a node's neighbours — leaving time/cost to the
communication models layered on top.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

    from repro.network.health import NetworkHealth


class NodeRangeError(IndexError, ValueError):
    """An endpoint id outside ``[0, num_nodes)`` was passed to a topology.

    Subclasses both :class:`IndexError` (the historical contract of
    ``hop_count``/``neighbors``) and :class:`ValueError` so either
    expectation holds; the message always names the offending id and the
    valid range.
    """


class Topology(abc.ABC):
    """Abstract interconnect topology over ``num_nodes`` endpoints.

    Node endpoints are integers ``0..num_nodes-1``.  Switches (if any) are
    internal and only visible through hop counts and the exported graph.
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        self.num_nodes = int(num_nodes)
        #: lazily created fault overlay; None while the network is
        #: untouched, so fault-free pricing stays a single attribute check
        self._health: "NetworkHealth | None" = None

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise NodeRangeError(
                f"node {node} out of range [0, {self.num_nodes})"
            )

    @abc.abstractmethod
    def hop_count(self, a: int, b: int) -> int:
        """Number of link traversals on the route from *a* to *b* (0 if
        ``a == b``)."""

    @abc.abstractmethod
    def neighbors(self, node: int) -> list[int]:
        """Directly adjacent endpoint nodes (one switch/link away at
        minimum distance)."""

    def diameter(self) -> int:
        """Maximum hop count over all node pairs (may be O(n^2))."""
        return max(
            self.hop_count(a, b)
            for a in range(self.num_nodes)
            for b in range(self.num_nodes)
        )

    def to_networkx(self) -> nx.Graph:
        """Endpoint-level graph with ``weight`` = hop count, for analysis
        and partitioning.  Only includes neighbour edges."""
        import networkx as nx  # only fault routing and analysis need it

        g = nx.Graph()
        g.add_nodes_from(range(self.num_nodes))
        for a in range(self.num_nodes):
            for b in self.neighbors(a):
                g.add_edge(a, b, weight=self.hop_count(a, b))
        return g

    # -- fault overlay ---------------------------------------------------------

    def health(self) -> "NetworkHealth":
        """The mutable fault overlay, created on first use.

        The structure itself stays immutable; failures, degradations and
        repairs live in the overlay and are consumed by the communication
        model (reroute pricing) and the simulator (partition handling).
        """
        if self._health is None:
            from repro.network.health import NetworkHealth

            self._health = NetworkHealth(self)
        return self._health


class FullyConnected(Topology):
    """Every node one switch away from every other (crossbar).

    Useful as a neutral baseline and for small unit tests.
    """

    def hop_count(self, a: int, b: int) -> int:
        self._check_node(a)
        self._check_node(b)
        return 0 if a == b else 2

    def neighbors(self, node: int) -> list[int]:
        self._check_node(node)
        return [n for n in range(self.num_nodes) if n != node]
