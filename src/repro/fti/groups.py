"""Rank / node / FTI-group layout.

FTI arranges ranks onto nodes (``node_size`` ranks per node) and nodes
into groups (``group_size`` nodes per group).  Levels 2 and 3 operate
within a group: partner copies go to the following node(s) in ring order
within the group, and RS coding spans the group's nodes.
"""

from __future__ import annotations

from repro.fti.config import FTIConfig


class GroupLayout:
    """Deterministic rank→node→group assignment.

    Ranks fill nodes contiguously; nodes fill groups contiguously.  This
    matches FTI's default topology file.
    """

    def __init__(self, nranks: int, config: FTIConfig) -> None:
        config.validate_ranks(nranks)
        self.nranks = int(nranks)
        self.config = config
        self.nnodes = nranks // config.node_size
        self.ngroups = self.nnodes // config.group_size

    # -- mapping ---------------------------------------------------------------

    def node_of_rank(self, rank: int) -> int:
        self._check_rank(rank)
        return rank // self.config.node_size

    def ranks_of_node(self, node: int) -> list[int]:
        self._check_node(node)
        base = node * self.config.node_size
        return list(range(base, base + self.config.node_size))

    def group_of_node(self, node: int) -> int:
        self._check_node(node)
        return node // self.config.group_size

    def nodes_of_group(self, group: int) -> list[int]:
        if not 0 <= group < self.ngroups:
            raise IndexError(f"group {group} out of range [0, {self.ngroups})")
        base = group * self.config.group_size
        return list(range(base, base + self.config.group_size))

    def partners_of_node(self, node: int) -> list[int]:
        """The node(s) that hold this node's L2 partner copies: the next
        ``partner_copies`` nodes in ring order within the group."""
        group = self.group_of_node(node)
        members = self.nodes_of_group(group)
        idx = members.index(node)
        g = len(members)
        return [
            members[(idx + offset) % g]
            for offset in range(1, self.config.partner_copies + 1)
        ]

    # -- validation ---------------------------------------------------------------

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.nranks:
            raise IndexError(f"rank {rank} out of range [0, {self.nranks})")

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.nnodes:
            raise IndexError(f"node {node} out of range [0, {self.nnodes})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GroupLayout(ranks={self.nranks}, nodes={self.nnodes}, "
            f"groups={self.ngroups})"
        )
