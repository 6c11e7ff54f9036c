"""FTI configuration: checkpoint levels and library parameters."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class CheckpointLevel(enum.IntEnum):
    """The four FTI checkpoint levels of Table I."""

    L1 = 1  #: checkpoint file saved on local node
    L2 = 2  #: local + sent to neighbour node(s) in group
    L3 = 3  #: Reed-Solomon erasure coding across the group
    L4 = 4  #: flushed to the parallel file system

    def describe(self) -> str:
        return {
            CheckpointLevel.L1: "checkpoint file saved on local node",
            CheckpointLevel.L2: (
                "checkpoint file saved on local node AND sent to neighbor "
                "node(s) in group"
            ),
            CheckpointLevel.L3: (
                "checkpoint files encoded via Reed-Solomon (RS) erasure code"
            ),
            CheckpointLevel.L4: (
                "all checkpoint files flushed to parallel file system"
            ),
        }[self]


@dataclass
class FTIConfig:
    """Parameters of the checkpoint library.

    Parameters
    ----------
    group_size:
        Nodes per FTI group (the paper's case study uses 4).
    node_size:
        Ranks per node (the paper's case study uses 2).
    partner_copies:
        Neighbour nodes receiving an L2 partner copy.  The paper's text
        describes two neighbours; classic FTI uses one.  Default 2 to
        match the paper.
    ckpt_interval:
        Timesteps between checkpoints (40 in the case study), exposed here
        for convenience of workflow drivers.
    keep_versions:
        Checkpoint versions retained per level.  1 (classic FTI) purges
        the previous instance as soon as a new one commits; > 1 keeps a
        history so recovery can reach *past* a version invalidated after
        the fact — the silent-data-corruption case, where the newest
        checkpoint was written while the corruption was already latent.
    """

    group_size: int = 4
    node_size: int = 2
    partner_copies: int = 2
    ckpt_interval: int = 40
    keep_versions: int = 1

    def __post_init__(self) -> None:
        if self.group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {self.group_size}")
        if self.keep_versions < 1:
            raise ValueError(
                f"keep_versions must be >= 1, got {self.keep_versions}"
            )
        if self.node_size < 1:
            raise ValueError(f"node_size must be >= 1, got {self.node_size}")
        if not 0 <= self.partner_copies < self.group_size or (
            self.group_size == 1 and self.partner_copies > 0
        ):
            raise ValueError(
                f"partner_copies={self.partner_copies} must be in "
                f"[0, group_size={self.group_size})"
            )
        if self.ckpt_interval < 1:
            raise ValueError(f"ckpt_interval must be >= 1, got {self.ckpt_interval}")

    @property
    def ranks_multiple(self) -> int:
        """FTI requires the rank count to be a multiple of
        ``group_size * node_size``."""
        return self.group_size * self.node_size

    def validate_ranks(self, nranks: int) -> None:
        if nranks < 1 or nranks % self.ranks_multiple != 0:
            raise ValueError(
                f"FTI requires ranks ({nranks}) to be a positive multiple of "
                f"group_size*node_size = {self.ranks_multiple}"
            )
