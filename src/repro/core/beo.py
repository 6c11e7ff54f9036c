"""Behavioral Emulation Objects: AppBEO and ArchBEO.

* An :class:`AppBEO` produces each rank's abstract instruction stream for
  a given parameter set (SPMD apps return the same stream for all ranks).
* An :class:`ArchBEO` describes the simulated hardware: it binds kernel
  names to performance models, prices communication via a collective cost
  model over a topology, and (with the FT extension) carries
  fault-related hardware parameters — node fault rates and recovery
  times — for fault-injecting simulations.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from repro.core.instructions import Collective, Exchange, Instruction
from repro.models.base import ModelError, PerformanceModel
from repro.network.commmodel import CollectiveCostModel, LogGPModel
from repro.network.topology import Topology


def as_int(name: str, value) -> int:
    """*value* as an ``int``, or ``ValueError`` naming *name*.

    Integral floats such as ``10.0`` pass (sweeps often carry parameters
    as floats); ``2.5``, ``True`` and non-numbers are rejected instead of
    being truncated or failing later inside ``range``.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            if isinstance(value, numbers.Real) and float(value).is_integer():
                return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


class AppBEO:
    """An application model: name, tunable parameters, instruction builder.

    Parameters
    ----------
    name:
        Application label.
    builder:
        ``builder(rank, nranks, params) -> Sequence[Instruction]``.
    default_params:
        Parameter defaults merged under explicit ones at build time.
    validate_ranks:
        Optional callable raising ``ValueError`` for unsupported rank
        counts (e.g. LULESH's perfect-cube rule).
    spmd:
        Declares that the builder's output does not depend on ``rank``
        (every rank runs the same stream).  The simulator then builds
        the program once per simulation instead of once per rank.
        Nothing checks this at run time: declare it only for builders
        that ignore ``rank``.
    """

    def __init__(
        self,
        name: str,
        builder: Callable[[int, int, Mapping[str, float]], Sequence[Instruction]],
        default_params: Optional[Mapping[str, float]] = None,
        validate_ranks: Optional[Callable[[int], None]] = None,
        spmd: bool = False,
    ) -> None:
        self.name = name
        self._builder = builder
        self.default_params = dict(default_params or {})
        self._validate_ranks = validate_ranks
        self.spmd = spmd

    def check_ranks(self, nranks: int) -> int:
        """Validate *nranks* for this app; returns it as an ``int``."""
        nranks = as_int("nranks", nranks)
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        if self._validate_ranks is not None:
            self._validate_ranks(nranks)
        return nranks

    def build(
        self, rank: int, nranks: int, params: Optional[Mapping[str, float]] = None
    ) -> list[Instruction]:
        """Instruction stream for *rank* of *nranks*."""
        nranks = self.check_ranks(nranks)
        if not 0 <= rank < nranks:
            raise IndexError(f"rank {rank} out of range [0, {nranks})")
        merged = dict(self.default_params)
        if params:
            merged.update(params)
        return list(self._builder(rank, nranks, merged))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AppBEO({self.name!r})"


@dataclass
class ArchBEO:
    """An architecture model for the BE-SST simulator.

    Parameters
    ----------
    name:
        Machine label (e.g. ``"quartz"``).
    models:
        Kernel name -> :class:`PerformanceModel`; polled by Compute and
        Checkpoint instructions.
    topology:
        Interconnect topology (used by the comm model and fault mapping).
    comm:
        Collective cost model; if omitted, one is derived from *topology*
        with default LogGP constants.
    cores_per_node:
        Ranks placed per node (Quartz runs 36 cores/node; the case study
        pins 2 ranks/node via FTI's node_size).
    node_mtbf_s:
        FT-aware hardware parameter: mean time between failures of one
        node, seconds (None = no faults).
    recovery_time_s:
        FT-aware hardware parameter: downtime to detect a failure and
        restore a replacement node.
    """

    name: str
    models: dict[str, PerformanceModel] = field(default_factory=dict)
    topology: Optional[Topology] = None
    comm: Optional[CollectiveCostModel] = None
    cores_per_node: int = 36
    node_mtbf_s: Optional[float] = None
    recovery_time_s: float = 60.0

    def __post_init__(self) -> None:
        if self.cores_per_node < 1:
            raise ValueError(f"cores_per_node must be >= 1, got {self.cores_per_node}")
        if self.comm is None and self.topology is not None:
            self.comm = CollectiveCostModel(LogGPModel(self.topology))

    # -- model binding ----------------------------------------------------------

    def bind(self, kernel: str, model: PerformanceModel) -> "ArchBEO":
        """Attach (or replace) the model for *kernel*; returns self."""
        self.models[kernel] = model
        return self

    def model(self, kernel: str) -> PerformanceModel:
        """The model bound to *kernel*."""
        model = self.models.get(kernel)
        if model is None:
            raise ModelError(
                f"ArchBEO {self.name!r} has no model for kernel {kernel!r}; "
                f"bound kernels: {sorted(self.models)}"
            )
        return model

    def predict(
        self,
        kernel: str,
        params: Mapping[str, float],
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """Runtime of one *kernel* call — the simulator's model poll."""
        model = self.models.get(kernel)
        if model is None:
            model = self.model(kernel)  # raises, naming the bound kernels
        return model.predict(params, rng)

    # -- communication pricing -----------------------------------------------------

    def collective_time(self, instr: Collective, nranks: int) -> float:
        if self.comm is None:
            raise ModelError(
                f"ArchBEO {self.name!r} has no topology/comm model for collectives"
            )
        return self.comm.price(instr.op, nranks, instr.nbytes)

    def exchange_time(self, instr: Exchange) -> float:
        """Halo exchange: neighbours transfer concurrently, but each
        endpoint serialises its own sends/receives — price it as the
        per-rank serial cost of `neighbors` minimal-distance messages."""
        if self.comm is None:
            raise ModelError(
                f"ArchBEO {self.name!r} has no topology/comm model for exchanges"
            )
        return instr.neighbors * self.comm.p2p.neighbor_time(instr.nbytes)

    # -- placement / faults -----------------------------------------------------------

    def node_of_rank(self, rank: int, ranks_per_node: Optional[int] = None) -> int:
        rpn = ranks_per_node or self.cores_per_node
        return rank // rpn
