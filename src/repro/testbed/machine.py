"""Virtual machine: ground-truth kernel costs + measurement noise.

A :class:`VirtualMachine` is the reproduction's stand-in for benchmarking
on a real system.  Each instrumented kernel has a :class:`KernelTruth` —
its *actual* mean cost function on this machine plus a noise law
(log-normal jitter with an outlier mixture, the shape HPC timing data
tends to have).  The MODSIM workflow only ever sees samples drawn from
these truths, exactly as it would only see timer output on Quartz.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro.core.ft import FTScenario
from repro.network.topology import Topology


@dataclass
class KernelTruth:
    """Ground truth for one instrumented kernel.

    Parameters
    ----------
    fn:
        ``fn(params) -> mean seconds`` — the machine's real cost surface.
    cv:
        Coefficient of variation of run-to-run noise.
    outlier_p / outlier_scale:
        With probability *outlier_p* a sample is further multiplied by
        *outlier_scale* (OS jitter, storage contention spikes).
    """

    fn: Callable[[Mapping[str, float]], float]
    cv: float = 0.05
    outlier_p: float = 0.0
    outlier_scale: float = 1.5

    def __post_init__(self) -> None:
        if self.cv < 0:
            raise ValueError(f"cv must be >= 0, got {self.cv}")
        if not 0 <= self.outlier_p < 1:
            raise ValueError(f"outlier_p must be in [0,1), got {self.outlier_p}")

    def mean(self, params: Mapping[str, float]) -> float:
        v = float(self.fn(params))
        if v <= 0 or not np.isfinite(v):
            raise ValueError(
                f"ground truth produced invalid mean {v!r} for {dict(params)!r}"
            )
        return v

    def sample(
        self, params: Mapping[str, float], rng: np.random.Generator, n: int = 1
    ) -> np.ndarray:
        """Draw *n* noisy observations (mean-preserving log-normal)."""
        mu = self.mean(params)
        if self.cv == 0:
            out = np.full(n, mu)
        else:
            sigma = np.sqrt(np.log1p(self.cv**2))
            out = mu * rng.lognormal(mean=-0.5 * sigma**2, sigma=sigma, size=n)
        if self.outlier_p > 0:
            hits = rng.random(n) < self.outlier_p
            out = np.where(hits, out * self.outlier_scale, out)
        return out


@dataclass
class MeasuredRun:
    """One measured full-application run on the testbed."""

    total_time: float
    timestep_times: np.ndarray          #: per-timestep job time (straggler max)
    checkpoint_marks: list[tuple[float, int]]  #: (completion time, level)
    checkpoint_time: float              #: total time spent checkpointing

    @property
    def timesteps(self) -> int:
        return int(self.timestep_times.size)

    def cumulative_times(self) -> np.ndarray:
        """Job time after each timestep (the measured curves of Figs. 7-8).

        Checkpoint costs are already folded into the timestep that took
        them, so this is a plain cumulative sum.
        """
        return np.cumsum(self.timestep_times)


class VirtualMachine:
    """A benchmarkable synthetic machine.

    Parameters
    ----------
    name:
        Machine label.
    nnodes / cores_per_node:
        Capacity (measurements reject allocations beyond it).
    topology:
        Interconnect topology (shared with ArchBEOs built for this
        machine).
    kernels:
        Instrumented kernel name -> :class:`KernelTruth`.
    ranks_per_node:
        Placement used by the case study (FTI ``node_size``).
    """

    def __init__(
        self,
        name: str,
        nnodes: int,
        cores_per_node: int,
        topology: Topology,
        kernels: Mapping[str, KernelTruth],
        ranks_per_node: int = 2,
    ) -> None:
        if nnodes < 1 or cores_per_node < 1 or ranks_per_node < 1:
            raise ValueError("machine dimensions must be >= 1")
        self.name = name
        self.nnodes = nnodes
        self.cores_per_node = cores_per_node
        self.topology = topology
        self.kernels = dict(kernels)
        self.ranks_per_node = ranks_per_node

    @property
    def max_ranks(self) -> int:
        return self.nnodes * self.ranks_per_node

    def check_allocation(self, nranks: int) -> None:
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        if nranks > self.max_ranks:
            raise ValueError(
                f"{self.name} cannot run {nranks} ranks at "
                f"{self.ranks_per_node} ranks/node with {self.nnodes} nodes "
                f"(max {self.max_ranks})"
            )

    def truth(self, kernel: str) -> KernelTruth:
        try:
            return self.kernels[kernel]
        except KeyError:
            raise KeyError(
                f"{self.name} has no instrumented kernel {kernel!r}; "
                f"available: {sorted(self.kernels)}"
            ) from None

    def true_mean(self, kernel: str, params: Mapping[str, float]) -> float:
        """Ground-truth mean (test oracle; the real workflow can't see this)."""
        return self.truth(kernel).mean(params)

    def measure(
        self,
        kernel: str,
        params: Mapping[str, float],
        nsamples: int = 10,
        seed: int = 0,
    ) -> np.ndarray:
        """Benchmark *kernel* at *params*: noisy timing samples."""
        if nsamples < 1:
            raise ValueError(f"nsamples must be >= 1, got {nsamples}")
        if "ranks" in params:
            self.check_allocation(int(params["ranks"]))
        from repro.des.rng import _stable_hash

        rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=seed,
                spawn_key=(
                    _stable_hash(f"{self.name}/{kernel}"),
                    sum(int(1000 * v) for v in params.values()) & 0x7FFFFFFF,
                ),
            )
        )
        return self.truth(kernel).sample(params, rng, nsamples)


def measure_application_run(
    machine: VirtualMachine,
    nranks: int,
    timesteps: int,
    scenario: FTScenario,
    kernel_params: Mapping[str, float],
    timestep_kernel: str = "lulesh_timestep",
    seed: int = 0,
) -> MeasuredRun:
    """Measure a full application run on the testbed (the ground truth of
    Figs. 7-8 / Table IV).

    Per timestep the job time is the *maximum over ranks* of that
    timestep's noisy per-rank duration (bulk-synchronous straggler
    effect); checkpoint instances behave the same using their kernel's
    truth.
    """
    machine.check_allocation(nranks)
    if timesteps < 1:
        raise ValueError(f"timesteps must be >= 1, got {timesteps}")
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(nranks, timesteps))
    )
    params = dict(kernel_params)
    params["ranks"] = nranks

    step_truth = machine.truth(timestep_kernel)
    # (timesteps, nranks) per-rank draws -> per-timestep straggler max
    per_rank = step_truth.sample(params, rng, timesteps * nranks).reshape(
        timesteps, nranks
    )
    step_times = per_rank.max(axis=1)

    clock = 0.0
    ckpt_marks: list[tuple[float, int]] = []
    ckpt_total = 0.0
    times = np.empty(timesteps)
    for ts in range(1, timesteps + 1):
        dt = float(step_times[ts - 1])
        for level in scenario.checkpoints_due(ts):
            truth = machine.truth(scenario.kernel_for(level))
            draws = truth.sample(params, rng, nranks)
            ckpt_dt = float(draws.max())
            dt += ckpt_dt
            ckpt_total += ckpt_dt
            ckpt_marks.append((clock + dt, level))
        clock += dt
        times[ts - 1] = dt
    return MeasuredRun(
        total_time=clock,
        timestep_times=times,
        checkpoint_marks=ckpt_marks,
        checkpoint_time=ckpt_total,
    )
