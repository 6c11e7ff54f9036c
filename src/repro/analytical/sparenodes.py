"""Spare-node provisioning model (Jin et al. [16]).

A job runs on ``n`` active nodes with ``s`` spares.  Failed nodes are
swapped for spares instantly (small swap cost) while a repair process
returns failed nodes to the pool; the job only stalls when a failure
arrives with no spare available.  This simple birth-death treatment
reproduces Jin's qualitative findings: a few spares remove almost all
failure stalls, with diminishing returns.
"""

from __future__ import annotations

import math


class SpareNodeModel:
    """Steady-state spare-pool analysis.

    Parameters
    ----------
    n_active:
        Compute nodes the job uses.
    n_spare:
        Spare nodes provisioned.
    node_mtbf:
        Per-node mean time between failures (s).
    repair_time:
        Mean time to repair a failed node and return it as a spare (s).
    swap_cost:
        Job-visible cost of swapping in a spare (s).
    rebuild_cost:
        Job-visible cost when no spare is available (full stall until a
        repair completes, plus restart).
    """

    def __init__(
        self,
        n_active: int,
        n_spare: int,
        node_mtbf: float,
        repair_time: float,
        swap_cost: float = 30.0,
        rebuild_cost: float = 0.0,
    ) -> None:
        if n_active < 1:
            raise ValueError(f"n_active must be >= 1, got {n_active}")
        if n_spare < 0:
            raise ValueError(f"n_spare must be >= 0, got {n_spare}")
        if node_mtbf <= 0 or repair_time <= 0:
            raise ValueError("node_mtbf and repair_time must be > 0")
        if swap_cost < 0 or rebuild_cost < 0:
            raise ValueError("costs must be >= 0")
        self.n_active = n_active
        self.n_spare = n_spare
        self.node_mtbf = node_mtbf
        self.repair_time = repair_time
        self.swap_cost = swap_cost
        self.rebuild_cost = rebuild_cost if rebuild_cost > 0 else repair_time

    @property
    def failure_rate(self) -> float:
        """System failure rate (1/s)."""
        return self.n_active / self.node_mtbf

    def spare_exhaustion_probability(self) -> float:
        """P(no spare available when a failure arrives).

        M/M/inf-style approximation: the number of nodes in repair is
        Poisson with mean ``lambda * repair_time``; the pool is exhausted
        when that count exceeds ``n_spare``.
        """
        mean_in_repair = self.failure_rate * self.repair_time
        # P(Poisson(mu) > s) = 1 - CDF(s)
        mu = mean_in_repair
        cdf = 0.0
        term = math.exp(-mu)
        for k in range(self.n_spare + 1):
            cdf += term
            term *= mu / (k + 1)
        return max(0.0, min(1.0, 1.0 - cdf))

    def expected_stall_per_failure(self) -> float:
        """Expected job-visible cost of one failure."""
        p_exhaust = self.spare_exhaustion_probability()
        return (1 - p_exhaust) * self.swap_cost + p_exhaust * self.rebuild_cost

    def expected_overhead(self, runtime: float) -> float:
        """Expected total failure-handling time over a *runtime*-second job."""
        if runtime <= 0:
            raise ValueError(f"runtime must be > 0, got {runtime}")
        failures = runtime * self.failure_rate
        return failures * self.expected_stall_per_failure()
