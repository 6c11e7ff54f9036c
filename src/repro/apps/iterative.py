"""The generic fault-tolerant iterative solver of Fig. 3.

A minimal AppBEO shape — ``solve; exchange; reduce residual; maybe
checkpoint`` per iteration — used by the quickstart example and as the
template the paper's Fig. 3 illustrates: adding checkpoint-restart to an
application changes its control flow, and the AppBEO must reflect the new
abstract instructions.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.beo import AppBEO, as_int
from repro.core.ft import NO_FT, FTScenario
from repro.core.instructions import (
    Checkpoint,
    Collective,
    Compute,
    Exchange,
    Instruction,
)


def iterative_solver_appbeo(
    iterations: int = 100,
    scenario: FTScenario = NO_FT,
    solve_kernel: str = "solve",
    halo_bytes: int = 8192,
) -> AppBEO:
    """Fig. 3's iterative solver as an AppBEO.

    Parameters are ``n`` (local problem size) and the rank count; the
    checkpoint payload scales with ``n``.
    """
    iterations = as_int("iterations", iterations)
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if halo_bytes < 0:
        raise ValueError(f"halo_bytes must be >= 0, got {halo_bytes}")

    def builder(rank: int, nranks: int, params: Mapping[str, float]):
        n = as_int("n", params["n"])
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        body: list[Instruction] = []
        for it in range(1, iterations + 1):
            body.append(Compute.of(solve_kernel, n=n, ranks=nranks))
            body.append(Exchange(nbytes=halo_bytes, neighbors=2))
            body.append(Collective("allreduce", nbytes=8))  # residual norm
            for level in scenario.checkpoints_due(it):
                body.append(Collective("barrier"))
                body.append(
                    Checkpoint.of(level, scenario.kernel_for(level), n=n, ranks=nranks)
                )
        return body

    return AppBEO(
        name=f"iterative_{scenario.name}",
        builder=builder,
        default_params={"n": 1000},
        spmd=True,
    )
