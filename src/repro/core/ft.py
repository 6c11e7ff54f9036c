"""Fault-tolerance scenarios (the FT dimension of the design space).

A scenario names which checkpoint levels an application run performs and
how often.  The case study compares three: no fault-tolerance, level-1
checkpointing, and levels 1 & 2 — both with a 40-timestep period.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class FTScenario:
    """A combination of checkpoint levels and periods.

    Parameters
    ----------
    name:
        Scenario label, e.g. ``"l1+l2"``.
    levels:
        ``(level, period_in_timesteps)`` pairs; at timestep t every level
        with ``t % period == 0`` takes a checkpoint.
    verify_period:
        ABFT verification cadence in timesteps: every ``verify_period``
        timesteps the application runs its checksum-verification kernel
        (the SDC detection point).  0 (default) disables verification —
        latent corruption is only ever caught by checkpoint-write
        validation, if enabled.
    """

    name: str
    levels: tuple[tuple[int, int], ...] = ()
    verify_period: int = 0

    def __post_init__(self) -> None:
        for level, period in self.levels:
            if level not in (1, 2, 3, 4):
                raise ValueError(f"invalid checkpoint level {level}")
            if period < 1:
                raise ValueError(f"invalid checkpoint period {period}")
        if self.verify_period < 0:
            raise ValueError(
                f"verify_period must be >= 0, got {self.verify_period}"
            )

    def checkpoints_due(self, timestep: int) -> list[int]:
        """Levels that checkpoint at the end of 1-based *timestep*."""
        if timestep < 1:
            raise ValueError(f"timestep must be >= 1, got {timestep}")
        return [lvl for lvl, period in self.levels if timestep % period == 0]

    def verification_due(self, timestep: int) -> bool:
        """Whether the ABFT verify kernel runs at 1-based *timestep*."""
        if timestep < 1:
            raise ValueError(f"timestep must be >= 1, got {timestep}")
        return self.verify_period > 0 and timestep % self.verify_period == 0

    def kernel_for(self, level: int) -> str:
        """Name of the performance model for a level's checkpoint kernel."""
        return f"fti_l{level}"

    #: name of the ABFT verification kernel's performance model
    VERIFY_KERNEL = "abft_verify"

    def with_verification(self, verify_period: int) -> "FTScenario":
        """This scenario plus a verification cadence (new instance)."""
        return FTScenario(self.name, self.levels, verify_period)


#: the non-FT-aware baseline (Scenario 1 / traditional BE-SST workflow)
NO_FT = FTScenario("no_ft")


def scenario_l1(period: int = 40) -> FTScenario:
    """Scenario 2 of the case study: level-1 checkpointing."""
    return FTScenario("l1", ((1, period),))


def scenario_l1_l2(period: int = 40) -> FTScenario:
    """Scenario 3 of the case study: levels 1 & 2, same period."""
    return FTScenario("l1+l2", ((1, period), (2, period)))


def scenario_levels(levels: Sequence[int], period: int = 40) -> FTScenario:
    """Arbitrary level combination with one shared period."""
    name = "+".join(f"l{l}" for l in levels) if levels else "no_ft"
    return FTScenario(name, tuple((l, period) for l in levels))
