"""Checkpoint-level selection: which FTI level optimises expected runtime?

The paper's discussion of Table I ends with exactly this question:
*"System performance parameters and fault rates can determine what level
of fault-tolerance is necessary to optimize performance."*  This module
answers it analytically, complementing the simulator:

Each FTI level ``k`` has a cost per instance ``C_k`` and a *coverage*
``q_k`` — the probability that a random failure is recoverable from that
level's checkpoint (L1 recovers software crashes only; L2/L3 survive
growing classes of node loss; L4 survives everything).  An uncovered
failure forces the much more expensive fallback (e.g. job resubmission
and restart from the last L4 checkpoint or from scratch).

Expected runtime per unit of work at level k, checkpointing every tau:

    waste_k = C_k / tau                               (periodic overhead)
            + (tau/2 + R_k) / M                       (covered failures)
            + (1 - q_k) * F / M                       (uncovered failures)

with M the system MTBF, R_k the level's recovery time and F the fallback
penalty.  The optimal level minimises waste at its own Young-optimal tau.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.analytical.youngdaly import young_interval


@dataclass(frozen=True)
class LevelProfile:
    """One checkpoint level's cost/coverage characterisation.

    Parameters
    ----------
    level:
        FTI level number (1-4).
    ckpt_cost:
        Seconds per checkpoint instance.
    coverage:
        Fraction of failures recoverable from this level in [0, 1].
    recovery_time:
        Seconds to restore from this level after a covered failure.
    """

    level: int
    ckpt_cost: float
    coverage: float
    recovery_time: float = 30.0

    def __post_init__(self) -> None:
        if self.ckpt_cost <= 0:
            raise ValueError(f"ckpt_cost must be > 0, got {self.ckpt_cost}")
        if not 0.0 <= self.coverage <= 1.0:
            raise ValueError(f"coverage must be in [0,1], got {self.coverage}")
        if self.recovery_time < 0:
            raise ValueError(f"recovery_time must be >= 0, got {self.recovery_time}")


@dataclass
class LevelChoice:
    """Evaluation of one level at its optimal interval."""

    profile: LevelProfile
    interval: float
    waste: float


def evaluate_level(
    profile: LevelProfile,
    system_mtbf: float,
    fallback_penalty: float,
    interval: Optional[float] = None,
) -> LevelChoice:
    """Waste rate of *profile* at the given (or Young-optimal) interval."""
    if system_mtbf <= 0:
        raise ValueError(f"system_mtbf must be > 0, got {system_mtbf}")
    if fallback_penalty < 0:
        raise ValueError(f"fallback_penalty must be >= 0, got {fallback_penalty}")
    tau = interval if interval is not None else young_interval(
        profile.ckpt_cost, system_mtbf
    )
    if tau <= 0:
        raise ValueError(f"interval must be > 0, got {tau}")
    waste = (
        profile.ckpt_cost / tau
        + profile.coverage * (tau / 2.0 + profile.recovery_time) / system_mtbf
        + (1.0 - profile.coverage) * fallback_penalty / system_mtbf
    )
    return LevelChoice(profile=profile, interval=tau, waste=waste)


def select_level(
    profiles: Sequence[LevelProfile],
    system_mtbf: float,
    fallback_penalty: float,
) -> list[LevelChoice]:
    """Rank all levels by expected waste (best first).

    The qualitative result this reproduces: at low failure rates cheap,
    low-coverage levels win (uncovered failures are rare); as the system
    MTBF shrinks, the optimum migrates to higher levels despite their
    cost — the cost-benefit balance the paper's DSE explores.
    """
    if not profiles:
        raise ValueError("no level profiles given")
    choices = [
        evaluate_level(p, system_mtbf, fallback_penalty) for p in profiles
    ]
    return sorted(choices, key=lambda c: c.waste)


def quartz_level_profiles(
    archbeo_or_costs: Mapping[int, float],
    recovery_times: Optional[Mapping[int, float]] = None,
) -> list[LevelProfile]:
    """Build the four FTI level profiles from per-level instance costs.

    Coverage values follow Table I's protection domains (fractions of the
    failure mix each level survives; the mix assumes most failures are
    software/transient, most hardware failures kill a single node, and a
    small remainder takes groups or racks):

    =====  ========  ===========================================
    level  coverage  survives
    =====  ========  ===========================================
    L1     0.60      software crashes (node storage intact)
    L2     0.90      + single-node losses with a live partner
    L3     0.97      + up to half a group concurrently
    L4     1.00      everything (PFS persists)
    =====  ========  ===========================================
    """
    coverage = {1: 0.60, 2: 0.90, 3: 0.97, 4: 1.00}
    default_recovery = {1: 10.0, 2: 30.0, 3: 60.0, 4: 120.0}
    recovery = dict(default_recovery)
    if recovery_times:
        recovery.update(recovery_times)
    out = []
    for level, cost in sorted(archbeo_or_costs.items()):
        if level not in coverage:
            raise ValueError(f"unknown FTI level {level}")
        out.append(
            LevelProfile(
                level=level,
                ckpt_cost=float(cost),
                coverage=coverage[level],
                recovery_time=recovery[level],
            )
        )
    return out
