"""Fig. 4: the four fault-assumption cases.

The paper simulates Case 1 (no faults, no FT) and — with this work's
extension — Case 3 (FT-aware models, no fault injection); Cases 2 and 4
(fault injection without/with fault tolerance) are its stated future
work, implemented here via :mod:`repro.core.fault_injection`.

The experiment runs the same LULESH design point under all four cases
with an (accelerated) node failure rate and reports totals, fault counts,
rollbacks and wasted time.  Expected shape: Case 2 (faults, no FT —
restart from scratch) is by far the worst; Case 4 pays checkpoint
overhead but bounds the damage; Case 3 is Case 1 plus pure checkpoint
overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.fault_injection import FaultInjector, FaultModel
from repro.core.ft import NO_FT, scenario_l1
from repro.core.workflow import simulate_design_point
from repro.apps.lulesh import lulesh_appbeo
from repro.exps.casestudy import CaseStudyContext, get_context


@dataclass
class CaseResult:
    """One Fig. 4 case's Monte-Carlo summary."""

    case: int
    label: str
    mean_total: float
    mean_faults: float
    mean_rollbacks: float
    mean_wasted: float


def fault_assumption_cases(
    ctx: Optional[CaseStudyContext] = None,
    ranks: int = 64,
    epr: int = 10,
    timesteps: int = 200,
    ckpt_period: int = 40,
    node_mtbf_s: float = 8.0,
    recovery_time_s: float = 0.05,
    reps: int = 5,
) -> list[CaseResult]:
    """Run Cases 1-4 at one design point.

    ``node_mtbf_s`` defaults to an *accelerated* rate so that a ~1 s
    simulated job sees a few failures (Quartz-realistic MTBFs would need
    week-long jobs to show the effect; the dynamics are identical).  At
    8 s, Case 2's restart-from-scratch penalty dominates the sampling
    noise across replicas, so Case 4's advantage over it shows.
    """
    ctx = ctx or get_context()
    arch = ctx.archbeo
    # fault-injecting runs use the ArchBEO's FT hardware parameters
    arch.recovery_time_s = recovery_time_s
    nnodes = max(1, ranks // ctx.machine.ranks_per_node)
    # classic Case-4 semantics: every fault is recoverable from the last
    # checkpoint regardless of level (EXT5 studies the level-aware mix)
    model = FaultModel(node_mtbf_s=node_mtbf_s, software_fraction=1.0)

    cases = [
        (1, "no faults, no FT", NO_FT, False),
        (2, "faults, no FT", NO_FT, True),
        (3, "no faults, FT-aware", scenario_l1(ckpt_period), False),
        (4, "faults + FT", scenario_l1(ckpt_period), True),
    ]

    def injector(seed: int) -> FaultInjector:
        return FaultInjector(model, nnodes=nnodes, seed=seed + 777)

    out: list[CaseResult] = []
    for num, label, scenario, inject in cases:
        mc = simulate_design_point(
            lulesh_appbeo(timesteps=timesteps, scenario=scenario),
            arch,
            ranks,
            {"epr": epr},
            reps=reps,
            base_seed=100,
            fault_injector_factory=injector if inject else None,
            max_events=20_000_000,
        )
        out.append(
            CaseResult(
                case=num,
                label=label,
                mean_total=mc.total_time.mean,
                mean_faults=float(np.mean([r.faults_injected for r in mc.results])),
                mean_rollbacks=mc.mean_rollbacks,
                mean_wasted=float(np.mean([r.wasted_time for r in mc.results])),
            )
        )
    return out


def format_fig4(results: list[CaseResult]) -> str:
    lines = [
        "Fig. 4 — fault assumption cases (BE-SST DSE)",
        f"{'case':<6s}{'assumptions':<22s}{'total':>10s}{'faults':>8s}"
        f"{'rollbacks':>11s}{'wasted':>9s}",
    ]
    for r in results:
        lines.append(
            f"{r.case:<6d}{r.label:<22s}{r.mean_total:>9.3f}s{r.mean_faults:>8.1f}"
            f"{r.mean_rollbacks:>11.1f}{r.mean_wasted:>8.3f}s"
        )
    return "\n".join(lines)
