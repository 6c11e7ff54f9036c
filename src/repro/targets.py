"""The experiment targets: one table for the CLI and the report.

``repro list``, the CLI's per-target sub-parsers and dispatch, and the
markdown report (:mod:`repro.exps.report`) all read :data:`TARGETS`, in
its order.  Importing this module loads neither numpy nor
:mod:`repro.exps`: a target's experiment module is imported when it
runs, so ``repro list`` and ``--help`` stay instant.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One experiment target.

    ``run(module, ctx, seed, reps)`` returns the target's rendered text,
    where *module* is the experiment module ``repro.exps.<module>`` and
    *ctx* is the case-study context of *seed* if ``context`` is set, else
    None.
    """

    name: str
    artifact: str  #: paper artifact column of ``repro list``
    description: str  #: one-line summary (``repro list``, ``--help``)
    title: str  #: report section heading
    notes: str  #: report section preamble
    module: str
    run: Callable[..., str]
    context: bool = False


TARGETS: dict[str, Target] = {
    t.name: t
    for t in (
        Target(
            "fig1",
            "Fig. 1",
            "CMT-bone on Vulcan benchmark-vs-sim DSE",
            "Fig. 1 — CMT-bone on Vulcan: benchmark-vs-simulation DSE",
            "Validation points are Monte-Carlo distributions vs measured "
            "one-timestep job runs; prediction extends past the allocation "
            "to 1M ranks via the validated models plus topology-scaled "
            "communication.",
            "fig1",
            lambda m, ctx, seed, reps: m.format_fig1(m.cmtbone_dse(reps=max(reps, 3), seed=seed)),
        ),
        Target(
            "fig4",
            "Fig. 4",
            "fault-assumption Cases 1-4 (fault injection)",
            "Fig. 4 — fault-assumption Cases 1-4",
            "Cases 2 and 4 (fault injection without/with FT) are the "
            "paper's future work, implemented here. Failure rates are "
            "accelerated so a ~1 s job sees faults.",
            "fig4",
            lambda m, ctx, seed, reps: m.format_fig4(m.fault_assumption_cases(ctx, reps=reps)),
            context=True,
        ),
        Target(
            "fig5",
            "Fig. 5",
            "instance-model scaling vs problem size",
            "Fig. 5 — model scaling vs problem size (epr)",
            "Checkpoint curves above the timestep curve, all growing with "
            "epr; the epr=30 column is pure prediction (notional node with "
            "more memory).",
            "fig5_6",
            lambda m, ctx, seed, reps: m.format_fig5(m.instance_scaling(ctx)),
            context=True,
        ),
        Target(
            "fig6",
            "Fig. 6",
            "instance-model scaling vs ranks",
            "Fig. 6 — model scaling vs number of ranks",
            "Checkpoint kernels scale much faster with ranks than the "
            "weak-scaling timestep; 1331 ranks is pure prediction beyond the "
            "1000-rank allocation.",
            "fig5_6",
            lambda m, ctx, seed, reps: m.format_fig6(m.instance_scaling(ctx)),
            context=True,
        ),
        Target(
            "fig7",
            "Fig. 7",
            "full-system runtime, 64 ranks",
            "Fig. 7 — full application runtime, 64 ranks",
            "200 timesteps, checkpoint period 40; the three FT scenarios of "
            "the case study with checkpoint instants marked.",
            "fig7_8",
            lambda m, ctx, seed, reps: m.format_fig7_8(
                m.full_system_curves(64, ctx=ctx, reps=reps)
            ),
            context=True,
        ),
        Target(
            "fig8",
            "Fig. 8",
            "full-system runtime, 1000 ranks",
            "Fig. 8 — full application runtime, 1000 ranks",
            "Same, at the allocation limit. The paper reports growing "
            "divergence at this corner (its Figs. 6D/8); ours diverges "
            "there too.",
            "fig7_8",
            lambda m, ctx, seed, reps: m.format_fig7_8(
                m.full_system_curves(1000, ctx=ctx, reps=reps)
            ),
            context=True,
        ),
        Target(
            "fig9",
            "Fig. 9",
            "overhead prediction matrix",
            "Fig. 9 — overhead prediction matrix",
            "Percent of the same-epr 64-rank no-FT prediction. Expected "
            "shape: grows with FT level, ranks, and problem size; the "
            "L1+L2 @ 1000 ranks @ epr 25 cell is the extreme corner.",
            "fig9",
            lambda m, ctx, seed, reps: m.format_fig9(m.overhead_prediction(ctx, reps=reps)),
            context=True,
        ),
        Target(
            "table3",
            "Table III",
            "instance-model MAPE",
            "Table III — instance-model validation (MAPE)",
            "Paper: timestep 6.64%, L1 16.68%, L2 14.50%. Expect the same "
            "ordering (compute kernel far more predictable than the "
            "storage/communication-bound checkpoint kernels) and band.",
            "table3",
            lambda m, ctx, seed, reps: m.format_table3(m.instance_model_mape(ctx)),
            context=True,
        ),
        Target(
            "table4",
            "Table IV",
            "full-system simulation MAPE",
            "Table IV — full-system simulation validation (MAPE)",
            "Paper: no-FT 20.13%, L1 17.64%, L1&L2 14.54%, over full-run totals.",
            "table4",
            lambda m, ctx, seed, reps: m.format_table4(m.full_system_mape(ctx, reps=reps)),
            context=True,
        ),
        Target(
            "ext1",
            "extension",
            "all four FTI levels, full system",
            "EXT1 — all four FTI levels in full-system simulation",
            "The case study stopped at L1/L2; with communication and "
            "RS-encode kernels modeled, the whole of Table I simulates.",
            "extensions",
            lambda m, ctx, seed, reps: m.format_ext1(m.all_levels_full_system(reps=reps)),
        ),
        Target(
            "ext2",
            "extension",
            "checkpoint-level selection vs MTBF",
            "EXT2 — checkpoint-level selection vs system MTBF",
            "Analytic expected-waste ranking using the fitted per-level "
            "costs; the optimum migrates to higher levels as reliability "
            "degrades.",
            "extensions",
            lambda m, ctx, seed, reps: m.format_ext2(m.level_selection_sweep()),
        ),
        Target(
            "ext3",
            "extension",
            "architectural DSE: fat tree vs dragonfly",
            "EXT3 — architectural DSE: fat tree vs notional dragonfly",
            "Plug-and-play interconnect swap under identical applications and FT scenarios.",
            "extensions",
            lambda m, ctx, seed, reps: m.format_ext3(m.architectural_dse(reps=reps)),
        ),
        Target(
            "ext4",
            "extension",
            "hardware DSE: NVRAM checkpoint storage",
            "EXT4 — hardware DSE: NVRAM checkpoint storage",
            "The validated L1/L2 models scaled 4x faster, standing in for a "
            "storage upgrade; no-FT runtime unchanged, checkpoint overhead "
            "collapses.",
            "extensions",
            lambda m, ctx, seed, reps: m.format_ext4(m.hardware_upgrade_dse(reps=reps)),
        ),
        Target(
            "ext5",
            "extension",
            "simulated level DSE under mixed faults",
            "EXT5 — simulated checkpoint-level DSE under mixed faults",
            "Fault injection with a software/node-loss mix and level-aware "
            "recovery: L1 checkpoints cannot recover node losses, so an "
            "L1-only run restarts from scratch on them.  At this job length "
            "L1's cheap checkpoints still win on total time, but its wasted "
            "work is by far the worst — the asymmetry that pushes the "
            "optimum to higher levels as jobs lengthen and scale grows "
            "(exactly what EXT2's analytic sweep shows).",
            "extensions",
            lambda m, ctx, seed, reps: m.format_ext5(m.level_fault_dse(reps=reps)),
        ),
        Target(
            "ext6",
            "extension",
            "ABFT vs checkpoint-restart for SDC",
            "EXT6 — ABFT vs checkpoint-restart under silent data corruption",
            "The paper's other named FT technique: checksum ABFT catches the "
            "SDC that C/R is blind to, at an arithmetic overhead shrinking "
            "with problem size (a real Huang-Abraham codec backs the "
            "numbers).",
            "extensions",
            lambda m, ctx, seed, reps: m.format_ext6(m.abft_vs_checkpointing()),
        ),
        Target(
            "ext7",
            "extension",
            "modeling granularity ablation",
            "EXT7 — modeling granularity: coarse vs fine kernels",
            "BE-SST's speed/accuracy knob: one timestep model vs force+EOS "
            "subkernel models of the same application.",
            "extensions",
            lambda m, ctx, seed, reps: m.format_ext7(m.granularity_ablation(reps=reps, seed=seed)),
        ),
        Target(
            "ext8",
            "extension",
            "SDC verification-interval x fault-mix DSE",
            "EXT8 — SDC verification interval under a mixed fault taxonomy",
            "ABFT verification cadence swept under burst, node, SDC, software "
            "and straggler faults: verifying often pays kernel overhead but "
            "catches corruption early; verifying rarely or never lets strikes "
            "survive to completion as wrong results.  The simulated optimum "
            "is set against the closed-form two-error-type interval.",
            "extensions",
            lambda m, ctx, seed, reps: m.format_ext8(m.sdc_verification_dse(reps=reps, seed=seed)),
        ),
        Target(
            "ext9",
            "extension",
            "network fault DSE: link MTBF x checkpoint period",
            "EXT9 — network fault DSE: link MTBF x checkpoint period",
            "Hard link failures and degraded, lossy links on a 4x4 torus with "
            "node faults switched off, so the slowdown over the fault-free run "
            "is what the network fault domain adds; set against the "
            "steady-state closed form of repro.analytical.netavail.",
            "extensions",
            lambda m, ctx, seed, reps: m.format_ext9(m.network_fault_dse(reps=reps, seed=seed)),
        ),
        Target(
            "abl1",
            "ablation",
            "LUT vs symbolic regression",
            "ABL1 — modeling method: interpolation vs symbolic regression",
            "Both of the paper's Model-Development methods on identical calibration data.",
            "ablations",
            lambda m, ctx, seed, reps: m.format_abl1(m.modeling_method_ablation(ctx)),
            context=True,
        ),
        Target(
            "abl2",
            "ablation",
            "checkpoint period vs Young/Daly",
            "ABL2 — checkpoint period vs Young/Daly",
            "Fault-injected sweep of the period; the simulated optimum "
            "should bracket Daly's analytic interval.",
            "ablations",
            lambda m, ctx, seed, reps: m.format_abl2(m.youngdaly_ablation(ctx, reps=reps)),
            context=True,
        ),
        Target(
            "abl3",
            "ablation",
            "analytical speedup baselines",
            "ABL3 — analytical reliability-aware speedup baselines",
            "The related work's abstract models (Amdahl/Gustafson under "
            "faults, replication), for contrast with BE-SST's concrete "
            "predictions.",
            "ablations",
            lambda m, ctx, seed, reps: m.format_abl3(m.analytical_baselines()),
        ),
        Target(
            "abl4",
            "ablation",
            "sequential vs parallel DES engine",
            "ABL4 — sequential vs conservative-parallel DES engine",
            "The SST-substitute's YAWNS-style engine is observationally "
            "identical to the sequential engine.",
            "ablations",
            lambda m, ctx, seed, reps: m.format_abl4(m.engine_ablation()),
        ),
    )
}


def run_target(name: str, seed: int, reps: int) -> str:
    """Run the target *name* and return its rendered text."""
    target = TARGETS[name]
    module = importlib.import_module(f"repro.exps.{target.module}")
    ctx = None
    if target.context:
        from repro.exps.casestudy import get_context

        ctx = get_context(seed=seed)
    return target.run(module, ctx, seed, reps)
