"""The experiment targets: one table for the CLI and the report.

``repro list``, the CLI's per-target sub-parsers and dispatch, and the
markdown report (:mod:`repro.exps.report`) all read :data:`TARGETS`, in
its order.  Each row also holds the target's claims: the paper's shapes
(orderings, scaling directions, error bands) as bounds on its result,
which the report checks on the result it renders.  Importing this module
loads neither numpy nor :mod:`repro.exps`: a target's experiment module
is imported when it runs, so ``repro list`` and ``--help`` stay instant.
"""

from __future__ import annotations

import importlib
import operator
from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
}


@dataclass(frozen=True)
class Claim:
    """One claim about a target's result: ``value(result) <op> bound``.

    *bound* is a number or a function of the same result (for orderings);
    *paper* is the value the paper reports for the quantity, if any.
    """

    text: str
    value: Callable[[Any], float]
    op: str
    bound: Union[float, Callable[[Any], float]]
    paper: Optional[float] = None

    def failure(self, result) -> Optional[str]:
        """None if the claim holds on *result*, else a one-line reason."""
        lhs = self.value(result)
        rhs = self.bound(result) if callable(self.bound) else self.bound
        if _OPS[self.op](lhs, rhs):
            return None
        paper = "" if self.paper is None else f", paper {self.paper:g}"
        return f"{self.text} (measured {lhs:.6g}, needs {self.op} {rhs:.6g}{paper})"


@dataclass(frozen=True)
class Target:
    """One experiment target.

    ``compute(module, ctx, seed, reps)`` returns the target's result, where
    *module* is the experiment module ``repro.exps.<module>`` and *ctx* is
    the case-study context of *seed* if ``context`` is set, else None.
    ``module.<render>(result)`` renders it as text.
    """

    name: str
    artifact: str  #: paper artifact column of ``repro list``
    description: str  #: one-line summary (``repro list``, ``--help``)
    title: str  #: report section heading
    notes: str  #: report section preamble
    module: str
    compute: Callable[..., Any]
    render: str
    context: bool = False
    claims: tuple[Claim, ...] = ()


#: the case study's FT scenarios, cheapest first
_SCENARIOS = ("no_ft", "l1", "l1+l2")


def _mean(values) -> float:
    return sum(values) / len(values)


def _by(rows, key: str) -> dict:
    """*rows* keyed by their attribute *key*."""
    return {getattr(r, key): r for r in rows}


def _rising(values) -> float:
    """The smallest step along *values*: positive iff they strictly rise."""
    return min(b - a for a, b in zip(values, values[1:]))


def _case(n: int, field: str) -> Callable:
    """Fig. 4: Case *n*'s ``mean_<field>``."""
    return lambda cases: getattr(_by(cases, "case")[n], f"mean_{field}")


def _curve(scenario: str, field: str) -> Callable:
    """Figs. 7-8: *field* of *scenario*'s curve."""
    return lambda curves: getattr(_by(curves, "scenario")[scenario], field)


def _ordered(field: str) -> Callable:
    """Figs. 7-8: the smallest step of *field* along no_ft, l1, l1+l2."""
    return lambda curves: _rising([_curve(s, field)(curves) for s in _SCENARIOS])


def _mape(name: str) -> Callable:
    """Tables III-IV: the MAPE of report *name*."""
    return lambda reports: reports[name].mape


def _ckpt_cost(level: int) -> Callable:
    """EXT1: the modeled per-instance checkpoint cost of *level*."""
    return lambda rows: _by(rows, "level")[level].ckpt_instance_cost


def _fig1_means(points) -> dict:
    """Fig. 1's simulated means keyed (element size, ranks)."""
    return {(p.elem_size, p.ranks): p.predicted_mean for p in points}


def _scaling(rows) -> dict:
    """Figs. 5-6's rows keyed (kernel, epr, ranks)."""
    return {(r.kernel, r.epr, r.ranks): r for r in rows}


def _rank_growth(rows, kernel: str) -> float:
    """How much *kernel*'s epr-10 cost grows from 8 to 1000 ranks."""
    by = _scaling(rows)
    return by[(kernel, 10, 1000)].predicted / by[(kernel, 10, 8)].predicted


def _fig9_axes(pct) -> tuple[list, list]:
    """Fig. 9's epr and rank axes."""
    return sorted({k[0] for k in pct}), sorted({k[1] for k in pct})


def _gustafson_optimum() -> tuple[int, float, float]:
    """ABL3's related-work headline, in closed form (0.1 % serial work,
    30-day node MTBF, 600 s checkpoints): the optimal process count, its
    speedup, and the speedup at 32x that count."""
    from repro.analytical import optimal_process_count, reliability_aware_gustafson

    mtbf = 30 * 86400
    n_opt = optimal_process_count(
        0.001, node_mtbf=mtbf, ckpt_cost=600, law="gustafson", n_max=10**7
    )
    return (
        n_opt,
        reliability_aware_gustafson(n_opt, 0.001, mtbf, ckpt_cost=600),
        reliability_aware_gustafson(min(n_opt * 32, 10**8), 0.001, mtbf, ckpt_cost=600),
    )


def _fig7_8_claims(error_bound: float) -> tuple[Claim, ...]:
    """The scenario ordering and error band both full-system figures share."""
    return (
        Claim(
            "no_ft < l1 < l1+l2, measured (smallest step, s)",
            _ordered("measured_total"),
            ">",
            0.0,
        ),
        Claim(
            "no_ft < l1 < l1+l2, simulated (smallest step, s)",
            _ordered("simulated_total_mean"),
            ">",
            0.0,
        ),
        Claim("largest error (%)", lambda cs: max(c.percent_error for c in cs), "<", error_bound),
    )


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
            lambda m, ctx, seed, reps: m.cmtbone_dse(reps=max(reps, 3), seed=seed),
            "format_fig1",
            claims=(
                Claim(
                    "validated points: one per (size, ranks), 3 sizes x 4 rank counts",
                    lambda ps: sum(not p.is_prediction for p in ps),
                    "==",
                    12,
                ),
                Claim(
                    "predicted points: one per (size, ranks), 3 sizes x 3 rank counts",
                    lambda ps: sum(p.is_prediction for p in ps),
                    "==",
                    9,
                ),
                Claim(
                    "validation MAPE (%)",
                    lambda ps: _mean([p.percent_error for p in ps if not p.is_prediction]),
                    "<",
                    30.0,
                ),
                Claim(
                    "size 15 costs more than size 5 at 16, 128, 1024 and 1M ranks "
                    "(smallest gap, s)",
                    lambda ps: min(
                        _fig1_means(ps)[(15, r)] - _fig1_means(ps)[(5, r)]
                        for r in (16, 128, 1024, 1_048_576)
                    ),
                    ">",
                    0.0,
                ),
                Claim(
                    "prediction extends the trend: size 10 at 1M ranks vs 1024 ranks (s)",
                    lambda ps: _fig1_means(ps)[(10, 1_048_576)],
                    ">",
                    lambda ps: _fig1_means(ps)[(10, 1024)],
                ),
            ),
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
            lambda m, ctx, seed, reps: m.fault_assumption_cases(ctx, reps=reps),
            "format_fig4",
            context=True,
            claims=(
                Claim("Case 1 mean faults", _case(1, "faults"), "==", 0),
                Claim("Case 3 mean faults", _case(3, "faults"), "==", 0),
                Claim("Case 2 mean faults", _case(2, "faults"), ">", 0),
                Claim("Case 4 mean faults", _case(4, "faults"), ">", 0),
                # Case 3 is Case 1 plus checkpoint overhead; faults make things worse
                Claim("Case 3 total vs Case 1's (s)", _case(3, "total"), ">", _case(1, "total")),
                Claim("Case 2 total vs Case 1's (s)", _case(2, "total"), ">", _case(1, "total")),
                Claim("Case 4 total vs Case 3's (s)", _case(4, "total"), ">", _case(3, "total")),
                # the headline: checkpointing bounds the damage (Case 4 wastes
                # less and finishes sooner than restart-from-scratch Case 2)
                Claim("Case 4 wasted vs Case 2's (s)", _case(4, "wasted"), "<", _case(2, "wasted")),
                Claim("Case 4 total vs Case 2's (s)", _case(4, "total"), "<", _case(2, "total")),
            ),
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
            lambda m, ctx, seed, reps: m.instance_scaling(ctx),
            "format_fig5",
            context=True,
            claims=(
                Claim(
                    "checkpoint kernels above the timestep at epr 5 and 25, "
                    "ranks 8/64/1000 (smallest gap, s)",
                    lambda rows: min(
                        _scaling(rows)[(k, e, r)].predicted
                        - _scaling(rows)[("lulesh_timestep", e, r)].predicted
                        for k in ("fti_l1", "fti_l2")
                        for e in (5, 25)
                        for r in (8, 64, 1000)
                    ),
                    ">",
                    0.0,
                ),
                Claim(
                    "the epr-30 prediction extends the trend past epr 25 at 64 ranks "
                    "(smallest gap, s)",
                    lambda rows: min(
                        _scaling(rows)[(k, 30, 64)].predicted
                        - _scaling(rows)[(k, 25, 64)].predicted
                        for k in ("lulesh_timestep", "fti_l1", "fti_l2")
                    ),
                    ">",
                    0.0,
                ),
                Claim(
                    "the epr-30 column is prediction",
                    lambda rows: all(
                        _scaling(rows)[(k, 30, 64)].is_prediction
                        for k in ("lulesh_timestep", "fti_l1", "fti_l2")
                    ),
                    "==",
                    True,
                ),
            ),
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
            lambda m, ctx, seed, reps: m.instance_scaling(ctx),
            "format_fig6",
            context=True,
            claims=(
                Claim(
                    "checkpoints grow faster with ranks than the timestep: "
                    "smallest 8 -> 1000-rank growth of L1/L2 vs the timestep's (epr 10)",
                    lambda rows: min(_rank_growth(rows, k) for k in ("fti_l1", "fti_l2")),
                    ">",
                    lambda rows: _rank_growth(rows, "lulesh_timestep"),
                ),
                Claim(
                    "the 1331-rank prediction extends the trend: smallest "
                    "1331 / 512-rank ratio (epr 10)",
                    lambda rows: min(
                        _scaling(rows)[(k, 10, 1331)].predicted
                        / _scaling(rows)[(k, 10, 512)].predicted
                        for k in ("lulesh_timestep", "fti_l1", "fti_l2")
                    ),
                    ">",
                    0.8,
                ),
                Claim(
                    "the 1331-rank column is prediction",
                    lambda rows: all(
                        _scaling(rows)[(k, 10, 1331)].is_prediction
                        for k in ("lulesh_timestep", "fti_l1", "fti_l2")
                    ),
                    "==",
                    True,
                ),
            ),
        ),
        Target(
            "fig7",
            "Fig. 7",
            "full-system runtime, 64 ranks",
            "Fig. 7 — full application runtime, 64 ranks",
            "200 timesteps, checkpoint period 40; the three FT scenarios of "
            "the case study with checkpoint instants marked.",
            "fig7_8",
            lambda m, ctx, seed, reps: m.full_system_curves(64, ctx=ctx, reps=reps),
            "format_fig7_8",
            context=True,
            claims=_fig7_8_claims(error_bound=35.0)
            + (
                Claim(
                    "L1 checkpoint marks",
                    lambda cs: len(_curve("l1", "checkpoint_marks")(cs)),
                    "==",
                    5,
                ),
                Claim(
                    "L1+L2 checkpoint marks",
                    lambda cs: len(_curve("l1+l2", "checkpoint_marks")(cs)),
                    "==",
                    10,
                ),
                Claim(
                    "cumulative curves rise at every timestep (smallest step, s)",
                    lambda cs: min(
                        _rising(curve)
                        for c in cs
                        for curve in (c.simulated_curve, c.measured_curve)
                    ),
                    ">",
                    0.0,
                ),
            ),
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
            lambda m, ctx, seed, reps: m.full_system_curves(1000, ctx=ctx, reps=reps),
            "format_fig7_8",
            context=True,
            claims=_fig7_8_claims(error_bound=50.0)
            + (
                Claim(
                    "checkpointing hurts far more at 1000 ranks: simulated "
                    "L1+L2 / no-FT total",
                    lambda cs: (
                        _curve("l1+l2", "simulated_total_mean")(cs)
                        / _curve("no_ft", "simulated_total_mean")(cs)
                    ),
                    ">",
                    2.0,
                ),
            ),
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
            lambda m, ctx, seed, reps: m.overhead_prediction(ctx, reps=reps),
            "format_fig9",
            context=True,
            claims=(
                Claim(
                    "each epr column is normalised to its 64-rank no-FT cell: "
                    "largest |cell - 100| (%)",
                    lambda pct: max(
                        abs(pct[(e, 64, "no_ft")] - 100.0) for e in _fig9_axes(pct)[0]
                    ),
                    "<=",
                    1e-4,
                ),
                Claim(
                    "no_ft < l1 < l1+l2 at every (epr, ranks) (smallest step, %)",
                    lambda pct: min(
                        _rising([pct[(e, r, s)] for s in _SCENARIOS])
                        for e in _fig9_axes(pct)[0]
                        for r in _fig9_axes(pct)[1]
                    ),
                    ">",
                    0.0,
                ),
                Claim(
                    "every cell is costlier at 1000 ranks than at 64 (smallest gap, %)",
                    lambda pct: min(
                        pct[(e, 1000, s)] - pct[(e, 64, s)]
                        for e in _fig9_axes(pct)[0]
                        for s in _SCENARIOS
                    ),
                    ">",
                    0.0,
                ),
                Claim(
                    "the extreme corner, L1+L2 @ 1000 ranks @ epr 25 (%)",
                    lambda pct: pct[(25, 1000, "l1+l2")],
                    ">",
                    300.0,
                    paper=1374,
                ),
                Claim(
                    "checkpoint overhead grows with problem size at scale: "
                    "L1+L2 @ 1000 ranks, epr 25 / epr 10",
                    lambda pct: pct[(25, 1000, "l1+l2")] / pct[(10, 1000, "l1+l2")],
                    ">",
                    0.9,
                ),
            ),
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
            lambda m, ctx, seed, reps: m.instance_model_mape(ctx),
            "format_table3",
            context=True,
            claims=(
                Claim("timestep model MAPE (%)", _mape("lulesh_timestep"), "<", 15.0, paper=6.64),
                Claim("L1 model MAPE (%)", _mape("fti_l1"), "<", 30.0, paper=16.68),
                Claim("L2 model MAPE (%)", _mape("fti_l2"), "<", 30.0, paper=14.50),
                # the paper's ordering: the compute kernel models far better
                # than the storage/communication-bound checkpoint kernels
                Claim("timestep MAPE vs L1's (%)", _mape("lulesh_timestep"), "<", _mape("fti_l1")),
                Claim("timestep MAPE vs L2's (%)", _mape("lulesh_timestep"), "<", _mape("fti_l2")),
            ),
        ),
        Target(
            "table4",
            "Table IV",
            "full-system simulation MAPE",
            "Table IV — full-system simulation validation (MAPE)",
            "Paper: no-FT 20.13%, L1 17.64%, L1&L2 14.54%, over full-run totals.",
            "table4",
            lambda m, ctx, seed, reps: m.full_system_mape(ctx, reps=reps),
            "format_table4",
            context=True,
            claims=(
                Claim("no-FT MAPE (%)", _mape("no_ft"), "<", 40.0, paper=20.13),
                Claim("L1 MAPE (%)", _mape("l1"), "<", 40.0, paper=17.64),
                Claim("L1+L2 MAPE (%)", _mape("l1+l2"), "<", 40.0, paper=14.54),
                Claim(
                    "aggregate error does not blow up: largest MAPE vs "
                    "3 * max(5, 3 * smallest) (%)",
                    lambda rs: max(r.mape for r in rs.values()),
                    "<",
                    lambda rs: 3 * max(5.0, min(r.mape for r in rs.values()) * 3),
                ),
            ),
        ),
        Target(
            "ext1",
            "extension",
            "all four FTI levels, full system",
            "EXT1 — all four FTI levels in full-system simulation",
            "The case study stopped at L1/L2; with communication and "
            "RS-encode kernels modeled, the whole of Table I simulates.",
            "extensions",
            lambda m, ctx, seed, reps: m.all_levels_full_system(reps=reps),
            "format_ext1",
            claims=(
                # Table I's overhead trend: cost grows L1 -> L2; L3 adds RS
                # encode over L1
                Claim("L1 instance cost vs L2's (s)", _ckpt_cost(1), "<", _ckpt_cost(2)),
                Claim("L3 instance cost vs L1's (s)", _ckpt_cost(3), ">", _ckpt_cost(1)),
                Claim(
                    "largest level error (%)",
                    lambda rows: max(r.percent_error for r in rows),
                    "<",
                    40.0,
                ),
            ),
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
            lambda m, ctx, seed, reps: m.level_selection_sweep(),
            "format_ext2",
            claims=(
                Claim(
                    "the best level never steps down as MTBF falls (smallest step)",
                    lambda rows: _rising([r.best_level for r in rows]),
                    ">=",
                    0,
                ),
                Claim(
                    "best level at the lowest MTBF",
                    lambda rows: rows[-1].best_level,
                    ">=",
                    3,
                ),
            ),
        ),
        Target(
            "ext3",
            "extension",
            "architectural DSE: fat tree vs dragonfly",
            "EXT3 — architectural DSE: fat tree vs notional dragonfly",
            "Plug-and-play interconnect swap under identical applications and FT scenarios.",
            "extensions",
            lambda m, ctx, seed, reps: m.architectural_dse(reps=reps),
            "format_ext3",
            claims=(
                Claim(
                    "no_ft < l1 < l1+l2 on both fabrics (smallest step, s)",
                    lambda rows: min(
                        _rising(
                            [
                                r.total
                                for s in _SCENARIOS
                                for r in rows
                                if r.architecture == arch and r.scenario == s
                            ]
                        )
                        for arch in ("fat-tree", "dragonfly")
                    ),
                    ">",
                    0.0,
                ),
            ),
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
            lambda m, ctx, seed, reps: m.hardware_upgrade_dse(reps=reps),
            "format_ext4",
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
            lambda m, ctx, seed, reps: m.level_fault_dse(reps=reps),
            "format_ext5",
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
            lambda m, ctx, seed, reps: m.abft_vs_checkpointing(),
            "format_ext6",
        ),
        Target(
            "ext7",
            "extension",
            "modeling granularity ablation",
            "EXT7 — modeling granularity: coarse vs fine kernels",
            "BE-SST's speed/accuracy knob: one timestep model vs force+EOS "
            "subkernel models of the same application.",
            "extensions",
            lambda m, ctx, seed, reps: m.granularity_ablation(reps=reps, seed=seed),
            "format_ext7",
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
            lambda m, ctx, seed, reps: m.sdc_verification_dse(reps=reps, seed=seed),
            "format_ext8",
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
            lambda m, ctx, seed, reps: m.network_fault_dse(reps=reps, seed=seed),
            "format_ext9",
        ),
        Target(
            "abl1",
            "ablation",
            "LUT vs symbolic regression",
            "ABL1 — modeling method: interpolation vs symbolic regression",
            "Both of the paper's Model-Development methods on identical calibration data.",
            "ablations",
            lambda m, ctx, seed, reps: m.modeling_method_ablation(ctx),
            "format_abl1",
            context=True,
            claims=(
                Claim(
                    "largest symbolic-regression MAPE over the kernels (%)",
                    lambda table: max(row["symreg"] for row in table.values()),
                    "<",
                    30.0,
                ),
                Claim(
                    "largest LUT MAPE over the kernels (%)",
                    lambda table: max(row["lut"] for row in table.values()),
                    "<",
                    30.0,
                ),
            ),
        ),
        Target(
            "abl2",
            "ablation",
            "checkpoint period vs Young/Daly",
            "ABL2 — checkpoint period vs Young/Daly",
            "Fault-injected sweep of the period; the simulated optimum "
            "should bracket Daly's analytic interval.",
            "ablations",
            lambda m, ctx, seed, reps: m.youngdaly_ablation(ctx, reps=reps),
            "format_abl2",
            context=True,
            claims=(
                Claim(
                    "the optimum is interior: shortest period's total vs the best (s)",
                    lambda res: res.points[0].mean_total,
                    ">=",
                    lambda res: _by(res.points, "period")[res.best_period].mean_total,
                ),
                Claim(
                    "the optimum is interior: longest period's total vs the best (s)",
                    lambda res: res.points[-1].mean_total,
                    ">=",
                    lambda res: _by(res.points, "period")[res.best_period].mean_total,
                ),
                Claim(
                    "Daly's analytic optimum (timesteps)",
                    lambda res: res.daly_period_timesteps,
                    ">",
                    0.0,
                ),
                Claim(
                    "simulated / Daly optimum, lower end",
                    lambda res: res.best_period / max(res.daly_period_timesteps, 1e-9),
                    ">=",
                    0.25,
                ),
                Claim(
                    "simulated / Daly optimum, upper end",
                    lambda res: res.best_period / max(res.daly_period_timesteps, 1e-9),
                    "<=",
                    16.0,
                ),
            ),
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
            lambda m, ctx, seed, reps: m.analytical_baselines(),
            "format_abl3",
            claims=(
                Claim(
                    "fault-free Amdahl dominates Amdahl+C/R: smallest "
                    "amdahl - 0.999 * amdahl_ft",
                    lambda rows: min(r["amdahl"] - r["amdahl_ft"] * 0.999 for r in rows),
                    ">=",
                    0.0,
                ),
                Claim(
                    "a finite optimal process count exists: Gustafson+C/R optimum, lower end",
                    lambda rows: _gustafson_optimum()[0],
                    ">",
                    1,
                ),
                Claim(
                    "a finite optimal process count exists: Gustafson+C/R optimum, upper end",
                    lambda rows: _gustafson_optimum()[0],
                    "<",
                    10**7,
                ),
                Claim(
                    "more nodes eventually hurt: speedup at 32x the optimum vs at it",
                    lambda rows: _gustafson_optimum()[2],
                    "<",
                    lambda rows: _gustafson_optimum()[1],
                ),
            ),
        ),
        Target(
            "abl4",
            "ablation",
            "sequential vs parallel DES engine",
            "ABL4 — sequential vs conservative-parallel DES engine",
            "The SST-substitute's YAWNS-style engine is observationally "
            "identical to the sequential engine.",
            "ablations",
            lambda m, ctx, seed, reps: m.engine_ablation(),
            "format_abl4",
            claims=(
                Claim(
                    "2 partitions visit every node as the sequential engine does",
                    lambda res: res["parallel_2"]["identical"],
                    "==",
                    True,
                ),
                Claim(
                    "4 partitions visit every node as the sequential engine does",
                    lambda res: res["parallel_4"]["identical"],
                    "==",
                    True,
                ),
                Claim(
                    "every engine fires the same events (distinct event counts)",
                    lambda res: len({row["events"] for row in res.values()}),
                    "==",
                    1,
                ),
                Claim(
                    "the window machinery engages at 4 partitions (windows)",
                    lambda res: res["parallel_4"]["windows"],
                    ">",
                    1,
                ),
            ),
        ),
    )
}


def _run(name: str, seed: int, reps: int) -> tuple[str, Any]:
    """Run the target *name* once; return its rendered text and result."""
    target = TARGETS[name]
    module = importlib.import_module(f"repro.exps.{target.module}")
    ctx = None
    if target.context:
        from repro.exps.casestudy import get_context

        ctx = get_context(seed=seed)
    result = target.compute(module, ctx, seed, reps)
    return getattr(module, target.render)(result), result


def run_target(name: str, seed: int, reps: int) -> str:
    """Run the target *name* and return its rendered text."""
    return _run(name, seed, reps)[0]


def evaluate_target(name: str, seed: int, reps: int) -> tuple[str, list[str]]:
    """Run the target *name* once; return its rendered text and one line
    per claim that fails on that same result."""
    text, result = _run(name, seed, reps)
    failures = [c.failure(result) for c in TARGETS[name].claims]
    return text, [f for f in failures if f is not None]
