"""Experiment drivers produce the right shapes (light configurations)."""

import numpy as np
import pytest

from repro.exps.fig5_6 import (
    PREDICT_EPR,
    PREDICT_RANKS,
    format_fig5,
    format_fig6,
    instance_scaling,
)
from repro.exps.table3 import PAPER_TABLE3, format_table3, instance_model_mape
from repro.exps.fig7_8 import full_system_curves, format_fig7_8
from repro.exps.table4 import format_table4, full_system_mape
from repro.exps.fig9 import format_fig9, overhead_prediction
from repro.exps.fig4 import fault_assumption_cases, format_fig4
from repro.exps.ablations import (
    analytical_baselines,
    engine_ablation,
    format_abl1,
    format_abl2,
    format_abl3,
    format_abl4,
    modeling_method_ablation,
    youngdaly_ablation,
)


def test_instance_scaling_rows(ctx):
    rows = instance_scaling(ctx, validation_samples=3)
    # 3 kernels x (25 validation + 5 + 5 prediction)
    assert len(rows) == 3 * 35
    pred = [r for r in rows if r.is_prediction]
    assert all(r.epr == PREDICT_EPR or r.ranks == PREDICT_RANKS for r in pred)
    assert all(r.predicted > 0 for r in rows)
    text5, text6 = format_fig5(rows), format_fig6(rows)
    assert "Fig. 5" in text5 and "1331" in text6


def test_checkpoint_curves_above_timestep(ctx):
    rows = instance_scaling(ctx, validation_samples=3)
    by = {(r.kernel, r.epr, r.ranks): r.predicted for r in rows}
    for epr in (10, 25):
        for ranks in (64, 1000):
            step = by[("lulesh_timestep", epr, ranks)]
            assert by[("fti_l1", epr, ranks)] > step
            assert by[("fti_l2", epr, ranks)] > step


def test_table3_reports(ctx):
    reports = instance_model_mape(ctx, validation_samples=3)
    assert set(reports) == set(PAPER_TABLE3)
    for rep in reports.values():
        assert len(rep.rows) == 25
        assert rep.mape < 60.0
    # the paper's qualitative finding: timestep error < checkpoint error
    assert reports["lulesh_timestep"].mape < max(
        reports["fti_l1"].mape, reports["fti_l2"].mape
    )
    assert "paper" in format_table3(reports)


def test_fig7_curves(ctx):
    curves = full_system_curves(8, epr=5, ctx=ctx, timesteps=40, reps=2)
    assert [c.scenario for c in curves] == ["no_ft", "l1", "l1+l2"]
    noft, l1, l12 = curves
    assert noft.simulated_total_mean < l1.simulated_total_mean < l12.simulated_total_mean
    assert len(l1.checkpoint_marks) == 1  # 40 ts / period 40
    assert len(l12.checkpoint_marks) == 2
    assert noft.simulated_curve.shape == (40,)
    assert np.all(np.diff(noft.simulated_curve) > 0)
    assert "Fig." in format_fig7_8(curves)


def test_table4_reports(ctx):
    reports = full_system_mape(
        ctx, eprs=(5, 10), ranks=(8,), timesteps=40, reps=2, measured_reps=1
    )
    assert set(reports) == {"no_ft", "l1", "l1+l2"}
    for rep in reports.values():
        assert len(rep.rows) == 2
        assert rep.mape < 80.0
    assert "Table IV" in format_table4(reports)


def test_fig9_matrix(ctx):
    pct = overhead_prediction(ctx, eprs=(5, 10), ranks=(64,), timesteps=40, reps=2)
    assert pct[(5, 64, "no_ft")] == pytest.approx(100.0)
    assert pct[(10, 64, "no_ft")] == pytest.approx(100.0)
    for e in (5, 10):
        assert pct[(e, 64, "l1")] > 100.0
        assert pct[(e, 64, "l1+l2")] > pct[(e, 64, "l1")]
    assert "overhead" in format_fig9(pct, eprs=(5, 10), ranks=(64,))


def test_fig4_cases(ctx):
    results = fault_assumption_cases(
        ctx, ranks=8, epr=5, timesteps=60, ckpt_period=10,
        node_mtbf_s=2.0, recovery_time_s=0.02, reps=3,
    )
    by = {r.case: r for r in results}
    assert set(by) == {1, 2, 3, 4}
    assert by[1].mean_faults == 0 and by[3].mean_faults == 0
    assert by[3].mean_total > by[1].mean_total          # FT overhead
    assert by[2].mean_total >= by[1].mean_total         # faults hurt
    if by[2].mean_faults >= 1 and by[4].mean_faults >= 1:
        assert by[2].mean_wasted > by[4].mean_wasted    # C/R bounds damage
    assert "case" in format_fig4(results)


def test_abl1_modeling_methods(ctx):
    table = modeling_method_ablation(ctx)
    assert set(table) == {"lulesh_timestep", "fti_l1", "fti_l2"}
    for row in table.values():
        assert row["symreg"] >= 0 and row["lut"] >= 0
    assert "symreg" in format_abl1(table)


def test_abl2_youngdaly(ctx):
    res = youngdaly_ablation(
        ctx, periods=(5, 20, 80), ranks=8, epr=5, timesteps=80,
        node_mtbf_s=8.0, reps=2,
    )
    assert len(res.points) == 3
    assert res.best_period in (5, 20, 80)
    assert res.daly_period_timesteps > 0
    assert "Daly" in format_abl2(res)


def test_abl3_analytical():
    rows = analytical_baselines(counts=(1, 64, 4096))
    assert len(rows) == 3
    # fault-free Amdahl dominates the FT-aware variants
    for r in rows:
        assert r["amdahl"] >= r["amdahl_ft"] * 0.999
    assert "Amdahl" in format_abl3(rows)


def test_abl4_engines():
    res = engine_ablation(n_ring=6, laps=20)
    assert res["parallel_2"]["identical"]
    assert res["parallel_4"]["identical"]
    assert res["sequential"]["events"] == res["parallel_2"]["events"]
    assert "sequential" in format_abl4(res)


def test_fault_runs_leave_the_cached_archbeo_alone():
    """fig4 and abl2 simulate with their own recovery time on a copy of
    the cached context's ArchBEO, so a later caller of the same context
    does not inherit it."""
    from repro.exps.casestudy import get_context
    from repro.targets import run_target

    before = get_context(seed=0).archbeo.recovery_time_s
    for name in ("fig4", "abl2"):
        run_target(name, 0, 1)
        assert get_context(seed=0).archbeo.recovery_time_s == before, name
