"""Case-study context: caching, simulation, measurement plumbing."""

import pytest

from repro.core.ft import NO_FT, scenario_l1
from repro.exps.casestudy import CASE_EPRS, CASE_RANKS, case_scenarios, get_context
from repro.models.symreg import GPConfig


def test_constants_match_table2():
    assert CASE_EPRS == (5, 10, 15, 20, 25)
    assert CASE_RANKS == (8, 64, 216, 512, 1000)
    names = [s.name for s in case_scenarios()]
    assert names == ["no_ft", "l1", "l1+l2"]


def test_context_is_cached(ctx):
    from tests.exps.conftest import _FAST_GP

    tiny_gp = GPConfig(population_size=8, generations=1, n_genes=1)
    again = get_context(seed=1, samples_per_point=6, gp_config=tiny_gp)
    assert again is not ctx  # different options -> different context
    same = get_context(seed=1, samples_per_point=6, gp_config=_FAST_GP)
    assert same is ctx


def test_context_has_fitted_models(ctx):
    assert set(ctx.dev.fitted) == {"lulesh_timestep", "fti_l1", "fti_l2"}
    table = ctx.dev.validation_table()
    assert all(v < 60.0 for v in table.values()), table


def test_simulate_cached_and_plausible(ctx):
    mc1 = ctx.simulate(10, 8, NO_FT, timesteps=20, reps=2)
    mc2 = ctx.simulate(10, 8, NO_FT, timesteps=20, reps=2)
    assert mc1 is mc2
    assert mc1.total_time.mean > 0
    ft = ctx.simulate(10, 8, scenario_l1(5), timesteps=20, reps=2)
    assert ft.total_time.mean > mc1.total_time.mean


def test_measure_run_cached(ctx):
    r1 = ctx.measure_run(10, 8, NO_FT, timesteps=10)
    r2 = ctx.measure_run(10, 8, NO_FT, timesteps=10)
    assert r1 is r2
    assert ctx.measure_mean_total(10, 8, NO_FT, timesteps=10, reps=2) > 0


def test_measure_kernel_mean(ctx):
    v = ctx.measure_kernel_mean("fti_l1", {"epr": 10, "ranks": 64}, nsamples=4)
    truth = ctx.machine.true_mean("fti_l1", {"epr": 10, "ranks": 64})
    assert v == pytest.approx(truth, rel=0.5)
