"""Analytical FT models: Young/Daly, reliability-aware speedup,
replication, spare nodes."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytical import (
    SpareNodeModel,
    amdahl_speedup,
    daly_interval,
    expected_runtime,
    gustafson_speedup,
    optimal_expected_runtime,
    optimal_process_count,
    reliability_aware_amdahl,
    reliability_aware_gustafson,
    replication_mtbf,
    replication_speedup,
    young_interval,
)


# -- Young / Daly -------------------------------------------------------------------


def test_young_formula():
    assert young_interval(10.0, 2000.0) == pytest.approx(math.sqrt(2 * 10 * 2000))


def test_daly_close_to_young_when_c_small():
    C, M = 1.0, 1e6
    assert daly_interval(C, M) == pytest.approx(young_interval(C, M), rel=0.01)


def test_daly_degenerate_regime():
    assert daly_interval(10.0, 4.0) == 4.0


def test_interval_validation():
    for fn in (young_interval, daly_interval):
        with pytest.raises(ValueError):
            fn(0, 100)
        with pytest.raises(ValueError):
            fn(1, 0)


def test_expected_runtime_increases_with_failure_rate():
    t_reliable = expected_runtime(3600, 600, 10, mtbf=1e9)
    t_faulty = expected_runtime(3600, 600, 10, mtbf=3600)
    assert t_faulty > t_reliable
    # reliable limit: work + checkpoint overhead only
    assert t_reliable == pytest.approx(3600 * (1 + 10 / 600), rel=0.01)


def test_expected_runtime_validation():
    with pytest.raises(ValueError):
        expected_runtime(0, 1, 1, 1)
    with pytest.raises(ValueError):
        expected_runtime(1, 0, 1, 1)
    with pytest.raises(ValueError):
        expected_runtime(1, 1, 1, 1, restart_cost=-1)


def test_optimum_is_a_minimum_of_the_curve():
    work, C, M = 36000.0, 30.0, 3600.0
    tau, t_opt = optimal_expected_runtime(work, C, M, method="daly")
    for factor in (0.25, 0.5, 2.0, 4.0):
        assert expected_runtime(work, tau * factor, C, M) >= t_opt * 0.999


def test_optimal_method_validation():
    with pytest.raises(ValueError):
        optimal_expected_runtime(1, 1, 1, method="magic")


@settings(max_examples=30)
@given(
    C=st.floats(min_value=0.1, max_value=100),
    M=st.floats(min_value=1000, max_value=1e7),
)
def test_young_interval_scales(C, M):
    tau = young_interval(C, M)
    assert tau == pytest.approx(math.sqrt(2 * C * M))
    assert young_interval(C, 4 * M) == pytest.approx(2 * tau)


# -- speedup laws ------------------------------------------------------------------------


def test_classic_laws():
    assert amdahl_speedup(1, 0.1) == 1.0
    assert amdahl_speedup(10**9, 0.1) == pytest.approx(10.0, rel=0.01)
    assert gustafson_speedup(100, 0.1) == pytest.approx(0.1 + 0.9 * 100)
    with pytest.raises(ValueError):
        amdahl_speedup(0, 0.1)
    with pytest.raises(ValueError):
        gustafson_speedup(1, 1.5)


def test_faults_reduce_speedup():
    n, f, mtbf = 1024, 0.001, 5 * 365 * 86400
    clean = amdahl_speedup(n, f)
    ft = reliability_aware_amdahl(n, f, node_mtbf=mtbf, ckpt_cost=60)
    assert ft < clean


def test_checkpointing_beats_no_ft_at_scale():
    # weak scaling: per-node work stays at `work`, so at scale the job is
    # long relative to the shrinking system MTBF and C/R pays off
    n, f, mtbf = 65536, 0.0001, 5 * 365 * 86400
    no_ft = reliability_aware_gustafson(n, f, node_mtbf=mtbf, ckpt_cost=None)
    with_ft = reliability_aware_gustafson(n, f, node_mtbf=mtbf, ckpt_cost=60)
    assert with_ft > no_ft


def test_no_ft_fine_when_job_short_relative_to_mtbf():
    # strong scaling at huge n: job shrinks below the MTBF, so paying
    # checkpoint overhead is a net loss (the cost-benefit trade-off)
    n, f, mtbf = 65536, 0.0001, 5 * 365 * 86400
    no_ft = reliability_aware_amdahl(n, f, node_mtbf=mtbf, ckpt_cost=None)
    with_ft = reliability_aware_amdahl(n, f, node_mtbf=mtbf, ckpt_cost=60)
    assert no_ft > with_ft


def test_speedup_non_monotone_under_faults():
    """The related work's key finding: more nodes can reduce speedup."""
    f, mtbf, C = 1e-5, 30 * 86400, 600.0
    n_opt = optimal_process_count(f, mtbf, ckpt_cost=C, law="gustafson", n_max=10**7)
    s_opt = reliability_aware_gustafson(n_opt, f, mtbf, ckpt_cost=C)
    s_beyond = reliability_aware_gustafson(n_opt * 16, f, mtbf, ckpt_cost=C)
    assert s_beyond < s_opt
    assert 1 < n_opt < 10**7


def test_optimal_process_count_validation():
    with pytest.raises(ValueError):
        optimal_process_count(0.1, 1000, law="moore")


# -- replication -----------------------------------------------------------------------------


def test_replication_mtbf_grows_with_reliability():
    assert replication_mtbf(100, node_mtbf=1e6, interval=100) > 1e6
    with pytest.raises(ValueError):
        replication_mtbf(1, 1e6, 100)


def test_replication_wins_at_extreme_scale():
    """Hussain et al.: replication allows greater max speedup when the
    plain C/R waste explodes."""
    f, mtbf, C = 1e-6, 86400.0, 120.0  # very failure-prone large system
    n = 2**20
    plain = reliability_aware_amdahl(n, f, node_mtbf=mtbf, ckpt_cost=C)
    repl = replication_speedup(n, f, node_mtbf=mtbf, ckpt_cost=C)
    assert repl > plain


def test_replication_loses_at_small_scale():
    f, mtbf, C = 0.001, 10 * 365 * 86400, 60.0
    n = 64
    plain = reliability_aware_amdahl(n, f, node_mtbf=mtbf, ckpt_cost=C)
    repl = replication_speedup(n, f, node_mtbf=mtbf, ckpt_cost=C)
    assert repl < plain  # halving parallelism is not worth it


def test_replication_validation():
    with pytest.raises(ValueError):
        replication_speedup(1, 0.1, 1e6, 60)
    with pytest.raises(ValueError):
        replication_speedup(4, 0.1, 1e6, 0)
    with pytest.raises(ValueError):
        replication_speedup(4, 0.1, 1e6, 60, law="other")


# -- spare nodes --------------------------------------------------------------------------------


def test_spare_model_validation():
    with pytest.raises(ValueError):
        SpareNodeModel(0, 1, 100, 10)
    with pytest.raises(ValueError):
        SpareNodeModel(1, -1, 100, 10)
    with pytest.raises(ValueError):
        SpareNodeModel(1, 1, 0, 10)


def test_spares_reduce_overhead_with_diminishing_returns():
    def overhead(s):
        m = SpareNodeModel(
            n_active=1000, n_spare=s, node_mtbf=30 * 86400,
            repair_time=3600, swap_cost=30, rebuild_cost=7200,
        )
        return m.expected_overhead(86400.0)

    o0, o2, o8, o16 = overhead(0), overhead(2), overhead(8), overhead(16)
    assert o0 > o2 > o8 >= o16
    assert (o0 - o2) > (o8 - o16)  # diminishing returns


def test_exhaustion_probability_bounds():
    m = SpareNodeModel(100, 5, 86400, 600)
    p = m.spare_exhaustion_probability()
    assert 0 <= p <= 1
    m0 = SpareNodeModel(100, 0, 86400, 600)
    assert m0.spare_exhaustion_probability() > p


def test_effective_runtime():
    m = SpareNodeModel(10, 2, 1e9, 60)
    assert 0 <= m.expected_overhead(1000.0) < 1.0
    with pytest.raises(ValueError):
        m.expected_overhead(0)


# -- two error types: fail-stop + silent data corruption ----------------------------


def test_two_error_reduces_to_young_without_sdc():
    from repro.analytical import two_error_interval

    assert two_error_interval(
        10.0, 0.0, 2000.0, math.inf
    ) == pytest.approx(young_interval(10.0, 2000.0))


def test_two_error_closed_form():
    from repro.analytical import two_error_interval

    C, V, Mf, Ms = 10.0, 2.0, 2000.0, 500.0
    tau = two_error_interval(C, V, Mf, Ms)
    assert tau == pytest.approx(math.sqrt((C + V) / (1 / (2 * Mf) + 1 / Ms)))
    # SDC dominates here (full-period loss at 4x the rate of half-period
    # fail-stop loss): the optimum is much shorter than Young's
    assert tau < young_interval(C + V, Mf)


def test_two_error_no_failures_never_checkpoint():
    from repro.analytical import two_error_interval

    assert two_error_interval(10.0, 1.0, math.inf, math.inf) == math.inf


def test_two_error_interval_minimises_waste():
    from repro.analytical import two_error_interval, two_error_waste_fraction

    C, V, Mf, Ms = 5.0, 1.0, 1500.0, 900.0
    tau = two_error_interval(C, V, Mf, Ms)
    w_opt = two_error_waste_fraction(tau, C, V, Mf, Ms)
    for factor in (0.5, 0.8, 1.25, 2.0):
        assert w_opt <= two_error_waste_fraction(factor * tau, C, V, Mf, Ms)


def test_two_error_monotonic_in_sdc_rate():
    from repro.analytical import two_error_interval

    # a faster silent-error process forces more frequent verification
    taus = [
        two_error_interval(10.0, 1.0, 2000.0, ms)
        for ms in (math.inf, 4000.0, 1000.0, 250.0)
    ]
    assert taus == sorted(taus, reverse=True)


def test_two_error_validation():
    from repro.analytical import two_error_interval, two_error_waste_fraction

    with pytest.raises(ValueError):
        two_error_interval(0.0, 1.0, 100.0, 100.0)
    with pytest.raises(ValueError):
        two_error_interval(1.0, -0.5, 100.0, 100.0)
    with pytest.raises(ValueError):
        two_error_interval(1.0, 1.0, -5.0, 100.0)
    with pytest.raises(ValueError):
        two_error_interval(1.0, 1.0, 100.0, 0.0)
    with pytest.raises(ValueError):
        two_error_waste_fraction(0.0, 1.0, 1.0, 100.0, 100.0)
