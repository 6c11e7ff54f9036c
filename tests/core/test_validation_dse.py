"""Validation reports and DSE sweep utilities."""

import pytest

from repro.core import (
    DesignPoint,
    NO_FT,
    ValidationReport,
    overhead_matrix,
    scenario_l1,
    sweep,
    validate_simulation,
)


# -- ValidationReport ----------------------------------------------------------


def test_report_mape_and_worst():
    rep = ValidationReport("r")
    rep.add({"p": 1}, measured=100.0, predicted=110.0)
    rep.add({"p": 2}, measured=100.0, predicted=80.0)
    assert rep.mape == pytest.approx(15.0)
    assert rep.worst.point == {"p": 2}
    s = rep.summary()
    assert s["points"] == 2 and s["worst_error"] == pytest.approx(20.0)


def test_report_requires_rows_and_positive_measured():
    rep = ValidationReport("empty")
    with pytest.raises(ValueError):
        _ = rep.mape
    with pytest.raises(ValueError):
        rep.add({}, measured=0.0, predicted=1.0)


def test_report_table_renders():
    rep = ValidationReport("k")
    rep.add({"epr": 5}, 1.0, 1.1)
    text = rep.table()
    assert "MAPE" in text and "epr=5" in text


def test_validate_simulation_pairs_keys():
    measured = {(5, 8): 1.0, (10, 8): 2.0}
    predicted = {(5, 8): 1.1, (10, 8): 1.9}
    rep = validate_simulation("test", measured, predicted)
    assert rep.mape == pytest.approx((10 + 5) / 2)
    assert rep.rows[0].point == {"epr": 5, "ranks": 8}


def test_validate_simulation_rejects_mismatch():
    with pytest.raises(KeyError):
        validate_simulation("t", {1: 1.0}, {2: 1.0})


# -- DSE sweep ---------------------------------------------------------------------


def fake_eval(point: DesignPoint) -> float:
    base = point.epr * 0.1 + point.ranks * 0.001
    mult = {"no_ft": 1.0, "l1": 1.5}[point.scenario.name]
    return base * mult


def test_sweep_covers_grid():
    out = sweep(fake_eval, [5, 10], [8, 64], [NO_FT, scenario_l1()])
    assert len(out) == 8
    assert out[(5, 8, "no_ft")] == pytest.approx(0.508)
    assert out[(5, 8, "l1")] == pytest.approx(0.762)


def test_overhead_matrix_baseline_is_100():
    out = sweep(fake_eval, [5, 10], [8, 64], [NO_FT, scenario_l1()])
    pct = overhead_matrix(out, baseline_key=(5, 8, "no_ft"))
    assert pct[(5, 8, "no_ft")] == pytest.approx(100.0)
    assert pct[(5, 8, "l1")] == pytest.approx(150.0)


def test_overhead_matrix_default_baseline_and_errors():
    out = {(1, 1, "a"): 2.0, (2, 1, "a"): 4.0}
    pct = overhead_matrix(out)
    assert pct[(1, 1, "a")] == 100.0
    with pytest.raises(KeyError):
        overhead_matrix(out, baseline_key=(9, 9, "x"))
    with pytest.raises(ValueError):
        overhead_matrix({})
    with pytest.raises(ValueError):
        overhead_matrix({(1, 1, "a"): 0.0})


def test_design_point_key():
    p = DesignPoint(epr=10, ranks=64, scenario=scenario_l1())
    assert p.key == (10, 64, "l1")
    assert "l1" in repr(p)


def test_sweep_empty_raises():
    with pytest.raises(ValueError):
        sweep(fake_eval, [], [], [])
