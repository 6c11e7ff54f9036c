"""Tests for the calibration pipeline and base models."""

import numpy as np
import pytest

from repro.models import (
    BenchmarkDataset,
    CalibrationPipeline,
    CallableModel,
    ConstantModel,
    ModelError,
)
from repro.models.calibration import dataset_mape
from repro.models.symreg import GPConfig


def toy_dataset(kernel="k", fn=lambda p: 3 * p["n"] + 2, n_values=12, seed=0):
    rng = np.random.default_rng(seed)
    ds = BenchmarkDataset(("n",), kernel=kernel)
    for n in range(1, n_values + 1):
        base = fn({"n": float(n)})
        for _ in range(4):
            ds.add_sample({"n": n}, base * (1 + rng.normal(0, 0.02)))
    return ds


def test_constant_model():
    m = ConstantModel(2.5)
    assert m.predict({}) == 2.5
    with pytest.raises(ValueError):
        ConstantModel(-1)


def test_callable_model_checks_and_validates():
    m = CallableModel(lambda p: p["n"] * 2.0, ("n",))
    assert m.predict({"n": 3}) == 6.0
    with pytest.raises(ModelError):
        m.predict({})
    bad = CallableModel(lambda p: float("nan"), ())
    with pytest.raises(ModelError):
        bad.predict({})


def test_callable_model_stochastic():
    m = CallableModel(
        lambda p, rng: 1.0 + (rng.random() if rng else 0.0), (), stochastic=True
    )
    rng = np.random.default_rng(0)
    assert m.predict({}, rng) != m.predict({})


def test_dataset_mape_zero_for_perfect_model():
    ds = toy_dataset()
    m = CallableModel(lambda p: float(np.mean(ds.samples(p))), ("n",))
    assert dataset_mape(m, ds) == 0.0


def test_pipeline_lut():
    pipe = CalibrationPipeline(method="lut", test_fraction=0.25, seed=1)
    fitted = pipe.fit_kernel(toy_dataset())
    assert fitted.method == "lut"
    assert fitted.train_mape < 1.0
    # held-out points of a linear function interpolate well
    assert fitted.test_mape is not None and fitted.test_mape < 10.0


def test_pipeline_symreg():
    cfg = GPConfig(population_size=100, generations=20, parsimony=2e-3)
    pipe = CalibrationPipeline(method="symreg", gp_config=cfg, seed=0)
    fitted = pipe.fit_kernel(toy_dataset())
    assert fitted.train_mape < 10.0
    summary = fitted.summary()
    assert summary["kernel"] == "k" and summary["method"] == "symreg"


def test_pipeline_fit_all_and_table():
    cfg = GPConfig(population_size=80, generations=12)
    pipe = CalibrationPipeline(method="lut", seed=0, gp_config=cfg)
    datasets = {
        "a": toy_dataset("a", lambda p: 2 * p["n"]),
        "b": toy_dataset("b", lambda p: p["n"] ** 2),
    }
    fitted = pipe.fit_all(datasets)
    assert set(fitted) == {"a", "b"}
    table = CalibrationPipeline.validation_table(fitted, datasets)
    assert set(table) == {"a", "b"}
    assert all(v >= 0 for v in table.values())


def test_pipeline_rejects_tiny_dataset():
    ds = BenchmarkDataset(("n",), kernel="tiny")
    ds.add_sample({"n": 1}, 1.0)
    with pytest.raises(ValueError):
        CalibrationPipeline(method="lut").fit_kernel(ds)


def test_pipeline_unknown_method():
    with pytest.raises(ValueError):
        CalibrationPipeline(method="nn")


def test_scaled_model():
    from repro.models import ScaledModel

    inner = CallableModel(lambda p: p["n"] * 2.0, ("n",))
    scaled = ScaledModel(inner, 0.25)
    assert scaled.predict({"n": 8}) == pytest.approx(4.0)
    assert scaled.param_names == ("n",)
    with pytest.raises(ValueError):
        ScaledModel(inner, 0.0)


def test_scaled_model_passes_rng_through():
    import numpy as np
    from repro.models import ScaledModel

    inner = CallableModel(
        lambda p, rng: 1.0 + (rng.random() if rng else 0.0), (), stochastic=True
    )
    scaled = ScaledModel(inner, 2.0)
    rng = np.random.default_rng(0)
    stochastic = scaled.predict({}, rng)
    assert stochastic != scaled.predict({})
    assert 2.0 <= stochastic <= 4.0
