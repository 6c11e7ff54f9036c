"""Model registry persistence."""

import numpy as np
import pytest

from repro.models import (
    BenchmarkDataset,
    CallableModel,
    ConstantModel,
    LookupTableModel,
    ModelError,
)
from repro.models.registry import ModelRegistry
from repro.models.symreg import SymbolicRegressionModel


def make_lut():
    ds = BenchmarkDataset(("x",), kernel="k")
    for x in (1.0, 2.0, 3.0):
        ds.add_samples({"x": x}, [x * 10, x * 10 + 1])
    return LookupTableModel(ds, sample_mode="mean")


def test_add_and_get():
    reg = ModelRegistry("m")
    reg.add("a", ConstantModel(1.0)).add("b", make_lut())
    assert len(reg) == 2
    assert "a" in reg and "zz" not in reg
    assert reg.kernels() == ["a", "b"]
    assert reg.get("a").predict({}) == 1.0
    with pytest.raises(KeyError):
        reg.get("zz")


def test_unserialisable_model_rejected_early():
    reg = ModelRegistry()
    with pytest.raises(ModelError):
        reg.add("bad", CallableModel(lambda p: 1.0, ()))


def test_roundtrip_symreg():
    reg = ModelRegistry("quartz")
    m = SymbolicRegressionModel(
        "(2.5 * x + 1.0)", ("x",), noise_rel_std=0.1,
        noise_factors=[0.9, 1.0, 1.1],
    )
    reg.add("k", m)
    reg2 = ModelRegistry.from_json(reg.to_json())
    assert reg2.machine == "quartz"
    m2 = reg2.get("k")
    assert m2.predict({"x": 4.0}) == pytest.approx(11.0)
    assert m2.noise_factors.tolist() == [0.9, 1.0, 1.1]
    # Monte-Carlo noise behaves identically
    rng = np.random.default_rng(0)
    rng2 = np.random.default_rng(0)
    assert m.predict({"x": 4.0}, rng) == m2.predict({"x": 4.0}, rng2)


def test_roundtrip_lut_and_constant(tmp_path):
    reg = ModelRegistry("m")
    reg.add("lut", make_lut())
    reg.add("const", ConstantModel(0.25))
    path = tmp_path / "models.json"
    reg.save(path)
    reg2 = ModelRegistry.load(path)
    assert reg2.get("const").predict({}) == 0.25
    assert reg2.get("lut").predict({"x": 1.5}) == pytest.approx(
        reg.get("lut").predict({"x": 1.5})
    )
    # interpolation options preserved
    assert reg2.get("lut").sample_mode == "mean"


def test_version_check():
    reg = ModelRegistry()
    text = reg.to_json().replace('"format_version": 1', '"format_version": 99')
    with pytest.raises(ModelError):
        ModelRegistry.from_json(text)


def test_unknown_type_rejected():
    with pytest.raises(ModelError):
        ModelRegistry.from_json(
            '{"format_version": 1, "models": {"x": {"type": "nn"}}}'
        )


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_json_fails_at_load(literal):
    reg = ModelRegistry("m")
    reg.add("k", SymbolicRegressionModel("x", ("x",), noise_factors=[0.9, 1.1]))
    text = reg.to_json()
    assert "0.9" in text
    with pytest.raises(ValueError, match=literal):
        ModelRegistry.from_json(text.replace("0.9", literal))


def test_from_fitted_accepts_bare_models():
    reg = ModelRegistry.from_fitted({"k": ConstantModel(2.0)}, machine="m")
    assert reg.get("k").predict({}) == 2.0
