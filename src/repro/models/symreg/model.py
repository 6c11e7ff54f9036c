"""PerformanceModel wrapper around a fitted symbolic-regression expression.

Carries a calibrated multiplicative noise term (the relative residual
spread observed on the training data) so Monte-Carlo simulation can draw
from a realistic distribution, mirroring how BE-SST "implements Monte
Carlo simulations to capture the variance that exists in the calibration
samples".
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.models.base import ModelError, PerformanceModel
from repro.models.dataset import BenchmarkDataset
from repro.models.symreg.expr import Expression
from repro.models.symreg.gp import GPConfig, SymbolicRegressor
from repro.models.symreg.parser import parse_expression


class SymbolicRegressionModel(PerformanceModel):
    """A closed-form performance model ``t = f(params)``.

    Parameters
    ----------
    expression:
        The fitted expression (or its string form).
    param_names:
        Variables the expression may reference.
    noise_rel_std:
        Standard deviation of the multiplicative noise applied when an RNG
        is passed to :meth:`predict` (log-normal, mean 1) — used when no
        empirical factors are available.
    noise_factors:
        Empirical multiplicative deviations ``sample / point_mean`` pooled
        from the calibration data; when present, Monte-Carlo draws resample
        these (capturing outlier-heavy tails the way BE-SST "selects one of
        many samples").
    floor:
        Minimum returned runtime; protects against an expression dipping
        negative outside its calibration region.
    """

    def __init__(
        self,
        expression: Expression | str,
        param_names: Sequence[str],
        noise_rel_std: float = 0.0,
        noise_factors: Optional[Sequence[float]] = None,
        floor: float = 0.0,
    ) -> None:
        if isinstance(expression, str):
            expression = parse_expression(expression)
        self.expression = expression
        self.param_names = tuple(param_names)
        unknown = expression.variables() - set(self.param_names)
        if unknown:
            raise ModelError(f"expression references unknown variables {unknown}")
        # A NaN or infinite parameter would make every Monte-Carlo
        # prediction NaN or infinite.
        if not 0 <= noise_rel_std < math.inf:
            raise ValueError(f"noise_rel_std must be finite and >= 0, got {noise_rel_std!r}")
        self.noise_rel_std = float(noise_rel_std)
        self.noise_factors = (
            np.asarray(noise_factors, dtype=float) if noise_factors is not None else None
        )
        if self.noise_factors is not None and not (
            self.noise_factors.size
            and np.all((self.noise_factors >= 0) & (self.noise_factors < math.inf))
        ):
            raise ValueError("noise_factors must be non-empty, finite and non-negative")
        if not math.isfinite(floor):
            raise ValueError(f"floor must be finite, got {floor!r}")
        self.floor = float(floor)
        # Simulations call predict() with the same handful of parameter
        # points millions of times; memoise the deterministic part.
        self._cache: dict[tuple, float] = {}
        self._sigma = float(np.sqrt(np.log1p(self.noise_rel_std**2)))

    def _value(self, params: Mapping[str, float]) -> float:
        """The expression at *params*: the prediction before noise and floor."""
        try:
            key = tuple(params[name] for name in self.param_names)
        except KeyError:
            self._check_params(params)
            raise  # pragma: no cover - _check_params raises first
        value = self._cache.get(key)
        if value is None:
            env = {
                name: np.asarray(float(v))
                for name, v in zip(self.param_names, key)
            }
            value = float(self.expression.evaluate(env))
            if len(self._cache) < 65536:
                self._cache[key] = value
        return value

    def predict(
        self,
        params: Mapping[str, float],
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        value = self._value(params)
        if rng is not None:
            if self.noise_factors is not None:
                value *= float(
                    self.noise_factors[rng.integers(0, self.noise_factors.size)]
                )
            elif self.noise_rel_std > 0:
                value *= float(
                    rng.lognormal(mean=-0.5 * self._sigma**2, sigma=self._sigma)
                )
        return max(value, self.floor)

    def price_table(self, params: Mapping[str, float]) -> Optional[np.ndarray]:
        """``max(value * factor, floor)`` per noise factor.  Lognormal
        noise is not a table draw: ``None``."""
        if self.noise_factors is not None:
            prices = self._value(params) * self.noise_factors
        elif self.noise_rel_std > 0:
            return None
        else:
            prices = np.array([self._value(params)])
        # the comparison max() makes, so ties and NaN keep the same value
        return np.where(self.floor > prices, self.floor, prices)

    # -- persistence ------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "type": "symreg",
            "expression": str(self.expression),
            "param_names": list(self.param_names),
            "noise_rel_std": self.noise_rel_std,
            "noise_factors": (
                self.noise_factors.tolist() if self.noise_factors is not None else None
            ),
            "floor": self.floor,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SymbolicRegressionModel":
        return cls(
            expression=data["expression"],
            param_names=data["param_names"],
            noise_rel_std=data.get("noise_rel_std", 0.0),
            noise_factors=data.get("noise_factors"),
            floor=data.get("floor", 0.0),
        )

    # -- fitting ----------------------------------------------------------------

    @classmethod
    def fit_dataset(
        cls,
        train: BenchmarkDataset,
        test: Optional[BenchmarkDataset] = None,
        config: Optional[GPConfig] = None,
        seed: int = 0,
        log_target: bool = False,
    ) -> "SymbolicRegressionModel":
        """Fit to a :class:`BenchmarkDataset` (mean-aggregated).

        With ``log_target`` the GP fits ``log(t)`` and the model wraps the
        exponential — useful for kernels spanning orders of magnitude.
        """
        X, y = train.to_arrays("mean")
        target = np.log(y) if log_target else y
        Xt = yt = None
        if test is not None and len(test) > 0:
            Xt, yt = test.to_arrays("mean")
            if log_target:
                yt = np.log(yt)
        reg = SymbolicRegressor(train.param_names, config=config, seed=seed)
        result = reg.fit(X, target, Xt, yt)
        expr = result.expression
        if log_target:
            from repro.models.symreg.expr import Unary

            expr = Unary("exp", expr)
        # Calibrate multiplicative noise from the per-point sample spread:
        # pool every sample's relative deviation from its point mean.
        rel_stds = []
        factors: list[float] = []
        for key in train.keys():
            p = train.params_of(key)
            samples = train.samples(p)
            if samples.size > 1 and samples.mean() > 0:
                rel_stds.append(samples.std(ddof=1) / samples.mean())
                factors.extend((samples / samples.mean()).tolist())
        noise = float(np.mean(rel_stds)) if rel_stds else 0.0
        return cls(
            expression=expr,
            param_names=train.param_names,
            noise_rel_std=noise,
            noise_factors=factors if factors else None,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SymbolicRegressionModel({self.expression}, noise={self.noise_rel_std:.3g})"
