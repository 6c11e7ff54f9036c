"""Performance-model interface.

A performance model answers one question for the simulator: *given these
system parameters, how long does this abstract instruction take?*  Models
may be stochastic — :meth:`PerformanceModel.predict` accepts an optional
RNG so Monte-Carlo simulation can draw from the calibration distribution
(deterministic mean prediction when no RNG is supplied).
"""

from __future__ import annotations

import abc
import math
from typing import Callable, Mapping, Optional, Sequence

import numpy as np


class ModelError(RuntimeError):
    """Raised when a model cannot produce a prediction."""


class PerformanceModel(abc.ABC):
    """Abstract base for all performance models.

    Attributes
    ----------
    param_names:
        The system parameters the model consumes; extra keys in the
        mapping passed to :meth:`predict` are ignored.
    """

    param_names: tuple[str, ...] = ()

    @abc.abstractmethod
    def predict(
        self,
        params: Mapping[str, float],
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """Predicted runtime (seconds) for *params*.

        With *rng*, stochastic models draw from their calibration
        distribution; without, they return the deterministic central
        prediction.
        """

    def price_table(self, params: Mapping[str, float]) -> Optional[np.ndarray]:
        """Every runtime ``predict(params, rng)`` can return, or ``None``.

        Entry ``i`` is the prediction when the call's one draw,
        ``rng.integers(0, len(table))``, returns ``i``; a one-entry table
        draws nothing.  A simulator can then draw a whole run's noise as a
        block.  ``None`` (the default) means the model's noise is not such
        a draw.
        """
        return None

    def _check_params(self, params: Mapping[str, float]) -> None:
        missing = [n for n in self.param_names if n not in params]
        if missing:
            raise ModelError(
                f"{type(self).__name__} missing parameters {missing}; got "
                f"{sorted(params)}"
            )


class ConstantModel(PerformanceModel):
    """Always predicts the same value; useful for tests and stubs."""

    def __init__(self, value: float) -> None:
        if not 0 <= value < math.inf:
            raise ValueError(f"value must be finite and >= 0, got {value!r}")
        self.value = float(value)

    def predict(self, params, rng=None) -> float:
        return self.value

    def price_table(self, params) -> np.ndarray:
        return np.array([self.value])


class ScaledModel(PerformanceModel):
    """Wraps another model, scaling its predictions by a constant factor.

    This is the Co-Design phase's "what if the hardware were different"
    knob: e.g. a notional NVRAM-equipped node writing checkpoints 4x
    faster is the validated L1 model scaled by 0.25 — model replacement
    without re-benchmarking, exactly the plug-and-play DSE the workflow
    advertises.
    """

    def __init__(self, inner: PerformanceModel, factor: float) -> None:
        if not 0 < factor < math.inf:
            raise ValueError(f"factor must be finite and > 0, got {factor!r}")
        self.inner = inner
        self.factor = float(factor)
        self.param_names = inner.param_names

    def predict(self, params, rng=None) -> float:
        return self.factor * self.inner.predict(params, rng)

    def price_table(self, params) -> Optional[np.ndarray]:
        table = self.inner.price_table(params)
        return None if table is None else self.factor * table

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScaledModel({self.factor} * {self.inner!r})"


class CallableModel(PerformanceModel):
    """Adapts ``f(params) -> seconds`` (optionally ``f(params, rng)``).

    Parameters
    ----------
    fn:
        The prediction function.
    param_names:
        Declared parameters, for interface checking.
    stochastic:
        When true, *fn* is called as ``fn(params, rng)``.
    """

    def __init__(
        self,
        fn: Callable,
        param_names: Sequence[str] = (),
        stochastic: bool = False,
    ) -> None:
        self.fn = fn
        self.param_names = tuple(param_names)
        self.stochastic = stochastic

    def predict(self, params, rng=None) -> float:
        self._check_params(params)
        if self.stochastic:
            out = self.fn(params, rng)
        else:
            out = self.fn(params)
        out = float(out)
        if not np.isfinite(out) or out < 0:
            raise ModelError(f"model produced invalid runtime {out!r} for {dict(params)!r}")
        return out
