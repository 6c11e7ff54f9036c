"""Benchmark datasets: timing samples keyed by system-parameter tuples.

The Model Development phase instruments application blocks with timers and
collects *multiple samples per parameter combination* to capture machine
noise (Section III-A).  :class:`BenchmarkDataset` is that table — the
interface between the virtual testbed (``repro.testbed``), the modeling
methods (``repro.models.lut`` / ``repro.models.symreg``) and validation.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np


class BenchmarkDataset:
    """Timing samples for one instrumented kernel.

    Parameters
    ----------
    param_names:
        Ordered names of the system parameters that key each row (e.g.
        ``("epr", "ranks")``).
    kernel:
        Name of the instrumented block (e.g. ``"lulesh_timestep"``).
    """

    def __init__(self, param_names: Sequence[str], kernel: str = "") -> None:
        if not param_names:
            raise ValueError("param_names must be non-empty")
        if len(set(param_names)) != len(param_names):
            raise ValueError(f"duplicate parameter names in {param_names!r}")
        self.param_names: tuple[str, ...] = tuple(param_names)
        self.kernel = kernel
        self._rows: dict[tuple[float, ...], list[float]] = {}

    # -- construction --------------------------------------------------------

    def key_of(self, params: Mapping[str, float]) -> tuple[float, ...]:
        """Normalise a parameter mapping into this dataset's row key."""
        try:
            return tuple(float(params[name]) for name in self.param_names)
        except KeyError as exc:
            raise KeyError(
                f"missing parameter {exc.args[0]!r}; expected {self.param_names}"
            ) from None

    def add_sample(self, params: Mapping[str, float], value: float) -> None:
        """Record one timing sample for *params*."""
        v = float(value)
        if not np.isfinite(v) or v < 0:
            raise ValueError(f"invalid timing sample {value!r}")
        self._rows.setdefault(self.key_of(params), []).append(v)

    def add_samples(self, params: Mapping[str, float], values: Iterable[float]) -> None:
        for v in values:
            self.add_sample(params, v)

    # -- access ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def n_samples(self) -> int:
        return sum(len(v) for v in self._rows.values())

    def keys(self) -> list[tuple[float, ...]]:
        return sorted(self._rows)

    def params_of(self, key: tuple[float, ...]) -> dict[str, float]:
        return dict(zip(self.param_names, key))

    def samples(self, params: Mapping[str, float]) -> np.ndarray:
        """All samples recorded at exactly *params* (empty array if none)."""
        return np.asarray(self._rows.get(self.key_of(params), []), dtype=float)

    def mean(self, params: Mapping[str, float]) -> float:
        s = self.samples(params)
        if s.size == 0:
            raise KeyError(f"no samples at {dict(params)!r}")
        return float(s.mean())

    def std(self, params: Mapping[str, float]) -> float:
        s = self.samples(params)
        if s.size == 0:
            raise KeyError(f"no samples at {dict(params)!r}")
        return float(s.std(ddof=1)) if s.size > 1 else 0.0

    def grid_values(self, name: str) -> np.ndarray:
        """Sorted unique values of parameter *name* present in the table."""
        if name not in self.param_names:
            raise KeyError(f"unknown parameter {name!r}")
        idx = self.param_names.index(name)
        return np.unique([k[idx] for k in self._rows])

    def to_arrays(
        self, aggregate: str = "mean"
    ) -> tuple[np.ndarray, np.ndarray]:
        """Flatten to ``(X, y)`` training arrays.

        Parameters
        ----------
        aggregate:
            ``"mean"``/``"median"`` collapse each row's samples to one
            target; ``"none"`` emits one (params, sample) pair per sample.
        """
        xs: list[tuple[float, ...]] = []
        ys: list[float] = []
        for key in self.keys():
            vals = np.asarray(self._rows[key], dtype=float)
            if aggregate == "mean":
                xs.append(key)
                ys.append(float(vals.mean()))
            elif aggregate == "median":
                xs.append(key)
                ys.append(float(np.median(vals)))
            elif aggregate == "none":
                for v in vals:
                    xs.append(key)
                    ys.append(float(v))
            else:
                raise ValueError(f"unknown aggregate {aggregate!r}")
        return np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)

    # -- manipulation ----------------------------------------------------------

    def split(
        self, test_fraction: float = 0.25, seed: int = 0
    ) -> tuple["BenchmarkDataset", "BenchmarkDataset"]:
        """Split rows (parameter combinations) into train/test datasets.

        The symbolic-regression workflow of the paper splits benchmarking
        data into training and testing partitions; the split is by
        parameter combination so the test set is genuinely unseen.
        """
        if not 0.0 < test_fraction < 1.0:
            raise ValueError(f"test_fraction must be in (0,1), got {test_fraction}")
        keys = self.keys()
        if len(keys) < 2:
            raise ValueError("need at least 2 parameter combinations to split")
        rng = np.random.default_rng(seed)
        n_test = max(1, int(round(len(keys) * test_fraction)))
        n_test = min(n_test, len(keys) - 1)
        test_idx = set(rng.choice(len(keys), size=n_test, replace=False).tolist())
        train = BenchmarkDataset(self.param_names, self.kernel)
        test = BenchmarkDataset(self.param_names, self.kernel)
        for i, key in enumerate(keys):
            target = test if i in test_idx else train
            target._rows[key] = list(self._rows[key])
        return train, test

    def merge(self, other: "BenchmarkDataset") -> "BenchmarkDataset":
        """Union of two datasets over identical parameter spaces."""
        if other.param_names != self.param_names:
            raise ValueError(
                f"parameter mismatch: {self.param_names} vs {other.param_names}"
            )
        out = BenchmarkDataset(self.param_names, self.kernel or other.kernel)
        for src in (self, other):
            for key, vals in src._rows.items():
                out._rows.setdefault(key, []).extend(vals)
        return out

    # -- persistence -------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "param_names": list(self.param_names),
            "rows": [
                {"params": list(key), "samples": list(vals)}
                for key, vals in sorted(self._rows.items())
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "BenchmarkDataset":
        ds = cls(data["param_names"], data.get("kernel", ""))
        for row in data["rows"]:
            ds._rows[tuple(float(v) for v in row["params"])] = [
                float(s) for s in row["samples"]
            ]
        return ds

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1))

    @classmethod
    def load(cls, path) -> "BenchmarkDataset":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BenchmarkDataset(kernel={self.kernel!r}, params={self.param_names}, "
            f"rows={len(self)}, samples={self.n_samples})"
        )
