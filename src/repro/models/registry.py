"""Model persistence: save and load fitted performance models.

The Model Development phase is the expensive half of the workflow; teams
run it once per machine and share the fitted models.  A
:class:`ModelRegistry` serialises a named set of models (symbolic
regression and look-up tables) plus metadata to a single JSON document,
and can rebuild a ready-to-simulate ArchBEO model dict from it.

``CallableModel``/``ConstantModel`` are process-local by design and are
rejected with a clear error.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

from repro.models.base import ConstantModel, ModelError, PerformanceModel
from repro.models.dataset import BenchmarkDataset
from repro.models.lut import LookupTableModel
from repro.models.symreg.model import SymbolicRegressionModel

_FORMAT_VERSION = 1


def _serialize_model(model: PerformanceModel) -> dict:
    if isinstance(model, SymbolicRegressionModel):
        return model.to_dict()
    if isinstance(model, LookupTableModel):
        return {
            "type": "lut",
            "dataset": model.dataset.to_dict(),
            "interpolation": model.interpolation,
            "sample_mode": model.sample_mode,
            "extrapolation": model.extrapolation,
            "noise": model.noise,
        }
    if isinstance(model, ConstantModel):
        return {"type": "constant", "value": model.value}
    raise ModelError(
        f"model of type {type(model).__name__} is not serialisable; "
        "use SymbolicRegressionModel, LookupTableModel or ConstantModel"
    )


def _deserialize_model(data: Mapping) -> PerformanceModel:
    kind = data.get("type")
    if kind == "symreg":
        return SymbolicRegressionModel.from_dict(data)
    if kind == "lut":
        return LookupTableModel(
            BenchmarkDataset.from_dict(data["dataset"]),
            interpolation=data.get("interpolation", "multilinear"),
            sample_mode=data.get("sample_mode", "draw"),
            extrapolation=data.get("extrapolation", "linear"),
            noise=data.get("noise", "none"),
        )
    if kind == "constant":
        return ConstantModel(data["value"])
    raise ModelError(f"unknown serialised model type {kind!r}")


def _refuse_constant(name: str):
    raise ValueError(f"registry JSON holds the non-finite number {name}")


class ModelRegistry:
    """A named collection of persistable performance models.

    Parameters
    ----------
    machine:
        Label of the machine the models were calibrated on (metadata).
    """

    def __init__(self, machine: str = "") -> None:
        self.machine = machine
        self._models: dict[str, PerformanceModel] = {}

    def __len__(self) -> int:
        return len(self._models)

    def __contains__(self, kernel: str) -> bool:
        return kernel in self._models

    def add(self, kernel: str, model: PerformanceModel) -> "ModelRegistry":
        """Register *model* under *kernel* (validates serialisability)."""
        _serialize_model(model)  # fail fast on unserialisable models
        self._models[kernel] = model
        return self

    def get(self, kernel: str) -> PerformanceModel:
        try:
            return self._models[kernel]
        except KeyError:
            raise KeyError(
                f"no model for kernel {kernel!r}; registered: {sorted(self._models)}"
            ) from None

    def kernels(self) -> list[str]:
        return sorted(self._models)

    # -- persistence ------------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "format_version": _FORMAT_VERSION,
                "machine": self.machine,
                "models": {
                    k: _serialize_model(m) for k, m in sorted(self._models.items())
                },
            },
            indent=1,
        )

    @classmethod
    def from_json(cls, text: str) -> "ModelRegistry":
        """Rebuild a registry; a ``NaN``, ``Infinity`` or ``-Infinity``
        literal anywhere in *text* raises ``ValueError``."""
        data = json.loads(text, parse_constant=_refuse_constant)
        version = data.get("format_version")
        if version != _FORMAT_VERSION:
            raise ModelError(
                f"unsupported registry format version {version!r} "
                f"(expected {_FORMAT_VERSION})"
            )
        reg = cls(machine=data.get("machine", ""))
        for kernel, blob in data.get("models", {}).items():
            reg._models[kernel] = _deserialize_model(blob)
        return reg

    def save(self, path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path) -> "ModelRegistry":
        return cls.from_json(Path(path).read_text())

    @classmethod
    def from_fitted(cls, fitted: Mapping, machine: str = "") -> "ModelRegistry":
        """Build from a ``ModelDevelopment`` result's fitted mapping."""
        reg = cls(machine=machine)
        for kernel, fk in fitted.items():
            reg.add(kernel, fk.model if hasattr(fk, "model") else fk)
        return reg
