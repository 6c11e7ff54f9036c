"""Workflow drivers: the two phases of Fig. 2 as callable pipelines.

* :class:`ModelDevelopment` — benchmark the instrumented kernels on a
  (virtual) machine, fit per-kernel performance models, validate them
  (MAPE per kernel, the shape of Table III).
* :func:`build_archbeo` — assemble an ArchBEO from a machine plus fitted
  models, ready for the Co-Design phase.
* :func:`simulate_design_point` — one Co-Design evaluation: Monte-Carlo
  BE-SST simulation of an FT scenario at one (epr, ranks) point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from repro.core.beo import ArchBEO
from repro.core.montecarlo import MonteCarloResult, MonteCarloRunner
from repro.core.simulator import BESSTSimulator
from repro.models.calibration import (
    CalibrationPipeline,
    FittedKernelModel,
    dataset_mape,
)
from repro.models.dataset import BenchmarkDataset
from repro.models.symreg import GPConfig

if TYPE_CHECKING:  # pragma: no cover — avoids a core <-> testbed import cycle
    from repro.testbed.machine import VirtualMachine


@dataclass
class ModelDevelopmentResult:
    """Outputs of the Model Development phase."""

    datasets: dict[str, BenchmarkDataset]
    fitted: dict[str, FittedKernelModel]

    def validation_table(self) -> dict[str, float]:
        """Kernel -> MAPE over the full benchmark grid (Table III)."""
        return {
            name: dataset_mape(fk.model, self.datasets[name])
            for name, fk in self.fitted.items()
        }

    def models(self) -> dict[str, object]:
        return {name: fk.model for name, fk in self.fitted.items()}


class ModelDevelopment:
    """Phase 1: benchmark, fit, validate.

    Parameters
    ----------
    machine:
        The (virtual) system under test.
    kernels:
        Instrumented kernel names to model.
    grid:
        Parameter grid (defaults to the Table II case-study grid).
    samples_per_point:
        Timing samples per parameter combination.
    method / gp_config / log_target:
        Modeling options forwarded to
        :class:`~repro.models.calibration.CalibrationPipeline`.
    """

    def __init__(
        self,
        machine: VirtualMachine,
        kernels: Sequence[str],
        grid: Optional[Sequence[Mapping[str, float]]] = None,
        samples_per_point: int = 10,
        method: str = "symreg",
        gp_config: Optional[GPConfig] = None,
        log_target: bool = False,
        test_fraction: float = 0.25,
        seed: int = 0,
    ) -> None:
        if not kernels:
            raise ValueError("no kernels to model")
        self.machine = machine
        self.kernels = list(kernels)
        self.grid = grid
        self.samples_per_point = samples_per_point
        self.pipeline = CalibrationPipeline(
            method=method,
            test_fraction=test_fraction,
            gp_config=gp_config,
            log_target=log_target,
            seed=seed,
        )
        self.seed = seed

    def run(self) -> ModelDevelopmentResult:
        from repro.testbed.executor import run_benchmark_campaign

        datasets = run_benchmark_campaign(
            self.machine,
            self.kernels,
            grid=self.grid,
            samples_per_point=self.samples_per_point,
            seed=self.seed,
        )
        fitted = self.pipeline.fit_all(datasets)
        return ModelDevelopmentResult(datasets=datasets, fitted=fitted)


def build_archbeo(
    machine: VirtualMachine,
    models: Mapping[str, object],
    name: Optional[str] = None,
    node_mtbf_s: Optional[float] = None,
    recovery_time_s: float = 60.0,
) -> ArchBEO:
    """Assemble an ArchBEO for *machine* with the given kernel models.

    The FT-aware architecture parameters (node MTBF, recovery time) ride
    along for fault-injecting simulations (Fig. 2, label "C").
    """
    arch = ArchBEO(
        name=name or machine.name,
        topology=machine.topology,
        cores_per_node=machine.cores_per_node,
        node_mtbf_s=node_mtbf_s,
        recovery_time_s=recovery_time_s,
    )
    for kernel, model in models.items():
        arch.bind(kernel, model)
    return arch


def simulate_design_point(
    appbeo,
    archbeo: ArchBEO,
    nranks: int,
    params: Mapping[str, float],
    reps: int = 10,
    base_seed: int = 0,
    fault_injector_factory=None,
    max_events: Optional[int] = None,
    record_timelines: str = "rank0",
) -> MonteCarloResult:
    """Monte-Carlo evaluation of one design point (Co-Design phase).

    Replica *i* runs with seed ``base_seed + i`` and, if given, the fault
    injector ``fault_injector_factory(base_seed + i)``.
    """

    def factory(seed: int) -> BESSTSimulator:
        fi = fault_injector_factory(seed) if fault_injector_factory else None
        return BESSTSimulator(
            appbeo,
            archbeo,
            nranks=nranks,
            params=params,
            seed=seed,
            fault_injector=fi,
            record_timelines=record_timelines,
        )

    return MonteCarloRunner(reps=reps, base_seed=base_seed).run(
        factory, max_events=max_events
    )
