"""Fig. 1: BE-SST DSE of CMT-bone on Vulcan.

Benchmarked vs simulated timestep-runtime *distributions* across
(problem size, MPI ranks), validated up to a 128k-core-scale allocation
and predicted beyond the machine (to 1M ranks).  Each point is a
Monte-Carlo distribution, reproducing the scatter + pop-out structure of
the paper's figure.

The DES simulation is run for the validation region; the prediction
region composes the same models analytically (timestep model + exchange
+ allreduce cost), since a million simulated rank components exceeds
what the in-process engine should be asked to do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.ft import NO_FT
from repro.core.instructions import Collective, Exchange
from repro.core.workflow import ModelDevelopment, build_archbeo, simulate_design_point
from repro.apps.cmtbone import cmtbone_appbeo
from repro.testbed.machine import measure_application_run
from repro.testbed.vulcan import make_vulcan

#: validation ranks (simulated AND measured) — powers of 8 on the torus
FIG1_VALIDATE_RANKS = (16, 128, 1024, 4096)
#: prediction ranks (model-composed only), up to 1M
FIG1_PREDICT_RANKS = (32_768, 262_144, 1_048_576)
FIG1_ELEM_SIZES = (5, 10, 15)
FIG1_ELEMENTS = 64


@dataclass
class Fig1Point:
    """One scatter point (a distribution) of Fig. 1."""

    elem_size: int
    ranks: int
    predicted_mean: float
    predicted_std: float
    measured_mean: Optional[float]
    measured_std: Optional[float]

    @property
    def is_prediction(self) -> bool:
        return self.measured_mean is None

    @property
    def percent_error(self) -> Optional[float]:
        if self.measured_mean is None:
            return None
        return 100.0 * abs(self.predicted_mean - self.measured_mean) / self.measured_mean


def _analytic_timestep(arch, params: dict, nranks: int, max_validated: int) -> float:
    """Model-composed timestep time (prediction region).

    A polynomial model fitted on ranks <= ``max_validated`` is not
    trustworthy 1000x beyond its grid, so the kernel model is evaluated at
    the validation edge and the ranks-dependence beyond it comes from the
    topology-scaled communication terms (exchange + allreduce) — models
    "validated at smaller sizes" composed with the architecture, as the
    paper does for the beyond-the-machine region of Fig. 1.
    """
    clamped = dict(params)
    clamped["ranks"] = min(nranks, max_validated)
    face_bytes = int(params["elements"]) * int(params["elem_size"]) ** 2 * 8
    kernel = arch.predict("cmtbone_timestep", clamped)
    kernel *= _straggler_factor(arch.models["cmtbone_timestep"], nranks)
    return (
        kernel
        + arch.exchange_time(Exchange(nbytes=face_bytes, neighbors=6))
        + arch.collective_time(Collective("allreduce", nbytes=8), nranks)
    )


def _straggler_factor(model, nranks: int, trials: int = 64) -> float:
    """Expected max-over-ranks inflation of a bulk-synchronous step.

    Estimated from the model's empirical noise factors (the bootstrap max
    saturates at the pool maximum once ``nranks`` far exceeds the pool).
    """
    factors = getattr(model, "noise_factors", None)
    if factors is None or len(factors) == 0 or nranks <= 1:
        return 1.0
    factors = np.asarray(factors, dtype=float)
    if nranks >= 20 * factors.size:
        return float(factors.max())
    rng = np.random.default_rng(0)
    draws = factors[rng.integers(0, factors.size, size=(trials, nranks))]
    return float(draws.max(axis=1).mean())


def cmtbone_dse(
    elem_sizes: Sequence[int] = FIG1_ELEM_SIZES,
    validate_ranks: Sequence[int] = FIG1_VALIDATE_RANKS,
    predict_ranks: Sequence[int] = FIG1_PREDICT_RANKS,
    elements: int = FIG1_ELEMENTS,
    reps: int = 10,
    seed: int = 0,
) -> list[Fig1Point]:
    """Run the Fig. 1 experiment end to end."""
    machine = make_vulcan()
    grid = [
        {"elem_size": es, "elements": elements, "ranks": r}
        for es in elem_sizes
        for r in validate_ranks
    ]
    # A generous sample count matters here: the straggler max over
    # thousands of ranks is dominated by rare outlier samples, and the
    # Monte-Carlo noise pool can only replay outliers it has seen.
    dev = ModelDevelopment(
        machine, ["cmtbone_timestep"], grid=grid, samples_per_point=30, seed=seed
    ).run()
    arch = build_archbeo(machine, dev.models())
    app = cmtbone_appbeo(timesteps=1)

    points: list[Fig1Point] = []
    for es in elem_sizes:
        for r in validate_ranks:
            mc = simulate_design_point(
                app,
                arch,
                r,
                {"elem_size": es, "elements": elements},
                reps=reps,
                base_seed=seed + 31,
                record_timelines="none",
            )
            # job-level measurement: one-timestep runs whose duration is
            # the straggler max over ranks, matching what the simulated
            # totals represent
            measured = np.array(
                [
                    measure_application_run(
                        machine,
                        r,
                        1,
                        NO_FT,
                        {"elem_size": es, "elements": elements},
                        timestep_kernel="cmtbone_timestep",
                        seed=seed + 97 + i,
                    ).total_time
                    for i in range(reps)
                ]
            )
            points.append(
                Fig1Point(
                    elem_size=es,
                    ranks=r,
                    predicted_mean=mc.total_time.mean,
                    predicted_std=mc.total_time.std,
                    measured_mean=float(measured.mean()),
                    measured_std=float(measured.std(ddof=1)),
                )
            )
        for r in predict_ranks:
            params = {"elem_size": es, "elements": elements, "ranks": r}
            base = _analytic_timestep(arch, params, r, max(validate_ranks))
            noise = getattr(arch.models["cmtbone_timestep"], "noise_rel_std", 0.0)
            points.append(
                Fig1Point(
                    elem_size=es,
                    ranks=r,
                    predicted_mean=base,
                    predicted_std=base * noise,
                    measured_mean=None,
                    measured_std=None,
                )
            )
    return points


def format_fig1(points: list[Fig1Point]) -> str:
    lines = [
        "Fig. 1 — CMT-bone on Vulcan: benchmarked vs simulated timestep "
        "distributions (* = prediction beyond the machine)",
        f"{'elem':>5s}{'ranks':>10s}{'sim mean':>12s}{'sim std':>10s}"
        f"{'meas mean':>12s}{'err %':>8s}",
    ]
    for p in points:
        meas = f"{p.measured_mean * 1e3:9.2f}ms" if p.measured_mean else "         *"
        err = f"{p.percent_error:7.1f}%" if p.percent_error is not None else "       -"
        lines.append(
            f"{p.elem_size:>5d}{p.ranks:>10d}{p.predicted_mean * 1e3:>10.2f}ms"
            f"{p.predicted_std * 1e3:>8.2f}ms{meas:>12s}{err:>8s}"
        )
    mapes = [p.percent_error for p in points if p.percent_error is not None]
    if mapes:
        lines.append(f"validation MAPE: {np.mean(mapes):.2f}%")
    return "\n".join(lines)
