"""Design-space exploration utilities.

The Co-Design phase sweeps candidate designs — (problem size, rank count,
FT scenario) triples in the case study — and compares predicted runtimes.
:func:`overhead_matrix` reproduces the presentation of Fig. 9: every
design point's runtime as a percentage of a chosen baseline point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

from repro.core.ft import FTScenario


@dataclass(frozen=True)
class DesignPoint:
    """One candidate design in the (epr, ranks, scenario) space."""

    epr: int
    ranks: int
    scenario: FTScenario

    @property
    def key(self) -> tuple:
        return (self.epr, self.ranks, self.scenario.name)

    def __repr__(self) -> str:
        return f"DesignPoint(epr={self.epr}, ranks={self.ranks}, ft={self.scenario.name})"


def sweep(
    evaluate: Callable[[DesignPoint], float],
    eprs: Iterable[int],
    ranks: Iterable[int],
    scenarios: Iterable[FTScenario],
) -> dict[tuple, float]:
    """Evaluate every (epr, ranks, scenario) combination.

    Returns ``{(epr, ranks, scenario_name): value}``.  *evaluate* is
    typically a BE-SST simulation returning predicted total runtime.
    """
    out: dict[tuple, float] = {}
    for scenario in scenarios:
        for r in ranks:
            for e in eprs:
                point = DesignPoint(epr=e, ranks=r, scenario=scenario)
                out[point.key] = float(evaluate(point))
    if not out:
        raise ValueError("empty sweep")
    return out


def overhead_matrix(
    times: Mapping[tuple, float],
    baseline_key: Optional[tuple] = None,
) -> dict[tuple, float]:
    """Normalise sweep results to percent-of-baseline (Fig. 9).

    Parameters
    ----------
    times:
        Output of :func:`sweep`.
    baseline_key:
        The 100% reference point; defaults to the lexicographically
        smallest key (the paper uses epr=10, 64 ranks, no FT).

    Returns
    -------
    dict
        ``{key: percent}`` where the baseline maps to exactly 100.0.
    """
    if not times:
        raise ValueError("empty sweep results")
    if baseline_key is None:
        baseline_key = min(times)
    if baseline_key not in times:
        raise KeyError(f"baseline {baseline_key!r} not in sweep results")
    base = times[baseline_key]
    if base <= 0:
        raise ValueError(f"baseline time must be > 0, got {base}")
    return {k: 100.0 * v / base for k, v in times.items()}
