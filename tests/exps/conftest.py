"""Shared light-weight case-study context for experiment-driver tests.

The real experiments fit three symbolic-regression models over the full
Table II grid (about 7 s on one core of a 2-core x86 host); tests share one
cheaper context (smaller GP budget, fewer samples) built once per session.
"""

import pytest

from repro.exps.casestudy import get_context
from repro.models.symreg import GPConfig

_FAST_GP = GPConfig(population_size=80, generations=10, n_genes=3)


@pytest.fixture(scope="session")
def ctx():
    return get_context(seed=1, samples_per_point=6, gp_config=_FAST_GP)
