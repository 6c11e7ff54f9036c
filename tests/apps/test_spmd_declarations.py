"""Every in-tree ``spmd=True`` declaration is true.

The simulator builds an SPMD app once and gives every rank that program,
and nothing checks the declaration at run time.  Here each declared app
must build equal programs for the first, second and last rank.
"""

import importlib.util
import re
from pathlib import Path

import pytest

from repro.apps.cmtbone import cmtbone_appbeo
from repro.apps.iterative import iterative_solver_appbeo
from repro.apps.lulesh import lulesh_appbeo
from repro.core.campaign import CampaignSpec, build_campaign_app
from repro.core.ft import scenario_l1, scenario_l1_l2
from repro.exps.casestudy import case_scenarios
from repro.exps.extensions import granularity_apps

ROOT = Path(__file__).resolve().parents[2]


def _example_app():
    path = ROOT / "examples" / "self_healing_sim.py"
    spec = importlib.util.spec_from_file_location("self_healing_sim", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_sim().appbeo


def _cases():
    for scenario in [*case_scenarios(), scenario_l1_l2(4).with_verification(3)]:
        yield f"lulesh-{scenario.name}-v{scenario.verify_period}", (
            lambda s=scenario: lulesh_appbeo(timesteps=12, scenario=s)
        ), 27, {"epr": 6}
    yield "cmtbone", lambda: cmtbone_appbeo(timesteps=3), 16, {}
    yield "iterative", (
        lambda: iterative_solver_appbeo(iterations=12, scenario=scenario_l1(5))
    ), 8, {}
    for spec in (
        CampaignSpec(node_mtbf_s=8.0, ckpt_period=5, timesteps=20),
        CampaignSpec(node_mtbf_s=8.0, ckpt_period=3, level=2, timesteps=20,
                     verify_period=2, nranks=12, nnodes=6),
        CampaignSpec(node_mtbf_s=8.0, ckpt_period=4, timesteps=16, nranks=16,
                     nnodes=8, verify_period=4, net_topology="torus",
                     allreduce_bytes=1 << 20),
    ):
        yield f"campaign-p{spec.ckpt_period}-v{spec.verify_period}", (
            lambda s=spec: build_campaign_app(s)
        ), spec.nranks, {}
    for name, _kernels, app in granularity_apps(epr=5, timesteps=6):
        yield f"ext7-{name}", lambda a=app: a, 8, {}
    yield "example-self-healing", _example_app, 8, {}


CASES = list(_cases())


@pytest.mark.parametrize(
    "make_app, nranks, params", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_spmd_app_builds_the_same_program_on_every_rank(make_app, nranks, params):
    app = make_app()
    assert app.spmd
    first = app.build(0, nranks, params)
    assert first
    for rank in (1, nranks - 1):
        assert app.build(rank, nranks, params) == first


def test_every_spmd_declaration_is_covered():
    """A new ``spmd=True`` app must be added to the cases above."""
    declared = sorted(
        str(path.relative_to(ROOT))
        for top in ("src", "examples")
        for path in (ROOT / top).rglob("*.py")
        if re.search(r"\bspmd=True\b", path.read_text())
    )
    assert declared == [
        "examples/self_healing_sim.py",
        "src/repro/apps/cmtbone.py",
        "src/repro/apps/iterative.py",
        "src/repro/apps/lulesh.py",
        "src/repro/core/campaign.py",
        "src/repro/exps/extensions.py",
    ]
