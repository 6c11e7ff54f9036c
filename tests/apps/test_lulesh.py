"""Mini-LULESH physics and the LULESH AppBEO."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import (
    LULESH_FIELDS,
    MiniLulesh,
    lulesh_appbeo,
    lulesh_halo_bytes,
    lulesh_state_bytes,
    validate_cube_ranks,
)
from repro.core.ft import NO_FT, scenario_l1, scenario_l1_l2
from repro.core.instructions import Checkpoint, Collective, Compute, Exchange


# -- the rank-count rule ---------------------------------------------------------


@pytest.mark.parametrize("n", [1, 8, 27, 64, 216, 512, 1000, 1331])
def test_cube_ranks_accepted(n):
    validate_cube_ranks(n)


@pytest.mark.parametrize("n", [2, 9, 100, 999, 1001])
def test_non_cube_ranks_rejected(n):
    with pytest.raises(ValueError):
        validate_cube_ranks(n)


# -- payload sizing ---------------------------------------------------------------


def test_state_bytes_formula():
    assert lulesh_state_bytes(10) == LULESH_FIELDS * 1000 * 8
    with pytest.raises(ValueError):
        lulesh_state_bytes(0)


def test_halo_bytes_formula():
    assert lulesh_halo_bytes(10) == 3 * 100 * 8
    with pytest.raises(ValueError):
        lulesh_halo_bytes(0)


def test_state_bytes_matches_mini_lulesh():
    sim = MiniLulesh(epr=8)
    # rho + e + 3 velocity components = 5 of the 6 checkpointed fields;
    # the 6th (pressure) is derived but checkpointed by LULESH_FTI
    assert sim.state_bytes() == (LULESH_FIELDS - 1) * 8**3 * 8


# -- MiniLulesh physics -------------------------------------------------------------


def test_initial_state():
    sim = MiniLulesh(epr=6)
    assert sim.rho.shape == (6, 6, 6)
    assert sim.e[0, 0, 0] > sim.e[1, 1, 1]
    assert sim.t == 0.0 and sim.cycles == 0


def test_validation():
    with pytest.raises(ValueError):
        MiniLulesh(epr=1)
    with pytest.raises(ValueError):
        MiniLulesh(epr=4, rho0=-1)


def test_dt_positive_and_cfl_limited():
    sim = MiniLulesh(epr=6)
    dt = sim.compute_dt()
    assert 0 < dt < 1.0


def test_step_advances_time_and_shock_expands():
    sim = MiniLulesh(epr=8)
    sim.run(30)
    assert sim.cycles == 30
    assert sim.t > 0
    # blast wave should have moved energy off the origin cell
    assert np.abs(sim.u).max() > 0
    assert sim.e[2, 2, 2] > 1e-6  # energy reached interior cells


def test_positivity_preserved():
    sim = MiniLulesh(epr=6)
    sim.run(50)
    assert np.all(sim.rho > 0)
    assert np.all(sim.e > 0)
    assert np.all(np.isfinite(sim.u))


def test_mass_roughly_conserved():
    sim = MiniLulesh(epr=8)
    m0 = np.sum(sim.rho) * sim.dx**3
    sim.run(30)
    # simple non-conservative scheme: allow modest drift
    assert np.sum(sim.rho) * sim.dx**3 == pytest.approx(m0, rel=0.2)


def test_step_rejects_bad_dt():
    sim = MiniLulesh(epr=4)
    with pytest.raises(ValueError):
        sim.step(dt=0.0)


def test_checkpoint_roundtrip():
    sim = MiniLulesh(epr=6)
    sim.run(10)
    blob = sim.serialize()
    restored = MiniLulesh.deserialize(blob)
    assert restored.cycles == sim.cycles
    assert restored.t == sim.t
    np.testing.assert_array_equal(restored.rho, sim.rho)
    np.testing.assert_array_equal(restored.e, sim.e)
    np.testing.assert_array_equal(restored.u, sim.u)
    # restored solver continues identically
    a, b = sim.step(), restored.step()
    assert a == b


def test_checkpoint_restart_equals_uninterrupted():
    ref = MiniLulesh(epr=5)
    ref.run(20)
    live = MiniLulesh(epr=5)
    live.run(10)
    live = MiniLulesh.deserialize(live.serialize())
    live.run(10)
    np.testing.assert_allclose(live.rho, ref.rho, rtol=1e-12)
    assert live.t == pytest.approx(ref.t, rel=1e-12)


@settings(max_examples=10, deadline=None)
@given(epr=st.integers(min_value=2, max_value=10), steps=st.integers(min_value=1, max_value=20))
def test_positivity_property(epr, steps):
    sim = MiniLulesh(epr=epr)
    sim.run(steps)
    assert np.all(sim.rho > 0) and np.all(sim.e > 0)


# -- AppBEO structure ------------------------------------------------------------------


def count_types(instrs):
    out = {}
    for i in instrs:
        out[type(i).__name__] = out.get(type(i).__name__, 0) + 1
    return out


def test_appbeo_no_ft_structure():
    app = lulesh_appbeo(timesteps=10, scenario=NO_FT)
    instrs = app.build(0, 8, {"epr": 5})
    counts = count_types(instrs)
    assert counts["Compute"] == 10
    assert counts["Exchange"] == 10
    assert counts["Collective"] == 10  # allreduce only
    assert "Checkpoint" not in counts


def test_appbeo_l1_injects_checkpoints():
    app = lulesh_appbeo(timesteps=200, scenario=scenario_l1(40))
    instrs = app.build(0, 8, {"epr": 10})
    ckpts = [i for i in instrs if isinstance(i, Checkpoint)]
    assert len(ckpts) == 5
    assert all(c.kernel == "fti_l1" and c.level == 1 for c in ckpts)
    assert all(c.param_dict() == {"epr": 10, "ranks": 8} for c in ckpts)
    # each checkpoint is preceded by a coordination barrier
    barriers = [i for i in instrs if isinstance(i, Collective) and i.op == "barrier"]
    assert len(barriers) == 5


def test_appbeo_l1_l2_doubles_checkpoints():
    app = lulesh_appbeo(timesteps=200, scenario=scenario_l1_l2(40))
    instrs = app.build(0, 8, {"epr": 10})
    ckpts = [i for i in instrs if isinstance(i, Checkpoint)]
    assert len(ckpts) == 10
    assert {c.level for c in ckpts} == {1, 2}


def test_appbeo_halo_scales_with_epr():
    app = lulesh_appbeo(timesteps=1)
    small = next(
        i for i in app.build(0, 8, {"epr": 5}) if isinstance(i, Exchange)
    )
    big = next(
        i for i in app.build(0, 8, {"epr": 20}) if isinstance(i, Exchange)
    )
    assert big.nbytes == 16 * small.nbytes


def test_appbeo_enforces_cube_ranks():
    app = lulesh_appbeo(timesteps=1)
    with pytest.raises(ValueError):
        app.build(0, 10)


def test_appbeo_rejects_bad_params():
    with pytest.raises(ValueError):
        lulesh_appbeo(timesteps=0)
    app = lulesh_appbeo(timesteps=1)
    with pytest.raises(ValueError):
        app.build(0, 8, {"epr": 0})


def test_appbeo_rejects_non_integral_counts():
    with pytest.raises(ValueError, match="timesteps must be an integer"):
        lulesh_appbeo(timesteps=2.5)
    app = lulesh_appbeo(timesteps=3)
    with pytest.raises(ValueError, match="epr must be an integer"):
        app.build(0, 8, {"epr": 2.7})
    # integral floats are the same program as their ints
    assert lulesh_appbeo(timesteps=3.0).build(0, 8, {"epr": 5.0}) == app.build(
        0, 8, {"epr": 5}
    )


def test_appbeo_spmd_streams_identical():
    app = lulesh_appbeo(timesteps=5, scenario=scenario_l1(2))
    assert app.build(0, 27, {"epr": 5}) == app.build(13, 27, {"epr": 5})
