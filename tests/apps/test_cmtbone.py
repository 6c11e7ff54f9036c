"""CMT-bone kernel and AppBEO."""

import numpy as np
import pytest

from repro.apps.cmtbone import CMTBoneKernel, cmtbone_appbeo, cmtbone_state_bytes
from repro.core.instructions import Collective, Compute, Exchange


# -- the runnable kernel ---------------------------------------------------------


def test_kernel_shapes_and_validation():
    k = CMTBoneKernel(elem_size=6, elements=4)
    assert k.u.shape == (4, 6, 6, 6)
    with pytest.raises(ValueError):
        CMTBoneKernel(1, 4)
    with pytest.raises(ValueError):
        CMTBoneKernel(4, 0)


def test_gradient_linear_in_field():
    k = CMTBoneKernel(5, 2, seed=1)
    gx1, _, _ = k.gradient()
    k.u = 2.0 * k.u
    gx2, _, _ = k.gradient()
    np.testing.assert_allclose(gx2, 2.0 * gx1)


def test_step_advances_and_stays_bounded():
    k = CMTBoneKernel(6, 8, seed=2)
    rms0 = float(np.sqrt(np.mean(k.u**2)))
    rms = k.run(50)
    assert k.cycles == 50
    assert np.isfinite(rms)
    assert rms < rms0 * 2  # dissipative update keeps it bounded


def test_step_validation():
    k = CMTBoneKernel(4, 1)
    with pytest.raises(ValueError):
        k.step(dt=0)
    with pytest.raises(ValueError):
        k.step(nu=-1)


def test_deterministic_given_seed():
    a = CMTBoneKernel(5, 3, seed=7)
    b = CMTBoneKernel(5, 3, seed=7)
    assert a.run(10) == b.run(10)


def test_state_bytes():
    k = CMTBoneKernel(5, 16)
    assert k.state_bytes() == 16 * 125 * 8
    assert cmtbone_state_bytes(5, 16) == 5 * 16 * 125 * 8
    with pytest.raises(ValueError):
        cmtbone_state_bytes(0, 1)


# -- the AppBEO ------------------------------------------------------------------


def test_appbeo_structure():
    app = cmtbone_appbeo(timesteps=3)
    instrs = app.build(0, 16, {"elem_size": 5, "elements": 32})
    computes = [i for i in instrs if isinstance(i, Compute)]
    assert len(computes) == 3
    assert computes[0].param_dict() == {
        "elem_size": 5, "elements": 32, "ranks": 16,
    }
    exchanges = [i for i in instrs if isinstance(i, Exchange)]
    assert exchanges[0].nbytes == 32 * 25 * 8
    assert sum(1 for i in instrs if isinstance(i, Collective)) == 3


def test_appbeo_validation():
    with pytest.raises(ValueError):
        cmtbone_appbeo(timesteps=0)
    app = cmtbone_appbeo()
    with pytest.raises(ValueError):
        app.build(0, 4, {"elem_size": 0, "elements": 1})


def test_appbeo_rejects_non_integral_counts():
    with pytest.raises(ValueError, match="timesteps must be an integer"):
        cmtbone_appbeo(timesteps=2.5)
    app = cmtbone_appbeo(timesteps=2)
    with pytest.raises(ValueError, match="elem_size must be an integer"):
        app.build(0, 4, {"elem_size": 5.5, "elements": 8})
    with pytest.raises(ValueError, match="elements must be an integer"):
        app.build(0, 4, {"elem_size": 5, "elements": 7.9})
    assert cmtbone_appbeo(timesteps=2.0).build(
        0, 4, {"elem_size": 5.0, "elements": 8.0}
    ) == app.build(0, 4, {"elem_size": 5, "elements": 8})
