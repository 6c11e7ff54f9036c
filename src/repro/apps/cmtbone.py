"""CMT-bone: the proxy app of BE-SST's original validation study (Fig. 1).

CMT-bone abstracts CMT-nek (Nek5000-based compressible multiphase
turbulence): per timestep, spectral-element operator evaluations over the
rank's elements plus nearest-neighbour face exchanges.  Two faces again:

* :class:`CMTBoneKernel` — a real, runnable miniature spectral-element
  kernel (per-element derivative-matrix tensor contractions, the
  ``elements * elem_size^4`` work that dominates CMT-bone), used by the
  instrumentation example and as ground truth for the operation-count
  scaling the Vulcan testbed assumes;
* :func:`cmtbone_appbeo` — the abstract instruction stream Fig. 1's DSE
  simulates across (element size, ranks).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.beo import AppBEO, as_int
from repro.core.instructions import Collective, Compute, Exchange, Instruction

_BYTES_PER_DOUBLE = 8


class CMTBoneKernel:
    """A miniature spectral-element operator kernel.

    Holds one rank's worth of elements — ``(elements, n, n, n)`` nodal
    values per field — and applies the collocation derivative matrix
    along each axis per timestep (the small dense matrix multiplies that
    dominate Nek-style codes), followed by a light dissipative update so
    repeated steps stay bounded.

    Parameters
    ----------
    elem_size:
        Points per element edge (n).
    elements:
        Elements owned by this rank.
    """

    def __init__(self, elem_size: int, elements: int, seed: int = 0) -> None:
        if elem_size < 2:
            raise ValueError(f"elem_size must be >= 2, got {elem_size}")
        if elements < 1:
            raise ValueError(f"elements must be >= 1, got {elements}")
        self.elem_size = elem_size
        self.elements = elements
        rng = np.random.default_rng(seed)
        n = elem_size
        self.u = rng.standard_normal((elements, n, n, n))
        # Chebyshev-like collocation derivative matrix (skew part keeps the
        # update energy-neutral before dissipation)
        d = rng.standard_normal((n, n)) / np.sqrt(n)
        self.deriv = (d - d.T) / 2.0
        self.cycles = 0

    def gradient(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Apply the derivative matrix along each tensor axis."""
        du_x = np.einsum("ij,ejkl->eikl", self.deriv, self.u)
        du_y = np.einsum("ij,ekjl->ekil", self.deriv, self.u)
        du_z = np.einsum("ij,eklj->ekli", self.deriv, self.u)
        return du_x, du_y, du_z

    def step(self, dt: float = 1e-3, nu: float = 1e-2) -> float:
        """One explicit update; returns the field's RMS after the step."""
        if dt <= 0 or nu < 0:
            raise ValueError("dt must be > 0 and nu >= 0")
        du_x, du_y, du_z = self.gradient()
        self.u = (1.0 - nu) * self.u + dt * (du_x + du_y + du_z)
        self.cycles += 1
        return float(np.sqrt(np.mean(self.u**2)))

    def run(self, timesteps: int) -> float:
        rms = float(np.sqrt(np.mean(self.u**2)))
        for _ in range(timesteps):
            rms = self.step()
        return rms

    def state_bytes(self) -> int:
        return self.u.nbytes


def cmtbone_state_bytes(elem_size: int, elements_per_rank: int, nfields: int = 5) -> int:
    """Per-rank state: ``nfields`` doubles over ``elements * elem_size^3``
    grid points."""
    if elem_size < 1 or elements_per_rank < 1:
        raise ValueError("elem_size and elements_per_rank must be >= 1")
    return nfields * elements_per_rank * elem_size**3 * _BYTES_PER_DOUBLE


def cmtbone_appbeo(timesteps: int = 1) -> AppBEO:
    """CMT-bone AppBEO over parameters ``elem_size`` (points per element
    edge) and ``elements`` (elements per rank)."""
    timesteps = as_int("timesteps", timesteps)
    if timesteps < 1:
        raise ValueError(f"timesteps must be >= 1, got {timesteps}")

    def builder(rank: int, nranks: int, params: Mapping[str, float]):
        elem_size = as_int("elem_size", params["elem_size"])
        elements = as_int("elements", params["elements"])
        if elem_size < 1 or elements < 1:
            raise ValueError("elem_size and elements must be >= 1")
        face_bytes = elements * elem_size**2 * _BYTES_PER_DOUBLE
        body: list[Instruction] = []
        for _ in range(timesteps):
            body.append(
                Compute.of(
                    "cmtbone_timestep",
                    elem_size=elem_size,
                    elements=elements,
                    ranks=nranks,
                )
            )
            body.append(Exchange(nbytes=face_bytes, neighbors=6))
            body.append(Collective("allreduce", nbytes=8))
        return body

    return AppBEO(
        name="cmtbone",
        builder=builder,
        default_params={"elem_size": 5, "elements": 64},
        spmd=True,
    )
