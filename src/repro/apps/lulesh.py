"""LULESH: the case-study application.

Two faces of the proxy app live here:

* :class:`MiniLulesh` — a real, runnable miniature explicit
  shock-hydrodynamics solver (Sedov blast on a structured cubic grid,
  NumPy).  It is *not* full LULESH; it reproduces the characteristics the
  MODSIM workflow cares about: per-rank state of several double fields
  over ``epr^3`` elements, a CFL-limited timestep, and a serialisable
  checkpoint payload.  The instrumentation example times this kernel.
* :func:`lulesh_appbeo` — the AppBEO: the abstract instruction stream of
  a LULESH(+FTI) run, with the cube-rank constraint and (per the FT
  extension) checkpoint instructions injected by the FT scenario.
"""

from __future__ import annotations

import io
from typing import Mapping, Optional

import numpy as np

from repro.core.beo import AppBEO, as_int
from repro.core.ft import NO_FT, FTScenario
from repro.core.instructions import (
    Checkpoint,
    Collective,
    Compute,
    Exchange,
    Instruction,
    Marker,
    Verify,
)

#: double-precision fields checkpointed per element (density, energy,
#: pressure, 3 velocity components) — sets the FTI payload size.
LULESH_FIELDS = 6
_BYTES_PER_DOUBLE = 8
_GAMMA = 1.4


def validate_cube_ranks(nranks: int) -> None:
    """LULESH runs only on perfect-cube rank counts (8, 27, 64, ...)."""
    c = round(nranks ** (1 / 3))
    if c**3 != nranks and (c + 1) ** 3 != nranks and (c - 1) ** 3 != nranks:
        raise ValueError(f"LULESH requires a perfect-cube rank count, got {nranks}")
    for cc in (c - 1, c, c + 1):
        if cc > 0 and cc**3 == nranks:
            return
    raise ValueError(f"LULESH requires a perfect-cube rank count, got {nranks}")


def lulesh_state_bytes(epr: int) -> int:
    """Checkpoint payload of one rank: all fields over ``epr^3`` elements."""
    if epr < 1:
        raise ValueError(f"epr must be >= 1, got {epr}")
    return LULESH_FIELDS * epr**3 * _BYTES_PER_DOUBLE


def lulesh_halo_bytes(epr: int, fields: int = 3) -> int:
    """Per-face halo payload: *fields* doubles over an ``epr^2`` face."""
    if epr < 1:
        raise ValueError(f"epr must be >= 1, got {epr}")
    return fields * epr**2 * _BYTES_PER_DOUBLE


class MiniLulesh:
    """A miniature explicit compressible-hydro solver (Sedov blast).

    One MPI rank's subdomain: a cubic ``epr^3`` cell grid carrying
    density, specific internal energy and velocity, advanced with a
    CFL-limited two-step (pressure-force + advection-free compression)
    update and linear artificial viscosity.  Physics is intentionally
    minimal but honest: energy is deposited at the corner, a shock
    expands, and the solver remains positive and stable for hundreds of
    steps.

    Parameters
    ----------
    epr:
        Elements (cells) per edge of this rank's cubic subdomain — the
        case study's problem-size parameter.
    rho0 / e0:
        Background density and deposited blast energy.
    """

    def __init__(self, epr: int, rho0: float = 1.0, e0: float = 1.0, dx: float = 1.0):
        if epr < 2:
            raise ValueError(f"MiniLulesh needs epr >= 2, got {epr}")
        if rho0 <= 0 or e0 <= 0 or dx <= 0:
            raise ValueError("rho0, e0 and dx must be positive")
        self.epr = epr
        self.dx = float(dx)
        shape = (epr, epr, epr)
        self.rho = np.full(shape, rho0)
        self.e = np.full(shape, 1e-6)
        self.u = np.zeros((3,) + shape)
        # Sedov initialisation: blast energy in the origin cell.
        self.e[0, 0, 0] = e0 / (rho0 * self.dx**3)
        self.t = 0.0
        self.cycles = 0

    # -- physics --------------------------------------------------------------

    @property
    def pressure(self) -> np.ndarray:
        return (_GAMMA - 1.0) * self.rho * self.e

    def sound_speed(self) -> np.ndarray:
        return np.sqrt(_GAMMA * self.pressure / self.rho)

    def compute_dt(self, cfl: float = 0.25) -> float:
        """CFL-limited timestep (the quantity LULESH allreduces)."""
        wave = self.sound_speed() + np.abs(self.u).max(axis=0)
        return float(cfl * self.dx / wave.max())

    def _grad(self, f: np.ndarray, axis: int) -> np.ndarray:
        return np.gradient(f, self.dx, axis=axis)

    def step(self, dt: Optional[float] = None) -> float:
        """Advance one timestep; returns the dt used."""
        if dt is None:
            dt = self.compute_dt()
        if dt <= 0:
            raise ValueError(f"dt must be > 0, got {dt}")
        p = self.pressure
        # artificial viscosity: damp compression shocks
        div_u = sum(self._grad(self.u[i], i) for i in range(3))
        q = np.where(div_u < 0, 1.5 * self.rho * (self.dx * div_u) ** 2, 0.0)
        ptot = p + q
        # momentum update from pressure gradient
        for i in range(3):
            self.u[i] -= dt * self._grad(ptot, i) / self.rho
        # continuity + energy (pdV work)
        div_u = sum(self._grad(self.u[i], i) for i in range(3))
        self.rho = np.maximum(self.rho * (1.0 - dt * div_u), 1e-10)
        self.e = np.maximum(self.e - dt * (ptot / self.rho) * div_u, 1e-12)
        self.t += dt
        self.cycles += 1
        return dt

    def run(self, timesteps: int) -> float:
        """Advance *timesteps* cycles; returns final simulated time."""
        for _ in range(timesteps):
            self.step()
        return self.t

    # -- checkpointing ------------------------------------------------------------

    def serialize(self) -> bytes:
        """Checkpoint payload: every field plus time/cycle metadata."""
        buf = io.BytesIO()
        np.savez(
            buf,
            rho=self.rho,
            e=self.e,
            u=self.u,
            meta=np.array([self.t, float(self.cycles), float(self.epr)]),
        )
        return buf.getvalue()

    @classmethod
    def deserialize(cls, blob: bytes) -> "MiniLulesh":
        data = np.load(io.BytesIO(blob))
        meta = data["meta"]
        obj = cls(int(meta[2]))
        obj.rho = data["rho"]
        obj.e = data["e"]
        obj.u = data["u"]
        obj.t = float(meta[0])
        obj.cycles = int(meta[1])
        return obj

    def state_bytes(self) -> int:
        """In-memory size of the checkpointed fields (not the container)."""
        return self.rho.nbytes + self.e.nbytes + self.u.nbytes


def lulesh_appbeo(
    timesteps: int = 200,
    scenario: FTScenario = NO_FT,
    include_halo: bool = True,
) -> AppBEO:
    """The LULESH(+FTI) AppBEO.

    Each timestep executes the instrumented ``lulesh_timestep`` kernel, a
    halo exchange, and the dt allreduce; at checkpoint periods the FT
    scenario's ``fti_l<k>`` checkpoint instructions run (the FT-aware
    extension to the instruction stream, Fig. 3).  With a
    ``verify_period`` on the scenario, the ABFT checksum-verification
    kernel runs at its cadence — *before* any same-timestep checkpoint,
    so a strike caught there never taints the write.

    Instruction parameters carry exactly the knobs that affect
    performance: ``epr`` and ``ranks``.
    """
    timesteps = as_int("timesteps", timesteps)
    if timesteps < 1:
        raise ValueError(f"timesteps must be >= 1, got {timesteps}")

    def builder(rank: int, nranks: int, params: Mapping[str, float]):
        epr = as_int("epr", params["epr"])
        if epr < 1:
            raise ValueError(f"epr must be >= 1, got {epr}")
        body: list[Instruction] = []
        halo = lulesh_halo_bytes(epr)
        for ts in range(1, timesteps + 1):
            body.append(Compute.of("lulesh_timestep", epr=epr, ranks=nranks))
            if include_halo:
                body.append(Exchange(nbytes=halo, neighbors=6))
            body.append(Collective("allreduce", nbytes=8))  # dt reduction
            if scenario.verification_due(ts):
                body.append(
                    Verify.of(scenario.VERIFY_KERNEL, epr=epr, ranks=nranks)
                )
            for level in scenario.checkpoints_due(ts):
                body.append(Collective("barrier"))  # FTI coordination
                body.append(
                    Checkpoint.of(
                        level, scenario.kernel_for(level), epr=epr, ranks=nranks
                    )
                )
            if ts % 50 == 0:
                body.append(Marker(f"ts{ts}"))
        return body

    return AppBEO(
        name=f"lulesh_{scenario.name}",
        builder=builder,
        default_params={"epr": 10},
        validate_ranks=validate_cube_ranks,
        spmd=True,
    )
