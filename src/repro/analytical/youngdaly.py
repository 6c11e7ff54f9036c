"""Young/Daly optimal checkpoint intervals and expected-runtime model.

For checkpoint cost C and system MTBF M:

* Young's first-order optimum:  ``tau* = sqrt(2 C M)``
* Daly's higher-order optimum:  ``tau* = sqrt(2 C M) * [1 + ...] - C``
  (we use Daly's complete perturbation solution)

The expected-runtime model prices a work period ``tau + C`` under an
exponential failure process with rate ``1/M``, restart cost ``R`` and
half-period average rework, and is the oracle the fault-injection
ablation (ABL2) checks the simulator against.
"""

from __future__ import annotations

import math


def _check(C: float, M: float) -> None:
    if C <= 0:
        raise ValueError(f"checkpoint cost must be > 0, got {C}")
    if M <= 0:
        raise ValueError(f"MTBF must be > 0, got {M}")


def young_interval(ckpt_cost: float, mtbf: float) -> float:
    """Young's optimal compute time between checkpoints."""
    _check(ckpt_cost, mtbf)
    return math.sqrt(2.0 * ckpt_cost * mtbf)


def daly_interval(ckpt_cost: float, mtbf: float) -> float:
    """Daly's higher-order optimum (reduces to Young for C << M)."""
    _check(ckpt_cost, mtbf)
    if ckpt_cost >= 2.0 * mtbf:
        # Degenerate regime: checkpointing more expensive than failures.
        return mtbf
    root = math.sqrt(2.0 * ckpt_cost * mtbf)
    return root * (
        1.0
        + (1.0 / 3.0) * math.sqrt(ckpt_cost / (2.0 * mtbf))
        + (1.0 / 9.0) * (ckpt_cost / (2.0 * mtbf))
    ) - ckpt_cost


def expected_runtime(
    work: float,
    interval: float,
    ckpt_cost: float,
    mtbf: float,
    restart_cost: float = 0.0,
) -> float:
    """Expected wall time to complete *work* seconds of computation.

    Uses the standard exponential-failure renewal argument: each segment
    of ``tau`` work plus its checkpoint costs on average

        E[segment] = (M + R) * (exp((tau + C)/M) - 1)

    (Daly 2006, eq. 13-ish), and the job needs ``work / tau`` segments.
    """
    if work <= 0:
        raise ValueError(f"work must be > 0, got {work}")
    if interval <= 0:
        raise ValueError(f"interval must be > 0, got {interval}")
    _check(ckpt_cost, mtbf)
    if restart_cost < 0:
        raise ValueError(f"restart cost must be >= 0, got {restart_cost}")
    segments = work / interval
    seg_time = (mtbf + restart_cost) * (math.expm1((interval + ckpt_cost) / mtbf))
    return segments * seg_time


def expected_waste(
    work: float,
    interval: float,
    ckpt_cost: float,
    mtbf: float,
    restart_cost: float = 0.0,
) -> float:
    """Expected wall time *lost* to checkpoints, rework and restarts.

    The difference between :func:`expected_runtime` and the failure-free,
    checkpoint-free ideal — the analytical prediction the resilience
    campaign cross-checks its simulated waste breakdown against.
    """
    return expected_runtime(work, interval, ckpt_cost, mtbf, restart_cost) - work


def optimal_expected_runtime(
    work: float,
    ckpt_cost: float,
    mtbf: float,
    restart_cost: float = 0.0,
    method: str = "daly",
) -> tuple[float, float]:
    """(optimal interval, expected runtime at that interval)."""
    if method == "young":
        tau = young_interval(ckpt_cost, mtbf)
    elif method == "daly":
        tau = daly_interval(ckpt_cost, mtbf)
    else:
        raise ValueError(f"unknown method {method!r}")
    tau = max(tau, 1e-9)
    return tau, expected_runtime(work, tau, ckpt_cost, mtbf, restart_cost)


# -- two error types: fail-stop + silent data corruption -------------------------


def two_error_interval(
    ckpt_cost: float,
    verify_cost: float,
    mtbf_failstop: float,
    mtbf_sdc: float,
) -> float:
    """Optimal work interval between verified checkpoints under *two*
    error processes (Benoit et al.'s two-error-type first-order optimum).

    Each period does ``tau`` work, one verification (cost V) and one
    checkpoint (cost C).  Fail-stop errors (MTBF ``Mf``) lose half a
    period on average; silent errors (MTBF ``Ms``) are only caught at
    the *next* verification, losing a full period.  Minimising

        waste(tau) = (C + V)/tau + tau * (1/(2 Mf) + 1/Ms)

    gives::

        tau* = sqrt( (C + V) / (1/(2 Mf) + 1/Ms) )

    ``math.inf`` for either MTBF drops that error type; with
    ``Ms = inf`` and ``V = 0`` this reduces exactly to Young's
    ``sqrt(2 C Mf)``.
    """
    _check(ckpt_cost, mtbf_failstop)
    if verify_cost < 0:
        raise ValueError(f"verify cost must be >= 0, got {verify_cost}")
    if mtbf_sdc <= 0:
        raise ValueError(f"SDC MTBF must be > 0, got {mtbf_sdc}")
    rate = 0.0
    if not math.isinf(mtbf_failstop):
        rate += 1.0 / (2.0 * mtbf_failstop)
    if not math.isinf(mtbf_sdc):
        rate += 1.0 / mtbf_sdc
    if rate <= 0.0:
        return math.inf  # no failures: never checkpoint
    return math.sqrt((ckpt_cost + verify_cost) / rate)


def two_error_waste_fraction(
    interval: float,
    ckpt_cost: float,
    verify_cost: float,
    mtbf_failstop: float,
    mtbf_sdc: float,
) -> float:
    """First-order expected waste fraction of the two-error-type model at
    a given work *interval* (the objective :func:`two_error_interval`
    minimises)."""
    if interval <= 0:
        raise ValueError(f"interval must be > 0, got {interval}")
    _check(ckpt_cost, mtbf_failstop)
    if verify_cost < 0:
        raise ValueError(f"verify cost must be >= 0, got {verify_cost}")
    if mtbf_sdc <= 0:
        raise ValueError(f"SDC MTBF must be > 0, got {mtbf_sdc}")
    waste = (ckpt_cost + verify_cost) / interval
    if not math.isinf(mtbf_failstop):
        waste += interval / (2.0 * mtbf_failstop)
    if not math.isinf(mtbf_sdc):
        waste += interval / mtbf_sdc
    return waste
