"""Monte-Carlo convergence of simulated SDC outcomes to the analytical
:func:`repro.abft.costmodel.sdc_outcome_probabilities` model.

The cross-check that makes the simulated taxonomy trustworthy: with an
SDC-only fault mix, full in-place correction (``sdc_correct_prob=1`` —
detections never perturb timing, so every replica has the identical
exposure window) and a Verify kernel every timestep, the empirical
frequencies are analytically predictable:

* detected/injected  -> ``sdc_coverage``  (coverage drawn per strike),
* corrected == detected  (every detection is correctable),
* undetected/injected -> ``1 - sdc_coverage``,
* fraction of runs finishing with a wrong result -> ``p_bad_abft``,
* fraction of runs struck at all -> ``p_sdc``.
"""

import numpy as np
import pytest

from repro.abft.costmodel import sdc_outcome_probabilities
from repro.core import (
    AppBEO,
    ArchBEO,
    BESSTSimulator,
    Checkpoint,
    Collective,
    Compute,
    FaultInjector,
    FaultModel,
    RecoveryPolicy,
    Verify,
)
from repro.models import ConstantModel
from repro.network import FullyConnected

NNODES = 4
NODE_MTBF_S = 4.0  # system MTBF 1s: a few strikes per ~2s run
COVERAGE = 0.7
N_STEPS = 20
REPS = 80


def sdc_app():
    def builder(rank, nranks, params):
        body = []
        for ts in range(1, N_STEPS + 1):
            body.append(Compute.of("k"))
            body.append(Verify.of("v"))  # detect every timestep
            if ts % 5 == 0:
                body.append(Checkpoint.of(1, "ckpt"))
            body.append(Collective("allreduce", nbytes=8))
        return body

    return AppBEO("sdc-only", builder)


def make_arch():
    arch = ArchBEO("m", topology=FullyConnected(8), cores_per_node=2)
    arch.bind("k", ConstantModel(0.1))
    arch.bind("ckpt", ConstantModel(0.05))
    arch.bind("v", ConstantModel(0.005))
    arch.recovery_time_s = 0.2
    return arch


def one_replica(seed):
    model = FaultModel(
        node_mtbf_s=NODE_MTBF_S,
        kind_weights={"sdc": 1.0},
        sdc_coverage=COVERAGE,
        sdc_correct_prob=1.0,
    )
    fi = FaultInjector(model, nnodes=NNODES, seed=seed)
    sim = BESSTSimulator(
        sdc_app(),
        make_arch(),
        nranks=8,
        seed=0,
        monte_carlo=False,
        fault_injector=fi,
        recovery_policy=RecoveryPolicy(verify_fail_prob=0.0),
    )
    return sim.run(max_events=20_000_000)


@pytest.fixture(scope="module")
def replicas():
    return [one_replica(seed) for seed in range(REPS)]


def test_exposure_window_is_identical_across_replicas(replicas):
    # in-place correction is free: no replica's makespan depends on its
    # fault draw, which is what makes the analytic cross-check exact
    totals = {r.total_time for r in replicas}
    assert len(totals) == 1
    assert all(r.completed and r.rollbacks == 0 for r in replicas)


def test_detected_fraction_converges_to_coverage(replicas):
    injected = sum(r.sdc["injected"] for r in replicas)
    detected = sum(r.sdc["detected"] for r in replicas)
    corrected = sum(r.sdc["corrected"] for r in replicas)
    undetected = sum(r.sdc["undetected"] for r in replicas)
    assert injected > 50  # enough strikes for a meaningful frequency
    assert detected + undetected == injected
    assert corrected == detected
    # binomial sd of the ratio is ~sqrt(c(1-c)/injected) ~ 0.035
    assert detected / injected == pytest.approx(COVERAGE, abs=0.12)
    assert undetected / injected == pytest.approx(1 - COVERAGE, abs=0.12)


def test_wrong_result_rate_converges_to_p_bad_abft(replicas):
    total_time = replicas[0].total_time
    p = sdc_outcome_probabilities(
        sdc_rate_per_hour=3600.0 * NNODES / NODE_MTBF_S,
        job_hours=total_time / 3600.0,
        abft_coverage=COVERAGE,
    )
    struck_rate = np.mean([1.0 if r.sdc["injected"] else 0.0 for r in replicas])
    wrong_rate = np.mean([1.0 if r.wrong_result else 0.0 for r in replicas])
    # REPS=80 binomial sd is at most ~0.056; 3 sd tolerance
    assert struck_rate == pytest.approx(p["p_sdc"], abs=0.17)
    assert wrong_rate == pytest.approx(p["p_bad_abft"], abs=0.17)
    # ABFT must actually help: wrong results are rarer than strikes
    assert wrong_rate < struck_rate


def test_wrong_result_implies_undetected_and_vice_versa(replicas):
    for r in replicas:
        assert r.wrong_result == (r.sdc["undetected"] > 0)
