"""Closed-form network availability model (:mod:`repro.analytical.netavail`)."""

import math

import pytest

from repro.analytical import (
    active_probability,
    aggregate_stretch,
    degraded_collective_inflation,
    expected_availability,
    expected_collective_inflation,
    expected_slowdown,
    expected_stretch,
    fattree_degrade,
    isolation_probability,
    single_link_stretch,
    steady_state_failed_links,
    time_shared_slowdown,
    torus_stretch_bound,
)
from repro.analytical.netavail import _far_time
from repro.network import (
    FullyConnected,
    LogGPModel,
    Torus,
    TwoStageFatTree,
    link_count,
)
from repro.network.dragonfly import Dragonfly


# -- occupancy ---------------------------------------------------------------------


def test_steady_state_occupancy():
    # availability form: L * repair / (mtbf + repair)
    assert steady_state_failed_links(18, 100.0, 0.0) == 0.0
    assert steady_state_failed_links(18, 100.0, 100.0) == pytest.approx(9.0)
    assert steady_state_failed_links(10, 90.0, 10.0) == pytest.approx(1.0)


def test_steady_state_validation():
    with pytest.raises(ValueError, match="nlinks"):
        steady_state_failed_links(0, 1.0, 1.0)
    with pytest.raises(ValueError, match="link_mtbf_s"):
        steady_state_failed_links(4, 0.0, 1.0)
    with pytest.raises(ValueError, match="repair_s"):
        steady_state_failed_links(4, 1.0, -1.0)


def test_active_probability_is_mg_inf_poisson():
    assert active_probability(0.0, 10.0) == 0.0
    assert active_probability(0.5, 2.0) == pytest.approx(1 - math.exp(-1.0))
    # monotone in both arguments, saturates at 1
    assert active_probability(100.0, 100.0) == pytest.approx(1.0)


# -- stretch -----------------------------------------------------------------------


def test_aggregate_stretch_matches_overlay_formula():
    t = Torus((3, 3))
    h = t.health()
    h.fail_link(0, 1)
    h.fail_link(3, 4)
    stretch, _, _ = h.aggregate_penalty()
    assert aggregate_stretch(link_count(t), 2) == pytest.approx(stretch)


def test_single_link_stretch_exact_on_small_torus():
    # Torus((1, 4)) is a 4-ring: killing any link reroutes only the one
    # pair that used it (1 hop -> 3 the long way).  Base pair distances:
    # 4 pairs at 1 hop + 2 at 2 hops = 8 hop-units; after any cut: 10.
    s = single_link_stretch(Torus((1, 4)))
    assert s == pytest.approx(10.0 / 8.0)


def test_single_link_stretch_full_graph_barely_stretches():
    # FullyConnected(4): each cut pair detours 1 -> 2 hops, all other
    # pairs keep their direct link.
    s = single_link_stretch(FullyConnected(4))
    assert 1.0 < s < 1.2


def test_expected_stretch_linearises_single_failure():
    t = Torus((1, 4))
    s1 = single_link_stretch(t)
    assert expected_stretch(t, 0.0) == 1.0
    assert expected_stretch(t, 2.0) == pytest.approx(1 + 2 * (s1 - 1))
    with pytest.raises(ValueError, match="k must be"):
        expected_stretch(t, -1.0)


def test_torus_stretch_bound_dominates_exact():
    t = Torus((3, 3))
    assert torus_stretch_bound(t, 1.0) == pytest.approx(1 + 2 / 18)
    assert torus_stretch_bound(t, 1.0) >= expected_stretch(t, 1.0) - 1e-9


# -- fat-tree degrade --------------------------------------------------------------


def test_fattree_degrade_harmonic_in_surviving_uplinks():
    ft = TwoStageFatTree(8, nodes_per_edge=4, uplinks_per_edge=2)
    # 2 edge switches x 2 uplinks = 4 core uplinks
    assert fattree_degrade(ft, 0) == 1.0
    assert fattree_degrade(ft, 2) == pytest.approx(2.0)
    assert fattree_degrade(ft, 3) == pytest.approx(4.0)
    assert fattree_degrade(ft, 4) == math.inf


def test_fattree_degrade_rejects_non_fattree():
    with pytest.raises(ValueError, match="not a fat tree"):
        fattree_degrade(Torus((2, 2)), 1)


# -- isolation ---------------------------------------------------------------------


def test_isolation_probability_hypergeometric():
    # 4-ring: L=4 links, every node degree 2.  k=2 failures: each node is
    # isolated iff exactly its 2 links fail -> 4 * C(2,0)/C(4,2) = 4/6.
    t = Torus((1, 4))
    assert isolation_probability(t, 0) == 0.0
    assert isolation_probability(t, 1) == 0.0  # degree 2 > 1
    assert isolation_probability(t, 2) == pytest.approx(4 / 6)
    assert isolation_probability(t, 4) == 1.0  # clamped union bound
    assert expected_availability(t, 2) == pytest.approx(1 - 4 / 6)
    with pytest.raises(ValueError, match="k must be"):
        isolation_probability(t, -1)


# -- slowdown composition ----------------------------------------------------------


def test_time_shared_slowdown_is_harmonic_not_arithmetic():
    # f of wall time at 4x: rate-weighted harmonic mean, strictly below
    # the arithmetic 1 + f*(inflation-1) that double-counts the long
    # degraded windows (length-biased sampling).
    s = time_shared_slowdown(0.5, 4.0)
    assert s == pytest.approx(1.0 / (0.5 + 0.5 / 4.0))
    assert s < 1 + 0.5 * 3.0
    assert time_shared_slowdown(0.0, 10.0) == 1.0
    assert time_shared_slowdown(1.0, 10.0) == pytest.approx(10.0)


def test_expected_slowdown_amdahl_over_comm():
    assert expected_slowdown(0.0, 5.0) == 1.0
    assert expected_slowdown(0.25, 5.0) == pytest.approx(2.0)
    with pytest.raises(ValueError, match="comm_fraction"):
        expected_slowdown(1.5, 2.0)
    with pytest.raises(ValueError, match="inflation"):
        expected_slowdown(0.5, 0.5)


def test_degraded_collective_inflation_exact_ratio():
    t = Torus((2, 4))
    nbytes = 1 << 26
    L, o, G = 100e-9, 300e-9, 1 / 12.5e9
    d = t.diameter()
    healthy = L * d + 2 * o + G * nbytes
    faulty = (L * d + 2 * o + G * nbytes * 4.0) / (1 - 0.05)
    got = degraded_collective_inflation(t, nbytes)
    assert got == pytest.approx(faulty / healthy)
    assert got > 4.0 * 0.9  # bandwidth-bound at 64 MiB: near the derate
    with pytest.raises(ValueError, match="degrade_factor"):
        degraded_collective_inflation(t, nbytes, degrade_factor=0.5)
    with pytest.raises(ValueError, match="loss_prob"):
        degraded_collective_inflation(t, nbytes, loss_prob=1.0)


@pytest.mark.parametrize(
    "topology",
    [
        FullyConnected(8),
        Torus((2, 4)),
        TwoStageFatTree(16, nodes_per_edge=4, uplinks_per_edge=2),
        Dragonfly(32, nodes_per_router=2, routers_per_group=4),
    ],
    ids=lambda t: type(t).__name__,
)
@pytest.mark.parametrize("nbytes", [0, 8, 1 << 26])
def test_healthy_term_is_loggp_far_time(topology, nbytes):
    """The closed forms price a healthy collective message exactly as
    the simulator's :meth:`LogGPModel.far_time` does, bit for bit."""
    model = LogGPModel(topology)
    assert _far_time(model, nbytes) == model.far_time(nbytes)


def test_expected_collective_inflation_limits_and_monotonicity():
    t = Torus((2, 4))
    nbytes = 1 << 24
    # vanishing failure rate -> no inflation
    assert expected_collective_inflation(
        t, nbytes, link_mtbf_s=1e12, repair_s=1.0
    ) == pytest.approx(1.0)
    lo = expected_collective_inflation(t, nbytes, link_mtbf_s=100.0, repair_s=1.0)
    hi = expected_collective_inflation(t, nbytes, link_mtbf_s=10.0, repair_s=1.0)
    assert 1.0 < lo < hi
    with pytest.raises(ValueError, match="unknown network kind"):
        expected_collective_inflation(
            t, nbytes, link_mtbf_s=10.0, repair_s=1.0, split=(("node", 1.0),)
        )
