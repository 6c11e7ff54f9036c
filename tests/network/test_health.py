"""Network health overlay: failures, degradation, routing, pricing.

Covers the mutable overlay (:class:`repro.network.health.NetworkHealth`)
and how :class:`~repro.network.commmodel.LogGPModel` prices messages
over it: detour hop inflation, bandwidth de-rate, retransmission delay,
partition detection, and the fat-tree core-routed fallback.
"""

import pickle
import random

import pytest

from repro.network import (
    FullyConnected,
    NetworkHealth,
    NetworkPartitionedError,
    Torus,
    TwoStageFatTree,
    link_count,
)
from repro.network.commmodel import LogGPModel
from repro.network.dragonfly import Dragonfly
from repro.network.health import healthy_graph


# -- the shared healthy graph ---------------------------------------------------------


SHAPES = (
    lambda: Torus((4, 4)),
    lambda: Torus((3, 2, 2)),
    lambda: TwoStageFatTree(12, nodes_per_edge=4, uplinks_per_edge=2),
    lambda: Dragonfly(16, nodes_per_router=2, routers_per_group=2),
    lambda: FullyConnected(5),
)


def _answers(health, pairs, groups):
    return (
        [health.route(a, b) for a, b in pairs],
        [health.route_quality(a, b) for a, b in pairs],
        [health.is_partitioned(a, b) for a, b in pairs],
        [health.group_partitioned(g) for g in groups],
        health.aggregate_penalty(),
    )


@pytest.mark.parametrize("shape", range(len(SHAPES)))
def test_shared_graph_routes_as_a_fresh_build(shape):
    """Overlays of equal topologies share one healthy graph, and under a
    seeded sweep of failures, degradations and repairs route, price and
    partition exactly as an overlay over a graph built afresh; the
    shared graph is left as built."""
    topo = SHAPES[shape]()
    shared = NetworkHealth(topo)
    assert shared._graph is NetworkHealth(SHAPES[shape]())._graph is healthy_graph(topo)
    fresh = NetworkHealth(topo)
    fresh._graph = topo.to_networkx()
    assert fresh._graph is not shared._graph
    rng = random.Random(41 + shape)
    edges = sorted(tuple(sorted(e)) for e in shared._graph.edges)
    nodes = range(topo.num_nodes)
    pairs = [(a, b) for a in nodes for b in nodes if a < b]
    groups = [rng.sample(nodes, rng.randint(2, min(5, topo.num_nodes))) for _ in range(8)]
    for _ in range(12):
        a, b = rng.choice(edges)
        node = rng.choice(nodes)
        seed = rng.random()
        for health in (shared, fresh):
            step = random.Random(seed)
            {
                0: lambda: health.fail_link(a, b),
                1: lambda: health.repair_link(a, b),
                2: lambda: health.degrade_link(a, b, 1 + step.random(), step.random() / 2),
                3: lambda: health.fail_node(node),
                4: lambda: health.repair_node(node),
            }[int(step.random() * 5)]()
        assert _answers(shared, pairs, groups) == _answers(fresh, pairs, groups)
    rebuilt = topo.to_networkx()
    assert sorted(shared._graph.edges(data=True)) == sorted(rebuilt.edges(data=True))
    assert sorted(shared._graph.nodes) == sorted(rebuilt.nodes)


def test_shared_graph_is_per_shape():
    assert healthy_graph(Torus((4, 4))) is not healthy_graph(Torus((2, 8)))
    assert healthy_graph(Torus((4, 4))) is not healthy_graph(TwoStageFatTree(16))
    assert link_count(Torus((2, 8))) == link_count(Torus((2, 8)))


# -- overlay state -----------------------------------------------------------------


def test_lazy_health_accessor_caches():
    t = Torus((3, 3))
    assert t._health is None
    h = t.health()
    assert isinstance(h, NetworkHealth)
    assert t.health() is h
    assert h.healthy


def test_link_count_matches_endpoint_graph():
    assert link_count(Torus((3, 3))) == 18
    assert link_count(FullyConnected(4)) == 6


def test_fail_and_repair_link_roundtrip():
    t = Torus((3, 3))
    h = t.health()
    base = h.hop_count(0, 1)
    h.fail_link(0, 1)
    assert not h.healthy
    assert h.hop_count(0, 1) > base  # detour
    h.repair_link(0, 1)
    assert h.healthy
    assert h.hop_count(0, 1) == base


def test_fail_nonexistent_link_rejected_with_pair_in_message():
    t = Torus((3, 3))
    with pytest.raises(ValueError, match=r"\(0, 4\) is not a link"):
        t.health().fail_link(0, 4)  # diagonal: not a torus edge


def test_fail_link_out_of_range_node():
    t = Torus((3, 3))
    with pytest.raises(IndexError, match="out of range"):
        t.health().fail_link(0, 9)


def test_degrade_link_validation():
    t = Torus((3, 3))
    with pytest.raises(ValueError, match="derate must be >= 1"):
        t.health().degrade_link(0, 1, derate=0.5)
    with pytest.raises(ValueError, match="loss_prob must be in"):
        t.health().degrade_link(0, 1, loss_prob=1.0)


def test_repair_link_clears_degradation_too():
    t = Torus((3, 3))
    h = t.health()
    h.degrade_link(0, 1, derate=2.0, loss_prob=0.1)
    assert not h.healthy
    h.repair_link(0, 1)
    assert h.healthy


def test_version_bumps_on_every_mutation():
    h = Torus((3, 3)).health()
    v0 = h.version
    h.fail_link(0, 1)
    h.degrade_link(1, 2, derate=2.0)
    h.fail_node(4)
    h.reset()
    assert h.version == v0 + 4


def test_reset_restores_health():
    t = Torus((3, 3))
    h = t.health()
    h.fail_link(0, 1)
    h.fail_node(4)
    h.degrade_link(1, 2, derate=3.0)
    h.reset()
    assert h.healthy
    assert h.hop_count(0, 1) == 1


# -- routing and partition ---------------------------------------------------------


def test_route_detours_around_failed_link():
    t = Torus((3, 3))
    h = t.health()
    assert h.route(0, 1) == [0, 1]
    h.fail_link(0, 1)
    path = h.route(0, 1)
    assert path[0] == 0 and path[-1] == 1 and len(path) > 2
    assert h.hop_count(0, 1) == 2


def test_route_quality_tracks_worst_derate_and_combined_loss():
    t = Torus((1, 4))  # ring 0-1-2-3
    h = t.health()
    h.fail_link(0, 3)  # force the 0-1-2 route
    h.degrade_link(0, 1, derate=2.0, loss_prob=0.1)
    h.degrade_link(1, 2, derate=4.0, loss_prob=0.1)
    hops, derate, loss = h.route_quality(0, 2)
    assert hops == 2
    assert derate == 4.0  # bottleneck link bounds throughput
    assert loss == pytest.approx(1 - 0.9 * 0.9)


def test_is_partitioned_requires_total_cut():
    t = Torus((1, 4))  # ring: 2-edge-connected
    h = t.health()
    h.fail_link(0, 1)
    assert not h.is_partitioned(0, 1)  # the long way round survives
    h.fail_link(0, 3)
    assert h.is_partitioned(0, 1)  # node 0 fully cut off
    assert h.route(0, 1) is None


def test_failed_node_is_partitioned_from_everyone_and_itself():
    t = Torus((3, 3))
    h = t.health()
    h.fail_node(4)
    assert h.is_partitioned(4, 0)
    assert h.is_partitioned(0, 4)
    assert h.is_partitioned(4, 4)  # isolated even from itself
    assert not h.is_partitioned(0, 8)  # others route around
    h.repair_node(4)
    assert not h.is_partitioned(4, 0)


def test_group_partitioned_on_ring_cut():
    t = Torus((1, 4))
    h = t.health()
    assert not h.group_partitioned([0, 1, 2, 3])
    h.fail_link(0, 1)
    h.fail_link(2, 3)  # ring cut into {1,2} and {3,0}
    assert h.group_partitioned([0, 1, 2, 3])
    assert not h.group_partitioned([1, 2])
    assert not h.group_partitioned([0, 3])


def test_group_partitioned_empty_and_singleton():
    h = Torus((3, 3)).health()
    assert not h.group_partitioned([])
    assert not h.group_partitioned([5])
    h.fail_node(5)
    assert h.group_partitioned([5])


def test_fattree_cross_switch_pairs_never_partitioned():
    # The fat-tree endpoint graph only carries same-edge-switch peers;
    # cross-switch pairs route through the (untracked) core and must not
    # be reported partitioned.
    ft = TwoStageFatTree(8, nodes_per_edge=4, uplinks_per_edge=2)
    h = ft.health()
    assert not h.baseline_connected(0, 4)
    assert not h.is_partitioned(0, 4)
    h.fail_link(0, 1)
    assert not h.is_partitioned(0, 4)
    # ... but a dead endpoint is partitioned from everyone.
    h.fail_node(0)
    assert h.is_partitioned(0, 4)


def test_aggregate_penalty_counts_failed_links_once():
    t = Torus((3, 3))
    h = t.health()
    assert h.aggregate_penalty() == (1.0, 1.0, 0.0)
    h.fail_link(4, 5)
    h.fail_node(4)  # node 4's 4 links go down, one already counted
    stretch, derate, loss = h.aggregate_penalty()
    assert stretch == pytest.approx(1.0 + 2.0 * 4 / 18)
    h.degrade_link(0, 1, derate=3.0, loss_prob=0.2)
    _, derate, loss = h.aggregate_penalty()
    assert derate == 3.0 and loss == 0.2


def test_overlay_pickles_and_rebuilds_caches():
    t = Torus((3, 3))
    h = t.health()
    h.fail_link(0, 1)
    h.degrade_link(1, 2, derate=2.0, loss_prob=0.1)
    h.route(0, 1)  # populate caches
    h2 = pickle.loads(pickle.dumps(h))
    assert h2.failed_links == h.failed_links
    assert h2.degraded == h.degraded
    assert h2.route(0, 1) == h.route(0, 1)
    assert h2.aggregate_penalty() == h.aggregate_penalty()


# -- LogGP pricing over the overlay ------------------------------------------------


def test_p2p_time_unchanged_by_healthy_overlay():
    t = Torus((3, 3))
    m = LogGPModel(t)
    before = m.p2p_time(0, 1, 1 << 20)
    t.health()  # attach healthy overlay
    assert m.p2p_time(0, 1, 1 << 20) == before
    assert m.stats == {"reroutes": 0.0, "retransmits": 0.0}


def test_reroute_inflates_hops_and_counts():
    t = Torus((3, 3))
    m = LogGPModel(t)
    base = m.p2p_time(0, 1, 1 << 20)
    t.health().fail_link(0, 1)
    assert m.p2p_time(0, 1, 1 << 20) > base
    assert m.stats["reroutes"] == 1.0


def test_contention_from_actual_route_used():
    # A healthy-2-hop pair detoured past 2 hops pays the oversubscription
    # contention factor computed from the route actually used.
    t = Torus((1, 8))
    m = LogGPModel(t, contention_factor=3.0)
    n = 1 << 20
    healthy = m.p2p_time(0, 2, n)  # 2 hops: no contention
    t.health().fail_link(1, 2)
    detoured = m.p2p_time(0, 2, n)  # 6 hops the long way: contended
    assert healthy == pytest.approx(m.L * 2 + 2 * m.o + m.G * n)
    assert detoured == pytest.approx(m.L * 6 + 2 * m.o + m.G * n * 3.0)


def test_degraded_link_derates_bandwidth_and_adds_retransmits():
    t = Torus((1, 4))
    m = LogGPModel(t, retransmit_timeout=1e-3)
    n = 1 << 20
    base = m.p2p_time(0, 1, n)
    t.health().degrade_link(0, 1, derate=2.0, loss_prob=0.5)
    faulty = m.p2p_time(0, 1, n)
    degraded = m.L * 1 + 2 * m.o + m.G * n * 2.0
    assert faulty == pytest.approx(degraded * 2.0 + 1.0 * 1e-3)  # 2 tries
    assert m.stats["retransmits"] == pytest.approx(1.0)
    assert faulty > base


def test_partitioned_pair_raises_with_endpoints_in_message():
    t = Torus((1, 4))
    t.health().fail_link(0, 1)
    t.health().fail_link(0, 3)
    m = LogGPModel(t)
    with pytest.raises(
        NetworkPartitionedError, match="from node 0 to node 1"
    ):
        m.p2p_time(0, 1, 8)


def test_p2p_penalty_is_faulty_over_healthy_ratio():
    t = Torus((3, 3))
    m = LogGPModel(t)
    assert m.p2p_penalty(0, 1) == pytest.approx(1.0)
    t.health().degrade_link(0, 1, derate=4.0)
    assert m.p2p_penalty(0, 1) > 1.0
    assert m.p2p_penalty(0, 0) == 1.0


def test_fattree_core_pair_priced_by_aggregate_penalty():
    ft = TwoStageFatTree(8, nodes_per_edge=4, uplinks_per_edge=2)
    m = LogGPModel(ft)
    n = 1 << 20
    base = m.p2p_time(0, 4, n)  # cross-switch, healthy
    ft.health().degrade_link(0, 1, derate=4.0)  # same-switch link; fabric penalty
    faulty = m.p2p_time(0, 4, n)  # no endpoint-graph route: fallback
    assert faulty > base


def test_collective_far_time_pays_fabric_penalty():
    t = Torus((3, 3))
    m = LogGPModel(t)
    n = 1 << 20
    base = m.far_time(n)
    t.health().fail_link(0, 1)
    t.health().degrade_link(1, 2, derate=4.0, loss_prob=0.1)
    faulty = m.far_time(n)
    stretch, derate, loss = t.health().aggregate_penalty()
    expected = (m.L * t.diameter() * stretch + 2 * m.o + m.G * n * derate) / (
        1 - loss
    ) + (1 / (1 - loss) - 1) * m.retransmit_timeout
    assert faulty == pytest.approx(expected)
    assert faulty > base
