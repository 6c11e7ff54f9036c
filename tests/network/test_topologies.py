"""Tests for topology structure: fat tree, torus, fully connected."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import FullyConnected, Torus, TwoStageFatTree


# -- fully connected -----------------------------------------------------------


def test_fully_connected_hops():
    t = FullyConnected(4)
    assert t.hop_count(0, 0) == 0
    assert t.hop_count(0, 3) == 2
    assert t.diameter() == 2
    assert t.neighbors(1) == [0, 2, 3]


def test_invalid_num_nodes():
    with pytest.raises(ValueError):
        FullyConnected(0)


def test_node_range_checked():
    t = FullyConnected(3)
    with pytest.raises(IndexError):
        t.hop_count(0, 3)
    with pytest.raises(IndexError):
        t.neighbors(-1)


# -- fat tree --------------------------------------------------------------------


def test_fattree_hop_structure():
    ft = TwoStageFatTree(64, nodes_per_edge=16, uplinks_per_edge=8)
    assert ft.num_edge_switches == 4
    assert ft.hop_count(0, 0) == 0
    assert ft.hop_count(0, 15) == 2  # same edge switch
    assert ft.hop_count(0, 16) == 4  # across core
    assert ft.diameter() == 4


def test_fattree_single_switch_diameter():
    ft = TwoStageFatTree(8, nodes_per_edge=16)
    assert ft.diameter() == 2


def test_fattree_oversubscription():
    ft = TwoStageFatTree(64, nodes_per_edge=32, uplinks_per_edge=16)
    assert ft.oversubscription == 2.0


def test_fattree_neighbors_are_same_switch():
    ft = TwoStageFatTree(40, nodes_per_edge=16)
    nb = ft.neighbors(17)
    assert 17 not in nb
    assert all(ft.edge_switch_of(n) == ft.edge_switch_of(17) for n in nb)
    # last switch is partially filled
    assert ft.neighbors(39) == [32, 33, 34, 35, 36, 37, 38]


def test_fattree_path():
    ft = TwoStageFatTree(64, nodes_per_edge=16)
    assert ft.path(3, 3) == ["n3"]
    assert ft.path(0, 5) == ["n0", "edge0", "n5"]
    assert ft.path(0, 20) == ["n0", "edge0", "core*", "edge1", "n20"]


def test_fattree_invalid_params():
    with pytest.raises(ValueError):
        TwoStageFatTree(10, nodes_per_edge=0)


@given(
    a=st.integers(min_value=0, max_value=95),
    b=st.integers(min_value=0, max_value=95),
)
def test_fattree_hops_symmetric_and_bounded(a, b):
    ft = TwoStageFatTree(96, nodes_per_edge=24, uplinks_per_edge=12)
    assert ft.hop_count(a, b) == ft.hop_count(b, a)
    assert ft.hop_count(a, b) in (0, 2, 4)
    assert (ft.hop_count(a, b) == 0) == (a == b)


# -- torus ----------------------------------------------------------------------


def test_torus_coords_roundtrip():
    t = Torus((2, 3, 4))
    assert t.num_nodes == 24
    for n in range(24):
        assert t.node_at(t.coords(n)) == n


def test_torus_hops_ring_wraparound():
    t = Torus((8,))
    assert t.hop_count(0, 1) == 1
    assert t.hop_count(0, 7) == 1  # wraps
    assert t.hop_count(0, 4) == 4
    assert t.diameter() == 4


def test_torus_multidim_hops():
    t = Torus.cube(4, 3)
    a = t.node_at((0, 0, 0))
    b = t.node_at((1, 2, 3))
    assert t.hop_count(a, b) == 1 + 2 + 1  # wrap on last axis
    assert t.diameter() == 6


def test_torus_neighbors_count():
    t = Torus.cube(4, 2)
    assert len(t.neighbors(0)) == 4
    t5 = Torus((4, 4, 4, 4, 2))  # BG/Q-like; size-2 dims give 1 neighbor
    assert len(t5.neighbors(0)) == 2 * 4 + 1


def test_torus_dim1_ignored_in_neighbors():
    t = Torus((1, 4))
    assert len(t.neighbors(0)) == 2


def test_torus_validation():
    with pytest.raises(ValueError):
        Torus(())
    with pytest.raises(ValueError):
        Torus((0, 2))
    t = Torus((2, 2))
    with pytest.raises(ValueError):
        t.node_at((1,))
    with pytest.raises(IndexError):
        t.node_at((2, 0))


@settings(max_examples=40)
@given(
    a=st.integers(min_value=0, max_value=63),
    b=st.integers(min_value=0, max_value=63),
    c=st.integers(min_value=0, max_value=63),
)
def test_torus_hop_metric_properties(a, b, c):
    t = Torus.cube(4, 3)
    # symmetry, identity, triangle inequality
    assert t.hop_count(a, b) == t.hop_count(b, a)
    assert (t.hop_count(a, b) == 0) == (a == b)
    assert t.hop_count(a, c) <= t.hop_count(a, b) + t.hop_count(b, c)


def test_to_networkx_neighbor_graph():
    t = Torus.cube(3, 2)
    g = t.to_networkx()
    assert g.number_of_nodes() == 9
    # 2D 3-ary torus: each node has 4 neighbors -> 18 edges
    assert g.number_of_edges() == 18


# -- node-range diagnostics (all topologies) -------------------------------------


def _all_topologies():
    from repro.network.dragonfly import Dragonfly

    return [
        FullyConnected(4),
        Torus((2, 2)),
        TwoStageFatTree(4, nodes_per_edge=2, uplinks_per_edge=1),
        Dragonfly(4, nodes_per_router=2, routers_per_group=1),
    ]


@pytest.mark.parametrize("topo", _all_topologies(), ids=lambda t: type(t).__name__)
def test_negative_node_id_names_offender_and_range(topo):
    with pytest.raises(IndexError, match=r"node -1 out of range \[0, 4\)"):
        topo.hop_count(-1, 0)
    with pytest.raises(IndexError, match=r"node -1 out of range"):
        topo.neighbors(-1)


@pytest.mark.parametrize("topo", _all_topologies(), ids=lambda t: type(t).__name__)
def test_node_id_equal_to_num_nodes_rejected(topo):
    n = topo.num_nodes
    with pytest.raises(IndexError, match=rf"node {n} out of range \[0, {n}\)"):
        topo.hop_count(0, n)


def test_node_range_error_is_both_index_and_value_error():
    from repro.network import NodeRangeError

    t = FullyConnected(3)
    with pytest.raises(NodeRangeError):
        t.hop_count(0, 3)
    with pytest.raises(ValueError):  # historically IndexError; now both
        t.hop_count(0, 3)
    with pytest.raises(IndexError):
        t.hop_count(0, 3)


def test_single_node_topologies():
    fc = FullyConnected(1)
    assert fc.hop_count(0, 0) == 0
    assert fc.neighbors(0) == []
    with pytest.raises(IndexError, match=r"node 1 out of range \[0, 1\)"):
        fc.hop_count(0, 1)
    t = Torus((1, 1))
    assert t.hop_count(0, 0) == 0
    assert t.neighbors(0) == []
