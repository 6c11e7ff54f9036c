"""Tests for LogGP point-to-point and collective cost models."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.network import (
    CollectiveCostModel,
    FullyConnected,
    LogGPModel,
    TwoStageFatTree,
)


def make_model(**kw):
    defaults = dict(
        latency_per_hop=1e-6,
        overhead=2e-6,
        bytes_per_second=1e9,
    )
    defaults.update(kw)
    topo = kw.pop("topology", None) or TwoStageFatTree(
        64, nodes_per_edge=16, uplinks_per_edge=8
    )
    defaults.pop("topology", None)
    return LogGPModel(topo, **defaults)


def test_p2p_zero_bytes_is_latency_only():
    m = make_model()
    t = m.p2p_time(0, 1, 0)
    assert t == pytest.approx(2 * 1e-6 + 2 * 2e-6)


def test_p2p_scales_linearly_with_size():
    m = make_model()
    t1 = m.p2p_time(0, 1, 10_000)
    t2 = m.p2p_time(0, 1, 20_000)
    base = m.p2p_time(0, 1, 0)
    assert (t2 - base) == pytest.approx(2 * (t1 - base))


def test_p2p_more_hops_cost_more():
    m = make_model()
    near = m.p2p_time(0, 1, 1_000_000)  # same edge switch
    far = m.p2p_time(0, 32, 1_000_000)  # across core
    assert far > near


def test_contention_derates_core_routes_only():
    m = make_model()
    # fat tree oversubscription = 2; 1 MB across core pays 2x bandwidth
    size = 1_000_000
    near = m.p2p_time(0, 1, size)
    far = m.p2p_time(0, 32, size)
    bw_near = size * m.G
    bw_far = size * m.G * 2
    assert near == pytest.approx(2 * m.L + 2 * m.o + bw_near)
    assert far == pytest.approx(4 * m.L + 2 * m.o + bw_far)


def test_intranode_copy_cheaper():
    m = make_model()
    assert m.p2p_time(5, 5, 10_000) < m.p2p_time(5, 6, 10_000)


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        make_model().p2p_time(0, 1, -1)


def test_parameter_validation():
    topo = FullyConnected(4)
    with pytest.raises(ValueError):
        LogGPModel(topo, latency_per_hop=-1)
    with pytest.raises(ValueError):
        LogGPModel(topo, bytes_per_second=0)
    with pytest.raises(ValueError):
        LogGPModel(topo, contention_factor=0.5)


def test_default_contention_from_topology():
    ft = TwoStageFatTree(64, nodes_per_edge=32, uplinks_per_edge=8)
    m = LogGPModel(ft)
    assert m.contention_factor == 4.0
    fc = FullyConnected(8)
    assert LogGPModel(fc).contention_factor == 1.0


# -- collectives ------------------------------------------------------------------


def test_barrier_scales_logarithmically():
    c = CollectiveCostModel(make_model())
    t8 = c.barrier(8)
    t64 = c.barrier(64)
    assert t64 == pytest.approx(2 * t8)  # log2 64 = 2 * log2 8
    assert c.barrier(1) == 0.0


def test_broadcast_grows_with_ranks_and_size():
    c = CollectiveCostModel(make_model())
    assert c.broadcast(16, 1000) > c.broadcast(4, 1000)
    assert c.broadcast(16, 10_000) > c.broadcast(16, 1000)


def test_allreduce_is_reduce_plus_broadcast():
    c = CollectiveCostModel(make_model())
    assert c.allreduce(32, 4096) == pytest.approx(
        c.reduce(32, 4096) + c.broadcast(32, 4096)
    )


def test_reduce_includes_op_time():
    c = CollectiveCostModel(make_model())
    plain = c.reduce(8, 1000)
    with_op = c.reduce(8, 1000, op_time_per_byte=1e-8)
    assert with_op == pytest.approx(plain + 3 * 1e-8 * 1000)


def test_gather_linear_in_ranks():
    c = CollectiveCostModel(make_model())
    assert c.gather(1, 100) == 0.0
    g9 = c.gather(9, 100)
    g5 = c.gather(5, 100)
    assert g9 > g5


def test_alltoall_rounds():
    c = CollectiveCostModel(make_model())
    assert c.alltoall(1, 100) == 0.0
    assert c.alltoall(5, 100) == pytest.approx(4 * c.p2p.far_time(100))


def test_collectives_validate_ranks():
    c = CollectiveCostModel(make_model())
    for fn in (c.barrier, lambda n: c.broadcast(n, 1), lambda n: c.gather(n, 1)):
        with pytest.raises(ValueError):
            fn(0)


@given(
    nranks=st.integers(min_value=1, max_value=4096),
    nbytes=st.integers(min_value=0, max_value=10**9),
)
def test_collective_times_nonnegative_and_monotone_in_size(nranks, nbytes):
    c = CollectiveCostModel(make_model())
    t = c.broadcast(nranks, nbytes)
    assert t >= 0
    assert c.broadcast(nranks, nbytes + 1024) >= t


def test_price_dispatches_every_op():
    c = CollectiveCostModel(make_model())
    assert c.price("barrier", 16) == c.barrier(16)
    for op in ("allreduce", "broadcast", "reduce", "gather", "alltoall"):
        assert c.price(op, 16, 4096) == getattr(c, op)(16, 4096)
    with pytest.raises(ValueError, match="unpriced collective"):
        c.price("scan", 16, 8)


def test_price_is_memoised_on_a_healthy_fabric_only(monkeypatch):
    """A healthy price is computed once per ``(op, nranks, nbytes)``; under
    an active overlay every call prices afresh, so the retransmissions
    of a lossy link keep counting."""
    c = CollectiveCostModel(make_model())
    walks = []
    far_time = c.p2p.far_time

    def counted(nbytes):
        walks.append(nbytes)
        return far_time(nbytes)

    monkeypatch.setattr(c.p2p, "far_time", counted)
    healthy = c.price("allreduce", 64, 8)
    assert c.price("allreduce", 64, 8) == healthy and len(walks) == 2  # reduce + broadcast
    c.price("allreduce", 64, 16)
    assert len(walks) == 4
    health = c.p2p.topology.health()
    health.degrade_link(0, 1, derate=2.0, loss_prob=0.5)
    degraded = [c.price("allreduce", 64, 8) for _ in range(2)]
    assert degraded[0] == degraded[1] > healthy
    assert len(walks) == 8
    assert c.p2p.stats["retransmits"] == pytest.approx(4.0)  # one per far_time
    health.reset()
    assert c.price("allreduce", 64, 8) == healthy and len(walks) == 8
