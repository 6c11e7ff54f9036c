"""Unit tests for the abstract instruction set and BEO objects."""

import pytest

from repro.core import (
    AppBEO,
    ArchBEO,
    Checkpoint,
    Collective,
    Compute,
    Exchange,
    Marker,
    unroll_loop,
)
from repro.models import ConstantModel, ModelError
from repro.network import FullyConnected


def test_compute_of_sorts_params():
    c = Compute.of("k", b=2, a=1)
    assert c.params == (("a", 1), ("b", 2))
    assert c.param_dict() == {"a": 1, "b": 2}


def test_compute_hashable_and_frozen():
    a = Compute.of("k", x=1)
    b = Compute.of("k", x=1)
    assert a == b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        a.kernel = "other"


def test_checkpoint_instruction():
    c = Checkpoint.of(2, "fti_l2", epr=10, ranks=64)
    assert c.level == 2
    assert c.param_dict() == {"epr": 10, "ranks": 64}


def test_collective_validation():
    Collective("barrier")
    Collective("allreduce", nbytes=8)
    with pytest.raises(ValueError):
        Collective("allgather")
    with pytest.raises(ValueError):
        Collective("barrier", nbytes=-1)


def test_exchange_validation():
    Exchange(nbytes=0, neighbors=0)
    with pytest.raises(ValueError):
        Exchange(nbytes=-1)
    with pytest.raises(ValueError):
        Exchange(nbytes=1, neighbors=-1)


def test_unroll_loop():
    body = [Compute.of("k"), Marker("m")]
    out = unroll_loop(body, 3)
    assert len(out) == 6
    assert out[0] == out[2] == out[4]
    assert unroll_loop(body, 0) == []
    with pytest.raises(ValueError):
        unroll_loop(body, -1)


# -- AppBEO ---------------------------------------------------------------------


def make_appbeo(**kw):
    def builder(rank, nranks, params):
        return [Compute.of("k", n=params["n"], rank=rank)]

    return AppBEO("test", builder, default_params={"n": 5}, **kw)


def test_appbeo_builds_with_defaults():
    app = make_appbeo()
    instrs = app.build(0, 4)
    assert instrs[0].param_dict()["n"] == 5


def test_appbeo_param_override():
    app = make_appbeo()
    instrs = app.build(1, 4, {"n": 9})
    assert instrs[0].param_dict() == {"n": 9, "rank": 1}


def test_appbeo_rank_checks():
    app = make_appbeo()
    with pytest.raises(IndexError):
        app.build(4, 4)
    with pytest.raises(ValueError):
        app.check_ranks(0)


@pytest.mark.parametrize("bad", [8.5, True, "8", float("nan")])
def test_appbeo_rejects_non_integral_rank_counts(bad):
    with pytest.raises(ValueError, match="nranks must be an integer"):
        make_appbeo().check_ranks(bad)


def test_appbeo_integral_float_rank_count_is_an_int():
    app = make_appbeo()
    assert app.check_ranks(8.0) == 8 and type(app.check_ranks(8.0)) is int
    assert app.build(0, 8.0) == app.build(0, 8)


def test_appbeo_custom_rank_validation():
    def only_even(n):
        if n % 2:
            raise ValueError("odd")

    app = make_appbeo(validate_ranks=only_even)
    app.check_ranks(4)
    with pytest.raises(ValueError):
        app.check_ranks(3)


# -- ArchBEO ---------------------------------------------------------------------


def test_archbeo_bind_and_predict():
    arch = ArchBEO("m")
    arch.bind("k", ConstantModel(0.5))
    assert arch.predict("k", {}) == 0.5


def test_archbeo_missing_model():
    arch = ArchBEO("m")
    with pytest.raises(ModelError):
        arch.predict("nope", {})


def test_archbeo_collective_pricing():
    arch = ArchBEO("m", topology=FullyConnected(8))
    t_bar = arch.collective_time(Collective("barrier"), 8)
    t_all = arch.collective_time(Collective("allreduce", nbytes=1024), 8)
    assert 0 < t_bar < t_all
    for op in ("broadcast", "reduce", "gather", "alltoall"):
        assert arch.collective_time(Collective(op, nbytes=64), 8) >= 0


def test_archbeo_exchange_pricing():
    arch = ArchBEO("m", topology=FullyConnected(8))
    t1 = arch.exchange_time(Exchange(nbytes=1000, neighbors=2))
    t2 = arch.exchange_time(Exchange(nbytes=1000, neighbors=6))
    assert t2 == pytest.approx(3 * t1)


def test_archbeo_without_topology_rejects_comm():
    arch = ArchBEO("m")
    with pytest.raises(ModelError):
        arch.collective_time(Collective("barrier"), 4)
    with pytest.raises(ModelError):
        arch.exchange_time(Exchange(nbytes=1))


def test_archbeo_placement():
    arch = ArchBEO("m", cores_per_node=4)
    assert arch.node_of_rank(0) == 0
    assert arch.node_of_rank(7) == 1
    assert arch.node_of_rank(7, ranks_per_node=2) == 3


def test_archbeo_validation():
    with pytest.raises(ValueError):
        ArchBEO("m", cores_per_node=0)
