"""Unit tests for BenchmarkDataset."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.models import BenchmarkDataset


def make_grid_dataset():
    ds = BenchmarkDataset(("epr", "ranks"), kernel="k")
    for epr in (5, 10, 15):
        for ranks in (8, 64):
            for s in range(4):
                ds.add_sample({"epr": epr, "ranks": ranks}, epr * ranks + s)
    return ds


def test_requires_param_names():
    with pytest.raises(ValueError):
        BenchmarkDataset(())


def test_duplicate_param_names_rejected():
    with pytest.raises(ValueError):
        BenchmarkDataset(("a", "a"))


def test_add_and_query_samples():
    ds = make_grid_dataset()
    assert len(ds) == 6
    assert ds.n_samples == 24
    s = ds.samples({"epr": 5, "ranks": 8})
    assert s.tolist() == [40, 41, 42, 43]
    assert ds.mean({"epr": 5, "ranks": 8}) == pytest.approx(41.5)
    assert ds.std({"epr": 5, "ranks": 8}) > 0


def test_param_order_irrelevant_in_mapping():
    ds = make_grid_dataset()
    a = ds.samples({"ranks": 8, "epr": 5})
    b = ds.samples({"epr": 5, "ranks": 8})
    assert a.tolist() == b.tolist()


def test_missing_param_keyerror():
    ds = make_grid_dataset()
    with pytest.raises(KeyError):
        ds.samples({"epr": 5})


def test_invalid_sample_rejected():
    ds = BenchmarkDataset(("x",))
    with pytest.raises(ValueError):
        ds.add_sample({"x": 1}, -1.0)
    with pytest.raises(ValueError):
        ds.add_sample({"x": 1}, float("nan"))


def test_mean_of_absent_point_raises():
    ds = make_grid_dataset()
    with pytest.raises(KeyError):
        ds.mean({"epr": 99, "ranks": 8})


def test_grid_values():
    ds = make_grid_dataset()
    assert ds.grid_values("epr").tolist() == [5, 10, 15]
    assert ds.grid_values("ranks").tolist() == [8, 64]
    with pytest.raises(KeyError):
        ds.grid_values("nope")


def test_to_arrays_mean_and_none():
    ds = make_grid_dataset()
    X, y = ds.to_arrays("mean")
    assert X.shape == (6, 2)
    assert y.shape == (6,)
    Xn, yn = ds.to_arrays("none")
    assert Xn.shape == (24, 2)
    with pytest.raises(ValueError):
        ds.to_arrays("bogus")


def test_split_is_disjoint_and_covering():
    ds = make_grid_dataset()
    train, test = ds.split(0.33, seed=1)
    assert len(train) + len(test) == len(ds)
    assert set(train.keys()).isdisjoint(test.keys())
    assert len(test) >= 1 and len(train) >= 1


def test_split_deterministic():
    ds = make_grid_dataset()
    t1, _ = ds.split(0.25, seed=5)
    t2, _ = ds.split(0.25, seed=5)
    assert t1.keys() == t2.keys()


def test_split_validates_fraction():
    ds = make_grid_dataset()
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            ds.split(bad)


def test_merge():
    a = make_grid_dataset()
    b = BenchmarkDataset(("epr", "ranks"), kernel="k")
    b.add_sample({"epr": 20, "ranks": 8}, 1.0)
    m = a.merge(b)
    assert len(m) == 7
    assert m.n_samples == 25


def test_merge_rejects_mismatched_params():
    a = make_grid_dataset()
    b = BenchmarkDataset(("x",))
    with pytest.raises(ValueError):
        a.merge(b)


def test_roundtrip_dict_and_file(tmp_path):
    ds = make_grid_dataset()
    ds2 = BenchmarkDataset.from_dict(ds.to_dict())
    assert ds2.keys() == ds.keys()
    path = tmp_path / "ds.json"
    ds.save(path)
    ds3 = BenchmarkDataset.load(path)
    assert ds3.kernel == "k"
    assert ds3.samples({"epr": 10, "ranks": 64}).tolist() == ds.samples(
        {"epr": 10, "ranks": 64}
    ).tolist()


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=5),
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        ),
        min_size=1,
        max_size=50,
    )
)
def test_n_samples_matches_additions(entries):
    ds = BenchmarkDataset(("p",))
    for p, v in entries:
        ds.add_sample({"p": p}, v)
    assert ds.n_samples == len(entries)
    assert len(ds) == len({p for p, _ in entries})
    total = sum(v for _, v in entries)
    acc = sum(ds.samples({"p": p}).sum() for p in {p for p, _ in entries})
    assert np.isclose(acc, total)
