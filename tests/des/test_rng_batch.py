"""``RNGRegistry.draw_bounded`` against one ``integers`` call per stream.

The batch seeds and draws in array arithmetic; every case here compares
its matrix and the registry's ``state_digest`` (each stream's PCG64
state, 32-bit buffer included) with the per-stream reference, and draws
on from both to compare what the streams hand out next.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.des import rng as rng_mod
from repro.des.rng import RNGRegistry, _lemire_block, _pcg64, _seed_states, _stable_hash

#: seeds of 1, 2, 3, 5 and 7 32-bit words
SEEDS = [0, 7, (1 << 40) + 3, (1 << 70) + 5, (1 << 150) + 11, (1 << 200) + 13]

NAMES = [f"rank{r}" for r in range(12)]


def reference(seed, names, bounds, prepare=None):
    reg = RNGRegistry(seed)
    if prepare is not None:
        prepare(reg)
    draws = [reg.get(n).integers(0, bounds) for n in names]
    matrix = np.stack(draws, axis=1) if draws else np.zeros((len(bounds), 0), np.int64)
    return reg, matrix


def batched(seed, names, bounds, prepare=None):
    reg = RNGRegistry(seed)
    if prepare is not None:
        prepare(reg)
    return reg, reg.draw_bounded(names, bounds)


def assert_same(seed, names, bounds, prepare=None):
    ref_reg, ref = reference(seed, names, bounds, prepare)
    reg, got = batched(seed, names, bounds, prepare)
    assert got.dtype == ref.dtype == np.int64
    assert got.shape == ref.shape
    assert np.array_equal(got, ref)
    assert reg.state_digest() == ref_reg.state_digest()
    # the streams go on alike: 32-bit draws read the buffered half first
    for name in sorted(set(names)):
        assert np.array_equal(
            reg.get(name).integers(0, 1000, size=3),
            ref_reg.get(name).integers(0, 1000, size=3),
        )
    assert reg.state_digest() == ref_reg.state_digest()
    return reg


@pytest.fixture(autouse=True)
def batch_on(monkeypatch):
    """Take the batch path whatever the self-check says, so each case
    tests the batch's arithmetic, not the probe's verdict."""
    monkeypatch.setattr(rng_mod, "_BATCH_EXACT", True)


def test_self_check_passes_here(monkeypatch):
    """Otherwise simulator runs here never take the batch path."""
    monkeypatch.setattr(rng_mod, "_BATCH_EXACT", None)
    assert rng_mod._batch_exact()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("nwords", [1, 2, 3, 4, 9, 10])
def test_draws_and_state_equal_per_stream(seed, nwords):
    bounds = np.random.default_rng(nwords).integers(2, 5000, size=nwords)
    reg = assert_same(seed, NAMES, bounds)
    # the batch seeded them: the stand-in is their seed_seq
    assert all(isinstance(reg.get(n).bit_generator.seed_seq, rng_mod._SeedState) for n in NAMES)


@pytest.mark.parametrize("seed", SEEDS)
def test_seed_states_equal_seed_sequence(seed):
    """Keys below 2**32 are one spawn word, the rest two: drive the
    seeding helper with both, and with the edges of each."""
    draw = np.random.default_rng(seed % 1000)
    keys = np.concatenate(
        [
            np.array([0, 1, 0xFFFFFFFF, 1 << 32, (1 << 64) - 1], dtype=np.uint64),
            draw.integers(0, 1 << 32, size=20, dtype=np.uint64),
            draw.integers(0, 1 << 64, size=20, dtype=np.uint64, endpoint=False),
        ]
    )
    states = _seed_states(seed, keys)
    assert states.shape == (len(keys), 4) and states.flags.c_contiguous
    for key, words in zip(keys.tolist(), states):
        ref = np.random.SeedSequence(entropy=seed, spawn_key=(key,))
        assert np.array_equal(words, ref.generate_state(4, np.uint64)), key


def test_only_short_keys_skip_the_second_word():
    keys = np.array([5, 6, 7], dtype=np.uint64)
    for key, words in zip(keys.tolist(), _seed_states(11, keys)):
        ref = np.random.SeedSequence(entropy=11, spawn_key=(key,))
        assert np.array_equal(words, ref.generate_state(4, np.uint64))


@pytest.mark.parametrize(
    "bounds",
    [
        [1, 1, 1, 1],
        [1],
        [1, 7, 1, 1, 300, 1, 2],
        [2, 1],
        [1, 2, 1, 3, 1],
        [(1 << 32) - 1, 5, 1],
    ],
    ids=["all-ones", "one-one", "mixed-odd", "mixed-one-word", "mixed-even", "top"],
)
def test_bounds_of_one_read_no_word(bounds):
    assert_same(3, NAMES, np.array(bounds, dtype=np.int64))


@pytest.mark.parametrize("bounds", [[1 << 32, 5], [5, (1 << 40) + 1, 1]])
def test_bounds_past_32_bits_take_numpys_path(bounds):
    reg = assert_same(9, NAMES, np.array(bounds, dtype=np.int64))
    assert isinstance(reg.get(NAMES[0]).bit_generator.seed_seq, np.random.SeedSequence)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rejections_redraw_as_numpy_does(seed):
    """A bound just past 2**31 rejects about half of its words, so some
    streams redraw and some do not."""
    bounds = np.array([(1 << 31) + 1, 5, (1 << 31) + 1, 3 << 30], dtype=np.int64)
    names = [f"stream{i}" for i in range(40)]
    keys = np.array([_stable_hash(n) for n in names], dtype=np.uint64)
    gens = [_pcg64(w) for w in _seed_states(seed, keys)]
    rejected = _lemire_block(gens, bounds, np.zeros((len(bounds), len(gens)), np.int64))
    assert rejected.any() and not rejected.all()
    assert_same(seed, names, bounds)


def test_empty_bounds_and_names():
    assert_same(4, NAMES, np.array([], dtype=np.int64))
    reg = RNGRegistry(4)
    assert reg.draw_bounded([], np.array([3, 4])).shape == (2, 0)
    assert reg.state_digest() == RNGRegistry(4).state_digest()


def test_existing_streams_and_repeated_names():
    """A materialised stream, one with an odd 32-bit buffer, and a name
    given twice, continue where they are."""

    def prepare(reg):
        reg.get("rank1").integers(0, 7)  # one word: has_uint32 = 1
        reg.get("rank4").integers(0, 9, size=2)

    reg = RNGRegistry(2)
    prepare(reg)
    assert reg.get("rank1").bit_generator.state["has_uint32"] == 1
    names = NAMES + ["rank3", "rank1"]
    for bounds in ([5, 6, 7], [8, 9], [1, 4]):
        assert_same(2, names, np.array(bounds, dtype=np.int64), prepare)


def test_failed_self_check_falls_back_identically(monkeypatch):
    bounds = np.array([3, 1, 70, 5, 2], dtype=np.int64)
    _, batch = batched(5, NAMES, bounds)
    monkeypatch.setattr(rng_mod, "_BATCH_EXACT", None)
    monkeypatch.setattr(rng_mod, "_probe", lambda: False)
    assert not rng_mod._batch_exact()
    reg = assert_same(5, NAMES, bounds)
    assert all(isinstance(reg.get(n).bit_generator.seed_seq, np.random.SeedSequence) for n in NAMES)
    assert np.array_equal(RNGRegistry(5).draw_bounded(NAMES, bounds), batch)


def test_self_check_error_falls_back(monkeypatch):
    def broken():
        raise TypeError("seeded another way")

    monkeypatch.setattr(rng_mod, "_BATCH_EXACT", None)
    monkeypatch.setattr(rng_mod, "_probe", broken)
    assert not rng_mod._batch_exact()
    assert_same(6, NAMES, np.array([4, 1, 9], dtype=np.int64))


def test_two_dimensional_bounds_are_refused():
    with pytest.raises(ValueError, match="one-dimensional"):
        RNGRegistry(0).draw_bounded(NAMES, np.ones((2, 2), dtype=np.int64))


def test_invalid_bounds_raise_as_numpy_does():
    with pytest.raises(ValueError):
        RNGRegistry(0).draw_bounded(NAMES, np.array([3, 0], dtype=np.int64))
