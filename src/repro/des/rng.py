"""Deterministic per-component random-number streams.

Every component gets its own :class:`numpy.random.Generator` derived from
the engine's root seed and the component's name.  This decouples the random
sequence observed by one component from how many draws other components
make, which is a prerequisite for the parallel engine to reproduce the
sequential engine's results exactly.

:meth:`RNGRegistry.draw_bounded` draws one bounded integer per row from
many fresh streams at once.  It reproduces, in array arithmetic, what
numpy does per stream: ``SeedSequence`` mixing, ``PCG64`` output and
``Generator.integers``' 32-bit Lemire draws.  A self-check against numpy
on first use decides whether it may; otherwise every stream takes
numpy's own path, so the bytes never depend on which one ran.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Optional, Sequence

import numpy as np


@functools.lru_cache(maxsize=1 << 14)
def _stable_hash(name: str) -> int:
    """A platform-independent 64-bit hash of *name* (``hash()`` is salted).

    Memoised: rank and kernel names repeat in every replica."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_M32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4


def _uint32_words(n: int) -> list[int]:
    """*n* as little-endian 32-bit words, as ``SeedSequence`` splits an
    int (zero is one word)."""
    words = [n & _M32]
    n >>= 32
    while n:
        words.append(n & _M32)
        n >>= 32
    return words


@functools.lru_cache(maxsize=64)
def _seed_pool(seed: int) -> tuple[tuple[int, ...], int]:
    """``(pool, hash_const)`` of ``SeedSequence(entropy=seed,
    spawn_key=k)`` before the spawn key's words are mixed in.

    Everything up to there depends on the seed alone: the pool's first
    16 hash-mixes and one round per seed word past the fourth (a seed
    is zero-padded to the pool size when a spawn key follows).
    """
    entropy = _uint32_words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    hc = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hc
        value ^= hc
        hc = (hc * _MULT_A) & _M32
        value = (value * hc) & _M32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return r ^ (r >> 16)

    pool = [hashmix(v) for v in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return tuple(pool), hc


def _hashmixed(words: np.ndarray, hc: int, mult: int, n: int) -> tuple[np.ndarray, int]:
    """``hashmix`` of *words* under *n* successive hash constants from
    *hc* (each the last times *mult*), row ``i`` under the ``i``-th, and
    the hash constant after them."""
    consts = [hc]
    for _ in range(n):
        consts.append((consts[-1] * mult) & _M32)
    value = words ^ np.array(consts[:-1], dtype=np.uint32)[:, None]
    value *= np.array(consts[1:], dtype=np.uint32)[:, None]
    value ^= value >> np.uint32(16)
    return value, consts[-1]


def _mixed(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s ``mix`` of two ``uint32`` arrays."""
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    r ^= r >> np.uint32(16)
    return r


def _seed_states(seed: int, keys: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy=seed, spawn_key=(key,)).generate_state(4,
    np.uint64)`` for each 64-bit *key*, one row per key.

    A key below 2**32 is one spawn word, any other two (low, then
    high).  The seed's pool is shared.  Each spawn word mixes into every
    pool word under the next four hash constants, continuing the
    pool's, so the same for every key.
    """
    pool0, hc = _seed_pool(seed)
    keys = np.asarray(keys, dtype=np.uint64)
    pool = np.array(pool0, dtype=np.uint32)[:, None].repeat(len(keys), axis=1)
    low, hc = _hashmixed(keys.astype(np.uint32), hc, _MULT_A, _POOL_SIZE)
    pool = _mixed(pool, low)
    high = (keys >> np.uint64(32)).astype(np.uint32)
    if high.any():
        high_mixed, _ = _hashmixed(high, hc, _MULT_A, _POOL_SIZE)
        np.copyto(pool, _mixed(pool, high_mixed), where=high != 0)
    # generate_state(4, np.uint64): 8 words cycled from the pool, then
    # paired little-endian into 64-bit words
    words, _ = _hashmixed(np.tile(pool, (2, 1)), _INIT_B, _MULT_B, 2 * _POOL_SIZE)
    words = words.T.astype(np.uint64)
    # C order: PCG64 reads each row's buffer as four contiguous words
    return np.ascontiguousarray(words[:, 0::2] | (words[:, 1::2] << np.uint64(32)))


class _SeedState:
    """The ``seed_seq`` of a stream :meth:`RNGRegistry.draw_bounded`
    seeded: it hands ``PCG64`` the state words the stream's
    ``SeedSequence`` would generate, so numpy's own seeding runs.

    It carries no entropy, pool or spawn key and cannot spawn.  Nothing
    reads a stream's ``bit_generator.seed_seq``: a stream's identity is
    its bit-generator state (:meth:`RNGRegistry.state_digest`).  It is
    registered as numpy's ``ISeedSequence`` on first use, so importing
    this module does not import ``numpy.random``.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        # PCG64 asks for generate_state(4, np.uint64) once, when seeded
        return self.words


@functools.cache
def _register_seed_state() -> None:
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_SeedState)


def _pcg64(words: np.ndarray) -> np.random.PCG64:
    _register_seed_state()
    return np.random.PCG64(_SeedState(words))


#: ranks per block of :func:`_lemire_block`, as a share of the call's
#: ranks, so the block's temporaries stay below the draws matrix
_BLOCKS = 4


def _lemire_block(gens: list, bounds: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Draw ``integers(0, bounds)`` from each freshly seeded bit
    generator in *gens* into ``out[:, j]``; return which columns hit a
    rejection and so hold no valid draw.

    ``integers`` reads one 32-bit word per bound of 2 or more (a bound
    of 1 reads none): the low half of a ``PCG64`` output, then its high
    half.  A word *w* gives ``(w * b) >> 32`` unless
    ``(w * b) mod 2**32 < (2**32 - b) mod b``, where numpy redraws.  The
    generators end where ``integers`` leaves them: the outputs used,
    ``has_uint32`` set when an odd number of words was read, and
    ``uinteger`` the last output's high half either way.
    """
    used = np.flatnonzero(bounds > 1)
    n = len(used)
    if n == 0:
        return np.zeros(len(gens), dtype=bool)
    raw = np.empty((len(gens), (n + 1) // 2), dtype=np.uint64)
    for j, bg in enumerate(gens):
        raw[j] = bg.random_raw(raw.shape[1])
    for bg, high in zip(gens, (raw[:, -1] >> np.uint64(32)).tolist()):
        state = bg.state
        state["has_uint32"] = n & 1
        state["uinteger"] = high
        bg.state = state
    b = bounds[used].astype(np.uint64)[:, None]
    # on a little-endian host each output's 32-bit view is (low, high);
    # a big-endian one fails the self-check
    m = raw.view(np.uint32)[:, :n].T.astype(np.uint64)
    m *= b
    rejected = ((m & np.uint64(_M32)) < (np.uint64(1 << 32) - b) % b).any(axis=0)
    m >>= np.uint64(32)
    out[used] = m
    return rejected


#: whether the batch matches numpy here (``None`` until first checked)
_BATCH_EXACT: Optional[bool] = None


def _batch_exact() -> bool:
    """Check once per process that :func:`_seed_states` and
    :func:`_lemire_block` reproduce numpy on probe streams: seeds of
    1–5 words, keys of one and two words, odd and even word counts and
    bounds of 1.  Any difference or error sends every stream through
    numpy's own path."""
    global _BATCH_EXACT
    if _BATCH_EXACT is None:
        try:
            _BATCH_EXACT = _probe()
        except (ImportError, TypeError, ValueError, AttributeError, KeyError):
            # a numpy whose seeding or bit-generator state looks otherwise
            _BATCH_EXACT = False
    return _BATCH_EXACT


def _probe() -> bool:
    keys = np.array([0, 1, 0xFFFFFFFF, 1 << 32, 0x9E3779B97F4A7C15, (1 << 64) - 1], dtype=np.uint64)
    for seed in (0, 7, (1 << 40) + 3, (1 << 70) + 5, (1 << 150) + 11):
        states = _seed_states(seed, keys)
        for key, words in zip(keys.tolist(), states):
            ref = np.random.SeedSequence(entropy=seed, spawn_key=(key,))
            if not np.array_equal(ref.generate_state(4, np.uint64), words):
                return False
    for bounds in ([5, 1, 1000, 7], [3, 1, 2], [1, 1], [97] * 9):
        bounds = np.array(bounds, dtype=np.int64)
        out = np.zeros((len(bounds), len(keys)), dtype=np.int64)
        gens = [_pcg64(words) for words in _seed_states(3, keys)]
        rejected = _lemire_block(gens, bounds, out)
        for j, (key, bg) in enumerate(zip(keys.tolist(), gens)):
            ref = np.random.default_rng(np.random.SeedSequence(entropy=3, spawn_key=(key,)))
            draws = ref.integers(0, bounds)
            if not rejected[j] and (
                not np.array_equal(draws, out[:, j]) or ref.bit_generator.state != bg.state
            ):
                return False
    return True


class RNGRegistry:
    """Factory of independent, name-keyed random generators.

    Parameters
    ----------
    seed:
        Root seed.  Two registries with the same seed hand out identical
        streams for identical names.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._cache: dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the (cached) generator for *name*."""
        gen = self._cache.get(name)
        if gen is None:
            ss = np.random.SeedSequence(
                entropy=self.seed, spawn_key=(_stable_hash(name),)
            )
            gen = np.random.default_rng(ss)
            self._cache[name] = gen
        return gen

    def fresh(self, name: str) -> np.random.Generator:
        """Return a brand-new generator for *name*, resetting its stream."""
        self._cache.pop(name, None)
        return self.get(name)

    def draw_bounded(self, names: Sequence[str], bounds) -> np.ndarray:
        """``np.stack([self.get(n).integers(0, bounds) for n in names],
        axis=1)``, drawn in one batch where that is exact.

        Returns the same ``int64`` matrix (``(len(bounds), 0)`` for no
        names) and leaves every stream in the same state, its 32-bit
        buffer included.  A stream not yet materialised is seeded and
        drawn in array arithmetic (:func:`_seed_states`,
        :func:`_lemire_block`).  These take numpy's own ``integers``
        call instead: a stream already materialised (or named twice),
        every stream when a bound is below 1 or at least 2**32, a stream
        whose draws hit a Lemire rejection, and every stream when the
        once-per-process self-check (:func:`_batch_exact`) fails.
        """
        bounds = np.asarray(bounds)
        if bounds.ndim != 1:
            raise ValueError(f"bounds must be one-dimensional, got shape {bounds.shape}")
        out = np.zeros((len(bounds), len(names)), dtype=np.int64)
        cache = self._cache
        batch: dict[str, int] = {}
        if (
            bounds.dtype.kind in "iu"
            and self.seed >= 0
            and (not len(bounds) or (bounds.min() >= 1 and bounds.max() < 1 << 32))
            and _batch_exact()
        ):
            for j, name in enumerate(names):
                if name not in cache and name not in batch:
                    batch[name] = j
        if batch:
            cols = list(batch.values())
            keys = np.fromiter(map(_stable_hash, batch), dtype=np.uint64, count=len(cols))
            states = _seed_states(self.seed, keys)
            step = -(-len(cols) // _BLOCKS)
            for lo in range(0, len(cols), step):
                at, words = cols[lo : lo + step], states[lo : lo + step]
                gens = [_pcg64(w) for w in words]
                part = np.zeros((len(bounds), len(at)), dtype=np.int64)
                rejected = _lemire_block(gens, bounds, part).tolist()
                out[:, at] = part
                for j, bg, w, redo in zip(at, gens, words, rejected):
                    if redo:  # numpy redraws: let it, from the seeded state
                        bg = _pcg64(w)
                    gen = cache[names[j]] = np.random.Generator(bg)
                    if redo:
                        out[:, j] = gen.integers(0, bounds)
        for j, name in enumerate(names):
            if batch.get(name) != j:
                out[:, j] = self.get(name).integers(0, bounds)
        return out

    def state_digest(self) -> str:
        """SHA-256 over every stream's bit-generator state.

        Two registries with equal digests will hand out identical draws
        for every already-materialised stream — the check snapshot tests
        use to prove RNG state survives a capture/restore round trip.
        """
        acc = hashlib.sha256()
        for name in sorted(self._cache):
            state = self._cache[name].bit_generator.state
            acc.update(name.encode("utf-8"))
            acc.update(repr(sorted(_flatten_state(state))).encode("utf-8"))
        return acc.hexdigest()


def _flatten_state(state, prefix: str = "") -> list[tuple[str, str]]:
    """Flatten a bit-generator state dict (ndarrays included) to pairs."""
    out: list[tuple[str, str]] = []
    if isinstance(state, dict):
        for key, value in state.items():
            out.extend(_flatten_state(value, f"{prefix}.{key}"))
    elif isinstance(state, np.ndarray):
        out.append((prefix, state.tobytes().hex()))
    else:
        out.append((prefix, repr(state)))
    return out
