"""Deterministic random-substream derivation.

Every random draw in the simulator comes from a generator built by
:func:`substream`, keyed on the master seed plus a small integer tuple
(snr index, trial index, purpose, unit).  Substreams are therefore
independent of execution order, which is what makes parallel sweeps
reproduce serial ones byte for byte.

A substream is ``np.random.default_rng(np.random.SeedSequence(seed,
spawn_key=key))``, bit for bit, but its seed words are derived here.
SeedSequence's entropy pool (NumPy NEP 19, after O'Neill's ``seed_seq``,
2015) folds the seed's 32-bit words and then each key int's words in
turn, so the pool after the seed and after every proper key prefix is
cached: the K + 4 substreams of one packet share the (seed, snr, trial)
work, and a call costs the hashing of its last key and PCG64's own
seeding.  ``tests/test_rng.py`` checks the generator states bitwise
against numpy's ``SeedSequence``.
"""

from functools import lru_cache
from itertools import cycle

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# purpose codes used when deriving per-trial substreams
SMALL_SCALE = 0
LARGE_SCALE = 1
PAYLOAD = 2
FRAME = 3
NOISE = 4

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16


def _words(value: int) -> list:
    """Little-endian 32-bit words of a non-negative int; 0 is one word."""
    value = int(value)
    if value < 0:
        raise ValueError(f"expected non-negative integer, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hashmix(value: int, hash_const: int):
    value ^= hash_const
    hash_const = hash_const * _MULT_A & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> _XSHIFT, hash_const


def _mix(x: int, y: int) -> int:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y & _MASK32
    return result ^ result >> _XSHIFT


@lru_cache(maxsize=1024)
def _key_hashes(value: int, hash_const: int) -> tuple:
    """The ``_POOL_SIZE`` hashes of each 32-bit word of key int ``value``
    that fold it into the pool, and the hash constant after them.  The
    constant counts the words folded before, so a packet's small key ints
    hash the same in every packet."""
    hashes = []
    for word in _words(value):
        word_hashes = []
        for _ in range(_POOL_SIZE):
            hashed, hash_const = _hashmix(word, hash_const)
            word_hashes.append(hashed)
        hashes.append(tuple(word_hashes))
    return tuple(hashes), hash_const


def _fold(pool: tuple, hash_const: int, value: int) -> tuple:
    """Mix a key int's words into every pool word, past the first
    ``_POOL_SIZE`` entropy words."""
    hashes, hash_const = _key_hashes(value, hash_const)
    for word_hashes in hashes:
        pool = tuple([(mixed := _MIX_MULT_L * x - _MIX_MULT_R * y & _MASK32)
                      ^ mixed >> _XSHIFT for x, y in zip(pool, word_hashes)])
    return pool, hash_const


@lru_cache(maxsize=256)
def _pool(master_seed: int, prefix: tuple) -> tuple:
    """(pool, hash constant) after the seed and the key ints of ``prefix``.

    The seed's words fill the pool (padded with zero words, as
    SeedSequence pads them whenever a spawn key follows; with no key the
    padding hashes the same), are mixed across it, and any seed words
    past the pool and then each key int's words are folded in.
    """
    if prefix:
        pool, hash_const = _pool(master_seed, prefix[:-1])
        return _fold(pool, hash_const, prefix[-1])
    words = _words(master_seed)
    words += [0] * (_POOL_SIZE - len(words))
    hash_const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        hashed, hash_const = _hashmix(word, hash_const)
        pool.append(hashed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], hashed)
    pool = tuple(pool)
    for word in words[_POOL_SIZE:]:
        pool, hash_const = _fold(pool, hash_const, word)
    return pool, hash_const


@lru_cache(maxsize=4)
def _state_layout(n_words: int, dtype) -> tuple:
    """(dtype, whether words pair into uint64, xor constants, multiplier
    constants) of ``generate_state(n_words, dtype)``."""
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.uint32), np.dtype(np.uint64)):
        raise ValueError("only support uint32 or uint64")
    xors, mults, hash_const = [], [], _INIT_B
    for _ in range(n_words * dtype.itemsize // 4):
        xors.append(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        mults.append(hash_const)
    return dtype, dtype.itemsize == 8, tuple(xors), tuple(mults)


class _SeedWords(ISeedSequence):
    """The minimal seed sequence numpy's bit generators accept: the
    ``generate_state`` of a finished SeedSequence pool."""

    __slots__ = ("pool",)

    def __init__(self, pool: tuple):
        self.pool = pool

    def generate_state(self, n_words, dtype=np.uint32):
        dtype, paired, xors, mults = _state_layout(n_words, dtype)
        state = [(value := (word ^ xor) * mult & _MASK32) ^ value >> _XSHIFT
                 for word, xor, mult in zip(cycle(self.pool), xors, mults)]
        if paired:
            # word 2i is the low half: assembled as ints, whatever the host's
            # byte order
            state = [lo | hi << 32 for lo, hi in zip(state[::2], state[1::2])]
        return np.array(state, dtype=dtype)


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Return an independent Generator for (master seed, key).

    The same (seed, key) pair always yields the same stream, and distinct
    keys yield statistically independent streams.  The stream is
    ``default_rng(SeedSequence(master_seed, spawn_key=key))``; a negative
    seed or key raises ``ValueError``, as numpy does.
    """
    pool, hash_const = _pool(master_seed, key[:-1])
    if key:
        pool, _ = _fold(pool, hash_const, key[-1])
    return np.random.Generator(np.random.PCG64(_SeedWords(pool)))
