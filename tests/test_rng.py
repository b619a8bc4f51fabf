import random
from dataclasses import replace

import numpy as np
import pytest

import mumimo as m
from mumimo import harness
from mumimo import rng as rngmod

SPECIAL_SEEDS = (0, 2**32 - 1, 2**32, 2**64, 2**64 + 1, 2**64 + 12345,
                 2**128 + 7, 2**160 + 2**96 + 3)


def numpy_stream(seed, key):
    """The oracle: numpy's own SeedSequence and default generator."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def assert_same_stream(seed, key):
    got, ref = rngmod.substream(seed, *key), numpy_stream(seed, key)
    assert got.bit_generator.state == ref.bit_generator.state, (seed, key)
    assert got.integers(0, 2**63, size=4).tolist() == ref.integers(0, 2**63, size=4).tolist()
    assert got.standard_normal(3).tobytes() == ref.standard_normal(3).tobytes()


def random_cases(n, rs):
    for _ in range(n):
        seed = (rs.choice(SPECIAL_SEEDS) if rs.random() < 0.5
                else rs.getrandbits(rs.randrange(1, 200)))
        key = tuple(rs.randrange(2 ** rs.choice((1, 3, 8, 32, 33, 40)))
                    for _ in range(rs.randrange(7)))
        yield seed, key


@pytest.mark.parametrize("chunk", range(5))
def test_substream_is_numpys_seed_sequence_bitwise(chunk):
    for seed, key in random_cases(120, random.Random(chunk)):
        assert_same_stream(seed, key)


@pytest.mark.parametrize("seed", SPECIAL_SEEDS)
@pytest.mark.parametrize("key", [(), (0,), (2**32 - 1,), (2**32,), (2**40, 0, 5),
                                 (1, 2, 3, 4, 5, 6)])
def test_substream_word_boundaries(seed, key):
    assert_same_stream(seed, key)


def test_cached_prefixes_do_not_leak_between_keys():
    # the same prefix pools reached in a different call order
    keys = [(3, 1, 0, k) for k in range(4)] + [(3, 1, 2), (3, 0), (3, 1, 0, 0)]
    for key in keys + keys[::-1]:
        assert_same_stream(1601, key)


def test_seed_words_generate_state_matches_numpy():
    ref = np.random.SeedSequence(2**70 + 9, spawn_key=(4, 2**35))
    pool, _ = rngmod._pool(2**70 + 9, (4, 2**35))
    words = rngmod._SeedWords(pool)
    for n_words in (0, 1, 3, 4, 9):
        for dtype in (np.uint32, np.uint64):
            got, want = words.generate_state(n_words, dtype), ref.generate_state(n_words, dtype)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for states in (ref, words):
        with pytest.raises(ValueError):
            states.generate_state(2, np.int64)


@pytest.mark.parametrize("seed, key", [(-1, ()), (-(2**40), (1,)), (5, (-1,)),
                                       (5, (1, 2, -3))])
def test_negative_seed_or_key_raises_like_numpy(seed, key):
    with pytest.raises(ValueError):
        numpy_stream(seed, key)
    with pytest.raises(ValueError):
        rngmod.substream(seed, *key)


def test_qpsk_constellation_is_shared_and_read_only():
    points = m.qpsk_constellation(2.0)
    assert points is m.qpsk_constellation(2.0)
    assert not points.flags.writeable
    with pytest.raises(ValueError):
        points[0] = 0.0


SYSTEMS = {"cas": m.SystemConfig(n_users=8, n_bs=16),
           "das": m.SystemConfig(n_users=8, n_bs=8, n_heads=8, antennas_per_head=1)}


@pytest.mark.parametrize("coded", [False, True], ids=["uncoded", "coded"])
@pytest.mark.parametrize("system", SYSTEMS.values(), ids=SYSTEMS.keys())
def test_packet_draws_k_plus_4_substreams(monkeypatch, system, coded):
    # perfbench pins uncoded-8x16 at exactly K + 4 substream calls a packet
    # (K small-scale, large-scale, payload, frame, noise)
    spec = replace(m.ScenarioSpec(system=system, detector="mmse", coded=coded,
                                  idd_iterations=1, snr_db=(12.0,)),
                   packet_symbols=40, packets=3).validate()
    calls = []
    real = rngmod.substream

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(rngmod, "substream", counted)
    harness.run_trial(spec, 12.0, range(3))
    assert len(calls) == 3 * (system.n_users + 4)
    assert len(set(calls)) == len(calls)
