"""Transmit chain tests: code trellis, interleaving, QPSK mapping, framing."""

import copy

import numpy as np
import pytest

import mumimo as m
from conftest import random_channel, reference_encode, same_bytes
from mumimo.errors import ParameterError
from mumimo.txchain import MEMORY, NEXT_STATE, OUT_BITS, gram_root


def test_encoder_impulse_response():
    # a single 1 flushes through as the generator taps: 11 10 11
    np.testing.assert_array_equal(m.conv_encode([1]), [1, 1, 1, 0, 1, 1])


def test_encoder_two_ones():
    np.testing.assert_array_equal(m.conv_encode([1, 1])[:4], [1, 1, 0, 1])
    np.testing.assert_array_equal(m.conv_encode([1, 1]), reference_encode([1, 1]))


def test_encoder_all_zero():
    np.testing.assert_array_equal(m.conv_encode([0, 0, 0]), np.zeros(10, dtype=np.int8))


def test_encoder_matches_reference_on_random_blocks(rng):
    for _ in range(20):
        bits = rng.integers(0, 2, size=rng.integers(1, 60))
        np.testing.assert_array_equal(m.conv_encode(bits), reference_encode(bits))
    # an empty block still emits the tail
    np.testing.assert_array_equal(m.conv_encode([]), np.zeros(2 * MEMORY, dtype=np.int8))


def test_encoder_is_linear(rng):
    # feedforward code: encode(a xor b) == encode(a) xor encode(b)
    a = rng.integers(0, 2, size=40)
    b = rng.integers(0, 2, size=40)
    lhs = m.conv_encode((a + b) % 2)
    rhs = (m.conv_encode(a) + m.conv_encode(b)) % 2
    np.testing.assert_array_equal(lhs, rhs)


@pytest.mark.parametrize("memory", [MEMORY], ids=["K3"])
def test_encoder_stack_equals_per_row_calls(rng, memory):
    bits = rng.integers(0, 2, size=(3, 4, 57))
    stacked = m.conv_encode(bits)
    assert stacked.shape == (3, 4, 2 * (57 + memory))
    for row in np.ndindex(3, 4):
        assert same_bytes(stacked[row], m.conv_encode(bits[row]))


def test_trellis_tables_shapes_and_termination():
    assert NEXT_STATE.shape == (4, 2)
    assert OUT_BITS.shape == (4, 2, 2)
    # feeding zeros from any state reaches state 0 within MEMORY steps
    for s in range(4):
        state = s
        for _ in range(MEMORY):
            state = NEXT_STATE[state, 0]
        assert state == 0


def test_trellis_tables_are_the_encoder_on_every_register():
    # state s holds the last MEMORY inputs, the most recent in its least
    # significant bit; the encoder fed those inputs, then u, then v emits
    # OUT_BITS[s, u] for u and OUT_BITS[NEXT_STATE[s, u], v] for v
    for s, u, v in np.ndindex(4, 2, 2):
        held = [s >> (MEMORY - 1 - i) & 1 for i in range(MEMORY)]
        steps = m.conv_encode(held + [u, v]).reshape(-1, 2)
        assert same_bytes(steps[MEMORY], OUT_BITS[s, u]), (s, u)
        assert same_bytes(steps[MEMORY + 1], OUT_BITS[NEXT_STATE[s, u], v]), (s, u, v)


def test_interleave_roundtrip(rng):
    x = rng.standard_normal(37)
    perm = rng.permutation(37)
    np.testing.assert_array_equal(m.deinterleave(m.interleave(x, perm), perm), x)
    y = rng.standard_normal((3, 37))
    np.testing.assert_array_equal(m.deinterleave(m.interleave(y, perm), perm), y)


def test_interleave_places_values():
    np.testing.assert_array_equal(m.interleave([10, 11, 12], [2, 0, 1]), [12, 10, 11])


def test_interleave_one_permutation_per_row(rng):
    x = rng.standard_normal((2, 4, 9))
    perms = np.stack([[rng.permutation(9) for _ in range(4)] for _ in range(2)])
    mixed = m.interleave(x, perms)
    for i in range(2):
        for j in range(4):
            np.testing.assert_array_equal(mixed[i, j], m.interleave(x[i, j], perms[i, j]))
    np.testing.assert_array_equal(m.deinterleave(mixed, perms), x)


def test_qpsk_constellation_hand_values():
    pts = m.qpsk_constellation(2.0)  # amplitude 1 per rail
    np.testing.assert_allclose(pts, [1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], atol=1e-15)
    np.testing.assert_allclose(np.abs(m.qpsk_constellation(3.0)) ** 2, 3.0, atol=1e-12)


def test_qpsk_map_bit_convention():
    # bit 0 -> positive rail; first bit of the pair drives the real part
    sym = m.qpsk_map([0, 0, 0, 1, 1, 0, 1, 1], symbol_power=2.0)
    np.testing.assert_allclose(sym, [1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], atol=1e-15)


def reference_qpsk_map(bits, symbol_power=1.0):
    # the int64 round trip: every bit array read as int64 and the points
    # indexed by int64 labels
    pairs = np.asarray(bits, dtype=np.int64).reshape(np.shape(bits)[:-1] + (-1, 2))
    return m.qpsk_constellation(symbol_power)[(pairs[..., 0] << 1) | pairs[..., 1]]


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint8, bool])
def test_qpsk_map_in_the_bits_own_type_equals_the_int64_mapping(rng, dtype):
    bits = rng.integers(0, 2, size=(3, 8, 1000)).astype(dtype)
    for power in (1.0, 2.0):
        assert same_bytes(m.qpsk_map(bits, power), reference_qpsk_map(bits, power))
    assert same_bytes(m.qpsk_map(bits.tolist()), reference_qpsk_map(bits))


def test_qpsk_slice_roundtrip(rng):
    bits = rng.integers(0, 2, size=(5, 24))
    sym = m.qpsk_map(bits)
    back = m.labels_to_bits(m.qpsk_slice_labels(sym)).reshape(5, 24)
    np.testing.assert_array_equal(back, bits)


def test_qpsk_slice_ties_toward_bit_zero():
    assert m.qpsk_slice_labels(np.array(0.0 + 0.0j)) == 0
    assert m.qpsk_slice_labels(np.array(-0.0 - 0.0j)) == 0
    assert m.qpsk_slice_labels(np.array(1e-300 - 1.0j)) == 1


def test_labels_to_bits_inverts_mapping():
    labels = np.arange(4)
    bits = m.labels_to_bits(labels)
    np.testing.assert_array_equal(bits, [[0, 0], [0, 1], [1, 0], [1, 1]])


def test_assemble_frame_uncoded(rng):
    cfg = m.SystemConfig(n_users=3, n_bs=4)
    payload = rng.integers(0, 2, size=(2, 3, 20))
    frame = m.assemble_frame(cfg, payload, pilot_len=7, rngs=[rng, rng])
    assert frame.pilots.shape == (2, 3, 7)
    assert frame.data_symbols.shape == (2, 3, 10)
    assert frame.channel_bits.dtype == np.int8
    np.testing.assert_array_equal(frame.channel_bits, payload)
    np.testing.assert_allclose(frame.data_symbols, m.qpsk_map(payload))
    np.testing.assert_allclose(np.abs(frame.pilots) ** 2, cfg.symbol_power)


def test_assemble_frame_coded_consistency(rng):
    cfg = m.SystemConfig(n_users=2, n_bs=4)
    k_info = m.coded_payload_length(30)
    payload = rng.integers(0, 2, size=(3, 2, k_info))
    frame = m.assemble_frame(cfg, payload, pilot_len=0, rngs=[rng] * 3, coded=True)
    assert frame.data_symbols.shape == (3, 2, 30)
    for p in range(3):
        for s in range(2):
            code = m.conv_encode(payload[p, s])
            np.testing.assert_array_equal(
                m.deinterleave(frame.channel_bits[p, s], frame.perms[p, s]), code)
    np.testing.assert_allclose(frame.data_symbols, m.qpsk_map(frame.channel_bits))
    np.testing.assert_array_equal(frame.info_bits, payload)


def test_assemble_frame_pilots_drawn_before_perms():
    # each packet's generator draws its pilots, then one permutation per
    # stream
    cfg = m.SystemConfig(n_users=2, n_bs=4)
    payload = np.zeros((2, 2, m.coded_payload_length(10)), dtype=int)
    frame = m.assemble_frame(cfg, payload, 5, [np.random.default_rng(3),
                                               np.random.default_rng(4)], coded=True)
    for p, seed in enumerate((3, 4)):
        replay = np.random.default_rng(seed)
        labels = replay.integers(0, 4, size=(2, 5))
        assert same_bytes(frame.pilots[p], m.qpsk_constellation()[labels])
        perms = [replay.permutation(20) for _ in range(2)]
        assert same_bytes(frame.perms[p], np.stack(perms))


def test_coded_payload_length_hand_value():
    # 100 symbols = 200 coded bits = 100 trellis steps minus 2 tail bits
    assert m.coded_payload_length(100) == 98
    with pytest.raises(ParameterError):
        m.coded_payload_length(1)


def test_channel_transmit_noiseless_exact(rng):
    chan = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    sym = rng.standard_normal((2, 9)) + 1j * rng.standard_normal((2, 9))
    out = m.channel_transmit(chan[None], sym[None], 0.0, [rng])
    np.testing.assert_array_equal(out, (chan @ sym)[None])


def test_channel_transmit_noise_statistics(rng):
    chan = np.zeros((2, 1), dtype=complex)
    sym = np.zeros((1, 200000), dtype=complex)
    out = m.channel_transmit(chan[None], sym[None], 4.0, [rng])
    assert np.mean(np.abs(out) ** 2) == pytest.approx(4.0, rel=0.02)
    assert np.mean(out.real ** 2) == pytest.approx(2.0, rel=0.03)


def reference_channel_transmit(chan, symbols, noise_var, rng):
    # noise formed as a complex sum of two draws and added out of place
    clean = chan @ symbols
    scale = np.sqrt(noise_var / 2.0)
    noise = scale * (rng.standard_normal(clean.shape)
                     + 1j * rng.standard_normal(clean.shape))
    return clean + noise


@pytest.mark.parametrize("kind", ["complex", "real", "noiseless", "real-noiseless"])
@pytest.mark.parametrize("n_rx,n_streams,n", [(16, 8, 500), (128, 32, 7), (256, 64, 30),
                                              (17, 4, 33), (130, 8, 9), (3, 2, 5)])
def test_channel_transmit_equals_out_of_place_noise(kind, n_rx, n_streams, n):
    # the pilot and whole-frame shapes of 8x16, 32x128 and 64x256 arrays,
    # odd row counts and a tiny one
    draw = np.random.default_rng(n_rx)
    chan = draw.standard_normal((n_rx, n_streams))
    sym = m.qpsk_map(draw.integers(0, 2, (n_streams, 2 * n)), 2.0)
    if kind.startswith("real"):
        # a real G s must still come back complex
        sym = sym.real.copy()
    else:
        chan = chan + 1j * draw.standard_normal((n_rx, n_streams))
    noise_var = 0.0 if kind.endswith("noiseless") else 0.37
    # a stack of two packets: the second's channel and symbols reversed
    chans, syms = np.stack([chan, chan[::-1]]), np.stack([sym, sym[::-1]])
    got_rngs = [np.random.default_rng(5), np.random.default_rng(6)]
    ref_rngs = [np.random.default_rng(5), np.random.default_rng(6)]
    got = m.channel_transmit(chans, syms, noise_var, got_rngs)
    assert got.dtype == np.complex128 and got.shape == (2, n_rx, n)
    for packet, c, x, ref_rng in zip(got, chans, syms, ref_rngs):
        assert np.array_equal(packet, reference_channel_transmit(c, x, noise_var, ref_rng))
    # every generator is left where the two-draw version leaves it
    assert ([g.standard_normal() for g in got_rngs]
            == [g.standard_normal() for g in ref_rngs])


def _matched_case(rng, n_rx=16, n_streams=4, n=40):
    """A stack of one packet's front end, channel and symbols."""
    chan = random_channel(rng, n_rx, n_streams)
    front = chan + 0.3 * random_channel(rng, n_rx, n_streams)  # an estimate of it
    sym = m.qpsk_map(rng.integers(0, 2, (n_streams, 2 * n)))
    return front[None], chan[None], sym[None]


@pytest.mark.parametrize("is_chan", [False, True], ids=["estimate", "perfect"])
def test_matched_transmit_noiseless_is_the_clean_statistic(rng, is_chan):
    front, chan, sym = _matched_case(rng)
    if is_chan:
        front = chan
    twin = copy.deepcopy(rng)
    gram, y = m.matched_transmit(front, chan, sym, 0.0, [rng])
    adjoint = front[0].conj().T
    assert same_bytes(gram[0], adjoint @ front[0])
    assert same_bytes(y[0], (adjoint @ chan[0]) @ sym[0])
    twin.standard_normal((4, 80))  # the noise draw, scaled to zero
    assert rng.bit_generator.state == twin.bit_generator.state


def test_matched_transmit_draws_root_times_white_noise():
    front, chan, sym = _matched_case(np.random.default_rng(3))
    got_rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    gram, y = m.matched_transmit(front, chan, sym, 0.37, [got_rng])
    # w ~ CN(0, I): real and imaginary parts interleaved in one (M, 2T) draw
    normals = ref_rng.standard_normal((4, 80))
    white = (normals[:, 0::2] + 1j * normals[:, 1::2]) / np.sqrt(2.0)
    noise = np.sqrt(0.37) * np.linalg.cholesky(gram[0]) @ white
    clean = front[0].conj().T @ chan[0] @ sym[0]
    y = y[0]
    np.testing.assert_allclose(y - clean, noise, rtol=0, atol=1e-13)
    assert got_rng.standard_normal() == ref_rng.standard_normal()


def test_matched_transmit_noise_covariance_is_noise_var_times_gram():
    # F^H n for white CN(0, noise_var) n at the antennas has covariance
    # noise_var F^H F; over T columns the sample covariance has standard
    # error about noise_var |A_ij| / sqrt(T) per entry
    rng = np.random.default_rng(11)
    front, chan, _ = _matched_case(rng, n_rx=6, n_streams=3)
    n = 200_000
    gram, y = m.matched_transmit(front, chan, np.zeros((1, 3, n)), 2.5, [rng])
    gram, y = gram[0], y[0]
    sample = y @ y.conj().T / n
    scale = 2.5 * np.sqrt(np.outer(np.diag(gram).real, np.diag(gram).real))
    assert np.max(np.abs(sample - 2.5 * gram) / scale) < 6.0 / np.sqrt(n)


def test_gram_root_falls_back_to_the_hermitian_root_when_rank_deficient(rng):
    full = random_channel(rng, 8, 3)
    gram = full.conj().T @ full
    assert same_bytes(gram_root(gram), np.linalg.cholesky(gram))
    # a repeated column: Cholesky raises or keeps a pivot at rounding level
    deficient = full[:, [0, 1, 0]]
    gram = deficient.conj().T @ deficient
    root = gram_root(gram)
    assert same_bytes(root, m.matrix_sqrt(gram))
    np.testing.assert_allclose(root @ root.conj().T, gram, rtol=0,
                               atol=1e-12 * np.max(np.abs(gram)))


def test_gram_root_falls_back_per_item_of_a_stack(rng):
    # a deficient item takes the Hermitian root, the others their Cholesky
    # factors as they would alone, whether or not the stacked
    # factorization raises
    fronts = [random_channel(rng, 8, 3) for _ in range(3)]
    fronts[1] = fronts[1][:, [0, 1, 0]]
    grams = np.stack([f.conj().T @ f for f in fronts])
    for stack in (grams, grams[::-1], grams[[0, 2]], grams[None]):
        roots = gram_root(stack)
        assert roots.shape == stack.shape
        for root, gram in zip(roots.reshape(-1, 3, 3), stack.reshape(-1, 3, 3)):
            assert same_bytes(root, gram_root(gram))
    # an exactly singular item makes the stacked factorization raise
    grams[1] = 0.0
    assert same_bytes(gram_root(grams)[1], m.matrix_sqrt(grams[1]))
    assert same_bytes(gram_root(grams)[0], np.linalg.cholesky(grams[0]))


