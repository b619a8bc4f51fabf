"""Channel model tests: correlation structure, fading statistics, SNR map."""

import numpy as np
import pytest

import mumimo as m
from conftest import same_bytes
from mumimo import harness, txchain
from mumimo.channel import _distance_grid, _receive_corr_sqrt
from mumimo.errors import NumericalError, ParameterError, StructuralError


def test_correlation_matrix_hand_values():
    theta = m.correlation_matrix(3, 0.2)
    expected = np.array([
        [1.0, 0.2, 0.2 ** 4],
        [0.2, 1.0, 0.2],
        [0.2 ** 4, 0.2, 1.0],
    ])
    np.testing.assert_allclose(theta, expected, rtol=0, atol=1e-15)


def test_correlation_matrix_edge_rho():
    np.testing.assert_array_equal(m.correlation_matrix(4, 0.0), np.eye(4))
    np.testing.assert_array_equal(m.correlation_matrix(4, 1.0), np.ones((4, 4)))


@pytest.mark.parametrize("rho", [0.0, 0.2, 0.5, 0.9, 0.99, 1.0])
def test_correlation_matrix_is_psd(rho):
    theta = m.correlation_matrix(16, rho)
    assert np.min(np.linalg.eigvalsh(theta)) >= -1e-10


def test_matrix_sqrt_squares_back():
    theta = m.correlation_matrix(8, 0.7)
    root = m.matrix_sqrt(theta)
    np.testing.assert_allclose(root @ root.conj().T, theta, atol=1e-12)
    np.testing.assert_allclose(root, root.conj().T, atol=1e-12)


def test_matrix_sqrt_rejects_indefinite():
    with pytest.raises(NumericalError):
        m.matrix_sqrt(np.diag([1.0, -1.0]))


def test_receive_corr_sqrt_is_block_diagonal():
    cfg = m.SystemConfig(n_users=2, n_bs=3, n_heads=2, antennas_per_head=2, rho=0.8)
    root = _receive_corr_sqrt(cfg.receive_blocks(), cfg.rho)
    cov = root @ root.conj().T
    # no coupling between the central array and any head, nor across heads
    assert np.all(cov[:3, 3:] == 0)
    assert np.all(cov[3:5, 5:] == 0)
    np.testing.assert_allclose(cov[:3, :3], m.correlation_matrix(3, 0.8), atol=1e-12)
    np.testing.assert_allclose(cov[3:5, 3:5], m.correlation_matrix(2, 0.8), atol=1e-12)


def test_small_scale_unit_power_and_correlation(rng):
    cfg = m.SystemConfig(n_users=1, n_bs=2, rho=0.9)
    draws = np.stack([m.draw_small_scale(cfg, [[rng]])[0, :, 0] for _ in range(20000)])
    power = np.mean(np.abs(draws) ** 2, axis=0)
    np.testing.assert_allclose(power, 1.0, atol=0.05)
    cross = np.mean(draws[:, 0] * draws[:, 1].conj())
    assert abs(cross - 0.9) < 0.03


def test_small_scale_uncorrelated_when_rho_zero(rng):
    cfg = m.SystemConfig(n_users=1, n_bs=4, rho=0.0)
    draws = np.stack([m.draw_small_scale(cfg, [[rng]])[0, :, 0] for _ in range(8000)])
    gram = draws.conj().T @ draws / len(draws)
    np.testing.assert_allclose(gram, np.eye(4), atol=0.06)


def reference_roots(cfg):
    # the real block-diagonal receive root and the transmit root, built
    # from matrix_sqrt without the module's caches
    root = np.zeros((cfg.n_rx_total, cfg.n_rx_total))
    start = 0
    for size in cfg.receive_blocks():
        root[start:start + size, start:start + size] = m.matrix_sqrt(
            m.correlation_matrix(size, cfg.rho))
        start += size
    return root, m.matrix_sqrt(m.correlation_matrix(cfg.antennas_per_user, cfg.rho))


def reference_draw_small_scale(cfg, rng, roots):
    # one user's draw before the stacked product: the real root cast in a
    # complex product per user
    shape = (cfg.n_rx_total, cfg.antennas_per_user)
    white = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    root, tx_root = roots
    return root @ white @ tx_root, white


def reference_stacked_draw(cfg, rngs):
    """The per-user reference draws side by side, and how far a regrouped
    product may round from them: each entry is a chain of two dot products,
    of length n = 2 (N_A + N_U) counting the complex product's real terms,
    and two evaluations of ``|R| |W| |T|`` in any order differ by at most
    2 gamma_n times it, with gamma_n = n u / (1 - n u)."""
    roots = root, tx_root = reference_roots(cfg)
    draws = [reference_draw_small_scale(cfg, rng, roots) for rng in rngs]
    n = 2 * (cfg.n_rx_total + cfg.antennas_per_user)
    unit = np.finfo(float).eps / 2
    gamma = n * unit / (1 - n * unit)
    bound = 2 * gamma * np.hstack([np.abs(root) @ np.abs(w) @ np.abs(tx_root)
                                   for _, w in draws])
    return np.hstack([h for h, _ in draws]), bound


SMALL_SCALE_SYSTEMS = {
    "cas-8x16": m.SystemConfig(n_users=8, n_bs=16),
    "das-8x8x1": m.SystemConfig(n_users=8, n_bs=8, n_heads=8, antennas_per_head=1),
    "cas-32x128": m.SystemConfig(n_users=32, n_bs=128),
    "das-32x64x8": m.SystemConfig(n_users=32, n_bs=64, n_heads=8, antennas_per_head=8,
                                  rho=0.5),
    "cas-64x256": m.SystemConfig(n_users=64, n_bs=256),
    "das-64x128x8": m.SystemConfig(n_users=64, n_bs=128, n_heads=16, antennas_per_head=8),
    "das-4x8x4-nu2": m.SystemConfig(n_users=4, n_bs=8, n_heads=2, antennas_per_head=4,
                                    antennas_per_user=2),
}


@pytest.mark.parametrize("cfg", SMALL_SCALE_SYSTEMS.values(), ids=SMALL_SCALE_SYSTEMS)
def test_small_scale_equals_per_call_real_root(cfg):
    # the stacked draw regroups the per-user products, so it matches them
    # to within the rounding bound of the reference, not bit for bit; two
    # packets, each with its own generator per user
    def generators():
        return [[np.random.default_rng(11 + 100 * p + k) for k in range(cfg.n_users)]
                for p in range(2)]
    got, ref = generators(), generators()
    for _ in range(3):
        h = m.draw_small_scale(cfg, got)
        assert h.dtype == complex and h.shape == (2, cfg.n_rx_total, cfg.n_streams)
        for packet, users in zip(h, ref):
            expected, bound = reference_stacked_draw(cfg, users)
            assert np.all(np.abs(packet.real - expected.real) <= bound)
            assert np.all(np.abs(packet.imag - expected.imag) <= bound)
    # every generator is left where the per-user draws leave it
    assert ([g.random() for users in got for g in users]
            == [g.random() for users in ref for g in users])


@pytest.mark.parametrize("cfg", [SMALL_SCALE_SYSTEMS["cas-8x16"],
                                 SMALL_SCALE_SYSTEMS["das-4x8x4-nu2"]],
                         ids=["cas-8x16", "das-4x8x4-nu2"])
def test_small_scale_user_columns_depend_on_own_generator(cfg):
    # in a stack of two packets, a user's columns of a packet change with
    # that packet's generator of the user and nothing else changes
    n_u = cfg.antennas_per_user

    def draw(seeds):
        return m.draw_small_scale(cfg, [[np.random.default_rng(s) for s in packet]
                                        for packet in seeds])

    seeds = [list(range(cfg.n_users)), list(range(50, 50 + cfg.n_users))]
    base = draw(seeds)
    for user in range(cfg.n_users):
        changed = [seeds[0], list(seeds[1])]
        changed[1][user] = 100
        other = draw(changed)
        cols = np.zeros(cfg.n_streams, dtype=bool)
        cols[user * n_u:(user + 1) * n_u] = True
        assert same_bytes(other[0], base[0]), user
        assert same_bytes(other[1][:, ~cols], base[1][:, ~cols]), user
        assert not np.any(other[1][:, cols] == base[1][:, cols]), user


def test_small_scale_needs_one_generator_per_user():
    cfg = m.SystemConfig(n_users=3, n_bs=4)
    with pytest.raises(StructuralError):
        m.draw_small_scale(cfg, [[np.random.default_rng(0)] * 2])
    with pytest.raises(StructuralError):
        m.draw_small_scale(cfg, [[np.random.default_rng(0)] * 3, [np.random.default_rng(0)]])


def test_receive_corr_sqrt_is_one_cached_read_only_array():
    cfg = m.SystemConfig(n_users=2, n_bs=4, n_heads=2, antennas_per_head=3, rho=0.7)
    root = _receive_corr_sqrt(cfg.receive_blocks(), cfg.rho)
    assert root is _receive_corr_sqrt(cfg.receive_blocks(), cfg.rho)
    assert root.dtype == float and not root.flags.writeable
    with pytest.raises(ValueError):
        root[0, 0] = 2.0
    with pytest.raises(ValueError):
        root.view(float)[...] *= 2.0


def test_distance_grid_step_and_endpoints():
    grid = _distance_grid((0.1, 0.95))
    assert len(grid) == 18
    np.testing.assert_allclose(np.diff(grid), 0.05, atol=1e-12)
    assert grid[0] == pytest.approx(0.1) and grid[-1] == pytest.approx(0.95)
    # cached and shared by every draw, so read-only
    assert grid is _distance_grid((0.1, 0.95)) and not grid.flags.writeable


def test_large_scale_draw_consistency():
    cfg = m.SystemConfig(n_users=5, n_bs=2, n_heads=3, antennas_per_head=1,
                         path_loss_exp=3.0, shadow_spread_db=2.0,
                         path_gain_range=(0.5, 0.9), distance_range=(0.2, 0.6))
    stack = m.draw_large_scale(cfg, [np.random.default_rng(5), np.random.default_rng(6)])
    assert stack.shape == (2, 5, 4)
    for gains, seed in zip(stack, (5, 6)):
        # replay the packet's generator: grid index, link gain, shadowing normal
        replay = np.random.default_rng(seed)
        grid = _distance_grid((0.2, 0.6))
        d = grid[replay.integers(0, len(grid), size=(5, 4))]
        link = 0.5 + (0.9 - 0.5) * replay.random(size=(5, 4))
        v = replay.standard_normal((5, 4))
        assert np.all((link >= 0.5) & (link <= 0.9))
        # gamma = sqrt(link / d^tau) * 10^(sigma v / 10)
        np.testing.assert_allclose(gains, np.sqrt(link / d ** 3.0) * 10.0 ** (2.0 * v / 10.0),
                                   rtol=1e-15)


def test_large_scale_degenerate_ranges(rng):
    cfg = m.SystemConfig(n_users=3, n_bs=4, shadow_spread_db=0.0,
                         path_gain_range=(0.5, 0.5), distance_range=(0.5, 0.5))
    gains = m.draw_large_scale(cfg, [rng])
    # sqrt(0.5 / 0.5^2) = sqrt(2), and no shadowing
    np.testing.assert_allclose(gains, np.sqrt(2.0), atol=1e-12)


def test_shadowing_second_moment_closed_form(rng):
    # beta = 10^(sigma v / 10) is lognormal; E[beta^2] = exp((sigma ln10 / 5)^2 / 2)
    sigma = 3.0
    closed_form = np.exp((sigma * np.log(10.0) / 5.0) ** 2 / 2.0)
    assert closed_form == pytest.approx(2.5971, abs=5e-4)
    v = rng.standard_normal(400000)
    mc = np.mean(10.0 ** (sigma * v / 5.0))
    assert mc == pytest.approx(closed_form, rel=0.03)


def test_mean_gamma_sq_matches_independent_factorization(rng):
    # the closed form against the sample mean of gamma^2 over many draws of
    # the large-scale model itself, on one CAS and one DAS system
    for cfg in (m.SystemConfig(n_users=4, n_bs=4, path_gain_range=(0.5, 0.9)),
                m.SystemConfig(n_users=4, n_bs=2, n_heads=3, antennas_per_head=2,
                               path_loss_exp=3.0, shadow_spread_db=4.0)):
        samples = m.draw_large_scale(cfg, [rng] * 10000).ravel() ** 2
        stderr = np.std(samples, ddof=1) / np.sqrt(samples.size)
        assert abs(np.mean(samples) - m.mean_gamma_sq(cfg)) < 5 * stderr


def test_mean_gamma_sq_hand_value():
    # 8x16 defaults: link 0.7, d on 0.10, 0.15, ..., 0.95, tau 2, sigma 3 dB
    mean_inv_d_sq = sum((0.1 + 0.05 * i) ** -2 for i in range(18)) / 18
    shadow = np.exp((3.0 * np.log(10.0) / 5.0) ** 2 / 2.0)
    cfg = m.SystemConfig(n_users=8, n_bs=16)
    assert m.mean_gamma_sq(cfg) == pytest.approx(0.7 * mean_inv_d_sq * shadow, rel=1e-12)
    assert m.mean_gamma_sq(cfg) == pytest.approx(23.98231, rel=1e-6)


def gain_diagonal(cfg, gains, user):
    """Per-receive-antenna large-scale gain vector of one user (length N_A):
    the oracle of :func:`compose_channel`."""
    return np.repeat(gains[user], cfg.receive_blocks())


def test_gain_diagonal_repeats_over_blocks():
    cfg = m.SystemConfig(n_users=2, n_bs=2, n_heads=2, antennas_per_head=1)
    gains = np.array([[3.0, 4.0, 5.0], [6.0, 7.0, 8.0]])
    np.testing.assert_array_equal(gain_diagonal(cfg, gains, 0), [3.0, 3.0, 4.0, 5.0])
    np.testing.assert_array_equal(gain_diagonal(cfg, gains, 1), [6.0, 6.0, 7.0, 8.0])


def test_compose_channel_scales_columns():
    cfg = m.SystemConfig(n_users=2, n_bs=2, n_heads=1, antennas_per_head=1)
    gains = np.array([[[2.0, 3.0], [4.0, 5.0]], [[1.0, 6.0], [7.0, 8.0]]])
    small = np.hstack([np.ones((3, 1), dtype=complex), np.full((3, 1), 1j)])
    chan = m.compose_channel(cfg, np.stack([small, small]), gains)
    assert chan.shape == (2, 3, 2)
    np.testing.assert_allclose(chan[0, :, 0], [2.0, 2.0, 3.0])
    np.testing.assert_allclose(chan[0, :, 1], [4j, 4j, 5j])
    np.testing.assert_allclose(chan[1, :, 0], [1.0, 1.0, 6.0])
    np.testing.assert_allclose(chan[1, :, 1], [7j, 7j, 8j])


def test_compose_channel_equals_per_user_gain_diagonal(rng):
    # one broadcast scales user k's N_U columns row by row with its gains
    cfg = SMALL_SCALE_SYSTEMS["das-4x8x4-nu2"]
    gains = m.draw_large_scale(cfg, [rng, rng, rng])
    shape = (3, cfg.n_rx_total, cfg.n_streams)
    small = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    n_u = cfg.antennas_per_user
    per_user = np.stack([np.hstack([gain_diagonal(cfg, g, k)[:, None]
                                    * h[:, k * n_u:(k + 1) * n_u]
                                    for k in range(cfg.n_users)])
                         for g, h in zip(gains, small)])
    assert same_bytes(m.compose_channel(cfg, small, gains), per_user)


def test_compose_channel_shape_errors():
    cfg = m.SystemConfig(n_users=2, n_bs=4)
    gains = m.draw_large_scale(cfg, [np.random.default_rng(2)])
    with pytest.raises(StructuralError):
        m.compose_channel(cfg, np.ones((1, 4, 1)), gains)
    with pytest.raises(StructuralError):
        m.compose_channel(cfg, np.ones((1, 3, 2)), gains)
    with pytest.raises(StructuralError):
        m.compose_channel(cfg, np.ones((4, 2)), gains)  # no packet axis
    with pytest.raises(StructuralError):
        m.compose_channel(cfg, np.ones((2, 4, 2)), gains)  # one packet's gains


def test_snr_to_noise_variance_hand_value(monkeypatch):
    cfg = m.SystemConfig(n_users=2, n_bs=4, symbol_power=1.0)
    monkeypatch.setattr(harness, "mean_gamma_sq", lambda system: 2.0)
    # sigma_n^2 = K Nu sp E / (R C 10^(snr/10)) = 2*1*1*2 / (1*2*10^0.3)
    got = m.trial_noise_variance(m.ScenarioSpec(cfg), 3.0)
    assert got == pytest.approx(4.0 / (2.0 * 10.0 ** 0.3), rel=1e-12)


def test_snr_to_noise_variance_coded_rate_scales():
    cfg = m.SystemConfig(n_users=2, n_bs=4)
    full = m.trial_noise_variance(m.ScenarioSpec(cfg), 10.0)
    half = m.trial_noise_variance(m.ScenarioSpec(cfg, coded=True), 10.0)
    assert txchain.RATE == 0.5
    assert half == pytest.approx(2.0 * full, rel=1e-12)


def test_config_validation_errors():
    with pytest.raises(ParameterError):
        m.SystemConfig(n_users=0, n_bs=4)
    with pytest.raises(ParameterError):
        m.SystemConfig(n_users=1, n_bs=4, rho=1.2)
    with pytest.raises(ParameterError):
        m.SystemConfig(n_users=1, n_bs=4, path_loss_exp=5.0)
    with pytest.raises(ParameterError):
        m.SystemConfig(n_users=1, n_bs=4, distance_range=(0.0, 0.5))
    with pytest.raises(ParameterError):
        m.SystemConfig(n_users=8, n_bs=4)  # more streams than antennas
    with pytest.raises(ParameterError):
        m.SystemConfig(n_users=1, n_bs=2, n_heads=2, antennas_per_head=0)
    # non-finite values fail every bound, including the one-sided ones
    for name in ("rho", "path_loss_exp", "shadow_spread_db", "symbol_power"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ParameterError, match=name):
                m.SystemConfig(n_users=1, n_bs=4, **{name: bad})


@pytest.mark.parametrize("cfg", [SMALL_SCALE_SYSTEMS[name] for name in
                                 ("cas-8x16", "cas-32x128", "cas-64x256")],
                         ids=["8x16", "32x128", "64x256"])
def test_numpy_stacked_draw_operations_equal_per_item_operations(rng, cfg):
    # the block draw relies on numpy computing each item of a leading-axis
    # product, a stacked cholesky and the gains' elementwise power and sqrt
    # as that item alone; a numpy or BLAS that rounds otherwise fails here,
    # not as a moved golden hash
    n_pkt, n_rx, n_streams, n_sym, n_pilots = 3, cfg.n_rx_total, cfg.n_streams, 50, 20
    root = _receive_corr_sqrt(cfg.receive_blocks(), 0.7)
    tx_roots = {n_u: m.matrix_sqrt(m.correlation_matrix(n_u, 0.7)) for n_u in (1, 2)}
    white = rng.standard_normal((n_pkt, n_rx, 2 * n_streams))
    fading = (rng.standard_normal((n_pkt, n_rx * n_streams, 1))
              + 1j * rng.standard_normal((n_pkt, n_rx * n_streams, 1)))
    front, chan = (rng.standard_normal((n_pkt, n_rx, n_streams))
                   + 1j * rng.standard_normal((n_pkt, n_rx, n_streams)) for _ in range(2))
    pilots = m.qpsk_map(rng.integers(0, 2, (n_pkt, n_streams, 2 * n_pilots)))
    symbols = m.qpsk_map(rng.integers(0, 2, (n_pkt, n_streams, 2 * n_sym)))
    w = rng.standard_normal((n_pkt, n_streams, 2 * n_sym)).view(complex)
    shape = (n_pkt, cfg.n_users, 9)
    d, link, v = rng.uniform(0.1, 0.95, shape), rng.uniform(0.3, 1.1, shape), rng.standard_normal(shape)

    def ops(white, fading, front, chan, pilots, symbols, w, d, link, v):
        adjoint = np.swapaxes(front.conj(), -1, -2)
        gram = adjoint @ front
        root_l = np.linalg.cholesky(gram)
        out = {"receive root": root @ white, "transmit root, N_U 1": fading @ tx_roots[1],
               "transmit root, N_U 2": fading.reshape(fading.shape[:-2] + (-1, 2)) @ tx_roots[2],
               "G S": chan @ pilots, "F^H F": gram, "F^H G": adjoint @ chan,
               "cholesky": root_l, "L w": (0.37 * root_l) @ w, "A s": gram @ symbols}
        for tau in (2.0, 3.0, 3.7):
            out[f"gains {tau}"] = np.sqrt(link / d ** tau) * 10.0 ** (3.0 * v / 10.0)
        return out

    args = (white, fading, front, chan, pilots, symbols, w, d, link, v)
    stacked = ops(*args)
    for i in range(n_pkt):
        for name, value in ops(*(a[i] for a in args)).items():
            assert same_bytes(stacked[name][i], value), (name, i)
