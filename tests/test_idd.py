"""Iterative receiver tests: soft statistics, soft MMSE, LLRs, BCJR, loop."""

import functools
import itertools
import warnings

import numpy as np
import pytest

import mumimo as m
from conftest import (antenna_domain_receive_block, matched, random_channel,
                      reference_encode, same_bytes)
from mumimo import harness, idd
from mumimo.errors import NumericalError, ParameterError, StructuralError
from mumimo.idd import BcjrResult
from mumimo.txchain import LLR_CLIP, MEMORY, NEXT_STATE, OUT_BITS


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def label_bits(label):
    return ((label >> 1) & 1, label & 1)


def point_prob(label, lam0, lam1):
    """Prior probability of one constellation point from its bit LLRs."""
    b0, b1 = label_bits(label)
    p0 = sigmoid(lam0) if b0 == 0 else sigmoid(-lam0)
    p1 = sigmoid(lam1) if b1 == 0 else sigmoid(-lam1)
    return p0 * p1


# -- soft symbol statistics ---------------------------------------------------

def test_soft_symbol_stats_brute_force(rng):
    const = m.qpsk_constellation(2.0)
    priors = rng.normal(0.0, 3.0, size=(4, 7, 2))
    means, variances = m.soft_symbol_stats(priors, symbol_power=2.0)
    for idx in np.ndindex(4, 7):
        lam0, lam1 = priors[idx]
        probs = np.array([point_prob(a, lam0, lam1) for a in range(4)])
        mean = np.sum(probs * const)
        var = np.sum(probs * np.abs(const - mean) ** 2)
        assert means[idx] == pytest.approx(mean, abs=1e-12)
        assert variances[idx] == pytest.approx(var, abs=1e-12)


def test_soft_symbol_stats_limits():
    const = m.qpsk_constellation(1.0)
    means, variances = m.soft_symbol_stats(np.zeros((3, 2)))
    np.testing.assert_allclose(means, 0.0, atol=1e-15)
    np.testing.assert_allclose(variances, 1.0, atol=1e-12)
    # certain priors collapse onto one point with zero variance
    hard = np.array([[80.0, -80.0]])  # b0 = 0, b1 = 1 -> label 1
    means, variances = m.soft_symbol_stats(hard)
    assert means[0] == pytest.approx(const[1], abs=1e-10)
    assert variances[0] == pytest.approx(0.0, abs=1e-10)


def test_soft_symbol_stats_shape_check():
    with pytest.raises(StructuralError):
        m.soft_symbol_stats(np.zeros((3, 3)))


@pytest.mark.parametrize("sp", [0.0, -1.0])
def test_soft_receiver_rejects_nonpositive_symbol_power(sp):
    with pytest.raises(ParameterError, match="symbol_power"):
        m.soft_symbol_stats(np.zeros((2, 2)), sp)
    with pytest.raises(ParameterError, match="symbol_power"):
        m.extrinsic_llr(np.zeros(2, dtype=complex), 1.0, 0.5, sp)


def reference_soft_symbol_stats(priors, constellation=None, symbol_power=1.0):
    """Soft statistics through the (..., 4) table of point probabilities:
    the mean is ``sum_s P(s) s`` and the variance ``sum_s P(s) |s - mean|^2``."""
    priors = np.asarray(priors, dtype=float)
    if constellation is None:
        constellation = m.qpsk_constellation(symbol_power)
    lam = np.clip(priors, -LLR_CLIP, LLR_CLIP)
    p_zero = 1.0 / (1.0 + np.exp(-lam))  # P(bit = 0) per label bit
    labels = np.arange(len(constellation))
    bits = np.stack([(labels >> 1) & 1, labels & 1], axis=-1)  # (4, 2)
    # P(point) = prod over bits of the matching bit probability
    probs = np.where(bits[:, 0] == 0, p_zero[..., :1], 1.0 - p_zero[..., :1]) \
        * np.where(bits[:, 1] == 0, p_zero[..., 1:], 1.0 - p_zero[..., 1:])
    means = probs @ constellation
    spread = np.abs(constellation[None, :] - means[..., None]) ** 2
    variances = np.einsum('...m,...m->...', probs, spread)
    return means, variances


def edge_priors(rng, shape):
    """Random priors with exact zeros, the clip level and beyond-clip values."""
    priors = rng.normal(0.0, 8.0, size=shape)
    edges = np.array([0.0, LLR_CLIP, -LLR_CLIP, 80.0, -80.0])
    flat = priors.reshape(-1)
    flat[::3] = rng.choice(edges, size=flat[::3].shape)
    return priors


@pytest.mark.parametrize("sp", [1.0, 2.0])
def test_soft_symbol_stats_match_probability_table(rng, sp):
    priors = edge_priors(rng, (6, 50, 2))
    assert np.any(priors == 0.0) and np.any(np.abs(priors) == 80.0)
    const = m.qpsk_constellation(sp)
    means, variances = m.soft_symbol_stats(priors, symbol_power=sp)
    ref_means, ref_variances = reference_soft_symbol_stats(priors, const)
    # the table's 1 - P(b = 0) has absolute error ~eps, so confident priors
    # agree to an absolute tolerance of a few ulps of the symbol energy
    np.testing.assert_allclose(means, ref_means, rtol=1e-12, atol=1e-15 * sp)
    np.testing.assert_allclose(variances, ref_variances, rtol=1e-12, atol=1e-15 * sp)


@pytest.mark.parametrize("sp", [1.0, 2.0])
def test_soft_symbol_variance_keeps_relative_accuracy(sp):
    # sech^2(x / 2) = 4 e^-|x| / (1 + e^-|x|)^2: no cancellation at any |x|,
    # where E_s - |mean|^2 would return 0 or roundoff at the clip
    lam = np.array([[0.0, 5.0], [-20.0, 37.0], [LLR_CLIP, -LLR_CLIP], [80.0, -80.0]])
    _, variances = m.soft_symbol_stats(lam, symbol_power=sp)
    e = np.exp(-np.abs(np.clip(lam, -LLR_CLIP, LLR_CLIP)))
    exact = sp / 2.0 * np.sum(4.0 * e / (1.0 + e) ** 2, axis=-1)
    np.testing.assert_allclose(variances, exact, rtol=1e-12, atol=0)
    assert np.all(variances > 0)


@pytest.mark.parametrize("sp", [1.0, 2.0, 1.3])
def test_soft_symbol_stats_zero_priors_give_equal_variances(sp):
    # the single-solve branch of soft_mmse_sic_detect needs exact equality
    means, variances = m.soft_symbol_stats(np.zeros((3, 4, 50, 2)), symbol_power=sp)
    assert np.all(means == 0)
    assert np.all(variances == variances.flat[0])
    assert variances.flat[0] == pytest.approx(sp, rel=1e-15)


# -- soft MMSE detection ------------------------------------------------------

def naive_soft_mmse(r_block, chan, means, variances, noise_var, symbol_power):
    """Direct per-(stream, symbol) computation with explicit covariances."""
    n_rx, n_streams = chan.shape
    n_sym = r_block.shape[1]
    z = np.empty((n_streams, n_sym), dtype=complex)
    v = np.empty((n_streams, n_sym))
    xi = np.empty((n_streams, n_sym))
    for t in range(n_sym):
        for j in range(n_streams):
            g = chan[:, j]
            # own prior variance replaced by the full symbol energy
            var_eff = variances[:, t].copy()
            var_eff[j] = symbol_power
            cov = (chan * var_eff) @ chan.conj().T + noise_var * np.eye(n_rx)
            w = np.linalg.solve(cov, g)
            q_eff = (g.conj() @ w).real
            target = r_block[:, t] - chan @ means[:, t] + means[j, t] * g
            z[j, t] = symbol_power * (w.conj() @ target)
            v[j, t] = symbol_power * q_eff
            xi[j, t] = symbol_power ** 2 * q_eff * (1.0 - symbol_power * q_eff)
    return z, v, xi


@pytest.mark.parametrize("uniform", [True, False])
def test_soft_mmse_matches_naive_computation(rng, uniform):
    chan = random_channel(rng, 6, 3)
    sp = 1.3
    const = m.qpsk_constellation(sp)
    labels = rng.integers(0, 4, size=(3, 5))
    r = chan @ const[labels] + 0.3 * (rng.standard_normal((6, 5))
                                      + 1j * rng.standard_normal((6, 5)))
    if uniform:
        priors = np.zeros((3, 5, 2))
    else:
        priors = rng.normal(0.0, 2.0, size=(3, 5, 2))
    means, variances = m.soft_symbol_stats(priors, sp)
    z, v, xi = m.soft_mmse_sic_detect(*matched(chan, r), means, variances, 0.4, sp)
    z_ref, v_ref, xi_ref = naive_soft_mmse(r, chan, means, variances, 0.4, sp)
    np.testing.assert_allclose(z, z_ref, atol=1e-10)
    np.testing.assert_allclose(v, v_ref, atol=1e-10)
    np.testing.assert_allclose(xi, xi_ref, atol=1e-10)


def test_soft_mmse_zero_priors_equals_linear_mmse(rng):
    chan = random_channel(rng, 8, 4)
    sp, nv = 1.0, 0.5
    r = rng.standard_normal((8, 11)) + 1j * rng.standard_normal((8, 11))
    means = np.zeros((4, 11), dtype=complex)
    variances = np.full((4, 11), sp)
    gram, y = matched(chan, r)
    z, v, _ = m.soft_mmse_sic_detect(gram, y, means, variances, nv, sp)
    inv = m.compute_receive_filter(gram, sp, nv, "mmse")
    np.testing.assert_allclose(z, inv.conj().T @ y, atol=1e-10)
    # effective amplitude equals the diagonal of the linear filter response
    diag = np.diag(inv.conj().T @ gram).real
    np.testing.assert_allclose(v, np.broadcast_to(diag[:, None], v.shape), atol=1e-10)


def test_soft_mmse_perfect_priors_cancel_interference(rng):
    chan = random_channel(rng, 6, 3, scale=2.0)
    sp = 1.0
    const = m.qpsk_constellation(sp)
    labels = rng.integers(0, 4, size=(3, 200))
    syms = const[labels]
    nv = 0.01
    r = chan @ syms + np.sqrt(nv / 2) * (rng.standard_normal((6, 200))
                                         + 1j * rng.standard_normal((6, 200)))
    means = syms.copy()
    variances = np.full((3, 200), 1e-9)
    z, v, xi = m.soft_mmse_sic_detect(*matched(chan, r), means, variances, nv, sp)
    # with interference removed, z / v should sit on the transmitted points
    np.testing.assert_allclose(z / v, syms, atol=0.2)


def test_soft_mmse_validates(rng):
    r = np.zeros((4, 2), dtype=complex)
    gram, y = matched(random_channel(rng, 4, 2), r)
    with pytest.raises(ParameterError):
        m.soft_mmse_sic_detect(gram, y, np.zeros((2, 2)), np.ones((2, 2)), 0.0)
    with pytest.raises(StructuralError):  # the antenna-domain block
        m.soft_mmse_sic_detect(gram, r, np.zeros((2, 2)), np.ones((2, 2)), 0.1)
    with pytest.raises(StructuralError):
        m.soft_mmse_sic_detect(gram, y, np.zeros((2, 1)), np.ones((2, 1)), 0.1)
    with pytest.raises(ParameterError, match="non-negative"):
        m.soft_mmse_sic_detect(gram, y, np.zeros((2, 2)),
                               np.array([[1.0, 0.5], [0.2, -1e-12]]), 0.1)


def test_soft_mmse_singular_system_is_numerical_error():
    # equal columns make A = G^H G singular, and a noise variance below the
    # roundoff of A leaves A V + noise_var I exactly singular in floating point
    chan = np.array([[1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(NumericalError, match="singular"):
        m.soft_mmse_sic_detect(*matched(chan, np.zeros((2, 3))),
                               np.zeros((2, 3)), np.ones((2, 3)), 1e-20)


def reference_soft_mmse_sic_detect(r_block, chan, means, variances, noise_var,
                                   symbol_power=1.0):
    """Soft MMSE detection through the (N_A, N_A) covariance of every symbol.

    ``C_t = G V_t G^H + noise_var I`` is formed and inverted per symbol,
    ``q = g^H C_t^-1 g`` and ``u = (C_t^-1 g)^H residual_t + mean * q``.
    """
    chan = np.asarray(chan, dtype=complex)
    n_rx = chan.shape[0]
    means = np.asarray(means, dtype=complex)
    variances = np.asarray(variances, dtype=float)
    residual = r_block - chan @ means
    cov = np.einsum('am,mt,bm->tab', chan, variances, chan.conj())
    cov += noise_var * np.eye(n_rx)
    a = np.einsum('tab,bm->tam', np.linalg.inv(cov), chan)
    q = np.einsum('am,tam->tm', chan.conj(), a).real.T  # (M, T)
    u = np.einsum('tam,at->mt', a.conj(), residual) + means * q
    denom = 1.0 + (symbol_power - variances) * q
    z = symbol_power * u / denom
    v_model = symbol_power * q / denom
    xi_model = np.maximum(symbol_power ** 2 * q * (1.0 - variances * q) / denom ** 2,
                          idd._VAR_FLOOR)
    return z, v_model, xi_model


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "non-uniform"])
@pytest.mark.parametrize("n_streams, n_rx, n_sym", [(8, 16, 40), (8, 64, 40),
                                                    (32, 128, 4)])
def test_soft_mmse_matches_covariance_inversion_oracle(rng, uniform, n_streams,
                                                       n_rx, n_sym):
    chan = random_channel(rng, n_rx, n_streams)
    sp, nv = 1.3, 0.5
    const = m.qpsk_constellation(sp)
    labels = rng.integers(0, 4, size=(n_streams, n_sym))
    noise = rng.standard_normal((n_rx, n_sym)) + 1j * rng.standard_normal((n_rx, n_sym))
    r = chan @ const[labels] + np.sqrt(nv / 2) * noise
    if uniform:
        priors = np.zeros((n_streams, n_sym, 2))
    else:
        priors = rng.normal(0.0, 2.0, size=(n_streams, n_sym, 2))
    means, variances = m.soft_symbol_stats(priors, sp)
    got = m.soft_mmse_sic_detect(*matched(chan, r), means, variances, nv, sp)
    ref = reference_soft_mmse_sic_detect(r, chan, means, variances, nv, sp)
    for g, want in zip(got, ref):
        np.testing.assert_allclose(g, want, rtol=1e-10, atol=0)


@pytest.mark.parametrize("n_streams, n_rx", [(8, 16), (3, 6), (32, 128)])
def test_soft_mmse_equal_priors_take_one_solve(rng, n_streams, n_rx):
    # zero priors give every symbol the same system; its single solve
    # equals the per-symbol batched solve bit for bit
    chan = random_channel(rng, n_rx, n_streams)
    n_sym = 150
    r = (rng.standard_normal((n_rx, n_sym))
         + 1j * rng.standard_normal((n_rx, n_sym)))
    means, variances = m.soft_symbol_stats(np.zeros((n_streams, n_sym, 2)))
    nv = 0.3
    gram, y = matched(chan, r)
    system = gram * variances.T[:, None, :] + nv * np.eye(n_streams)
    x = np.linalg.solve(system, np.concatenate(
        [np.broadcast_to(gram, system.shape), y.T[:, :, None]], axis=2))
    q = np.diagonal(x, axis1=1, axis2=2).real.T
    z, v_model, _ = m.soft_mmse_sic_detect(gram, y, means, variances, nv)
    assert np.array_equal(v_model, q / (1.0 + (1.0 - variances) * q))
    assert np.array_equal(z, x[:, :, n_streams].T / (1.0 + (1.0 - variances) * q))


@pytest.mark.parametrize("prior", [0.0, LLR_CLIP], ids=["zero", "saturated"])
@pytest.mark.parametrize("n_pkt", [1, 3])
@pytest.mark.parametrize("n_streams, n_rx", [(8, 16), (32, 128)])
def test_soft_mmse_equal_prior_solve_equals_per_symbol_solves_on_stacks(
        rng, n_streams, n_rx, n_pkt, prior):
    # a stack whose every item has equal prior variances takes one solve per
    # item; with one more item of unequal priors the same items are solved
    # per symbol.  Both give the same bytes, so a packet decodes alike
    # whether or not the other packets of its block qualify.  A LAPACK whose
    # many-column solve rounds otherwise fails here, not as a moved CSV
    n_sym = 150
    stats = [matched(random_channel(rng, n_rx, n_streams),
                     rng.standard_normal((n_rx, n_sym))
                     + 1j * rng.standard_normal((n_rx, n_sym))) for _ in range(n_pkt + 1)]
    grams, ys = (np.stack(stat) for stat in zip(*stats))
    priors = prior * rng.choice([-1.0, 1.0], size=(n_pkt + 1, n_streams, n_sym, 2))
    priors[-1] = rng.normal(0.0, 2.0, size=priors.shape[1:])
    means, variances = m.soft_symbol_stats(priors)
    assert np.all(variances[:-1] == variances[:-1, :, :1])
    one_solve = m.soft_mmse_sic_detect(grams[:-1], ys[:-1], means[:-1], variances[:-1], 0.3)
    per_symbol = m.soft_mmse_sic_detect(grams, ys, means, variances, 0.3)
    for got, want in zip(one_solve, per_symbol, strict=True):
        assert same_bytes(got, want[:-1])


def test_coded_sweep_csv_matches_covariance_inversion_oracle(monkeypatch):
    spec = m.ScenarioSpec(system=m.SystemConfig(n_users=3, n_bs=6), coded=True,
                          idd_iterations=3, packet_symbols=80,
                          snr_db=(2.0, 6.0, 10.0), packets=3, seed=5).validate()
    # the oracle works from each packet's channel and received block, so
    # both runs draw the data at the antennas; a packet is known by its A
    packets = []
    monkeypatch.setattr(harness, "_receive_block",
                        functools.partial(antenna_domain_receive_block, seen=packets))
    fast = m.run_sweep(spec)
    assert sum(row.errors for row in fast.rows) > 0

    def oracle(gram, y, means, variances, *args):
        chan, r = next((chan, r) for chan, r in packets
                       if same_bytes(matched(chan, r)[0], gram))
        assert same_bytes(matched(chan, r)[1], y)
        return reference_soft_mmse_sic_detect(r, chan, means, variances, *args)

    def in_antenna_domain(grams, ys, means, variances, *args):
        # the block's stack, each item through the per-packet oracle
        items = [oracle(*item, *args) for item in zip(grams, ys, means, variances)]
        return tuple(np.stack(outputs) for outputs in zip(*items))

    monkeypatch.setattr(idd, "soft_mmse_sic_detect", in_antenna_domain)
    assert m.format_csv(m.run_sweep(spec)) == m.format_csv(fast)


# -- extrinsic LLRs -----------------------------------------------------------

def brute_force_llr(z, v, s2, const, priors=None, max_log=False):
    """4-point enumeration of the demapper LLRs, one value at a time."""
    weights = np.array([np.exp(-abs(z - v * a) ** 2 / (2.0 * s2)) for a in const])
    if priors is not None:
        weights = weights * np.array(
            [point_prob(a, priors[0], priors[1]) for a in range(4)])
    out = []
    for c in range(2):
        mask0 = np.array([label_bits(a)[c] == 0 for a in range(4)])
        if max_log:
            val = np.log(weights[mask0].max()) - np.log(weights[~mask0].max())
        else:
            val = np.log(weights[mask0].sum()) - np.log(weights[~mask0].sum())
        if priors is not None:
            val -= priors[c]
        out.append(val)
    return np.array(out)


def reference_extrinsic_llr(z, v_hat, xi_var, constellation=None, symbol_power=1.0,
                            priors=None, clip=LLR_CLIP):
    """Demapper through the (..., 4) table of point metrics
    ``-|z - V s|^2 / (2 sigma_xi^2)`` (plus the priors), reduced by
    log-sum-exp over each bit's subsets."""
    z = np.asarray(z, dtype=complex)
    if constellation is None:
        constellation = m.qpsk_constellation(symbol_power)
    v = np.broadcast_to(np.asarray(v_hat, dtype=float), z.shape)
    s2 = np.broadcast_to(np.maximum(np.asarray(xi_var, dtype=float), idd._VAR_FLOOR),
                         z.shape)
    metric = np.empty(z.shape + constellation.shape)
    for i, point in enumerate(constellation):
        metric[..., i] = -np.abs(z - v * point) ** 2 / (2.0 * s2)
    labels = np.arange(len(constellation))
    bit_table = np.stack([(labels >> 1) & 1, labels & 1], axis=0)  # (2, 4)
    if priors is not None:
        priors = np.clip(np.asarray(priors, dtype=float), -LLR_CLIP, LLR_CLIP)
        sign = 1.0 - 2.0 * bit_table  # bit 0 -> +1
        metric = metric + 0.5 * np.einsum('...c,cm->...m', priors, sign)
    out = np.empty(z.shape + (2,))
    for c in range(2):
        out[..., c] = (np.logaddexp.reduce(metric[..., bit_table[c] == 0], axis=-1)
                       - np.logaddexp.reduce(metric[..., bit_table[c] == 1], axis=-1))
        if priors is not None:
            out[..., c] -= priors[..., c]
    return np.clip(out, -clip, clip)


@pytest.mark.parametrize("sp", [1.0, 2.0])
def test_extrinsic_llr_matches_metric_table(rng, sp):
    const = m.qpsk_constellation(sp)
    z = 2.0 * (rng.standard_normal((3, 8, 40)) + 1j * rng.standard_normal((3, 8, 40)))
    v = np.abs(rng.normal(0.8, 0.2, size=(3, 8, 1)))
    s2 = np.abs(rng.normal(0.5, 0.2, size=(3, 8, 1)))
    priors = edge_priors(rng, z.shape + (2,))
    for clip in (LLR_CLIP, 1e9):
        got = m.extrinsic_llr(z, v, s2, sp, clip=clip)
        ref = reference_extrinsic_llr(z, v, s2, const, priors=priors, clip=clip)
        # log-sum-exp differences carry roundoff of ~eps times the largest
        # metric, hence the absolute tolerance for LLRs near 0
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("workers", [1, 2])
def test_coded_sweep_csv_matches_table_oracles(monkeypatch, workers):
    spec = m.ScenarioSpec(system=m.SystemConfig(n_users=3, n_bs=6), coded=True,
                          idd_iterations=3, packet_symbols=80,
                          snr_db=(2.0, 6.0, 10.0), packets=5, seed=5).validate()
    assert len(harness.trial_blocks(spec)[0]) > 1
    closed = m.run_sweep(spec, workers=workers)
    assert sum(row.errors for row in closed.rows) > 0
    monkeypatch.setattr(idd, "soft_symbol_stats", reference_soft_symbol_stats)
    monkeypatch.setattr(idd, "extrinsic_llr", reference_extrinsic_llr)
    tables = m.run_sweep(spec, workers=workers)
    assert m.format_csv(tables) == m.format_csv(closed)
    assert [r.per_iteration_errors for r in tables.rows] == [
        r.per_iteration_errors for r in closed.rows]


def test_extrinsic_llr_brute_force(rng):
    const = m.qpsk_constellation(1.0)
    z = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    v = np.abs(rng.normal(0.8, 0.1, size=(3, 1)))
    s2 = np.abs(rng.normal(0.5, 0.1, size=(3, 1)))
    got = m.extrinsic_llr(z, v, s2, clip=1e9)
    for j, t in np.ndindex(3, 6):
        ref = brute_force_llr(z[j, t], v[j, 0], s2[j, 0], const)
        np.testing.assert_allclose(got[j, t], ref, atol=1e-10)


def test_extrinsic_llr_with_priors_brute_force(rng):
    const = m.qpsk_constellation(1.0)
    z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    priors = rng.normal(0.0, 2.0, size=(5, 2))
    # the other bit's prior cancels, so the demapper takes no priors
    got = m.extrinsic_llr(z, 0.7, 0.4, clip=1e9)
    for t in range(5):
        ref = brute_force_llr(z[t], 0.7, 0.4, const, priors=priors[t])
        np.testing.assert_allclose(got[t], ref, atol=1e-10)


def test_extrinsic_llr_gray_priors_are_inert(rng):
    # for Gray QPSK the two bits ride orthogonal rails, so other-bit priors
    # cancel out of the extrinsic value: the prior-aware metric table gives
    # the prior-free closed form
    z = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    priors = rng.normal(0.0, 2.0, size=(7, 2))
    with_p = reference_extrinsic_llr(z, 0.9, 0.3, priors=priors, clip=1e9)
    without = m.extrinsic_llr(z, 0.9, 0.3, clip=1e9)
    np.testing.assert_allclose(with_p, without, atol=1e-9)


def test_extrinsic_llr_max_log(rng):
    # for Gray QPSK the max-log demapper is exact: one formula serves both
    const = m.qpsk_constellation(1.0)
    z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    got = m.extrinsic_llr(z, 0.8, 0.5, clip=1e9)
    for t in range(6):
        ref = brute_force_llr(z[t], 0.8, 0.5, const, max_log=True)
        np.testing.assert_allclose(got[t], ref, atol=1e-10)


def test_extrinsic_llr_sign_convention():
    # z in the (+, +) quadrant: both bits favour 0 -> positive LLRs
    out = m.extrinsic_llr(np.array(0.5 + 0.5j), 1.0, 0.2)
    assert np.all(out > 0)
    out = m.extrinsic_llr(np.array(-0.5 + 0.5j), 1.0, 0.2)
    assert out[0] < 0 < out[1]


def test_extrinsic_llr_clips():
    out = m.extrinsic_llr(np.array(5.0 + 5.0j), 1.0, 1e-4)
    np.testing.assert_allclose(out, 50.0)


# -- BCJR ---------------------------------------------------------------------

def exhaustive_app(channel_llrs, k_info):
    """Posterior LLRs by enumerating every zero-terminated codeword."""
    channel_llrs = np.asarray(channel_llrs, dtype=float)
    codewords = []
    infos = []
    for word in itertools.product((0, 1), repeat=k_info):
        infos.append(word)
        codewords.append(reference_encode(word))
    codewords = np.array(codewords)  # (2^k, n_coded)
    infos = np.array(infos)
    log_w = 0.5 * np.sum(channel_llrs * (1.0 - 2.0 * codewords), axis=1)

    def llr_over(mask_zero):
        num = np.logaddexp.reduce(log_w[mask_zero])
        den = np.logaddexp.reduce(log_w[~mask_zero])
        return num - den

    info_llrs = np.array([llr_over(infos[:, i] == 0) for i in range(k_info)])
    post = np.array([llr_over(codewords[:, j] == 0)
                     for j in range(codewords.shape[1])])
    return info_llrs, post - channel_llrs


def test_bcjr_matches_exhaustive_app(rng):
    k_info = 6
    n_coded = 2 * (k_info + 2)
    lam = rng.normal(0.0, 2.0, size=n_coded)
    result = m.bcjr_decode(lam)
    info_ref, ext_ref = exhaustive_app(lam, k_info)
    np.testing.assert_allclose(result.info_llrs, info_ref, atol=1e-8)
    np.testing.assert_allclose(result.extrinsic, ext_ref, atol=1e-8)
    np.testing.assert_array_equal(result.info_bits, (info_ref < 0).astype(int))


def reference_bcjr_decode(channel_llrs: np.ndarray) -> BcjrResult:
    """Per-step log-domain BCJR: one forward loop, then one backward loop
    that forms the branch posteriors of each time step as it goes.  The
    streams are the rows of ``channel_llrs`` (..., n_coded)."""
    lam = np.asarray(channel_llrs, dtype=float)
    next_state, out_bits = NEXT_STATE, OUT_BITS
    n_states, _, n_out = out_bits.shape
    if lam.shape[-1] % n_out != 0:
        raise StructuralError(
            f"coded length {lam.shape[-1]} is not a multiple of {n_out}")
    n_steps = lam.shape[-1] // n_out
    if n_steps <= MEMORY:
        raise StructuralError("coded block is shorter than the code tail")
    sign = (1.0 - 2.0 * out_bits).astype(float)  # (S, 2, n_out), bit 0 -> +1
    lam_steps = lam.reshape(-1, n_steps, n_out)
    batch = len(lam_steps)

    # branch metrics gamma[t] for all (state, input) pairs at once
    gammas = 0.5 * np.einsum('btc,suc->btsu', lam_steps, sign)

    neg_inf = -np.inf
    alphas = np.full((batch, n_steps + 1, n_states), neg_inf)
    alphas[:, 0, 0] = 0.0
    # predecessors: state s' is reached from pred_state[s', :] under input s'&1
    pred_state = np.empty((n_states, 2), dtype=np.int64)
    pred_input = np.empty((n_states, 2), dtype=np.int64)
    for sp in range(n_states):
        preds = [(s, u) for s in range(n_states) for u in (0, 1)
                 if next_state[s, u] == sp]
        pred_state[sp] = [p[0] for p in preds]
        pred_input[sp] = [p[1] for p in preds]
    for t in range(n_steps):
        cand = alphas[:, t, pred_state] + gammas[:, t, pred_state, pred_input]
        step = np.logaddexp(cand[..., 0], cand[..., 1])
        # normalize to keep the recursion bounded; differences are invariant
        alphas[:, t + 1] = step - step.max(axis=1, keepdims=True)

    beta = np.full((batch, n_states), neg_inf)
    beta[:, 0] = 0.0
    extrinsic = np.empty_like(lam_steps)
    info_llrs = np.empty((batch, n_steps))
    flat_next = next_state.reshape(-1)
    out_flat = out_bits.reshape(-1, n_out)  # (S*2, n_out)
    input_flat = np.tile([0, 1], n_states)
    for t in range(n_steps - 1, -1, -1):
        # joint metric of every branch (s, u) at time t
        joint = (alphas[:, t, :, None] + gammas[:, t]
                 + beta[:, flat_next].reshape(batch, n_states, 2))
        jf = joint.reshape(batch, -1)
        for c in range(n_out):
            zero = np.logaddexp.reduce(jf[:, out_flat[:, c] == 0], axis=1)
            one = np.logaddexp.reduce(jf[:, out_flat[:, c] == 1], axis=1)
            extrinsic[:, t, c] = zero - one - lam_steps[:, t, c]
        info_llrs[:, t] = (np.logaddexp.reduce(jf[:, input_flat == 0], axis=1)
                           - np.logaddexp.reduce(jf[:, input_flat == 1], axis=1))
        cand = gammas[:, t] + beta[:, flat_next].reshape(batch, n_states, 2)
        step = np.logaddexp(cand[..., 0], cand[..., 1])
        beta = step - step.max(axis=1, keepdims=True)

    k_info = n_steps - MEMORY
    info = info_llrs[:, :k_info].reshape(lam.shape[:-1] + (k_info,))
    bits = (info < 0).astype(np.int8)  # ties resolve toward bit 0
    return BcjrResult(extrinsic.reshape(lam.shape), info, bits)


def assert_bcjr_llrs_close(got, ref):
    # the probability-domain sums round otherwise than the oracle's logaddexp
    for name in ("extrinsic", "info_llrs", "info_bits"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.shape == b.shape and a.dtype == b.dtype, name
    for name in ("extrinsic", "info_llrs"):
        a, b = getattr(got, name), getattr(ref, name)
        with np.errstate(invalid="ignore"):  # inf - inf where a bit is certain
            close = (a == b) | (np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(b)))
        assert close.all(), name


def assert_bcjr_matches(got, ref):
    assert_bcjr_llrs_close(got, ref)
    assert np.array_equal(got.info_bits, ref.info_bits)


def test_bcjr_matches_log_domain_oracle_on_clipped_input(rng):
    # wide LLRs saturate at the clip, so both endpoint states and runs of
    # zero / very small weights go through the recursion
    lam = np.clip(rng.normal(0.0, 30.0, size=(8, 1000)), -LLR_CLIP, LLR_CLIP)
    assert np.any(np.abs(lam) == LLR_CLIP)
    assert_bcjr_matches(m.bcjr_decode(lam), reference_bcjr_decode(lam))


def test_bcjr_matches_log_domain_oracle_single_stream(rng):
    lam = rng.normal(0.0, 2.0, size=200)
    got = m.bcjr_decode(lam)
    assert got.extrinsic.ndim == 1
    assert_bcjr_matches(got, reference_bcjr_decode(lam))


@pytest.mark.parametrize("n_steps", [3, 63, 64, 65, 66, 129, 130])
def test_bcjr_matches_log_domain_oracle_across_block_lengths(rng, n_steps):
    # blocks ending on either side of a 64-step chunk, a last chunk of tail
    # steps only (129, 130), and a block so short that the code fixes a tail
    # bit (3 steps), whose extrinsic LLR is infinite in both domains
    lam = rng.normal(0.0, 3.0, size=(2, 2 * n_steps))
    got = m.bcjr_decode(lam)
    assert_bcjr_matches(got, reference_bcjr_decode(lam))
    assert np.isinf(got.extrinsic).any() == (n_steps == 3)


@pytest.mark.parametrize("memory", [MEMORY], ids=["K3"])
def test_bcjr_stays_in_range_on_saturated_input(rng, memory):
    # every LLR at +/- LLR_CLIP puts branch weights down to exp(-sum |lambda|);
    # the last rows switch between two codewords every constraint length,
    # so the forward and backward recursions disagree about every state
    n_steps = 200
    lam = LLR_CLIP * rng.choice([-1.0, 1.0], size=(8, 2 * n_steps))
    words = [1.0 - 2.0 * m.conv_encode(rng.integers(0, 2, size=n_steps - memory))
             for _ in range(8)]
    switch = np.arange(2 * n_steps) // (2 * (memory + 1)) % 2 == 1
    lam[4:] = LLR_CLIP * np.where(switch, words[4:], words[:4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = m.bcjr_decode(lam)
    ref = reference_bcjr_decode(lam)
    assert np.isfinite(got.extrinsic).all() and np.isfinite(got.info_llrs).all()
    assert_bcjr_llrs_close(got, ref)
    # saturated inputs tie some posteriors exactly; rounding breaks those
    # either way, so hard bits are compared where the oracle decides
    decided = np.abs(ref.info_llrs) > 1e-9
    assert np.array_equal(got.info_bits[decided], ref.info_bits[decided])


def test_bcjr_clips_its_input(rng):
    lam = rng.normal(0.0, 60.0, size=(4, 400))
    assert np.any(np.abs(lam) > LLR_CLIP)
    got = m.bcjr_decode(lam)
    clipped = m.bcjr_decode(np.clip(lam, -LLR_CLIP, LLR_CLIP))
    for name in ("extrinsic", "info_llrs", "info_bits"):
        assert same_bytes(getattr(got, name), getattr(clipped, name)), name


def test_coded_sweep_csv_matches_per_step_oracle(monkeypatch):
    spec = m.ScenarioSpec(system=m.SystemConfig(n_users=3, n_bs=6), coded=True,
                          idd_iterations=2, packet_symbols=80,
                          snr_db=(4.0, 10.0), packets=2, seed=5).validate()
    fused = m.format_csv(m.run_sweep(spec))
    monkeypatch.setattr(idd, "bcjr_decode", reference_bcjr_decode)
    assert m.format_csv(m.run_sweep(spec)) == fused


@pytest.mark.parametrize("receiver", [
    dict(snr_db=(0.0, 4.0, 8.0, 12.0)),
    dict(estimator="lms", pilot_len=60, step_size=0.01, snr_db=(14.0, 22.0)),
], ids=["perfect", "lms"])
def test_coded_8x16_csv_matches_log_domain_oracle(monkeypatch, receiver):
    # the decoder's LLRs round otherwise than the oracle's, and four IDD
    # passes feed them back; at 8x16 no bit decision moves
    spec = m.ScenarioSpec(system=m.SystemConfig(n_users=8, n_bs=16), coded=True,
                          packet_symbols=200, packets=2, seed=17, **receiver).validate()
    fast = m.run_sweep(spec)
    assert sum(row.errors for row in fast.rows) > 0
    monkeypatch.setattr(idd, "bcjr_decode", reference_bcjr_decode)
    oracle = m.run_sweep(spec)
    assert m.format_csv(oracle) == m.format_csv(fast)
    assert [r.per_iteration_errors for r in oracle.rows] == [
        r.per_iteration_errors for r in fast.rows]


def test_bcjr_batched_matches_per_stream(rng):
    # 1000 LLRs span several time chunks; every stream decodes as it would alone
    lam = np.clip(rng.normal(0.0, 4.0, size=(24, 1000)), -LLR_CLIP, LLR_CLIP)
    batched = m.bcjr_decode(lam)
    for s in range(24):
        single = m.bcjr_decode(lam[s])
        for name in ("extrinsic", "info_llrs", "info_bits"):
            assert same_bytes(getattr(batched, name)[s], getattr(single, name)), name


@pytest.mark.parametrize("memory", [MEMORY], ids=["K3"])
def test_bcjr_stack_equals_per_row_calls(rng, memory):
    # the (P, M, n) stack idd_receive passes keeps its leading axes
    lam = np.clip(rng.normal(0.0, 4.0, size=(3, 4, 2 * 300)), -LLR_CLIP, LLR_CLIP)
    stacked = m.bcjr_decode(lam)
    assert stacked.extrinsic.shape == lam.shape
    assert stacked.info_bits.shape == (3, 4, 300 - memory)
    for row in np.ndindex(3, 4):
        alone = m.bcjr_decode(lam[row])
        for name in ("extrinsic", "info_llrs", "info_bits"):
            assert same_bytes(getattr(stacked, name)[row], getattr(alone, name)), name


@pytest.mark.parametrize("n", [1, 3, 8, 13, 64, 500])
@pytest.mark.parametrize("offset", [0, 1, 5])
def test_numpy_stacked_elementwise_equals_per_row(rng, n, offset):
    # the batched decoder computes each stream's branch weights (exp), state
    # scaling (division) and posteriors (division, log) on a stacked array,
    # so every element sits in another SIMD lane than in a single-stream
    # call; it relies on numpy rounding an element alike wherever it sits.
    # A numpy whose vector loops round otherwise fails here, not as a
    # moved CSV
    exponents = rng.uniform(-2.0 * LLR_CLIP, 0.0, size=(24, n))
    exponents[0, 0] = -2.0 * LLR_CLIP
    num = np.exp(rng.uniform(-700.0, 0.0, size=(24, n)))
    den = np.exp(rng.uniform(-700.0, 0.0, size=(24, n)))
    stacked = {"exp": np.exp(exponents), "div": num / den, "log": np.log(num / den)}
    for i in range(24):
        rows = []
        for block in (exponents, num, den):
            # each row alone, at its own offset into a fresh buffer
            row = np.empty(n + offset)[offset:]
            row[...] = block[i]
            rows.append(row)
        alone = {"exp": np.exp(rows[0]), "div": rows[1] / rows[2],
                 "log": np.log(rows[1] / rows[2])}
        for name, value in alone.items():
            assert same_bytes(stacked[name][i], value), (name, i)


def test_bcjr_decodes_clean_codeword(rng):
    bits = rng.integers(0, 2, size=40)
    code = m.conv_encode(bits)
    lam = 20.0 * (1.0 - 2.0 * code.astype(float))  # confident channel values
    result = m.bcjr_decode(lam)
    np.testing.assert_array_equal(result.info_bits, bits)


def test_bcjr_corrects_single_flip(rng):
    bits = rng.integers(0, 2, size=30)
    code = m.conv_encode(bits).astype(float)
    lam = 4.0 * (1.0 - 2.0 * code)
    lam[7] = -lam[7]  # one confident but wrong observation
    result = m.bcjr_decode(lam)
    np.testing.assert_array_equal(result.info_bits, bits)


def test_bcjr_rejects_bad_lengths():
    with pytest.raises(StructuralError):
        m.bcjr_decode(np.zeros(7))
    with pytest.raises(StructuralError):
        m.bcjr_decode(np.zeros(4))  # only tail steps, no information
    with pytest.raises(StructuralError):
        m.bcjr_decode(0.0)  # not a row of LLRs


# -- full receiver loop -------------------------------------------------------

def _coded_setup(rng, snr_scale, n_sym=60):
    """One coded frame as the block of one that ``idd_receive`` takes: its
    frame, Gram matrix (1, M, M), matched outputs (1, M, T), noise variance
    and permutations (1, M, 2T)."""
    cfg = m.SystemConfig(n_users=3, n_bs=6)
    k_info = m.coded_payload_length(n_sym)
    payload = rng.integers(0, 2, size=(1, 3, k_info))
    frame = m.assemble_frame(cfg, payload, 0, [rng], coded=True)
    chan = random_channel(rng, 6, 3)
    nv = snr_scale
    gram, y = matched(chan, m.channel_transmit(chan[None], frame.data_symbols, nv, [rng])[0])
    return frame, gram[None], y[None], nv, frame.perms


def test_idd_receive_decodes_at_high_snr(rng):
    frame, gram, y, nv, perms = _coded_setup(rng, 1e-3)
    out = m.idd_receive(gram, y, nv, perms)
    np.testing.assert_array_equal(out.info_bits, frame.info_bits)
    assert len(out.per_iteration_bits) == 4
    assert out.v_hat.shape == (1, 3)


def test_idd_receive_iterations_help_on_average(rng):
    total_first, total_last = 0, 0
    for _ in range(12):
        frame, gram, y, nv, perms = _coded_setup(rng, 0.35)
        out = m.idd_receive(gram, y, nv, perms, n_outer=4)
        total_first += np.sum(out.per_iteration_bits[0] != frame.info_bits)
        total_last += np.sum(out.per_iteration_bits[-1] != frame.info_bits)
    assert total_last <= total_first


def test_idd_receive_model_stats_fallback(rng):
    frame, gram, y, nv, perms = _coded_setup(rng, 1e-3)
    out = m.idd_receive(gram, y, nv, perms)
    np.testing.assert_array_equal(out.info_bits, frame.info_bits)
    # the scalar model is the packet average of the detector's statistics,
    # here for the first iteration, which starts from zero priors
    first = m.idd_receive(gram, y, nv, perms, n_outer=1)
    means, variances = m.soft_symbol_stats(np.zeros((3, y.shape[-1], 2)))
    _, v_model, xi_model = m.soft_mmse_sic_detect(gram[0], y[0], means, variances, nv)
    np.testing.assert_array_equal(first.v_hat[0], v_model.mean(axis=1))
    np.testing.assert_array_equal(first.xi_var[0], xi_model.mean(axis=1))


def _received_block(estimator, n_pkt, snr_db=6.0):
    spec = m.ScenarioSpec(system=m.SystemConfig(n_users=3, n_bs=6), coded=True,
                          estimator=estimator, pilot_len=12, packet_symbols=80,
                          snr_db=(snr_db,), packets=n_pkt, seed=7).validate()
    nv = harness.trial_noise_variance(spec, snr_db)
    frame, grams, ys = harness._receive_block(spec, 0, range(n_pkt), nv)
    return grams, ys, nv, frame.perms


@pytest.mark.parametrize("estimator", ["perfect", "lms"])
@pytest.mark.parametrize("n_pkt", [1, 3])
def test_stacked_idd_equals_per_packet_calls(estimator, n_pkt):
    assert_block_decodes_as_packets_alone(*_received_block(estimator, n_pkt))


def test_stacked_idd_decodes_a_mixed_block_as_its_packets_alone(monkeypatch):
    # at 20 dB the second packet's priors all saturate at the clip after the
    # first pass, so alone it takes the soft detector's equal-prior solve on
    # every later pass; the first packet's do not, so the block's later
    # passes solve per symbol for both
    equal = []
    detect = idd.soft_mmse_sic_detect

    def spy(gram, y, means, variances, *args):
        equal.append(np.all(variances == variances[..., :1], axis=(-2, -1)).tolist())
        return detect(gram, y, means, variances, *args)

    monkeypatch.setattr(idd, "soft_mmse_sic_detect", spy)
    grams, y, nv, perms = _received_block("perfect", 2, snr_db=20.0)
    assert_block_decodes_as_packets_alone(grams, y, nv, perms)
    assert equal[:3] == [[True, True], [False, True], [False, True]]


def assert_block_decodes_as_packets_alone(grams, y, nv, perms):
    n_pkt = len(grams)
    block = m.idd_receive(grams, y, nv, perms, n_outer=3)
    assert block.info_bits.shape == (n_pkt, 3, m.coded_payload_length(80))
    for k in range(n_pkt):
        one = slice(k, k + 1)
        alone = m.idd_receive(grams[one], y[one], nv, perms[one], n_outer=3)
        for stacked, bits in zip(block.per_iteration_bits, alone.per_iteration_bits,
                                 strict=True):
            assert same_bytes(stacked[one], bits)
        for name in ("info_bits", "v_hat", "xi_var"):
            assert same_bytes(getattr(block, name)[one], getattr(alone, name)), name


def test_idd_receive_validates(rng):
    frame, gram, y, nv, perms = _coded_setup(rng, 0.1)
    with pytest.raises(ParameterError):
        m.idd_receive(gram, y, nv, perms, n_outer=0)
    with pytest.raises(StructuralError):
        m.idd_receive(gram, y, nv, perms[:, :, :10])
    with pytest.raises(StructuralError):  # one frame, not a block of one
        m.idd_receive(gram[0], y[0], nv, perms[0])
