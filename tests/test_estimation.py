"""Adaptive estimation tests: LS/RLS/LMS trackers, projections, banks."""

import numpy as np
import pytest

import mumimo as m
from conftest import random_channel
from mumimo.errors import ParameterError, ParameterWarning, RankError
from mumimo.estimation import DEFAULT_DELTA


def qpsk_block(rng, n_streams, n, power=1.0):
    return m.qpsk_constellation(power)[rng.integers(0, 4, size=(n_streams, n))]


# -- channel estimation -------------------------------------------------------

def test_ls_channel_noiseless_exact(rng):
    chan = random_channel(rng, 6, 3)
    pilots = qpsk_block(rng, 3, 50)
    est = m.ls_channel_estimate(pilots, chan @ pilots)
    np.testing.assert_allclose(est, chan, atol=1e-10)


def test_ls_channel_weighted_matches_direct_solve(rng):
    chan = random_channel(rng, 5, 3)
    pilots = qpsk_block(rng, 3, 80)
    noise = 0.1 * (rng.standard_normal((5, 80)) + 1j * rng.standard_normal((5, 80)))
    recv = chan @ pilots + noise
    lam = 0.9
    est = m.ls_channel_estimate(pilots, recv, lam)
    w = lam ** np.arange(79, -1, -1, dtype=float)
    # direct weighted least squares, one receive antenna at a time
    a = (pilots * np.sqrt(w)).conj().T  # (N, M) design matrix
    for i in range(5):
        b = (recv[i] * np.sqrt(w)).conj()
        ref, *_ = np.linalg.lstsq(a, b, rcond=None)
        np.testing.assert_allclose(est[i], ref.conj(), atol=1e-8)


def test_ls_channel_rank_errors(rng):
    pilots = qpsk_block(rng, 4, 2)
    with pytest.raises(RankError):
        m.ls_channel_estimate(pilots, np.zeros((6, 2), dtype=complex))
    # enough pilots but rank deficient (same vector repeated)
    rep = np.tile(qpsk_block(rng, 4, 1), (1, 10))
    with pytest.raises(RankError):
        m.ls_channel_estimate(rep, np.zeros((6, 10), dtype=complex))


def test_rls_channel_growing_window_matches_batch_ls(rng):
    chan = random_channel(rng, 6, 4)
    pilots = qpsk_block(rng, 4, 60)
    noise = 0.2 * (rng.standard_normal((6, 60)) + 1j * rng.standard_normal((6, 60)))
    recv = chan @ pilots + noise
    tracker = m.RlsChannelEstimator(4, 6, lam=1.0)
    for i in range(60):
        tracker.update(pilots[:, i], recv[:, i])
    batch = m.ls_channel_estimate(pilots, recv)
    err = np.linalg.norm(tracker.estimate - batch) / np.linalg.norm(batch)
    assert err < 1e-6


def test_rls_channel_forgetting_matches_weighted_ls(rng):
    chan = random_channel(rng, 4, 2)
    pilots = qpsk_block(rng, 2, 150)
    noise = 0.15 * (rng.standard_normal((4, 150)) + 1j * rng.standard_normal((4, 150)))
    recv = chan @ pilots + noise
    lam = 0.95
    tracker = m.RlsChannelEstimator(2, 4, lam=lam)
    for i in range(150):
        tracker.update(pilots[:, i], recv[:, i])
    batch = m.ls_channel_estimate(pilots, recv, lam)
    err = np.linalg.norm(tracker.estimate - batch) / np.linalg.norm(batch)
    assert err < 1e-5


@pytest.mark.parametrize("n_pilots,lam,delta", [
    (60, 1.0, DEFAULT_DELTA), (150, 0.95, DEFAULT_DELTA), (2, 1.0, DEFAULT_DELTA),
    (3, 0.9, 0.5), (40, 0.95, 0.5)])
def test_regularized_ls_equals_rls_recursion(rng, n_pilots, lam, delta):
    # the delta-regularized batch solve is where the recursion stands after
    # the same pilots, including fewer pilots than streams; a large delta
    # makes the lam^N decay of the initial P visible
    chan = random_channel(rng, 6, 4)
    pilots = qpsk_block(rng, 4, n_pilots)
    recv = chan @ pilots + 0.2 * (rng.standard_normal((6, n_pilots))
                                  + 1j * rng.standard_normal((6, n_pilots)))
    tracker = m.RlsChannelEstimator(4, 6, lam, delta)
    for i in range(n_pilots):
        tracker.update(pilots[:, i], recv[:, i])
    batch = m.ls_channel_estimate(pilots, recv, lam, delta)
    err = np.linalg.norm(tracker.estimate - batch) / np.linalg.norm(batch)
    assert err < 1e-7


def test_regularized_ls_validates_delta(rng):
    pilots = qpsk_block(rng, 4, 2)
    with pytest.raises(ParameterError):
        m.ls_channel_estimate(pilots, np.zeros((6, 2), dtype=complex), 1.0, -1.0)
    # with delta > 0 there is no pilot-count floor
    est = m.ls_channel_estimate(pilots, np.zeros((6, 2), dtype=complex), 1.0, 1e-3)
    assert est.shape == (6, 4)


def test_rls_channel_tracks_channel_switch(rng):
    chan_a = random_channel(rng, 4, 2)
    chan_b = random_channel(rng, 4, 2)
    tracker = m.RlsChannelEstimator(2, 4, lam=0.9)
    for i in range(400):
        chan = chan_a if i < 200 else chan_b
        s = qpsk_block(rng, 2, 1)[:, 0]
        tracker.update(s, chan @ s)
    err = np.linalg.norm(tracker.estimate - chan_b) / np.linalg.norm(chan_b)
    assert err < 1e-3


def test_lms_channel_converges_noiseless(rng):
    chan = random_channel(rng, 5, 3)
    tracker = m.LmsChannelEstimator(3, 5, mu=0.1)
    for _ in range(3000):
        s = qpsk_block(rng, 3, 1)[:, 0]
        tracker.update(s, chan @ s)
    err = np.linalg.norm(tracker.estimate - chan) / np.linalg.norm(chan)
    assert err < 1e-3


def test_lms_channel_step_size_warning():
    with pytest.warns(ParameterWarning):
        m.LmsChannelEstimator(4, 8, mu=0.6)  # 2 / tr(R) = 0.5


# -- direct filter estimation -------------------------------------------------

def test_ls_filter_solves_normal_equations(rng):
    recv = (rng.standard_normal((4, 100)) + 1j * rng.standard_normal((4, 100)))
    desired = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    lam = 0.97
    w_filt = m.ls_filter_estimate(recv, desired, lam)
    weights = lam ** np.arange(99, -1, -1, dtype=float)
    r_corr = (recv * weights) @ recv.conj().T
    p = (recv * weights) @ desired.conj()
    np.testing.assert_allclose(r_corr @ w_filt, p, atol=1e-10)


def test_ls_filter_recovers_true_filter(rng):
    w_true = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    recv = rng.standard_normal((4, 200)) + 1j * rng.standard_normal((4, 200))
    desired = w_true.conj() @ recv
    w_filt = m.ls_filter_estimate(recv, desired)
    np.testing.assert_allclose(w_filt, w_true, atol=1e-10)


def test_ls_filter_rank_guard(rng):
    with pytest.raises(RankError):
        m.ls_filter_estimate(np.zeros((8, 3), dtype=complex), np.zeros(3))


def test_rls_filter_growing_window_matches_batch(rng):
    chan = random_channel(rng, 6, 2, scale=2.0)
    syms = qpsk_block(rng, 2, 80)
    recv = chan @ syms + 0.3 * (rng.standard_normal((6, 80))
                                + 1j * rng.standard_normal((6, 80)))
    est = m.RlsFilterEstimator(6, lam=1.0)
    for i in range(80):
        est.update(recv[:, i], syms[0, i])
    batch = m.ls_filter_estimate(recv, syms[0])
    assert np.linalg.norm(est.w - batch) / np.linalg.norm(batch) < 1e-6


def test_rls_filter_first_error_is_desired(rng):
    est = m.RlsFilterEstimator(3)
    err = est.update(np.ones(3, dtype=complex), 1.0 - 1.0j)
    assert err == pytest.approx(1.0 - 1.0j)


# -- projections --------------------------------------------------------------

def random_psd(rng, n, spread=4.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    evals = np.linspace(1.0, spread, n)
    q = np.linalg.qr(a)[0]
    return (q * evals) @ q.conj().T


def test_pc_projection_is_top_eigenspace(rng):
    corr = random_psd(rng, 8)
    proj = m.build_projection("pc", corr, rank=3)
    assert proj.basis.shape == (8, 3)
    np.testing.assert_allclose(proj.basis.conj().T @ proj.basis, np.eye(3), atol=1e-10)
    evals, evecs = np.linalg.eigh(corr)
    top = evecs[:, np.argsort(evals)[::-1][:3]]
    # subspaces match even though individual eigenvector phases may differ
    np.testing.assert_allclose(proj.basis @ proj.basis.conj().T,
                               top @ top.conj().T, atol=1e-10)


def test_krylov_projection_spans_power_iterates(rng):
    corr = random_psd(rng, 8)
    cross = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    proj = m.build_projection("krylov", corr, cross, rank=4)
    t_mat = proj.basis
    np.testing.assert_allclose(t_mat.conj().T @ t_mat, np.eye(4), atol=1e-10)
    vec = cross / np.linalg.norm(cross)
    for _ in range(4):
        inside = t_mat @ (t_mat.conj().T @ vec)
        np.testing.assert_allclose(inside, vec, atol=1e-8)
        vec = corr @ vec
        vec = vec / np.linalg.norm(vec)


def test_krylov_collapse_detected(rng):
    cross = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    proj = m.build_projection("krylov", np.eye(6), cross, rank=4)
    assert proj.collapsed
    assert proj.effective_rank == 1
    with pytest.raises(ParameterError):
        m.build_projection("krylov", np.eye(6), np.zeros(6), rank=3)


def test_projection_validates():
    with pytest.raises(ParameterError):
        m.build_projection("pc", np.eye(4), rank=9)
    with pytest.raises(ParameterError):
        m.build_projection("nope", np.eye(4), rank=2)
    with pytest.raises(ParameterError):
        m.build_projection("krylov", np.eye(4), rank=2)


def test_reduced_rank_rls_identity_basis_equals_full(rng):
    recv = rng.standard_normal((5, 40)) + 1j * rng.standard_normal((5, 40))
    desired = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    full = m.RlsFilterEstimator(5)
    red = m.ReducedRankRlsFilter(np.eye(5, dtype=complex))
    for i in range(40):
        full.update(recv[:, i], desired[i])
        red.update(recv[:, i], desired[i])
    np.testing.assert_allclose(red.w, full.w, atol=1e-12)
    np.testing.assert_allclose(red.w_reduced, full.w, atol=1e-12)


def test_reduced_rank_rls_matches_projected_batch(rng):
    recv = rng.standard_normal((8, 300)) + 1j * rng.standard_normal((8, 300))
    desired = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    r_corr = recv @ recv.conj().T
    p = recv @ desired.conj()
    proj = m.build_projection("krylov", r_corr, p, rank=3)
    red = m.ReducedRankRlsFilter(proj, lam=1.0)
    for i in range(300):
        red.update(recv[:, i], desired[i])
    t_mat = proj.basis
    ref = t_mat @ np.linalg.solve(t_mat.conj().T @ r_corr @ t_mat,
                                  t_mat.conj().T @ p)
    assert np.linalg.norm(red.w - ref) / np.linalg.norm(ref) < 1e-5


def test_jio_keeps_basis_until_filter_moves(rng):
    jio = m.JioRlsFilter(6, 2)
    start = jio.basis.copy()
    # zero desired keeps the short filter at zero: projection must not move
    jio.update(rng.standard_normal(6) + 1j * rng.standard_normal(6), 0.0)
    np.testing.assert_array_equal(jio.basis, start)
    # a real error moves both
    jio.update(rng.standard_normal(6) + 1j * rng.standard_normal(6), 1.0 + 0j)
    assert not np.array_equal(jio.basis, start)


def test_jio_beats_fixed_basis_on_misaligned_subspace(rng):
    # desired signal lives on coordinates the identity-eye basis misses
    n, rank, n_train = 12, 2, 400
    w_true = np.zeros(n, dtype=complex)
    w_true[-2:] = [1.0, 1.0j]
    recv = rng.standard_normal((n, n_train)) + 1j * rng.standard_normal((n, n_train))
    desired = w_true.conj() @ recv + 0.05 * (rng.standard_normal(n_train)
                                             + 1j * rng.standard_normal(n_train))
    jio = m.JioRlsFilter(n, rank)
    fixed = m.ReducedRankRlsFilter(np.eye(n, rank, dtype=complex))
    for i in range(n_train):
        jio.update(recv[:, i], desired[i])
        fixed.update(recv[:, i], desired[i])
    eval_recv = rng.standard_normal((n, 2000)) + 1j * rng.standard_normal((n, 2000))
    eval_des = w_true.conj() @ eval_recv
    mse_jio = np.mean(np.abs(eval_des - jio.w.conj() @ eval_recv) ** 2)
    mse_fixed = np.mean(np.abs(eval_des - fixed.w.conj() @ eval_recv) ** 2)
    assert mse_jio < 0.1 * mse_fixed


# -- filter banks -------------------------------------------------------------

def test_rls_bank_matches_independent_filters(rng):
    recv = rng.standard_normal((6, 50)) + 1j * rng.standard_normal((6, 50))
    desired = rng.standard_normal((3, 50)) + 1j * rng.standard_normal((3, 50))
    bank = m.RlsFilterBank(6, 3, lam=0.98)
    singles = [m.RlsFilterEstimator(6, lam=0.98) for _ in range(3)]
    for i in range(50):
        bank.update(recv[:, i], desired[:, i])
        for k, est in enumerate(singles):
            est.update(recv[:, i], desired[k, i])
    for k, est in enumerate(singles):
        np.testing.assert_allclose(bank.weights[:, k], est.w, atol=1e-12)


def test_jio_bank_matches_independent_filters(rng):
    recv = rng.standard_normal((6, 60)) + 1j * rng.standard_normal((6, 60))
    desired = rng.standard_normal((3, 60)) + 1j * rng.standard_normal((3, 60))
    bank = m.JioFilterBank(6, 3, rank=2, lam=0.99)
    singles = [m.JioRlsFilter(6, 2, lam=0.99) for _ in range(3)]
    for i in range(60):
        bank.update(recv[:, i], desired[:, i])
        for k, est in enumerate(singles):
            est.update(recv[:, i], desired[k, i])
    for k, est in enumerate(singles):
        np.testing.assert_allclose(bank.basis[k], est.basis, atol=1e-10)
        np.testing.assert_allclose(bank.weights[:, k], est.w, atol=1e-10)


def test_reduced_rank_bank_matches_manual_solve(rng):
    recv = rng.standard_normal((6, 80)) + 1j * rng.standard_normal((6, 80))
    desired = rng.standard_normal((2, 80)) + 1j * rng.standard_normal((2, 80))
    for method in ("pc", "krylov"):
        bank = m.ReducedRankFilterBank(6, 2, method, rank=3, lam=0.97)
        for i in range(80):
            bank.update(recv[:, i], desired[:, i])
        got = bank.weights
        for k in range(2):
            if method == "pc":
                proj = m.build_projection("pc", bank.corr, rank=3)
            else:
                proj = m.build_projection("krylov", bank.corr, bank.cross[:, k], 3)
            t_mat = proj.basis
            ref = t_mat @ np.linalg.solve(t_mat.conj().T @ bank.corr @ t_mat,
                                          t_mat.conj().T @ bank.cross[:, k])
            np.testing.assert_allclose(got[:, k], ref, atol=1e-10)


def test_reduced_rank_bank_is_zero_before_training():
    bank = m.ReducedRankFilterBank(5, 2, "krylov", rank=2)
    np.testing.assert_array_equal(bank.weights, np.zeros((5, 2)))


def test_estimator_parameter_validation():
    with pytest.raises(ParameterError):
        m.RlsChannelEstimator(2, 4, lam=0.0)
    with pytest.raises(ParameterError):
        m.RlsChannelEstimator(2, 4, lam=1.0, delta=0.0)
    with pytest.raises(ParameterError):
        m.LmsChannelEstimator(2, 4, mu=0.0)
    with pytest.raises(ParameterError):
        m.JioRlsFilter(4, 0)
    with pytest.raises(ParameterError):
        m.JioFilterBank(4, 2, rank=9)
    with pytest.raises(ParameterError):
        m.ReducedRankFilterBank(4, 2, "svd")


def test_default_delta_is_small():
    # the recursive initialisation bias must stay below the batch-LS
    # equivalence tolerance used across the package
    assert DEFAULT_DELTA <= 1e-6
