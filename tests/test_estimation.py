"""Adaptive estimation tests: LS/RLS/LMS trackers, projections, filter banks."""

import warnings

import numpy as np
import pytest

import mumimo as m
from conftest import ReferenceLms, ReferenceRls, WarmStartJio, random_channel, same_bytes
from mumimo.errors import ParameterError, ParameterWarning, RankError
from mumimo.estimation import _BLOCK, _LMS_RUN, DEFAULT_DELTA


def qpsk_block(rng, n_streams, n, power=1.0):
    return m.qpsk_constellation(power)[rng.integers(0, 4, size=(n_streams, n))]


# -- channel estimation -------------------------------------------------------

def ls_estimate(pilots, received, lam=1.0, delta=0.0):
    """One packet's estimate from (M, n) pilots and (N_A, n) received pilots,
    trained as a block of one."""
    tracker = m.RlsChannelEstimator(pilots.shape[0], received.shape[0], lam, delta)
    return tracker.update(pilots[None], received[None]).estimate[0]


def test_ls_channel_noiseless_exact(rng):
    chan = random_channel(rng, 6, 3)
    pilots = qpsk_block(rng, 3, 50)
    est = ls_estimate(pilots, chan @ pilots)
    np.testing.assert_allclose(est, chan, atol=1e-10)


def test_ls_channel_weighted_matches_direct_solve(rng):
    chan = random_channel(rng, 5, 3)
    pilots = qpsk_block(rng, 3, 80)
    noise = 0.1 * (rng.standard_normal((5, 80)) + 1j * rng.standard_normal((5, 80)))
    recv = chan @ pilots + noise
    lam = 0.9
    est = ls_estimate(pilots, recv, lam)
    w = lam ** np.arange(79, -1, -1, dtype=float)
    # direct weighted least squares, one receive antenna at a time
    a = (pilots * np.sqrt(w)).conj().T  # (N, M) design matrix
    for i in range(5):
        b = (recv[i] * np.sqrt(w)).conj()
        ref, *_ = np.linalg.lstsq(a, b, rcond=None)
        np.testing.assert_allclose(est[i], ref.conj(), atol=1e-8)


def test_ls_channel_rank_errors(rng):
    pilots = qpsk_block(rng, 4, 2)
    with pytest.raises(RankError, match="2 pilots cannot resolve 4 streams"):
        ls_estimate(pilots, np.zeros((6, 2), dtype=complex))
    # enough pilots but rank deficient (same vector repeated)
    rep = np.tile(qpsk_block(rng, 4, 1), (1, 10))
    with pytest.raises(RankError, match="singular after 10 pilots of 4 streams"):
        ls_estimate(rep, np.zeros((6, 10), dtype=complex))
    # the pilot count is the tracker's total over its update calls
    tracker = m.RlsChannelEstimator(4, 6, delta=0.0)
    tracker.update(pilots[None], np.zeros((1, 6, 2), dtype=complex))
    tracker.update(qpsk_block(rng, 4, 3)[None], np.zeros((1, 6, 3), dtype=complex))
    assert tracker.estimate.shape == (1, 6, 4)


def test_rls_channel_growing_window_matches_batch_ls(rng):
    chan = random_channel(rng, 6, 4)
    pilots = qpsk_block(rng, 4, 60)
    noise = 0.2 * (rng.standard_normal((6, 60)) + 1j * rng.standard_normal((6, 60)))
    recv = chan @ pilots + noise
    tracker = ReferenceRls(4, 6, lam=1.0).run(pilots, recv)
    batch = ls_estimate(pilots, recv)
    err = np.linalg.norm(tracker.estimate - batch) / np.linalg.norm(batch)
    assert err < 1e-6


def test_rls_channel_forgetting_matches_weighted_ls(rng):
    chan = random_channel(rng, 4, 2)
    pilots = qpsk_block(rng, 2, 150)
    noise = 0.15 * (rng.standard_normal((4, 150)) + 1j * rng.standard_normal((4, 150)))
    recv = chan @ pilots + noise
    lam = 0.95
    tracker = ReferenceRls(2, 4, lam=lam).run(pilots, recv)
    batch = ls_estimate(pilots, recv, lam)
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
    tracker = ReferenceRls(4, 6, lam, delta).run(pilots, recv)
    batch = ls_estimate(pilots, recv, lam, delta)
    err = np.linalg.norm(tracker.estimate - batch) / np.linalg.norm(batch)
    assert err < 1e-7


def test_regularized_ls_validates_delta(rng):
    # with delta > 0 there is no pilot-count floor
    pilots = qpsk_block(rng, 4, 2)
    est = ls_estimate(pilots, np.zeros((6, 2), dtype=complex), 1.0, 1e-3)
    assert est.shape == (6, 4)


@pytest.mark.parametrize("delta", [0.0, DEFAULT_DELTA])
def test_rls_channel_blocks_fold_like_one_block(rng, delta):
    # the statistics are folded per update call: pilots split over calls
    # train to the one-call estimate within rounding
    pilots = qpsk_block(rng, 3, 40)[None]
    recv = random_channel(rng, 5, 3) @ pilots + 0.1 * _complex(rng, 1, 5, 40)
    whole = m.RlsChannelEstimator(3, 5, 0.97, delta).update(pilots, recv)
    split = m.RlsChannelEstimator(3, 5, 0.97, delta)
    for lo, hi in ((0, 1), (1, 17), (17, 40)):
        split.update(pilots[..., lo:hi], recv[..., lo:hi])
    assert split.n_updates == whole.n_updates == 40
    np.testing.assert_allclose(split.estimate, whole.estimate, rtol=1e-12)


def test_rls_channel_tracks_channel_switch(rng):
    chan_a = random_channel(rng, 4, 2)
    chan_b = random_channel(rng, 4, 2)
    tracker = m.RlsChannelEstimator(2, 4, lam=0.9)
    for i in range(400):
        chan = chan_a if i < 200 else chan_b
        s = qpsk_block(rng, 2, 1)
        tracker.update(s[None], (chan @ s)[None])
    err = np.linalg.norm(tracker.estimate[0] - chan_b) / np.linalg.norm(chan_b)
    assert err < 1e-3


def test_lms_channel_converges_noiseless(rng):
    chan = random_channel(rng, 5, 3)
    tracker = m.LmsChannelEstimator(3, 5, mu=0.1)
    for _ in range(3000):
        s = qpsk_block(rng, 3, 1)
        tracker.update(s[None], (chan @ s)[None])
    err = np.linalg.norm(tracker.estimate[0] - chan) / np.linalg.norm(chan)
    assert err < 1e-3


def _ulp_floor(oracle, received, estimate):
    # how far the oracle's result moves, relative to its size, when every
    # received sample moves one ulp up, or one ulp down: the larger move
    floors = []
    for way in (np.inf, -np.inf):
        nudged = np.nextafter(received.real, way) + 1j * np.nextafter(received.imag, way)
        floors.append(_relative_distance(oracle(nudged), estimate))
    return max(floors)


def test_lms_block_form_matches_the_recursion(rng):
    # the block form solves each run of _LMS_RUN pilots in closed form and
    # rounds otherwise than the per-sample recursion (conftest.ReferenceLms).
    # However the pilots are split over update calls, on or off the run
    # boundary, the estimate must stay within 10x of how far the recursion
    # itself moves when every received sample moves by one ulp
    n_pkt, n_rx, n_streams, n = 2, 16, 8, 3 * _LMS_RUN + 5
    chans = np.stack([random_channel(rng, n_rx, n_streams) for _ in range(n_pkt)])
    pilots = np.stack([qpsk_block(rng, n_streams, n) for _ in range(n_pkt)])
    recv = chans @ pilots + 0.3 * np.stack([random_channel(rng, n_rx, n)
                                            for _ in range(n_pkt)])
    splits = {
        "whole": ((0, n),),
        "first pilots alone": ((0, 1), (1, 6), (6, n)),
        "off the run boundary": ((0, _LMS_RUN - 3), (_LMS_RUN - 3, 2 * _LMS_RUN + 7),
                                 (2 * _LMS_RUN + 7, n)),
        "on the run boundary": ((0, _LMS_RUN), (_LMS_RUN, 3 * _LMS_RUN), (3 * _LMS_RUN, n)),
    }
    for mu in (0.01, 0.1):
        def recursion(received):
            return ReferenceLms(n_streams, n_rx, mu, n_pkt).update(pilots, received).estimate

        reference = recursion(recv)
        floor = _ulp_floor(recursion, recv, reference)
        assert floor > 0.0
        for name, bounds in splits.items():
            tracker = m.LmsChannelEstimator(n_streams, n_rx, mu=mu, packets=n_pkt)
            for lo, hi in bounds:
                tracker.update(pilots[..., lo:hi], recv[..., lo:hi])
            assert _relative_distance(tracker.estimate, reference) <= 10 * floor, (mu, name)


def test_lms_channel_step_size_warning():
    # the bound 2 / tr(R) = 2 / (M E_s) is the config's to flag, before the
    # sweep: validation warns from the bound on, and the tracker is quiet
    def lms(mu, symbol_power=1.0):
        system = m.SystemConfig(n_users=4, n_bs=8, symbol_power=symbol_power)
        return m.ScenarioSpec(system=system, estimator="lms", pilot_len=20, step_size=mu)

    for mu in (0.6, 0.5):  # 2 / tr(R) = 0.5
        with pytest.warns(ParameterWarning, match=r"2 / tr\(R\) = 0\.5;"):
            lms(mu).validate()
    with pytest.warns(ParameterWarning, match=r"2 / tr\(R\) = 0\.25;"):
        lms(0.3, symbol_power=2.0).validate()
    with warnings.catch_warnings():
        warnings.simplefilter("error", ParameterWarning)
        lms(0.49).validate()
        m.LmsChannelEstimator(4, 8, mu=0.6)


# -- per-sample oracles for the receive-filter banks ------------------------

def reference_rls_filter(received, desired, lam=1.0, delta=DEFAULT_DELTA):
    """Per-sample RLS recursion of one receive filter (applied as w^H r),
    started from P = I / delta; returns the filter after the last sample."""
    n_dim = received.shape[0]
    p = np.eye(n_dim, dtype=complex) / delta
    w = np.zeros(n_dim, dtype=complex)
    for r, d in zip(received.T, desired):
        pr = p @ r
        gain = pr / (lam + np.real(r.conj() @ pr))
        w = w + gain * np.conj(d - w.conj() @ r)
        p = (p - np.outer(gain, r.conj() @ p)) / lam
        p = 0.5 * (p + p.conj().T)
    return w


class ReferenceJio:
    """Single-stream JIO-RLS: an RLS step on the short filter, then a
    recursive least-squares step on the projection, once per sample."""

    def __init__(self, n_dim, rank, lam=1.0, delta=DEFAULT_DELTA):
        self.lam = lam
        self.basis = np.eye(n_dim, rank, dtype=complex)
        self.w_bar = np.zeros(rank, dtype=complex)
        self.p_bar = np.eye(rank, dtype=complex) / delta
        self.p_full = np.eye(n_dim, dtype=complex) / delta

    @staticmethod
    def _rls_step(p, r, lam):
        pr = p @ r
        gain = pr / (lam + np.real(r.conj() @ pr))
        p = (p - np.outer(gain, r.conj() @ p)) / lam
        return gain, 0.5 * (p + p.conj().T)

    def update(self, r, desired):
        r_bar = self.basis.conj().T @ r
        gain, self.p_bar = self._rls_step(self.p_bar, r_bar, self.lam)
        self.w_bar = self.w_bar + gain * np.conj(desired - self.w_bar.conj() @ r_bar)
        gain_full, self.p_full = self._rls_step(self.p_full, r, self.lam)
        w_energy = float(np.real(self.w_bar.conj() @ self.w_bar))
        if w_energy > 0.0:
            err_post = desired - self.w_bar.conj() @ r_bar
            self.basis = self.basis + np.outer(
                gain_full * np.conj(err_post), self.w_bar.conj()) / w_energy

    @property
    def w(self):
        return self.basis @ self.w_bar


def training_block(rng, n_dim, n_streams, n):
    recv = rng.standard_normal((n_dim, n)) + 1j * rng.standard_normal((n_dim, n))
    desired = rng.standard_normal((n_streams, n)) + 1j * rng.standard_normal((n_streams, n))
    return recv, desired


def weighted_normal_equations(recv, desired, lam, delta):
    n = recv.shape[1]
    weights = lam ** np.arange(n - 1, -1, -1, dtype=float)
    r_corr = (recv * weights) @ recv.conj().T + delta * lam ** n * np.eye(recv.shape[0])
    return r_corr, (recv * weights) @ desired.conj().T


# -- full-rank (RLS) filter ---------------------------------------------------

def full_rank_bank(n_dim, n_streams, lam=1.0, delta=DEFAULT_DELTA):
    return m.ReducedRankFilterBank(n_dim, n_streams, "krylov", n_dim, lam, delta)


def test_ls_filter_solves_normal_equations(rng):
    recv, desired = training_block(rng, 4, 2, 100)
    lam = 0.97
    bank = full_rank_bank(4, 2, lam)
    bank.update(recv[None], desired[None])
    r_corr, p = weighted_normal_equations(recv, desired, lam, DEFAULT_DELTA)
    np.testing.assert_allclose(r_corr @ bank.weights[0], p, atol=1e-10)


def test_ls_filter_recovers_true_filter(rng):
    w_true = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    recv = rng.standard_normal((4, 200)) + 1j * rng.standard_normal((4, 200))
    bank = full_rank_bank(4, 1, delta=1e-12)
    bank.update(recv[None], (w_true.conj() @ recv)[None, None, :])
    np.testing.assert_allclose(bank.weights[0, :, 0], w_true, atol=1e-10)


def test_rls_filter_growing_window_matches_batch(rng):
    chan = random_channel(rng, 6, 2, scale=2.0)
    syms = qpsk_block(rng, 2, 80)
    recv = chan @ syms + 0.3 * (rng.standard_normal((6, 80))
                                + 1j * rng.standard_normal((6, 80)))
    bank = full_rank_bank(6, 2)
    bank.update(recv[None], syms[None])
    batch = np.linalg.solve(recv @ recv.conj().T, recv @ syms.conj().T)
    assert np.linalg.norm(bank.weights[0] - batch) / np.linalg.norm(batch) < 1e-6


@pytest.mark.parametrize("lam", [1.0, 0.97])
def test_full_rank_bank_equals_rls_recursion(rng, lam):
    recv, desired = training_block(rng, 6, 3, 120)
    bank = full_rank_bank(6, 3, lam, delta=0.01)
    bank.update(recv[None], desired[None])
    for k in range(3):
        ref = reference_rls_filter(recv, desired[k], lam, delta=0.01)
        assert np.linalg.norm(bank.weights[0, :, k] - ref) / np.linalg.norm(ref) < 1e-9


@pytest.mark.parametrize("method,confined", [("pc", False), ("krylov", False),
                                             ("krylov", True)])
def test_full_rank_bank_equals_projected_solve(rng, method, confined):
    recv, desired = training_block(rng, 6, 2, 40)
    if confined:
        # snapshots in a 2-D subspace: the ladder of the regularized
        # correlation collapses there, and that subspace still holds R^{-1} p
        recv = np.linalg.qr(recv[:, :2])[0] @ recv[:2]
    bank = m.ReducedRankFilterBank(6, 2, method, rank=6, lam=0.98, delta=0.01)
    bank.update(recv[None], desired[None])
    corr, cross = bank.corr[0], bank.cross[0]
    for k in range(2):
        basis = m.build_projection(method, corr, cross[:, k], rank=6)
        assert basis.shape == (6, 2 if confined else 6)
        ref = basis @ np.linalg.solve(basis.conj().T @ corr @ basis,
                                      basis.conj().T @ cross[:, k])
        np.testing.assert_allclose(bank.weights[0, :, k], ref, atol=1e-10)


# -- projections --------------------------------------------------------------

def random_psd(rng, n, spread=4.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    evals = np.linspace(1.0, spread, n)
    q = np.linalg.qr(a)[0]
    return (q * evals) @ q.conj().T


def test_pc_projection_is_top_eigenspace(rng):
    corr = random_psd(rng, 8)
    basis = m.build_projection("pc", corr, rank=3)
    assert basis.shape == (8, 3)
    np.testing.assert_allclose(basis.conj().T @ basis, np.eye(3), atol=1e-10)
    evals, evecs = np.linalg.eigh(corr)
    top = evecs[:, np.argsort(evals)[::-1][:3]]
    # subspaces match even though individual eigenvector phases may differ
    np.testing.assert_allclose(basis @ basis.conj().T, top @ top.conj().T, atol=1e-10)


def test_krylov_projection_spans_power_iterates(rng):
    corr = random_psd(rng, 8)
    cross = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    t_mat = m.build_projection("krylov", corr, cross, rank=4)
    np.testing.assert_allclose(t_mat.conj().T @ t_mat, np.eye(4), atol=1e-10)
    vec = cross / np.linalg.norm(cross)
    for _ in range(4):
        inside = t_mat @ (t_mat.conj().T @ vec)
        np.testing.assert_allclose(inside, vec, atol=1e-8)
        vec = corr @ vec
        vec = vec / np.linalg.norm(vec)


def test_krylov_collapse_detected(rng):
    cross = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    assert m.build_projection("krylov", np.eye(6), cross, rank=4).shape == (6, 1)
    with pytest.raises(ParameterError):
        m.build_projection("krylov", np.eye(6), np.zeros(6), rank=3)


def test_projection_validates():
    with pytest.raises(ParameterError):
        m.build_projection("nope", np.eye(4), rank=2)
    with pytest.raises(ParameterError):
        m.build_projection("krylov", np.eye(4), rank=2)


# -- joint iterative optimization ---------------------------------------------

def test_jio_keeps_basis_until_filter_moves(rng):
    jio = m.JioFilterBank(6, 1, rank=2)
    start = jio.basis.copy()
    # zero desired keeps the short filter at zero: projection must not move
    r = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    jio.update(r[None, :, None], np.zeros((1, 1, 1), dtype=complex))
    np.testing.assert_array_equal(jio.basis, start)
    # a real error moves both
    r = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    jio.update(r[None, :, None], np.ones((1, 1, 1), dtype=complex))
    assert not np.array_equal(jio.basis, start)


def test_jio_beats_fixed_basis_on_misaligned_subspace(rng):
    # desired signal lives on coordinates the identity-eye basis misses
    n, rank, n_train = 12, 2, 400
    w_true = np.zeros(n, dtype=complex)
    w_true[-2:] = [1.0, 1.0j]
    recv = rng.standard_normal((n, n_train)) + 1j * rng.standard_normal((n, n_train))
    desired = w_true.conj() @ recv + 0.05 * (rng.standard_normal(n_train)
                                             + 1j * rng.standard_normal(n_train))
    jio = m.JioFilterBank(n, 1, rank)
    jio.update(recv[None], desired[None, None, :])
    # the fixed basis keeps the first `rank` coordinates
    r_corr, p = weighted_normal_equations(recv[:rank], desired, 1.0, DEFAULT_DELTA)
    w_fixed = np.zeros(n, dtype=complex)
    w_fixed[:rank] = np.linalg.solve(r_corr, p)
    eval_recv = rng.standard_normal((n, 2000)) + 1j * rng.standard_normal((n, 2000))
    eval_des = w_true.conj() @ eval_recv
    mse_jio = np.mean(np.abs(eval_des - jio.weights[0, :, 0].conj() @ eval_recv) ** 2)
    mse_fixed = np.mean(np.abs(eval_des - w_fixed.conj() @ eval_recv) ** 2)
    assert mse_jio < 0.1 * mse_fixed


# -- filter banks -------------------------------------------------------------

def test_jio_bank_matches_independent_filters(rng):
    # the bank regroups the per-stream recursions, so the two round
    # differently: its bases and filters must stay within 10x of how far
    # the oracle itself moves when every received sample moves by one ulp,
    # up or down, whichever moves it further.  One direction alone
    # underestimates that sensitivity often enough (16 of 300 seeds past
    # 10x, against 4 of 300 with both) to make the verdict hang on the seed
    recv, desired = training_block(rng, 6, 3, 60)
    bank = m.JioFilterBank(6, 3, rank=2, lam=0.99)
    bank.update(recv[None], desired[None])

    def oracle(received):
        singles = [ReferenceJio(6, 2, lam=0.99) for _ in range(3)]
        for i in range(60):
            for k, est in enumerate(singles):
                est.update(received[:, i], desired[k, i])
        return {"basis": np.stack([est.basis for est in singles]),
                "weights": np.stack([est.w for est in singles], axis=-1)}

    ref = oracle(recv)
    moved = [oracle(np.nextafter(recv.real, to) + 1j * np.nextafter(recv.imag, to))
             for to in (np.inf, -np.inf)]
    for name, got in (("basis", bank.basis[0]), ("weights", bank.weights[0])):
        floor = max(_relative_distance(nudged[name], ref[name]) for nudged in moved)
        assert floor > 0.0, name
        assert _relative_distance(got, ref[name]) <= 10 * floor, name


@pytest.mark.parametrize("method,rank", [("pc", 3), ("krylov", 3), ("krylov", 6)])
def test_reduced_rank_bank_block_equals_single_updates(rng, method, rank):
    recv, desired = training_block(rng, 6, 2, 40)
    recv, desired = recv[None], desired[None]
    single = m.ReducedRankFilterBank(6, 2, method, rank, lam=0.97)
    block = m.ReducedRankFilterBank(6, 2, method, rank, lam=0.97)
    for i in range(40):
        single.update(recv[..., i:i + 1], desired[..., i:i + 1])
    block.update(recv[..., :25], desired[..., :25])
    block.update(recv[..., 25:], desired[..., 25:])
    assert block.n_updates == single.n_updates == 40
    np.testing.assert_allclose(block.corr, single.corr, rtol=1e-12)
    np.testing.assert_allclose(block.cross, single.cross, rtol=1e-12)
    np.testing.assert_allclose(block.weights, single.weights, rtol=1e-12)


def test_jio_bank_block_equals_single_updates(rng):
    # from a warm start: four dimensions, so the five warm-up snapshots give
    # the pooled correlation full rank; a rank-deficient one is near
    # delta * I on its null space, and inverting it at hand-off amplifies
    # roundoff by 1 / delta
    recv, desired = training_block(rng, 4, 2, 17)
    recv, desired = recv[None], desired[None]
    single = WarmStartJio(4, 2, rank=2, lam=0.98, warmup=5)
    block = WarmStartJio(4, 2, rank=2, lam=0.98, warmup=5)
    for i in range(17):
        single.update(recv[..., i:i + 1], desired[..., i:i + 1])
    # the second block straddles the hand-off after the fifth sample
    for lo, hi in ((0, 3), (3, 7), (7, 17)):
        block.update(recv[..., lo:hi], desired[..., lo:hi])
    np.testing.assert_allclose(block.jio.basis, single.jio.basis, rtol=1e-12)
    np.testing.assert_allclose(block.jio.w_bar, single.jio.w_bar, rtol=1e-12)
    np.testing.assert_allclose(block.weights, single.weights, rtol=1e-12)


def reference_joint_step(bank, r, d):
    # the joint step of a one-packet bank as one einsum per stream product,
    # with numpy's complex ``/ lam`` and ``0.5 *``: the basis as (K, N_A, D),
    # a second r^H P product for each downdate and the basis step formed per
    # stream
    def hermitize(p):
        return 0.5 * (p + np.conj(np.swapaxes(p, -1, -2)))

    (r,), (d,) = r, d
    (basis,), (w_bar,), (p_bar,), (p_full,) = bank.basis, bank.w_bar, bank.p_bar, bank.p_full
    r_bar = np.einsum('knd,n->kd', basis.conj(), r)
    pr = np.einsum('kde,ke->kd', p_bar, r_bar)
    denom = bank.lam + np.einsum('kd,kd->k', r_bar.conj(), pr).real
    gain = pr / denom[:, None]
    err = d - np.einsum('kd,kd->k', w_bar.conj(), r_bar)
    w_bar = w_bar + gain * err.conj()[:, None]
    rp = np.einsum('kd,kde->ke', r_bar.conj(), p_bar)
    p_bar = hermitize((p_bar - gain[:, :, None] * rp[:, None, :]) / bank.lam)
    pf = p_full @ r
    gain_full = pf / (bank.lam + np.real(r.conj() @ pf))
    p_full = hermitize((p_full - np.outer(gain_full, r.conj() @ p_full)) / bank.lam)
    err_post = d - np.einsum('kd,kd->k', w_bar.conj(), r_bar)
    w_energy = np.einsum('kd,kd->k', w_bar.conj(), w_bar).real
    active = w_energy > 0.0
    if np.any(active):
        scale = np.where(active, err_post.conj() / np.maximum(w_energy, 1e-300), 0.0)
        basis = basis + (scale[:, None, None] * gain_full[None, :, None]
                         * w_bar.conj()[:, None, :])
    bank.basis, bank.w_bar, bank.p_bar, bank.p_full = (
        x[None] for x in (basis, w_bar, p_bar, p_full))


def _relative_distance(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def _check_against_oracle(monkeypatch, recv, desired, lam, warmup, bounds):
    # the bank groups the step's products differently from the per-stream
    # oracle, so the two round differently; over the update calls
    # ``bounds`` from the same warm start, the bank must stay within 10x of
    # how far the oracle itself moves when every received sample moves by
    # one ulp
    nudged = np.nextafter(recv.real, np.inf) + 1j * np.nextafter(recv.imag, np.inf)

    def train(received, delta, oracle):
        bank = WarmStartJio(64, 8, rank=5, lam=lam, delta=delta, warmup=warmup)
        jio = bank.jio
        if oracle:
            monkeypatch.setattr(jio, "_joint_step",
                                lambda r, d: reference_joint_step(jio, r, d))
        for lo, hi in bounds:
            bank.update(received[None, :, lo:hi], desired[None, :, lo:hi])
        return jio

    for delta in (1e-6, 0.01):
        got, ref, ref_nudged = (train(recv, delta, False), train(recv, delta, True),
                                train(nudged, delta, True))
        for name in ("weights", "basis"):
            floor = _relative_distance(getattr(ref_nudged, name), getattr(ref, name))
            assert floor > 0.0, (delta, name)
            assert _relative_distance(getattr(got, name), getattr(ref, name)) <= 10 * floor, \
                (delta, name)
        # the hermitized iterates are exactly Hermitian, not only to roundoff
        for name in ("p_bar", "p_full"):
            p = getattr(got, name)
            assert np.array_equal(p, np.conj(np.swapaxes(p, -1, -2))), (delta, name)


@pytest.mark.parametrize("warmup,blocks", [
    (0, ((0, 300),)),
    (0, ((0, 1), (1, 120), (120, 300))),
    (20, ((0, 300),)),
    (20, ((0, 7), (7, 33), (33, 300))),
])
def test_jio_bank_equals_complex_arithmetic_step(rng, monkeypatch, warmup, blocks):
    # a warm start hands off after sample 20, which blocks (7, 33) straddle
    recv, desired = training_block(rng, 64, 8, 300)
    _check_against_oracle(monkeypatch, recv, desired, 0.999, warmup, blocks)


B = _BLOCK


@pytest.mark.parametrize("warmup,calls", [
    (0, (1, B - 1, B, B + 1, 2 * B + 3)),
    (0, (B + 1, 1, B - 1, 2 * B + 3, B)),
    (20, (19, 2, B + 1, 2 * B + 3)),
    (20, (20, 1, B, B - 1)),
    (20, (7, 2 * B + 3)),
], ids=["from-start", "reordered", "hand-off-inside", "hand-off-at-end", "hand-off-in-long"])
def test_jio_bank_block_lengths_equal_complex_arithmetic_step(rng, monkeypatch, warmup,
                                                              calls):
    # update calls of every length around the block size, some straddling
    # the hand-off, at a forgetting factor whose lam^-b scaling shows; a
    # last call takes the rest of the 150 samples
    starts = np.cumsum((0,) + calls)
    recv, desired = training_block(rng, 64, 8, 150)
    _check_against_oracle(monkeypatch, recv, desired, 0.99, warmup,
                          list(zip(starts, list(starts[1:]) + [150])))


@pytest.mark.parametrize("c", [0.97, 0.98, 0.999, 1.0])
def test_numpy_complex_scaling_equals_real_view_scaling(rng, c):
    # the JIO step and _hermitize rely on numpy rounding complex ``x / c``
    # (real c) as each part times ``1.0 / c``, and ``0.5 * x`` as each part
    # times 0.5; a numpy that rounds otherwise fails here, not as a moved CSV
    x = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    x[0, :4] = [0.0, -0.0j, 1e-300 + 1e300j, -5e-324]
    divided = x.copy()
    divided.view(float)[...] *= 1.0 / c
    assert np.array_equal(x / c, divided)
    halved = x.copy()
    halved.view(float)[...] *= 0.5
    assert np.array_equal(0.5 * x, halved)


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("n_dim,rank", [(1, 1), (6, 1), (6, 6), (16, 3), (64, 5)])
def test_numpy_stacked_products_equal_per_item_products(rng, n_dim, rank):
    # the stacked LMS runs and JIO steps and the stacked bank statistics rely on
    # numpy computing each item of a stacked product as the product of that
    # item alone (one BLAS call per item, the same einsum or vecdot loop); a
    # numpy or BLAS that rounds otherwise fails here, not as a moved CSV
    n_pkt, n_streams, n_pilot_streams, n_samples = 3, 4, 3, 7
    p_full = _complex(rng, n_pkt, n_dim, n_dim)
    r, pf = _complex(rng, n_pkt, n_dim), _complex(rng, n_pkt, n_dim)
    est, s = _complex(rng, n_pkt, n_dim, n_pilot_streams), _complex(rng, n_pkt, n_pilot_streams)
    block = _complex(rng, n_pkt, n_dim, n_samples)
    columns = _complex(rng, n_pkt, n_dim, n_streams * rank)
    basis = _complex(rng, n_pkt, n_streams, n_dim, rank)
    w_bar = _complex(rng, n_pkt, n_streams, rank)
    corr = np.eye(n_dim) + block @ np.swapaxes(block.conj(), -1, -2)
    # a JIO block: samples sliced from a longer run, their Z = P R, the
    # Cholesky factor of R^H Z + diag, F = Z L^-H, the coefficient rows
    # and [R^H C; rows] terms of the samples' projections, and a step's
    # short-filter products: x S, the real dot of parts, and u [u^H, v_D]
    run = _complex(rng, n_pkt, n_dim, 3 * n_samples)
    samples = run[..., n_samples:2 * n_samples]
    z = p_full @ np.swapaxes(p_full.conj(), -1, -2) @ samples
    gram = np.swapaxes(samples.conj(), -1, -2) @ z + 0.5 * np.eye(n_samples)
    chol = np.linalg.cholesky(gram)
    f = z @ np.linalg.inv(np.swapaxes(chol.conj(), -1, -2))
    coeff = _complex(rng, n_pkt, n_samples, 2 * n_samples)
    terms = _complex(rng, n_pkt, 2 * n_samples, n_streams * rank)
    x, short = _complex(rng, n_pkt, n_streams, 1, rank), _complex(rng, n_pkt, n_streams, rank,
                                                                  rank + 1)
    v = _complex(rng, n_pkt, n_streams, 1, rank + 1)
    j = n_samples // 2

    def jio_block(p_full, samples, z, gram, chol, f, columns, coeff, terms, x, short, v):
        f_h = np.swapaxes(f.conj(), -1, -2)
        r_h = np.swapaxes(samples.conj(), -1, -2)
        u = np.swapaxes(v[..., :-1], -1, -2).conj()
        return {
            "P R": p_full @ samples,
            "R^H Z": r_h @ z,
            "R^H C": r_h @ columns,
            "chol": np.linalg.cholesky(gram),
            "Z L^-H": z @ np.linalg.inv(np.swapaxes(chol.conj(), -1, -2)),
            "F F^H": f @ f_h,
            "coeff_j terms": coeff[..., j:j + 1, :] @ terms,
            "F terms": f @ terms[..., :n_samples, :],
            "x S": x @ short,
            "x . y": np.vecdot(x[..., 0, :].view(float), (x @ short)[..., 0, :-1].view(float)),
            "u v": u @ v,
        }

    # a run of the LMS block form: S^H S, G S, (I + mu U)^-1 S^H and D X
    pilots = _complex(rng, n_pkt, n_pilot_streams, n_samples)
    pilots_h = np.swapaxes(pilots.conj(), -1, -2)
    coupling = np.eye(n_samples) + 0.05 * np.triu(pilots_h @ pilots, 1)
    gain = np.linalg.solve(coupling, pilots_h)
    stacked = {
        **jio_block(p_full, samples, z, gram, chol, f, columns, coeff, terms, x, short, v),
        "S^H S": pilots_h @ pilots,
        "G S": est @ pilots,
        "T^-1 S^H": gain,
        "D X": block @ gain,
        "G s": (est @ s[..., None])[..., 0],
        "R R^H": block @ np.swapaxes(block.conj(), -1, -2),
        "inv": np.linalg.inv(corr),
        "solve": np.linalg.solve(np.swapaxes(corr.conj(), -1, -2), block),
        "g p^H": r[..., :, None] * pf.conj()[..., None, :],
        "T w": np.einsum('...knd,...kd->...nk', basis, w_bar),
    }
    for i in range(n_pkt):
        alone = {
            **jio_block(p_full[i], run[i][:, n_samples:2 * n_samples], z[i], gram[i], chol[i],
                        f[i], columns[i], coeff[i], terms[i], x[i], short[i], v[i]),
            "S^H S": pilots[i].conj().T @ pilots[i],
            "G S": est[i] @ pilots[i],
            "T^-1 S^H": np.linalg.solve(coupling[i], pilots[i].conj().T),
            "D X": block[i] @ gain[i],
            "G s": est[i] @ s[i],
            "R R^H": block[i] @ block[i].conj().T,
            "inv": np.linalg.inv(corr[i]),
            "solve": np.linalg.solve(corr[i].conj().T, block[i]),
            "g p^H": np.outer(r[i], pf[i].conj()),
            "T w": np.einsum('knd,kd->nk', basis[i], w_bar[i]),
        }
        for name, value in alone.items():
            assert same_bytes(stacked[name][i], value), (name, i)


@pytest.mark.parametrize("rank", [1, 2, 5, 8])
def test_numpy_outer_product_is_hermitian_entry_by_entry(rng, rank):
    # JIO's short-filter downdate keeps p_bar exactly Hermitian only if the
    # product ``u [u^H, c]`` rounds entry (i, j) of ``u u^H`` as the
    # conjugate of entry (j, i): numpy's matmul does, while a fused
    # multiply-add, as in its broadcasting complex multiply, need not
    v = _complex(rng, 3, 8, 1, rank + 1) * 10.0 ** rng.uniform(-8, 8, size=(3, 8, 1, 1))
    u = np.ascontiguousarray(np.swapaxes(v[..., :-1], -1, -2).conj())
    outer = (u @ v)[..., :rank]
    assert np.array_equal(outer, np.conj(np.swapaxes(outer, -1, -2)))


def _packet_blocks(rng, n_pkt, n_dim, n_streams, n):
    pairs = [training_block(rng, n_dim, n_streams, n) for _ in range(n_pkt)]
    return np.stack([p[0] for p in pairs]), np.stack([p[1] for p in pairs])


def test_stacked_lms_equals_independent_trackers(rng):
    recv, pilots = _packet_blocks(rng, 3, 5, 3, 17)
    stacked = m.LmsChannelEstimator(3, 5, mu=0.1, packets=3)
    assert stacked.estimate.shape == (3, 5, 3)
    # updates split across calls, one of them a single snapshot
    for lo, hi in ((0, 1), (1, 6), (6, 17)):
        stacked.update(pilots[..., lo:hi], recv[..., lo:hi])
    for i in range(3):
        alone = m.LmsChannelEstimator(3, 5, mu=0.1)
        for lo, hi in ((0, 1), (1, 6), (6, 17)):
            alone.update(pilots[i:i + 1, :, lo:hi], recv[i:i + 1, :, lo:hi])
        assert same_bytes(stacked.estimate[i], alone.estimate[0])


@pytest.mark.parametrize("delta", [0.0, DEFAULT_DELTA])
def test_stacked_rls_channel_equals_independent_trackers(rng, delta):
    # the closed form folds and solves each packet alone: a packet's
    # estimate is bitwise what a block of that packet alone gives
    pilots, recv = _packet_blocks(rng, 3, 3, 5, 17)
    stacked = m.RlsChannelEstimator(3, 5, 0.99, delta, packets=3)
    for lo, hi in ((0, 1), (1, 6), (6, 17)):
        stacked.update(pilots[..., lo:hi], recv[..., lo:hi])
    for i in range(3):
        alone = m.RlsChannelEstimator(3, 5, 0.99, delta)
        for lo, hi in ((0, 1), (1, 6), (6, 17)):
            alone.update(pilots[i:i + 1, :, lo:hi], recv[i:i + 1, :, lo:hi])
        assert same_bytes(stacked.estimate[i], alone.estimate[0])


JIO_CASES = {
    "rank-1": (6, 1, 0, ((0, 1), (1, 40), (40, 60))),
    "full-rank": (6, 6, 0, ((0, 60),)),
    "8x64": (64, 5, 0, ((0, 30), (30, 80))),
    "hand-off": (4, 2, 5, ((0, 3), (3, 7), (7, 30))),
}


@pytest.mark.parametrize("n_dim,rank,warmup,blocks", JIO_CASES.values(), ids=JIO_CASES)
def test_stacked_jio_equals_independent_banks(rng, n_dim, rank, warmup, blocks):
    # a warm start seeds every packet's joint recursions from its own
    # Krylov warm-up; warmup = 0 trains the cold bank alone
    n_pkt, n_streams = 3, 4 if n_dim < 64 else 8
    recv, desired = _packet_blocks(rng, n_pkt, n_dim, n_streams, blocks[-1][1])
    stacked = WarmStartJio(n_dim, n_streams, rank, lam=0.98, warmup=warmup, packets=n_pkt)
    alone = [WarmStartJio(n_dim, n_streams, rank, lam=0.98, warmup=warmup)
             for _ in range(n_pkt)]
    for lo, hi in blocks:
        stacked.update(recv[..., lo:hi], desired[..., lo:hi])
        for i, bank in enumerate(alone):
            bank.update(recv[i:i + 1, :, lo:hi], desired[i:i + 1, :, lo:hi])
    assert stacked.weights.shape == (n_pkt, n_dim, n_streams)
    for name in ("basis", "w_bar", "p_bar", "p_full", "weights"):
        for i, bank in enumerate(alone):
            assert same_bytes(getattr(stacked.jio, name)[i], getattr(bank.jio, name)[0]), \
                (name, i)


def test_stacked_jio_packet_at_rest_keeps_its_basis(rng):
    # a packet whose short filters never move keeps its basis bit for bit,
    # signed zeros included, while the other packets' bases move
    recv, desired = _packet_blocks(rng, 2, 6, 2, 20)
    desired[1] = 0.0
    stacked = m.JioFilterBank(6, 2, rank=2, lam=0.99, packets=2)
    stacked.basis[1] *= -1.0
    alone = m.JioFilterBank(6, 2, rank=2, lam=0.99)
    alone.basis *= -1.0
    stacked.update(recv, desired)
    alone.update(recv[1:], desired[1:])
    assert same_bytes(stacked.basis[1], alone.basis[0])
    assert np.signbit(stacked.basis[1].real).all()  # -1 and the negated zeros
    assert not np.array_equal(stacked.basis[0], np.eye(6, 2))


@pytest.mark.parametrize("method,rank", [("pc", 3), ("krylov", 3), ("krylov", 6)])
def test_stacked_reduced_rank_bank_equals_independent_banks(rng, method, rank):
    recv, desired = _packet_blocks(rng, 3, 6, 2, 40)
    stacked = m.ReducedRankFilterBank(6, 2, method, rank, lam=0.97, packets=3)
    for lo, hi in ((0, 25), (25, 40)):
        stacked.update(recv[..., lo:hi], desired[..., lo:hi])
    for i in range(3):
        alone = m.ReducedRankFilterBank(6, 2, method, rank, lam=0.97)
        for lo, hi in ((0, 25), (25, 40)):
            alone.update(recv[i:i + 1, :, lo:hi], desired[i:i + 1, :, lo:hi])
        for name in ("corr", "cross", "weights"):
            assert same_bytes(getattr(stacked, name)[i], getattr(alone, name)[0]), name


def test_jio_hand_off_keeps_the_pooled_krylov_filter(rng):
    recv, desired = training_block(rng, 4, 2, 5)
    warm = WarmStartJio(4, 2, rank=2, lam=0.98, warmup=5)
    warm.update(recv[None], desired[None])
    pooled = m.ReducedRankFilterBank(4, 2, "krylov", rank=2, lam=0.98)
    pooled.update(recv[None], desired[None])
    np.testing.assert_allclose(warm.jio.weights, pooled.weights, atol=1e-10)
    np.testing.assert_allclose(warm.jio.p_full, np.linalg.inv(pooled.corr), rtol=1e-10)


def test_reduced_rank_bank_matches_manual_solve(rng):
    recv, desired = training_block(rng, 6, 2, 80)
    for method in ("pc", "krylov"):
        bank = m.ReducedRankFilterBank(6, 2, method, rank=3, lam=0.97)
        bank.update(recv[None], desired[None])
        (got,), (corr,), (cross,) = bank.weights, bank.corr, bank.cross
        for k in range(2):
            if method == "pc":
                t_mat = m.build_projection("pc", corr, rank=3)
            else:
                t_mat = m.build_projection("krylov", corr, cross[:, k], 3)
            ref = t_mat @ np.linalg.solve(t_mat.conj().T @ corr @ t_mat,
                                          t_mat.conj().T @ cross[:, k])
            np.testing.assert_allclose(got[:, k], ref, atol=1e-10)


def test_reduced_rank_bank_is_zero_before_training():
    bank = m.ReducedRankFilterBank(5, 2, "krylov", rank=2)
    np.testing.assert_array_equal(bank.weights, np.zeros((1, 5, 2)))


def test_estimator_parameter_validation():
    with pytest.raises(ParameterError):
        m.ReducedRankFilterBank(4, 2, "svd")


def test_default_delta_is_small():
    # the recursive initialisation bias must stay below the batch-LS
    # equivalence tolerance used across the package
    assert DEFAULT_DELTA <= 1e-6
