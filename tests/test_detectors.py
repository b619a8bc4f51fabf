"""Detector tests: filter algebra, orderings, SIC family, ML oracle.

The detectors take the matched-filter statistic ``(A, y) = (G^H G, G^H r)``
(``matched`` in conftest); the oracles here work in the N_A-dimensional
antenna domain from ``G`` and ``r``.
"""

import functools
import itertools

import numpy as np
import pytest

import mumimo as m
from conftest import (_draw_trial_channel, antenna_domain_receive_block, matched,
                      random_channel, same_bytes)
from mumimo import detectors, harness
from mumimo.detectors import ORDERING_CRITERIA
from mumimo.errors import (CapacityError, ParameterError, SingularMatrixError,
                           StructuralError)
from mumimo.txchain import qpsk_slice_labels


def brute_force_ml(chan, r, constellation):
    """Independent exhaustive search in plain Python loops."""
    n_streams = chan.shape[1]
    best_labels, best_dist = None, np.inf
    for labels in itertools.product(range(len(constellation)), repeat=n_streams):
        s = np.array([constellation[l] for l in labels])
        dist = np.sum(np.abs(r - chan @ s) ** 2)
        if dist < best_dist - 1e-15:
            best_dist = dist
            best_labels = labels
    return np.array(best_labels), best_dist


def reference_filter_bank(chan, symbol_power, noise_var, design):
    """The (N_A, M) linear filter bank ``W = G P`` (rmf: ``W = G``)."""
    inv = m.compute_receive_filter(chan.conj().T @ chan, symbol_power, noise_var, design)
    return chan if inv is None else chan @ inv


def reference_sic_detect(chan, r, ordering, filter_design="mmse", symbol_power=1.0,
                         noise_var=1.0):
    """SIC that re-derives the deflated filter at every stage: the filter of
    the not-yet-detected columns, applied to the N_A-dimensional residual.
    A named ``ordering`` is read from the filter-bank keys."""
    chan = np.asarray(chan, dtype=complex)
    m_streams = chan.shape[1]
    if isinstance(ordering, str):
        ordering = reference_ordering(chan, symbol_power, noise_var, ordering)
    perm = np.asarray(ordering, dtype=np.int64)
    if sorted(perm.tolist()) != list(range(m_streams)):
        raise StructuralError(f"ordering {perm} is not a permutation")
    constellation = m.qpsk_constellation(symbol_power)
    labels = np.empty((m_streams, r.shape[1]), dtype=np.int64)
    residual = np.array(r, dtype=complex)
    for stage in range(m_streams):
        remaining = perm[stage:]
        w = reference_filter_bank(chan[:, remaining], symbol_power, noise_var,
                                  filter_design)[:, 0]
        lab = qpsk_slice_labels(w.conj() @ residual)
        labels[perm[stage]] = lab
        residual -= np.outer(chan[:, perm[stage]], constellation[lab])
    return labels


def reference_sinr_keys(chan, symbol_power, noise_var):
    """One-shot output SINR of each stream under the (N_A, M) MMSE filter
    bank: the filters' responses to every column, and their noise gains."""
    w = reference_filter_bank(chan, symbol_power, noise_var, "mmse")
    cross = w.conj().T @ chan  # (M, M): row j = responses of filter j
    sig = np.abs(np.diagonal(cross)) ** 2
    interf = np.sum(np.abs(cross) ** 2, axis=1) - sig
    noise = noise_var * np.sum(np.abs(w) ** 2, axis=0)
    return symbol_power * sig / (symbol_power * interf + noise)


def reference_ordering(chan, symbol_power, noise_var, criterion):
    """``compute_ordering`` from the columns of G: their energies, or the
    sinr keys of the filter bank."""
    if criterion == "sinr":
        keys = reference_sinr_keys(chan, symbol_power, noise_var)
    else:
        keys = np.sum(np.abs(chan) ** 2, axis=0)
    return np.argsort(-keys, kind="stable")


def reference_deflating_sic_labels(gram, inv, matched, perm, constellation):
    """SIC stages in the matched domain that deflate ``y``: each decided
    stream's Gram column times its decisions is subtracted from the rest."""
    gram = gram[np.ix_(perm, perm)]
    p = None if inv is None else inv[np.ix_(perm, perm)]
    y = matched[perm]
    labels = np.empty(matched.shape, dtype=np.int64)
    for stage in range(len(perm)):
        lab = qpsk_slice_labels(y[stage] if p is None else p[0] @ y[stage:])
        labels[perm[stage]] = lab
        y[stage + 1:] -= np.outer(gram[stage + 1:, stage], constellation[lab])
        if p is not None:
            p = p[1:, 1:] - np.outer(p[1:, 0], p[0, 1:]) / p[0, 0]
    return labels


def reference_mb_sic_detect(chan, r, n_branches=4, filter_design="mmse",
                            symbol_power=1.0, noise_var=1.0, base_criterion="norm"):
    """Multi-branch SIC that runs ``reference_sic_detect`` in every branch and
    picks, per vector, the branch of least ``||r - G s_l||^2``.  Returns the
    labels, every branch's symbols (L, M, T) and their squared distances."""
    base = reference_ordering(chan, symbol_power, noise_var, base_criterion)
    branches = np.array([reference_sic_detect(chan, r, np.roll(base, -shift),
                                              filter_design, symbol_power, noise_var)
                         for shift in range(n_branches)])
    symbols = m.qpsk_constellation(symbol_power)[branches]
    dists = np.array([np.sum(np.abs(r - chan @ s) ** 2, axis=0) for s in symbols])
    selected = np.argmin(dists, axis=0)
    return branches[selected, :, np.arange(r.shape[1])].T, symbols, dists


def distance_rounding_bound(chan, r, symbols):
    """Largest rounding difference, per column, between ``||r - G s||^2``
    formed in the antenna domain and ``||r||^2 + s^H A s - 2 Re(s^H y)``.

    Every product and partial sum of either form is bounded in magnitude by
    ``S = sum_i (|r_i| + sum_k |g_ik| |s_k|)^2``, and the longest inner
    products run over N_A antennas or M streams, so each form lies within
    about ``(N_A + M) eps S`` of the exact value; the factor 8 covers the
    complex products and the handful of sums that combine the terms.
    """
    n_rx, n_streams = chan.shape
    scale = np.sum((np.abs(r) + np.abs(chan) @ np.abs(symbols)) ** 2, axis=0)
    return 8.0 * (n_rx + n_streams) * np.finfo(float).eps * scale


def test_rmf_filter_is_channel(rng):
    # the rmf bank is G itself: no inverse, and its outputs are y
    gram, y = matched(random_channel(rng, 6, 3), random_channel(rng, 6, 5))
    assert m.compute_receive_filter(gram, 1.0, 0.5, "rmf") is None
    assert same_bytes(m.linear_detect(None, y), qpsk_slice_labels(y))


def test_zf_filter_inverts_channel(rng):
    gram, _ = matched(random_channel(rng, 8, 4), np.zeros((8, 1)))
    inv = m.compute_receive_filter(gram, 1.0, 0.5, "zf")
    # the filters' responses W^H G are P^H A
    np.testing.assert_allclose(inv.conj().T @ gram, np.eye(4), atol=1e-10)


def test_zf_rejects_rank_deficient():
    gram, _ = matched(np.ones((4, 2), dtype=complex), np.zeros((4, 1)))  # duplicate columns
    with pytest.raises(SingularMatrixError):
        m.compute_receive_filter(gram, 1.0, 0.5, "zf")


@pytest.mark.parametrize("n_streams", [2, 8])
def test_zf_rank_threshold_on_the_gram_matrix(n_streams):
    # A = diag(1, ..., 1, lam): full rank while lam exceeds M eps, numpy's
    # matrix_rank tolerance on A; for G that is a condition number of
    # 1 / sqrt(lam), so the test on A squares G's condition number
    tol = n_streams * np.finfo(float).eps
    for factor, singular in ((10.0, False), (0.1, True)):
        col = np.ones(n_streams)
        col[-1] = np.sqrt(factor * tol)
        chan = np.vstack([np.diag(col), np.zeros((3, n_streams))]).astype(complex)
        gram, _ = matched(chan, np.zeros((n_streams + 3, 1)))
        if singular:
            with pytest.raises(SingularMatrixError):
                m.compute_receive_filter(gram, 1.0, 0.5, "zf")
        else:
            inv = m.compute_receive_filter(gram, 1.0, 0.5, "zf")
            assert inv[-1, -1] == pytest.approx(1.0 / (factor * tol), rel=1e-6)


def test_mmse_scalar_hand_value():
    gram = np.array([[1.0 + 0j]])
    inv = m.compute_receive_filter(gram, 1.0, 0.5, "mmse")
    assert inv[0, 0] == pytest.approx(2.0 / 3.0)


def test_mmse_regularizer_uses_power_ratio():
    gram = np.array([[1.0 + 0j]])
    # w = 1 / (1 + noise/power); power 2, noise 1 -> 2/3 again
    inv = m.compute_receive_filter(gram, 2.0, 1.0, "mmse")
    assert inv[0, 0] == pytest.approx(2.0 / 3.0)


def test_linear_detect_noiseless_zf_recovers(rng):
    chan = random_channel(rng, 8, 3)
    const = m.qpsk_constellation()
    labels = rng.integers(0, 4, size=(3, 50))
    gram, y = matched(chan, chan @ const[labels])
    inv = m.compute_receive_filter(gram, 1.0, 1.0, "zf")
    np.testing.assert_array_equal(m.linear_detect(inv, y), labels)


def test_norm_ordering_hand_case():
    chan = np.array([[1.0, 3.0, 2.0],
                     [0.0, 0.0, 0.0]], dtype=complex)
    gram, _ = matched(chan, np.zeros((2, 1)))
    order = m.compute_ordering(gram, 1.0, 1.0, "norm")
    np.testing.assert_array_equal(order, [1, 2, 0])


def test_ordering_ties_break_by_index():
    gram = np.eye(4, dtype=complex)  # all columns identical norm
    for crit in ("norm", "snr", "sinr"):
        order = m.compute_ordering(gram, 1.0, 1.0, crit)
        np.testing.assert_array_equal(order, [0, 1, 2, 3])


def test_snr_ordering_matches_norm_ordering(rng):
    gram, _ = matched(random_channel(rng, 8, 5), np.zeros((8, 1)))
    a = m.compute_ordering(gram, 2.0, 0.3, "norm")
    b = m.compute_ordering(gram, 2.0, 0.3, "snr")
    np.testing.assert_array_equal(a, b)


def test_sinr_ordering_prefers_clean_stream():
    # stream 0 orthogonal to the rest, streams 1/2 interfere heavily
    chan = np.array([[2.0, 0.0, 0.0],
                     [0.0, 2.0, 1.9],
                     [0.0, 1.9, 2.0],
                     [0.0, 0.0, 0.0]], dtype=complex)
    gram, _ = matched(chan, np.zeros((4, 1)))
    order = m.compute_ordering(gram, 1.0, 0.1, "sinr")
    assert order[0] == 0


ORDERING_SYSTEMS = {
    "cas-8x16": m.SystemConfig(n_users=8, n_bs=16),
    "das-8x16": m.SystemConfig(n_users=8, n_bs=8, n_heads=4, antennas_per_head=2),
    "cas-32x128": m.SystemConfig(n_users=32, n_bs=128),
    "das-32x128": m.SystemConfig(n_users=32, n_bs=64, n_heads=8, antennas_per_head=8),
    "cas-64x256": m.SystemConfig(n_users=64, n_bs=256),
    "das-64x256": m.SystemConfig(n_users=64, n_bs=128, n_heads=8, antennas_per_head=16),
}


@pytest.mark.parametrize("system", ORDERING_SYSTEMS)
def test_sinr_ordering_equals_filter_bank_keys(system):
    # the matched-domain keys order the streams as the (N_A, M) bank's do
    cfg = ORDERING_SYSTEMS[system]
    spec = m.ScenarioSpec(system=cfg, snr_db=(0.0,)).validate()
    for snr_db in (0.0, 15.0):
        nv = harness.trial_noise_variance(spec, snr_db)
        for draw in range(4):
            chan = _draw_trial_channel(cfg, 11, 0, draw)
            gram, _ = matched(chan, np.zeros((chan.shape[0], 1)))
            for criterion in ORDERING_CRITERIA:
                ref = reference_ordering(chan, cfg.symbol_power, nv, criterion)
                got = m.compute_ordering(gram, cfg.symbol_power, nv, criterion)
                assert np.array_equal(got, ref), (snr_db, draw, criterion)


def test_sic_noiseless_recovery(rng):
    chan = random_channel(rng, 8, 4)
    const = m.qpsk_constellation()
    labels = rng.integers(0, 4, size=(4, 40))
    gram, y = matched(chan, chan @ const[labels])
    order = m.compute_ordering(gram, 1.0, 1e-6, "norm")
    np.testing.assert_array_equal(m.sic_detect(gram, y, order, "zf", 1.0, 1e-6), labels)


def test_sic_cancels_strong_interferer():
    # stream 1 is 10x stronger and nearly collinear with stream 0; the
    # matched-filter stage only succeeds after stream 1 is removed
    chan = np.array([[1.0, 10.0],
                     [0.2, 2.2]], dtype=complex)
    const = m.qpsk_constellation()
    labels = np.array([[2], [1]])
    gram, y = matched(chan, chan @ const[labels])
    out = m.sic_detect(gram, y, np.array([1, 0]), "rmf", 1.0, 1e-9)
    np.testing.assert_array_equal(out, labels)


def test_mb_sic_never_worse_than_first_branch(rng):
    const = m.qpsk_constellation()
    chan = random_channel(rng, 6, 4)
    labels = rng.integers(0, 4, size=(4, 64))
    noise = 0.5 * (rng.standard_normal((6, 64)) + 1j * rng.standard_normal((6, 64)))
    r = chan @ const[labels] + noise
    gram, y = matched(chan, r)
    order = m.compute_ordering(gram, 1.0, 0.5, "norm")
    sic = const[m.sic_detect(gram, y, order, "mmse", 1.0, 0.5)]
    mb = const[m.mb_sic_detect(gram, y, 4, "mmse", 1.0, 0.5, "norm")]
    d_sic = np.sum(np.abs(r - chan @ sic) ** 2, axis=0)
    d_mb = np.sum(np.abs(r - chan @ mb) ** 2, axis=0)
    assert np.all(d_mb <= d_sic + 1e-12)


def test_mb_sic_branch_orderings_are_circular_shifts(rng):
    # branch l is SIC under the base order shifted left by l; per vector
    # the branch of least s^H A s - 2 Re(s^H y) wins
    chan = random_channel(rng, 6, 4)
    gram, y = matched(chan, random_channel(rng, 6, 40))
    const = m.qpsk_constellation()
    base = m.compute_ordering(gram, 1.0, 1.0, "norm")
    branches = np.array([m.sic_detect(gram, y, np.roll(base, -shift), "mmse", 1.0, 1.0)
                         for shift in range(3)])
    dists = np.array([np.einsum('mt,mt->t', const[b].conj(), gram @ const[b] - 2 * y).real
                      for b in branches])
    expected = branches[np.argmin(dists, axis=0), :, np.arange(40)].T
    got = m.mb_sic_detect(gram, y, 3, "mmse", 1.0, 1.0, "norm")
    assert same_bytes(got, expected)
    assert not np.array_equal(got, branches[0])  # the shifted branches win somewhere


def test_df_noiseless_zf_equals_linear(rng):
    chan = random_channel(rng, 8, 4)
    const = m.qpsk_constellation()
    labels = rng.integers(0, 4, size=(4, 30))
    gram, y = matched(chan, chan @ const[labels])
    for mode in ("s-df", "p-df"):
        out = m.df_detect(gram, y, mode, "zf", 1.0, 1e-9)
        np.testing.assert_array_equal(out, labels)


def test_df_feedback_fixes_interference():
    # stream 1 leaks into stream 0 with gain > 1: the RMF first pass gets
    # stream 0 wrong, and feeding back the (correct) stream-1 decision
    # flips it back
    chan = np.array([[1.0, 1.5],
                     [0.0, 1.0]], dtype=complex)
    const = m.qpsk_constellation()
    labels = np.array([[3], [0]])
    gram, y = matched(chan, chan @ const[labels])
    first = m.linear_detect(m.compute_receive_filter(gram, 1.0, 1e-9, "rmf"), y)
    assert not np.array_equal(first, labels)  # plain RMF fails
    out = m.df_detect(gram, y, "p-df", "rmf", 1.0, 1e-9)
    np.testing.assert_array_equal(out, labels)


def test_df_rejects_unknown_mode(rng):
    gram, y = matched(random_channel(rng, 4, 2), np.zeros((4, 1)))
    with pytest.raises(ParameterError):
        m.df_detect(gram, y, "x-df")


def test_ml_oracle_matches_independent_enumeration(rng):
    const = m.qpsk_constellation()
    chan = random_channel(rng, 4, 3)
    labels = rng.integers(0, 4, size=(3, 30))
    noise = 0.8 * (rng.standard_normal((4, 30)) + 1j * rng.standard_normal((4, 30)))
    r = chan @ const[labels] + noise
    out = m.ml_detect_oracle(*matched(chan, r))
    for t in range(30):
        ref, _ = brute_force_ml(chan, r[:, t], const)
        np.testing.assert_array_equal(out[:, t], ref)


def test_ml_decides_against_the_points_of_its_symbol_power(rng):
    # ML depends on the amplitude of the points: at symbol power 2 it must
    # decide against a (+/-1 +/- j), not the unit-power points
    const = m.qpsk_constellation(2.0)
    chan = random_channel(rng, 4, 3)
    labels = rng.integers(0, 4, size=(3, 60))
    noise = 1.2 * (rng.standard_normal((4, 60)) + 1j * rng.standard_normal((4, 60)))
    r = chan @ const[labels] + noise
    out = m.ml_detect_oracle(*matched(chan, r), symbol_power=2.0)
    ref = np.array([brute_force_ml(chan, r[:, t], const)[0] for t in range(60)]).T
    np.testing.assert_array_equal(out, ref)
    unit = np.array([brute_force_ml(chan, r[:, t], m.qpsk_constellation())[0]
                     for t in range(60)]).T
    assert not np.array_equal(unit, ref)  # the amplitude matters for these draws


def test_ml_distance_no_worse_than_mmse(rng):
    const = m.qpsk_constellation()
    chan = random_channel(rng, 6, 4)
    labels = rng.integers(0, 4, size=(4, 50))
    noise = 1.0 * (rng.standard_normal((6, 50)) + 1j * rng.standard_normal((6, 50)))
    r = chan @ const[labels] + noise
    gram, y = matched(chan, r)
    ml = const[m.ml_detect_oracle(gram, y)]
    lin = const[m.linear_detect(m.compute_receive_filter(gram, 1.0, 1.0, "mmse"), y)]
    d_ml = np.sum(np.abs(r - chan @ ml) ** 2, axis=0)
    d_lin = np.sum(np.abs(r - chan @ lin) ** 2, axis=0)
    assert np.all(d_ml <= d_lin + 1e-12)


def test_ml_candidate_guard():
    with pytest.raises(CapacityError):
        m.ml_detect_oracle(*matched(np.zeros((12, 11)), np.zeros((12, 1))))


def test_detectors_agree_in_easy_conditions(rng):
    # with near-orthogonal strong columns and tiny noise, every detector
    # must return the transmitted labels
    const = m.qpsk_constellation()
    chan = 10.0 * np.linalg.qr(random_channel(rng, 8, 4))[0][:, :4]
    labels = rng.integers(0, 4, size=(4, 20))
    r = chan @ const[labels] + 1e-3 * (rng.standard_normal((8, 20))
                                       + 1j * rng.standard_normal((8, 20)))
    gram, y = matched(chan, r)
    nv = 1e-6
    outputs = [
        m.linear_detect(m.compute_receive_filter(gram, 1.0, nv, "mmse"), y),
        m.linear_detect(m.compute_receive_filter(gram, 1.0, nv, "zf"), y),
        m.sic_detect(gram, y, m.compute_ordering(gram, 1.0, nv, "norm"), "mmse", 1.0, nv),
        m.mb_sic_detect(gram, y, 4, "mmse", 1.0, nv, "norm"),
        m.df_detect(gram, y, "s-df", "mmse", 1.0, nv),
        m.df_detect(gram, y, "p-df", "mmse", 1.0, nv),
        m.ml_detect_oracle(gram, y),
    ]
    for out in outputs:
        np.testing.assert_array_equal(out, labels)


@pytest.mark.parametrize("detect", [
    lambda gram, y: m.linear_detect(m.compute_receive_filter(gram, 1.0, 0.5, "mmse"), y),
    lambda gram, y: m.sic_detect(gram, y, "norm"),
    lambda gram, y: m.mb_sic_detect(gram, y, 2),
    lambda gram, y: m.df_detect(gram, y),
    lambda gram, y: m.ml_detect_oracle(gram, y),
], ids=["linear", "sic", "mb-sic", "df", "ml"])
def test_detectors_reject_antenna_domain_data(rng, detect):
    chan = random_channel(rng, 6, 3)
    r = random_channel(rng, 6, 10)
    gram, y = matched(chan, r)
    for bad in (r, y[:, 0], y[:2]):  # N_A rows, one vector, too few streams
        with pytest.raises((StructuralError, ValueError)):
            detect(gram, bad)
    with pytest.raises(StructuralError):
        detect(chan, y)  # the channel in place of its Gram matrix


# -- stacks of blocks ---------------------------------------------------------

def _stacked_block(rng, lead, n_rx, n_streams, n_sym, noise_var):
    """``(A, y)`` stacks with the leading axes ``lead`` of noisy QPSK blocks."""
    chans = random_channel(rng, int(np.prod(lead)) * n_rx, n_streams).reshape(
        lead + (n_rx, n_streams))
    labels = rng.integers(0, 4, size=lead + (n_streams, n_sym))
    noise = random_channel(rng, int(np.prod(lead)) * n_rx, n_sym).reshape(
        lead + (n_rx, n_sym))
    r = chans @ m.qpsk_constellation()[labels] + np.sqrt(noise_var) * noise
    adjoint = np.swapaxes(chans.conj(), -1, -2)
    return adjoint @ chans, adjoint @ r


STACKED_DETECTORS = {
    "zf-filter": lambda a, y, nv: m.compute_receive_filter(a, 1.0, nv, "zf"),
    "mmse-filter": lambda a, y, nv: m.compute_receive_filter(a, 1.0, nv, "mmse"),
    **{f"linear-{d}": lambda a, y, nv, d=d: m.linear_detect(
        m.compute_receive_filter(a, 1.0, nv, d), y) for d in ("rmf", "zf", "mmse")},
    **{f"ordering-{c}": lambda a, y, nv, c=c: m.compute_ordering(a, 1.0, nv, c)
       for c in ORDERING_CRITERIA},
    **{f"sic-{d}-{c}": lambda a, y, nv, d=d, c=c: m.sic_detect(a, y, c, d, 1.0, nv)
       for d in ("rmf", "zf", "mmse") for c in ORDERING_CRITERIA},
    "sic-permutation": lambda a, y, nv: m.sic_detect(a, y, [2, 0, 3, 1], "mmse", 1.0, nv),
    **{f"mb-sic-{d}-{c}": lambda a, y, nv, d=d, c=c: m.mb_sic_detect(a, y, 3, d, 1.0, nv, c)
       for d in ("rmf", "zf", "mmse") for c in ORDERING_CRITERIA},
    **{f"{mode}-{d}": lambda a, y, nv, mode=mode, d=d: m.df_detect(a, y, mode, d, 1.0, nv)
       for mode in ("s-df", "p-df") for d in ("rmf", "zf", "mmse")},
    "ml": lambda a, y, nv: m.ml_detect_oracle(a, y, chunk=16),
}


@pytest.mark.parametrize("detect", STACKED_DETECTORS.values(), ids=STACKED_DETECTORS)
@pytest.mark.parametrize("lead", [(1,), (3,), (2, 3)], ids=["1", "3", "2x3"])
def test_stacked_call_gives_each_item_its_own_labels(rng, detect, lead):
    # a detector takes any leading axes and decides every item byte for
    # byte as the item's own 2-D call does
    nv = 0.3
    gram, y = _stacked_block(rng, lead, 6, 4, 40, nv)
    stacked = detect(gram, y, nv)
    assert stacked.shape[:len(lead)] == lead
    for item in np.ndindex(lead):
        assert same_bytes(stacked[item], detect(gram[item], y[item], nv)), item


def test_stacked_sic_takes_an_order_per_item(rng):
    gram, y = _stacked_block(rng, (3,), 6, 4, 30, 0.3)
    perms = np.array([[0, 1, 2, 3], [3, 1, 0, 2], [2, 3, 1, 0]])
    stacked = m.sic_detect(gram, y, perms, "mmse", 1.0, 0.3)
    for i, perm in enumerate(perms):
        assert same_bytes(stacked[i], m.sic_detect(gram[i], y[i], perm, "mmse", 1.0, 0.3))
    with pytest.raises(StructuralError):
        m.sic_detect(gram, y, perms[:, :3], "mmse", 1.0, 0.3)
    with pytest.raises(StructuralError):
        m.sic_detect(gram, y, np.array([[0, 1, 2, 3], [3, 1, 1, 2], [2, 3, 1, 0]]))
    with pytest.raises(StructuralError):  # the leading axes differ
        m.linear_detect(m.compute_receive_filter(gram, 1.0, 0.3, "mmse"), y[:2])
    with pytest.raises(StructuralError):
        m.df_detect(gram, y[0])


@pytest.mark.parametrize("n_rx, n_streams", [(6, 4), (16, 8), (128, 32)])
def test_numpy_stacked_detector_operations_equal_per_item_operations(rng, n_rx, n_streams):
    # the stacked detectors rely on numpy computing each item of a stacked
    # inv, cholesky, leading-axis product and einsum reduction as that item
    # alone; a numpy or BLAS that rounds otherwise fails here, not as a
    # moved CSV
    n_pkt, n_branches, n_sym = 3, 3, 50
    gram, y = _stacked_block(rng, (n_pkt,), n_rx, n_streams, n_sym, 0.3)
    reg = gram + 0.3 * np.eye(n_streams)
    inv = np.linalg.inv(reg)
    symbols = random_channel(rng, n_branches * n_pkt * n_streams, n_sym).reshape(
        n_branches, n_pkt, n_streams, n_sym)
    cand = random_channel(rng, n_streams, 64)
    k = n_streams // 2

    def ops(gram, y, reg, inv, symbols):
        adjoint = np.swapaxes(inv.conj(), -1, -2)
        chol = np.linalg.cholesky(inv)
        return {
            "inv": np.linalg.inv(reg),
            "cholesky": chol,
            "P^H y": adjoint @ y,
            "P A": inv @ gram,
            "diag(L) L^H": (np.diagonal(chol, axis1=-2, axis2=-1).real[..., None]
                            * np.swapaxes(chol.conj(), -1, -2)),
            "row stage": (gram[..., k:k + 1, :k] @ y[..., :k, :])[..., 0, :],
            "A s (branches)": gram @ symbols,
            "A c": gram @ cand,
            "c^H y": cand.conj().T @ y,
            "sinr noise": np.einsum('...ij,...ji->...i', inv @ gram, inv).real,
            "branch distance": np.einsum('...mt,...mt->...t', symbols,
                                         (gram @ symbols - 2.0 * y).conj()).real,
            "candidate energy": np.einsum('...mc,...mc->...c', cand.conj(), gram @ cand).real,
        }

    stacked = ops(gram, y, reg, inv, symbols)
    for i in range(n_pkt):
        alone = ops(gram[i], y[i], reg[i], inv[i], symbols[:, i])
        for name, value in alone.items():
            item = stacked[name][:, i] if name in ("A s (branches)", "branch distance") \
                else stacked[name][i]
            assert same_bytes(item, value), (name, i)
        for b in range(n_branches):
            assert same_bytes(stacked["A s (branches)"][b, i], gram[i] @ symbols[b, i])
            # the real part of s conj(v) rounds as that of conj(s) v
            assert same_bytes(stacked["branch distance"][b, i], np.einsum(
                'mt,mt->t', symbols[b, i].conj(), gram[i] @ symbols[b, i] - 2.0 * y[i]).real)
            assert same_bytes(stacked["branch distance"][b, i],
                              detectors._branch_distance(gram[i], y[i], symbols[b, i]))
        # a 2-D row-vector product is the (1, k) product of its stack
        assert same_bytes(stacked["row stage"][i], gram[i, k, :k] @ y[i, :k])


# -- SIC by inverse downdate against the per-stage re-inversion ---------------

SIC_SYSTEMS = {
    "cas-8x16": m.SystemConfig(n_users=8, n_bs=16),
    "square-8x8": m.SystemConfig(n_users=8, n_bs=8),
    "das-8x8x1": m.SystemConfig(n_users=8, n_bs=8, n_heads=8, antennas_per_head=1),
    "cas-32x128": m.SystemConfig(n_users=32, n_bs=128),
    "cas-64x256": m.SystemConfig(n_users=64, n_bs=256),
}
# channel draws per system and SNR; the largest is the slowest to check
SIC_DRAWS = {"cas-64x256": 2}


def sic_trials(cfg, snr_db, n_draws=3, n_sym=200):
    """(chan, noisy block, noise_var) per channel draw, as a sweep at
    ``snr_db`` would see them."""
    spec = m.ScenarioSpec(system=cfg, snr_db=(snr_db,)).validate()
    noise_var = harness.trial_noise_variance(spec, snr_db)
    const = m.qpsk_constellation(cfg.symbol_power)
    rng = np.random.default_rng(2024)
    for draw in range(n_draws):
        chan = _draw_trial_channel(cfg, 5, 0, draw)
        labels = rng.integers(0, 4, size=(cfg.n_streams, n_sym))
        noise = np.sqrt(noise_var / 2.0) * (
            rng.standard_normal((chan.shape[0], n_sym))
            + 1j * rng.standard_normal((chan.shape[0], n_sym)))
        yield chan, chan @ const[labels] + noise, noise_var


@pytest.mark.parametrize("system", SIC_SYSTEMS)
@pytest.mark.parametrize("design", ["zf", "mmse", "rmf"])
def test_sic_decisions_equal_per_stage_reinversion(system, design):
    for snr_db in (0.0, 15.0):
        for chan, r, nv in sic_trials(SIC_SYSTEMS[system], snr_db,
                                      SIC_DRAWS.get(system, 3)):
            gram, y = matched(chan, r)
            for criterion in ("norm", "snr", "sinr"):
                order = m.compute_ordering(gram, 1.0, nv, criterion)
                fast = m.sic_detect(gram, y, order, design, 1.0, nv)
                ref = reference_sic_detect(chan, r, order, design, 1.0, nv)
                assert np.array_equal(fast, ref), (snr_db, criterion)


@pytest.mark.parametrize("system", SIC_SYSTEMS)
@pytest.mark.parametrize("design", ["zf", "mmse", "rmf"])
def test_mb_sic_equals_per_stage_reinversion_in_every_branch(system, design):
    for snr_db in (0.0, 15.0):
        for chan, r, nv in sic_trials(SIC_SYSTEMS[system], snr_db, n_draws=2):
            gram, y = matched(chan, r)
            energy = np.sum(np.abs(r) ** 2, axis=0)
            for criterion in ("norm", "snr", "sinr"):
                args = (4, design, 1.0, nv, criterion)
                fast = m.mb_sic_detect(gram, y, *args)
                ref, symbols, dists = reference_mb_sic_detect(chan, r, *args)
                assert np.array_equal(fast, ref), (snr_db, criterion)
                # the matched-domain distance plus ||r||^2 is ||r - G s||^2
                # up to rounding, in every branch
                for s, dist in zip(symbols, dists):
                    gap = np.abs(detectors._branch_distance(gram, y, s) + energy - dist)
                    assert np.all(gap <= distance_rounding_bound(chan, r, s))


@pytest.mark.parametrize("system", SIC_SYSTEMS)
@pytest.mark.parametrize("design", ["zf", "mmse", "rmf"])
def test_sic_labels_equal_deflating_stages(system, design):
    # cancelling through the decided symbols decides as deflating y does
    perms = np.random.default_rng(7)
    const = m.qpsk_constellation()
    for snr_db in (0.0, 15.0):
        for chan, r, nv in sic_trials(SIC_SYSTEMS[system], snr_db,
                                      SIC_DRAWS.get(system, 3)):
            gram, y = matched(chan, r)
            setup = (gram, m.compute_receive_filter(gram, 1.0, nv, design), y)
            orders = [m.compute_ordering(gram, 1.0, nv, c) for c in ("norm", "sinr")]
            for perm in orders + [perms.permutation(chan.shape[1])]:
                fast = detectors._sic_symbols(*setup, perm, const, design)
                assert np.array_equal(qpsk_slice_labels(fast),
                                      reference_deflating_sic_labels(*setup, perm, const))


def reference_schur_stage_filters(inv):
    """Every SIC stage's filter from the ordered inverse Gram matrix by
    Schur downdates: row k holds ``P_k[0]``, the first row of the inverse of
    the trailing block, and ``P_(k+1)`` is the Schur complement of
    ``P_k[0, 0]``."""
    p, rows = inv, np.zeros(inv.shape, dtype=complex)
    for stage in range(len(inv)):
        rows[stage, stage:] = p[0]
        p = p[1:, 1:] - np.outer(p[1:, 0], p[0, 1:]) / p[0, 0]
    return rows


def reference_schur_sic_labels(gram, inv, matched, perm, constellation):
    """SIC from the undeflated ``y`` with the Schur-downdate stage filters:
    stage k decides ``P_k[0] y[k:] - (P_k[0] A[k:, :k]) x[:k]`` (rmf:
    ``y_k - A[k, :k] x[:k]``)."""
    gram = gram[np.ix_(perm, perm)]
    p = None if inv is None else inv[np.ix_(perm, perm)]
    y = matched[perm]
    decided = np.empty(matched.shape, dtype=complex)
    labels = np.empty(matched.shape, dtype=np.int64)
    for stage in range(len(perm)):
        row = gram[stage, :stage] if p is None else p[0] @ gram[stage:, :stage]
        est = y[stage] if p is None else p[0] @ y[stage:]
        lab = qpsk_slice_labels(est - row @ decided[:stage])
        labels[perm[stage]] = lab
        decided[stage] = constellation[lab]
        if p is not None:
            p = p[1:, 1:] - np.outer(p[1:, 0], p[0, 1:]) / p[0, 0]
    return labels


def schur_rounding_bound(inv):
    """Elementwise bound on how far two backward-stable computations of the
    stage filters of a Hermitian positive definite ``inv`` may lie apart.

    The Cholesky rows are the exact Schur rows of ``P + E1`` and the
    downdate's, Gaussian elimination without pivoting, those of ``P + E2``,
    each with ``|E| <= gamma_(M+1) |L| |L^H|`` for the Cholesky factor L
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002, Thms 9.3
    and 10.3).  To first order the Schur complement ``P22 - X^H P12`` of the
    leading k x k block, with ``X = P11^-1 P12``, moves by ``dP22 - dP21 X -
    X^H dP12 + X^H dP11 X``, so its first row moves by at most
    ``[|X[:, 0]|^T, 1] |dP| [|X|; I]`` over rows ``:k+1`` of ``|dP| <= 2
    gamma_(M+1) |L| |L^H|``.
    """
    n = len(inv)
    chol = np.abs(np.linalg.cholesky(inv))
    gamma = (n + 1) * np.finfo(float).eps / (1.0 - (n + 1) * np.finfo(float).eps)
    moved = 2.0 * gamma * chol @ chol.T
    bound = np.zeros((n, n))
    for k in range(n):
        x = np.abs(np.linalg.solve(inv[:k, :k], inv[:k, k:])) if k else np.zeros((0, n))
        left = np.append(x[:, 0], 1.0)
        right = np.concatenate([x, np.eye(n - k)])
        bound[k, k:] = left @ moved[:k + 1] @ right
    return bound


@pytest.mark.parametrize("system", SIC_SYSTEMS)
@pytest.mark.parametrize("design", ["zf", "mmse"])
def test_stage_filters_equal_schur_downdate(system, design):
    # every stage filter is a row of one Cholesky factor of the ordered
    # inverse; the Schur downdate stage by stage is the oracle, for the
    # filters within the derived bound and for the labels exactly
    perms = np.random.default_rng(11)
    const = m.qpsk_constellation()
    for snr_db in (0.0, 15.0):
        for chan, r, nv in sic_trials(SIC_SYSTEMS[system], snr_db,
                                      SIC_DRAWS.get(system, 3)):
            gram, y = matched(chan, r)
            inv = m.compute_receive_filter(gram, 1.0, nv, design)
            orders = [m.compute_ordering(gram, 1.0, nv, c) for c in ("norm", "sinr")]
            for perm in orders + [perms.permutation(chan.shape[1])]:
                fast = detectors._sic_symbols(gram, inv, y, perm, const, design)
                assert np.array_equal(qpsk_slice_labels(fast),
                                      reference_schur_sic_labels(gram, inv, y, perm, const))
                # both from one Hermitian matrix: inv is Hermitian only to
                # rounding, and the factor reads its lower triangle
                ordered = inv[np.ix_(perm, perm)]
                ordered = 0.5 * (ordered + ordered.conj().T)
                gap = np.abs(detectors._stage_filters(ordered, design)
                             - reference_schur_stage_filters(ordered))
                assert np.all(gap <= schur_rounding_bound(ordered)), (snr_db, perm)


def test_sic_single_vector_equals_oracle(rng):
    chan = random_channel(rng, 6, 3)
    r = chan @ m.qpsk_constellation()[[1, 3, 0]] + 0.3 * random_channel(rng, 6, 1)[:, 0]
    r = r[:, None]  # one received vector is a block of one
    gram, y = matched(chan, r)
    fast = m.sic_detect(gram, y, [2, 0, 1], "mmse", 1.0, 0.1)
    np.testing.assert_array_equal(
        fast, reference_sic_detect(chan, r, [2, 0, 1], "mmse", 1.0, 0.1))
    mb = m.mb_sic_detect(gram, y, 3, "zf", 1.0, 0.1)
    np.testing.assert_array_equal(mb, reference_mb_sic_detect(chan, r, 3, "zf", 1.0, 0.1)[0])


@pytest.mark.parametrize("detector, extra", [
    ("sic", dict(filter_design="zf", ordering="sinr")),
    ("mb-sic", dict(branches=3)),
])
def test_sic_sweep_csv_matches_per_stage_oracle(monkeypatch, detector, extra):
    spec = m.ScenarioSpec(
        system=m.SystemConfig(n_users=4, n_bs=4, n_heads=4, antennas_per_head=1),
        detector=detector, snr_db=(0.0, 6.0, 12.0), packets=3, packet_symbols=200,
        seed=21, **extra).validate()
    # the oracles work from the packet's channel and received block, so
    # both runs draw the data at the antennas; a packet is known by its A
    packets = []
    monkeypatch.setattr(harness, "_receive_block",
                        functools.partial(antenna_domain_receive_block, seen=packets))
    fast = m.run_sweep(spec)
    assert all(row.errors > 0 for row in fast.rows)

    def in_antenna_domain(oracle):
        def detect(grams, ys, *args):
            labels = []
            for gram, y in zip(grams, ys):  # the block's packets
                chan, r = next((chan, r) for chan, r in packets
                               if same_bytes(matched(chan, r)[0], gram))
                assert same_bytes(matched(chan, r)[1], y)
                labels.append(oracle(chan, r, *args))
            return np.stack(labels)
        return detect

    monkeypatch.setattr(harness, "sic_detect", in_antenna_domain(reference_sic_detect))
    monkeypatch.setattr(harness, "mb_sic_detect", in_antenna_domain(
        lambda *args: reference_mb_sic_detect(*args)[0]))
    assert m.format_csv(m.run_sweep(spec)) == m.format_csv(fast)


def counting_inv(monkeypatch):
    calls = []
    inv = np.linalg.inv

    def wrapper(a):
        calls.append(np.shape(a))
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", wrapper)
    return calls


def test_sic_inverts_once_per_block(monkeypatch, rng):
    chan = random_channel(rng, 128, 32)
    r = random_channel(rng, 128, 50)
    gram, y = matched(chan, r)
    order = m.compute_ordering(gram, 1.0, 0.1, "norm")
    calls = counting_inv(monkeypatch)
    reference_sic_detect(chan, r, order, "mmse", 1.0, 0.1)
    assert len(calls) == 32  # the counter sees the per-stage oracle
    calls.clear()
    for design in ("zf", "mmse"):
        m.sic_detect(gram, y, order, design, 1.0, 0.1)
        assert len(calls) <= 1, design
        calls.clear()
    for criterion in ("norm", "sinr"):
        m.mb_sic_detect(gram, y, 4, "mmse", 1.0, 0.1, criterion)
        assert len(calls) <= 1, criterion
        calls.clear()
    # a named sinr order is read from the mmse block's own inverse
    named = m.sic_detect(gram, y, "sinr", "mmse", 1.0, 0.1)
    assert calls == [(32, 32)]
    calls.clear()
    by_perm = m.sic_detect(gram, y, m.compute_ordering(gram, 1.0, 0.1, "sinr"), "mmse",
                           1.0, 0.1)
    assert np.array_equal(named, by_perm)
    calls.clear()
    # the sinr keys come from one M x M inverse, not from the filter bank
    m.compute_ordering(gram, 1.0, 0.1, "sinr")
    assert calls == [(32, 32)]


FACTORIZATIONS = ("inv", "cholesky", "solve", "eig", "eigh", "eigvals", "eigvalsh", "svd",
                  "qr", "lstsq", "pinv", "det", "slogdet", "matrix_rank")


def counting_factorizations(monkeypatch):
    # the name once per matrix factored: a stacked call counts its items
    calls = []

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls.extend([name] * int(np.prod(np.shape(args[0])[:-2])))
            return func(*args, **kwargs)
        return wrapper

    for name in FACTORIZATIONS:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    return calls


@pytest.mark.parametrize("design, check", [("mmse", []), ("zf", ["matrix_rank"])])
def test_sic_factors_once_per_packet(monkeypatch, rng, design, check):
    # one inverse and one Cholesky factor per SIC packet, one factor per
    # MB-SIC branch, whatever M is: a per-stage factorization would count M.
    # A stack of packets factors each of its packets once
    for n_rx, n_streams in ((16, 8), (128, 32)):
        gram, y = matched(random_channel(rng, n_rx, n_streams), random_channel(rng, n_rx, 30))
        calls = counting_factorizations(monkeypatch)
        for ordering in ("norm", "sinr", list(range(n_streams))[::-1]):
            m.sic_detect(gram, y, ordering, design, 1.0, 0.1)
            # zf's sinr keys invert the mmse Gram matrix on their own
            keys = ["inv"] if ordering == "sinr" and design == "zf" else []
            assert sorted(calls) == sorted(check + ["inv"] + keys + ["cholesky"]), ordering
            calls.clear()
        for branches in (1, 4):
            m.mb_sic_detect(gram, y, branches, design, 1.0, 0.1)
            assert sorted(calls) == sorted(check + ["inv"] + ["cholesky"] * branches)
            calls.clear()
        grams, ys = np.stack([gram] * 3), np.stack([y] * 3)
        m.sic_detect(grams, ys, "norm", design, 1.0, 0.1)
        assert sorted(calls) == sorted((check + ["inv", "cholesky"]) * 3)
        calls.clear()
        m.mb_sic_detect(grams, ys, 4, design, 1.0, 0.1)
        assert sorted(calls) == sorted((check + ["inv"] + ["cholesky"] * 4) * 3)
        monkeypatch.undo()


SINGULAR_SIC = {
    # rank one with a noise variance below the roundoff of A: the
    # regularised Gram matrix itself is singular
    "inverse": (np.array([[1, 1], [2, 2]], dtype=complex), 1e-20),
    # three streams on two antennas: the inverse exists, but rounding has
    # left it indefinite, so its Cholesky factor does not
    "factor": (np.array([[1, 2, 3], [2, 4, 6]], dtype=complex), 1e-13),
}


@pytest.mark.parametrize("case", SINGULAR_SIC)
def test_failed_sic_factorization_names_itself(case):
    chan, nv = SINGULAR_SIC[case]
    gram, y = matched(chan, np.ones((2, 3), dtype=complex))
    n_streams = chan.shape[1]
    for detect in (lambda: m.sic_detect(gram, y, "norm", "mmse", 1.0, nv),
                   lambda: m.mb_sic_detect(gram, y, n_streams, "mmse", 1.0, nv)):
        with pytest.raises(SingularMatrixError, match=f"mmse .*M = {n_streams} streams"):
            detect()


def test_failed_sic_factorization_marks_its_point(monkeypatch):
    # through the sweep, the named failure is a marked row, not a traceback
    chan, nv = SINGULAR_SIC["factor"]
    chan = np.vstack([chan, np.zeros(3)])  # a silent third antenna: the same A
    monkeypatch.setattr(harness, "compose_channel",
                        lambda cfg, small, gains: np.repeat(chan[None], len(small), axis=0))
    monkeypatch.setattr(harness, "trial_noise_variance", lambda *args: nv)
    spec = m.ScenarioSpec(system=m.SystemConfig(n_users=3, n_bs=3), detector="sic",
                          snr_db=(4.0, 12.0), packets=2, packet_symbols=20).validate()
    result = m.run_sweep(spec)
    assert all(row.failed for row in result.rows)
    assert result.failures[4.0].startswith("SingularMatrixError: mmse SIC: ")
    assert "M = 3 streams" in result.failures[4.0]


@pytest.mark.parametrize("design", ["rmf", "zf", "mmse"])
def test_sic_named_ordering_equals_its_permutation(rng, design):
    for n_rx, n_streams in ((16, 8), (128, 32)):
        gram, y = matched(random_channel(rng, n_rx, n_streams), random_channel(rng, n_rx, 40))
        for criterion in ORDERING_CRITERIA:
            order = m.compute_ordering(gram, 1.0, 0.2, criterion)
            named = m.sic_detect(gram, y, criterion, design, 1.0, 0.2)
            by_perm = m.sic_detect(gram, y, order, design, 1.0, 0.2)
            assert same_bytes(named, by_perm), criterion
    with pytest.raises(ParameterError):
        m.sic_detect(gram, y, "bogus", design, 1.0, 0.2)


def no_stage(*args):
    raise AssertionError("a SIC stage ran before the inputs were checked")


def test_sic_error_paths_raise_before_any_stage(monkeypatch):
    monkeypatch.setattr(detectors, "qpsk_slice_labels", no_stage)
    r = np.zeros((4, 3), dtype=complex)
    gram, y = matched(np.ones((4, 2), dtype=complex), r)  # duplicate columns
    with pytest.raises(SingularMatrixError):
        m.sic_detect(gram, y, [0, 1], "zf", 1.0, 0.5)
    with pytest.raises(SingularMatrixError):
        m.mb_sic_detect(gram, y, 2, "zf", 1.0, 0.5)
    gram, y = matched(np.eye(4, 2, dtype=complex), r)
    for bad in ([0, 0], [1, 2], [0]):
        with pytest.raises(StructuralError):
            m.sic_detect(gram, y, bad, "mmse", 1.0, 0.5)
    with pytest.raises(ParameterError):
        m.sic_detect(gram, y, [0, 1], "wiener", 1.0, 0.5)
    with pytest.raises(ParameterError):
        m.mb_sic_detect(gram, y, 2, "wiener", 1.0, 0.5)
