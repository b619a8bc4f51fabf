"""Detector tests: filter algebra, orderings, SIC family, ML oracle."""

import itertools

import numpy as np
import pytest

import mumimo as m
from conftest import random_channel
from mumimo.errors import CapacityError, ParameterError, SingularMatrixError


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


def test_rmf_filter_is_channel(rng):
    chan = random_channel(rng, 6, 3)
    filt = m.compute_receive_filter(chan, 1.0, 0.5, "rmf")
    np.testing.assert_array_equal(filt, chan)


def test_zf_filter_inverts_channel(rng):
    chan = random_channel(rng, 8, 4)
    filt = m.compute_receive_filter(chan, 1.0, 0.5, "zf")
    np.testing.assert_allclose(filt.conj().T @ chan, np.eye(4), atol=1e-10)


def test_zf_rejects_rank_deficient():
    chan = np.ones((4, 2), dtype=complex)  # duplicate columns
    with pytest.raises(SingularMatrixError):
        m.compute_receive_filter(chan, 1.0, 0.5, "zf")


def test_mmse_scalar_hand_value():
    chan = np.array([[1.0 + 0j]])
    filt = m.compute_receive_filter(chan, 1.0, 0.5, "mmse")
    assert filt[0, 0] == pytest.approx(2.0 / 3.0)


def test_mmse_regularizer_uses_power_ratio():
    chan = np.array([[1.0 + 0j]])
    # w = 1 / (1 + noise/power); power 2, noise 1 -> 2/3 again
    filt = m.compute_receive_filter(chan, 2.0, 1.0, "mmse")
    assert filt[0, 0] == pytest.approx(2.0 / 3.0)


def test_mmse_requires_positive_noise(rng):
    chan = random_channel(rng, 4, 2)
    with pytest.raises(ParameterError):
        m.compute_receive_filter(chan, 1.0, 0.0, "mmse")


def test_linear_detect_noiseless_zf_recovers(rng):
    chan = random_channel(rng, 8, 3)
    const = m.qpsk_constellation()
    labels = rng.integers(0, 4, size=(3, 50))
    r = chan @ const[labels]
    filt = m.compute_receive_filter(chan, 1.0, 1.0, "zf")
    out = m.linear_detect(filt, r, const)
    np.testing.assert_array_equal(out.labels, labels)
    np.testing.assert_allclose(out.symbols, const[labels])


def test_linear_detect_single_vector_shape(rng):
    chan = random_channel(rng, 6, 3)
    filt = m.compute_receive_filter(chan, 1.0, 1.0, "mmse")
    out = m.linear_detect(filt, np.zeros(6, dtype=complex))
    assert out.labels.shape == (3,)
    assert out.symbols.shape == (3,)


def test_norm_ordering_hand_case():
    chan = np.array([[1.0, 3.0, 2.0],
                     [0.0, 0.0, 0.0]], dtype=complex)
    order = m.compute_ordering(chan, 1.0, 1.0, "norm")
    np.testing.assert_array_equal(order, [1, 2, 0])


def test_ordering_ties_break_by_index():
    chan = np.eye(4, dtype=complex)  # all columns identical norm
    for crit in ("norm", "snr", "sinr"):
        order = m.compute_ordering(chan, 1.0, 1.0, crit)
        np.testing.assert_array_equal(order, [0, 1, 2, 3])


def test_snr_ordering_matches_norm_ordering(rng):
    chan = random_channel(rng, 8, 5)
    a = m.compute_ordering(chan, 2.0, 0.3, "norm")
    b = m.compute_ordering(chan, 2.0, 0.3, "snr")
    np.testing.assert_array_equal(a, b)


def test_sinr_ordering_prefers_clean_stream():
    # stream 0 orthogonal to the rest, streams 1/2 interfere heavily
    chan = np.array([[2.0, 0.0, 0.0],
                     [0.0, 2.0, 1.9],
                     [0.0, 1.9, 2.0],
                     [0.0, 0.0, 0.0]], dtype=complex)
    order = m.compute_ordering(chan, 1.0, 0.1, "sinr")
    assert order[0] == 0


def test_sic_noiseless_recovery(rng):
    chan = random_channel(rng, 8, 4)
    const = m.qpsk_constellation()
    labels = rng.integers(0, 4, size=(4, 40))
    r = chan @ const[labels]
    order = m.compute_ordering(chan, 1.0, 1e-6, "norm")
    out = m.sic_detect(chan, r, order, "zf", 1.0, 1e-6, const)
    np.testing.assert_array_equal(out.labels, labels)


def test_sic_cancels_strong_interferer():
    # stream 1 is 10x stronger and nearly collinear with stream 0; the
    # matched-filter stage only succeeds after stream 1 is removed
    chan = np.array([[1.0, 10.0],
                     [0.2, 2.2]], dtype=complex)
    const = m.qpsk_constellation()
    labels = np.array([[2], [1]])
    r = chan @ const[labels]
    out = m.sic_detect(chan, r, np.array([1, 0]), "rmf", 1.0, 1e-9, const)
    np.testing.assert_array_equal(out.labels, labels)


def test_sic_single_vector_shape(rng):
    chan = random_channel(rng, 6, 3)
    out = m.sic_detect(chan, np.zeros(6, dtype=complex), np.array([0, 1, 2]))
    assert out.labels.shape == (3,)


def test_mb_sic_never_worse_than_first_branch(rng):
    const = m.qpsk_constellation()
    chan = random_channel(rng, 6, 4)
    labels = rng.integers(0, 4, size=(4, 64))
    noise = 0.5 * (rng.standard_normal((6, 64)) + 1j * rng.standard_normal((6, 64)))
    r = chan @ const[labels] + noise
    order = m.compute_ordering(chan, 1.0, 0.5, "norm")
    sic = m.sic_detect(chan, r, order, "mmse", 1.0, 0.5, const)
    mb = m.mb_sic_detect(chan, r, 4, "mmse", 1.0, 0.5, "norm", const)
    d_sic = np.sum(np.abs(r - chan @ sic.symbols) ** 2, axis=0)
    d_mb = np.sum(np.abs(r - chan @ mb.symbols) ** 2, axis=0)
    assert np.all(d_mb <= d_sic + 1e-12)
    assert mb.branch_distances.shape == (4, 64)
    assert mb.selected_branch.shape == (64,)


def test_mb_sic_branch_orderings_are_circular_shifts(rng):
    chan = random_channel(rng, 6, 4)
    r = np.zeros(6, dtype=complex)
    out = m.mb_sic_detect(chan, r, 3, "mmse", 1.0, 1.0, "norm")
    assert out.branch_distances.shape[0] == 3
    # one vector in -> scalar selection
    assert np.isscalar(out.selected_branch) or out.selected_branch.shape == ()


def test_df_noiseless_zf_equals_linear(rng):
    chan = random_channel(rng, 8, 4)
    const = m.qpsk_constellation()
    labels = rng.integers(0, 4, size=(4, 30))
    r = chan @ const[labels]
    for mode in ("s-df", "p-df"):
        out = m.df_detect(chan, r, mode, "zf", 1.0, 1e-9, const)
        np.testing.assert_array_equal(out.labels, labels)


def test_df_feedback_fixes_interference():
    # stream 1 leaks into stream 0 with gain > 1: the RMF first pass gets
    # stream 0 wrong, and feeding back the (correct) stream-1 decision
    # flips it back
    chan = np.array([[1.0, 1.5],
                     [0.0, 1.0]], dtype=complex)
    const = m.qpsk_constellation()
    labels = np.array([[3], [0]])
    r = chan @ const[labels]
    filt = m.compute_receive_filter(chan, 1.0, 1e-9, "rmf")
    first = m.linear_detect(filt, r, const)
    assert not np.array_equal(first.labels, labels)  # plain RMF fails
    out = m.df_detect(chan, r, "p-df", "rmf", 1.0, 1e-9, const)
    np.testing.assert_array_equal(out.labels, labels)


def test_df_rejects_unknown_mode(rng):
    chan = random_channel(rng, 4, 2)
    with pytest.raises(ParameterError):
        m.df_detect(chan, np.zeros(4, dtype=complex), "x-df")


def test_ml_oracle_matches_independent_enumeration(rng):
    const = m.qpsk_constellation()
    chan = random_channel(rng, 4, 3)
    labels = rng.integers(0, 4, size=(3, 30))
    noise = 0.8 * (rng.standard_normal((4, 30)) + 1j * rng.standard_normal((4, 30)))
    r = chan @ const[labels] + noise
    out = m.ml_detect_oracle(chan, r, const)
    for t in range(30):
        ref, _ = brute_force_ml(chan, r[:, t], const)
        np.testing.assert_array_equal(out.labels[:, t], ref)


def test_ml_distance_no_worse_than_mmse(rng):
    const = m.qpsk_constellation()
    chan = random_channel(rng, 6, 4)
    labels = rng.integers(0, 4, size=(4, 50))
    noise = 1.0 * (rng.standard_normal((6, 50)) + 1j * rng.standard_normal((6, 50)))
    r = chan @ const[labels] + noise
    ml = m.ml_detect_oracle(chan, r, const)
    filt = m.compute_receive_filter(chan, 1.0, 1.0, "mmse")
    lin = m.linear_detect(filt, r, const)
    d_ml = np.sum(np.abs(r - chan @ ml.symbols) ** 2, axis=0)
    d_lin = np.sum(np.abs(r - chan @ lin.symbols) ** 2, axis=0)
    assert np.all(d_ml <= d_lin + 1e-12)


def test_ml_candidate_guard():
    chan = np.zeros((12, 11), dtype=complex)
    with pytest.raises(CapacityError):
        m.ml_detect_oracle(chan, np.zeros(12, dtype=complex))


def test_detectors_agree_in_easy_conditions(rng):
    # with near-orthogonal strong columns and tiny noise, every detector
    # must return the transmitted labels
    const = m.qpsk_constellation()
    chan = 10.0 * np.linalg.qr(random_channel(rng, 8, 4))[0][:, :4]
    labels = rng.integers(0, 4, size=(4, 20))
    r = chan @ const[labels] + 1e-3 * (rng.standard_normal((8, 20))
                                       + 1j * rng.standard_normal((8, 20)))
    nv = 1e-6
    outputs = [
        m.linear_detect(m.compute_receive_filter(chan, 1.0, nv, "mmse"), r, const),
        m.linear_detect(m.compute_receive_filter(chan, 1.0, nv, "zf"), r, const),
        m.sic_detect(chan, r, m.compute_ordering(chan, 1.0, nv, "norm"), "mmse", 1.0, nv, const),
        m.mb_sic_detect(chan, r, 4, "mmse", 1.0, nv, "norm", const),
        m.df_detect(chan, r, "s-df", "mmse", 1.0, nv, const),
        m.df_detect(chan, r, "p-df", "mmse", 1.0, nv, const),
        m.ml_detect_oracle(chan, r, const),
    ]
    for out in outputs:
        np.testing.assert_array_equal(out.labels, labels)
