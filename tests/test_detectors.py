"""Detector tests: filter algebra, orderings, SIC family, ML oracle."""

import itertools

import numpy as np
import pytest

import mumimo as m
from conftest import random_channel, same_bytes
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


def reference_sic_detect(chan, r, ordering, filter_design="mmse", symbol_power=1.0,
                         noise_var=1.0, constellation=None):
    """SIC that re-derives the deflated filter at every stage: the filter of
    the not-yet-detected columns, applied to the N_A-dimensional residual.
    A named ``ordering`` is read from the filter-bank keys."""
    chan = np.asarray(chan, dtype=complex)
    block, single = detectors._as_block(r, chan.shape[0])
    m_streams = chan.shape[1]
    if isinstance(ordering, str):
        ordering = reference_ordering(chan, symbol_power, noise_var, ordering)
    perm = np.asarray(ordering, dtype=np.int64)
    if sorted(perm.tolist()) != list(range(m_streams)):
        raise StructuralError(f"ordering {perm} is not a permutation")
    if constellation is None:
        constellation = m.qpsk_constellation(symbol_power)
    labels = np.empty((m_streams, block.shape[1]), dtype=np.int64)
    residual = block.copy()
    for stage in range(m_streams):
        remaining = perm[stage:]
        w = m.compute_receive_filter(chan[:, remaining], symbol_power, noise_var,
                                     filter_design)[:, 0]
        lab = qpsk_slice_labels(w.conj() @ residual)
        labels[perm[stage]] = lab
        residual -= np.outer(chan[:, perm[stage]], constellation[lab])
    symbols = constellation[labels]
    if single:
        labels, symbols = labels[:, 0], symbols[:, 0]
    return m.DetectorOutput(labels=labels, symbols=symbols)


def reference_sinr_keys(chan, symbol_power, noise_var):
    """One-shot output SINR of each stream under the (N_A, M) MMSE filter
    bank: the filters' responses to every column, and their noise gains."""
    w = m.compute_receive_filter(chan, symbol_power, noise_var, "mmse")
    cross = w.conj().T @ chan  # (M, M): row j = responses of filter j
    sig = np.abs(np.diagonal(cross)) ** 2
    interf = np.sum(np.abs(cross) ** 2, axis=1) - sig
    noise = noise_var * np.sum(np.abs(w) ** 2, axis=0)
    return symbol_power * sig / (symbol_power * interf + noise)


def reference_ordering(chan, symbol_power, noise_var, criterion):
    """``compute_ordering`` with the sinr keys of the filter bank."""
    if criterion != "sinr":
        return m.compute_ordering(chan, symbol_power, noise_var, criterion)
    return np.argsort(-reference_sinr_keys(chan, symbol_power, noise_var), kind="stable")


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
                            symbol_power=1.0, noise_var=1.0, base_criterion="norm",
                            constellation=None):
    """Multi-branch SIC that runs ``reference_sic_detect`` in every branch."""
    chan = np.asarray(chan, dtype=complex)
    block, single = detectors._as_block(r, chan.shape[0])
    if constellation is None:
        constellation = m.qpsk_constellation(symbol_power)
    base = reference_ordering(chan, symbol_power, noise_var, base_criterion)
    outs = [reference_sic_detect(chan, block, np.roll(base, -shift), filter_design,
                                 symbol_power, noise_var, constellation)
            for shift in range(n_branches)]
    dists = np.array([np.linalg.norm(block - chan @ out.symbols, axis=0)
                      for out in outs])
    selected = np.argmin(dists, axis=0)
    labels = np.array([out.labels for out in outs])[selected, :,
                                                      np.arange(block.shape[1])].T
    symbols = constellation[labels]
    if single:
        return m.DetectorOutput(labels=labels[:, 0], symbols=symbols[:, 0],
                                branch_distances=dists[:, 0],
                                selected_branch=int(selected[0]))
    return m.DetectorOutput(labels=labels, symbols=symbols,
                            branch_distances=dists, selected_branch=selected)


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
            chan = harness._draw_trial_channel(cfg, 11, 0, draw)
            ref = reference_ordering(chan, cfg.symbol_power, nv, "sinr")
            assert np.array_equal(m.compute_ordering(chan, cfg.symbol_power, nv, "sinr"),
                                  ref), (snr_db, draw)


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
    """(chan, noisy block, noise_var, constellation) per channel draw, as a
    sweep at ``snr_db`` would see them."""
    spec = m.ScenarioSpec(system=cfg, snr_db=(snr_db,)).validate()
    noise_var = harness.trial_noise_variance(spec, snr_db)
    const = m.qpsk_constellation(cfg.symbol_power)
    rng = np.random.default_rng(2024)
    for draw in range(n_draws):
        chan = harness._draw_trial_channel(cfg, 5, 0, draw)
        labels = rng.integers(0, 4, size=(cfg.n_streams, n_sym))
        noise = np.sqrt(noise_var / 2.0) * (
            rng.standard_normal((chan.shape[0], n_sym))
            + 1j * rng.standard_normal((chan.shape[0], n_sym)))
        yield chan, chan @ const[labels] + noise, noise_var, const


@pytest.mark.parametrize("system", SIC_SYSTEMS)
@pytest.mark.parametrize("design", ["zf", "mmse", "rmf"])
def test_sic_decisions_equal_per_stage_reinversion(system, design):
    for snr_db in (0.0, 15.0):
        for chan, r, nv, const in sic_trials(SIC_SYSTEMS[system], snr_db,
                                             SIC_DRAWS.get(system, 3)):
            for criterion in ("norm", "snr", "sinr"):
                order = m.compute_ordering(chan, 1.0, nv, criterion)
                fast = m.sic_detect(chan, r, order, design, 1.0, nv, const)
                ref = reference_sic_detect(chan, r, order, design, 1.0, nv, const)
                assert np.array_equal(fast.labels, ref.labels), (snr_db, criterion)
                assert np.array_equal(fast.symbols, ref.symbols)


@pytest.mark.parametrize("system", SIC_SYSTEMS)
@pytest.mark.parametrize("design", ["zf", "mmse", "rmf"])
def test_mb_sic_equals_per_stage_reinversion_in_every_branch(system, design):
    for snr_db in (0.0, 15.0):
        for chan, r, nv, const in sic_trials(SIC_SYSTEMS[system], snr_db, n_draws=2):
            for criterion in ("norm", "snr", "sinr"):
                args = (4, design, 1.0, nv, criterion, const)
                fast = m.mb_sic_detect(chan, r, *args)
                ref = reference_mb_sic_detect(chan, r, *args)
                assert np.array_equal(fast.labels, ref.labels), (snr_db, criterion)
                assert np.array_equal(fast.branch_distances, ref.branch_distances)
                assert np.array_equal(fast.selected_branch, ref.selected_branch)


@pytest.mark.parametrize("system", SIC_SYSTEMS)
@pytest.mark.parametrize("design", ["zf", "mmse", "rmf"])
def test_sic_labels_equal_deflating_stages(system, design):
    # cancelling through the decided symbols decides as deflating y does
    perms = np.random.default_rng(7)
    for snr_db in (0.0, 15.0):
        for chan, r, nv, const in sic_trials(SIC_SYSTEMS[system], snr_db,
                                             SIC_DRAWS.get(system, 3)):
            setup = detectors._sic_setup(chan, r, design, 1.0, nv)
            orders = [m.compute_ordering(chan, 1.0, nv, c) for c in ("norm", "sinr")]
            for perm in orders + [perms.permutation(chan.shape[1])]:
                assert np.array_equal(detectors._sic_labels(*setup, perm, const),
                                      reference_deflating_sic_labels(*setup, perm, const))


def test_sic_single_vector_equals_oracle(rng):
    chan = random_channel(rng, 6, 3)
    r = chan @ m.qpsk_constellation()[[1, 3, 0]] + 0.3 * random_channel(rng, 6, 1)[:, 0]
    fast = m.sic_detect(chan, r, [2, 0, 1], "mmse", 1.0, 0.1)
    np.testing.assert_array_equal(
        fast.labels, reference_sic_detect(chan, r, [2, 0, 1], "mmse", 1.0, 0.1).labels)
    mb = m.mb_sic_detect(chan, r, 3, "zf", 1.0, 0.1)
    ref = reference_mb_sic_detect(chan, r, 3, "zf", 1.0, 0.1)
    np.testing.assert_array_equal(mb.labels, ref.labels)
    np.testing.assert_array_equal(mb.branch_distances, ref.branch_distances)
    assert mb.selected_branch == ref.selected_branch


@pytest.mark.parametrize("detector, extra", [
    ("sic", dict(filter_design="zf", ordering="sinr")),
    ("mb-sic", dict(branches=3)),
])
def test_sic_sweep_csv_matches_per_stage_oracle(monkeypatch, detector, extra):
    spec = m.ScenarioSpec(
        system=m.SystemConfig(n_users=4, n_bs=4, n_heads=4, antennas_per_head=1),
        detector=detector, snr_db=(0.0, 6.0, 12.0), packets=3, packet_symbols=200,
        seed=21, **extra).validate()
    fast = m.run_sweep(spec)
    assert all(row.errors > 0 for row in fast.rows)
    monkeypatch.setattr(harness, "sic_detect", reference_sic_detect)
    monkeypatch.setattr(harness, "mb_sic_detect", reference_mb_sic_detect)
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
    order = m.compute_ordering(chan, 1.0, 0.1, "norm")
    calls = counting_inv(monkeypatch)
    reference_sic_detect(chan, r, order, "mmse", 1.0, 0.1)
    assert len(calls) == 32  # the counter sees the per-stage oracle
    calls.clear()

    def no_filter(*args):
        raise AssertionError("sic_detect must not build per-stage filters")

    monkeypatch.setattr(detectors, "compute_receive_filter", no_filter)
    for design in ("zf", "mmse"):
        m.sic_detect(chan, r, order, design, 1.0, 0.1)
        assert len(calls) <= 1, design
        calls.clear()
    for criterion in ("norm", "sinr"):
        m.mb_sic_detect(chan, r, 4, "mmse", 1.0, 0.1, criterion)
        assert len(calls) <= 1, criterion
        calls.clear()
    # a named sinr order is read from the mmse set-up's own inverse
    named = m.sic_detect(chan, r, "sinr", "mmse", 1.0, 0.1)
    assert calls == [(32, 32)]
    calls.clear()
    by_perm = m.sic_detect(chan, r, m.compute_ordering(chan, 1.0, 0.1, "sinr"), "mmse",
                           1.0, 0.1)
    assert np.array_equal(named.labels, by_perm.labels)
    calls.clear()
    # the sinr keys come from one M x M inverse, not from the filter bank
    m.compute_ordering(chan, 1.0, 0.1, "sinr")
    assert calls == [(32, 32)]


@pytest.mark.parametrize("design", ["rmf", "zf", "mmse"])
def test_sic_named_ordering_equals_its_permutation(rng, design):
    for n_rx, n_streams in ((16, 8), (128, 32)):
        chan = random_channel(rng, n_rx, n_streams)
        r = random_channel(rng, n_rx, 40)
        for criterion in ORDERING_CRITERIA:
            order = m.compute_ordering(chan, 1.0, 0.2, criterion)
            named = m.sic_detect(chan, r, criterion, design, 1.0, 0.2)
            by_perm = m.sic_detect(chan, r, order, design, 1.0, 0.2)
            assert same_bytes(named.labels, by_perm.labels), criterion
    with pytest.raises(ParameterError):
        m.sic_detect(chan, r, "bogus", design, 1.0, 0.2)


def no_stage(*args):
    raise AssertionError("a SIC stage ran before the inputs were checked")


def test_sic_error_paths_raise_before_any_stage(monkeypatch):
    monkeypatch.setattr(detectors, "qpsk_slice_labels", no_stage)
    chan = np.ones((4, 2), dtype=complex)  # duplicate columns
    r = np.zeros((4, 3), dtype=complex)
    with pytest.raises(SingularMatrixError):
        m.sic_detect(chan, r, [0, 1], "zf", 1.0, 0.5)
    with pytest.raises(SingularMatrixError):
        m.mb_sic_detect(chan, r, 2, "zf", 1.0, 0.5)
    chan = np.eye(4, 2, dtype=complex)
    for bad in ([0, 0], [1, 2], [0]):
        with pytest.raises(StructuralError):
            m.sic_detect(chan, r, bad, "mmse", 1.0, 0.5)
    for design, nv in (("wiener", 0.5), ("mmse", 0.0), ("mmse", -1.0)):
        with pytest.raises(ParameterError):
            m.sic_detect(chan, r, [0, 1], design, 1.0, nv)
        with pytest.raises(ParameterError):
            m.mb_sic_detect(chan, r, 2, design, 1.0, nv)
