"""A packet's data drawn in its receiver's matched domain, against the
antenna-domain draw it replaced.

``harness._receive_block`` draws each packet's data as its front end F
sees it: ``A = F^H F`` and ``y = F^H G s + sqrt(noise_var) L w`` with
``L L^H = A`` and w ~ CN(0, I) of shape (M, T).  The oracle,
``conftest.antenna_domain_receive_block``, passes the whole frame through
``channel_transmit`` at the N_A antennas and forms ``F^H r``.  What is exact
is checked exactly; that the two draws give the same BER is a paired
statistical gate over the acceptance scenarios.
"""

import statistics

import numpy as np
import pytest

import conftest
import mumimo as m
from mumimo import harness, txchain
from mumimo.txchain import gram_root

CAS = m.SystemConfig(n_users=8, n_bs=16)
DAS = m.SystemConfig(n_users=8, n_bs=8, n_heads=8, antennas_per_head=1)
LMS = dict(estimator="lms", pilot_len=250, step_size=0.05)
KRYLOV = dict(system=m.SystemConfig(n_users=8, n_bs=64), estimator="rr-krylov",
              pilot_len=300, rank=5, forgetting=0.999)


def spec_of(snr_db, packets=3, **kw):
    kw.setdefault("system", CAS)
    return m.ScenarioSpec(packet_symbols=500, snr_db=(snr_db,), packets=packets,
                          seed=21, **kw).validate()


def front_ends(spec, block=range(3)):
    """Each packet's front end F (true channel, estimate or filters)."""
    noise_var = harness.trial_noise_variance(spec, spec.snr_db[0])
    chans, frames, rx_pilots, _ = zip(*(harness._draw_packet(spec, 0, t, noise_var)
                                        for t in block))
    if spec.estimator == "perfect":
        return chans
    return harness._train(spec, [f.pilots for f in frames], rx_pilots)


# -- what is exact -------------------------------------------------------------

@pytest.mark.parametrize("kw", [{}, LMS, KRYLOV, dict(estimator="lms", pilot_len=2)],
                         ids=["perfect", "lms", "rr-krylov", "lms-2-pilots"])
def test_gram_root_reproduces_the_gram_matrix(kw):
    for front in front_ends(spec_of(12.0, **kw)):
        gram = front.conj().T @ front
        root = gram_root(gram)
        np.testing.assert_allclose(root @ root.conj().T, gram, rtol=0,
                                   atol=1e-12 * np.max(np.abs(gram)))


def test_front_end_of_rank_two_takes_the_hermitian_root(monkeypatch):
    # LMS steps along each pilot, so two pilots leave an estimate of rank 2
    # for eight streams: Cholesky cannot factor its Gram matrix
    spec = spec_of(12.0, estimator="lms", pilot_len=2)
    for front in front_ends(spec):
        assert np.linalg.matrix_rank(front) == 2
    roots = []
    real = txchain.matrix_sqrt

    def recording(gram):
        roots.append(gram)
        return real(gram)

    monkeypatch.setattr(txchain, "matrix_sqrt", recording)
    row = m.run_sweep(spec).rows[0]
    assert not row.failed and row.bits == 3 * 8 * 1000
    assert len(roots) == spec.packets


def test_noiseless_packet_is_its_clean_statistic():
    # with noise_var = 0 and perfect CSI, y = G^H G s exactly
    spec = spec_of(12.0)
    frames, stats = harness._receive_block(spec, 0, range(3), 0.0)
    for t, (frame, (gram, y)) in enumerate(zip(frames, stats)):
        chan = harness._draw_trial_channel(spec.system, spec.seed, 0, t)
        assert conftest.same_bytes(gram, chan.conj().T @ chan)
        assert conftest.same_bytes(y, gram @ frame.data_symbols)


# -- the paired statistical gate ---------------------------------------------

def _gate_cases():
    cases = {}
    for sname, system in (("cas", CAS), ("das", DAS)):
        for rname, kw in (("mmse", {}), ("sic", dict(detector="sic")), ("lms", LMS)):
            for snr in (4.0, 12.0):
                cases[f"{sname}-8x16-{rname}@{snr:g}"] = (dict(system=system, **kw), snr, 100)
    cases["cas-32x128-mmse@12"] = (dict(system=m.SystemConfig(n_users=32, n_bs=128)),
                                   12.0, 60)
    cases["cas-8x64-rr-krylov@12"] = (KRYLOV, 12.0, 60)
    cases["cas-8x16-coded-mmse@12"] = (dict(coded=True), 12.0, 40)
    return cases


GATE = _gate_cases()
# two-sided, with a total false-alarm rate of 1e-3 shared over every
# comparison (Bonferroni)
GATE_Z = statistics.NormalDist().inv_cdf(1.0 - 1e-3 / (2 * len(GATE)))


def packet_bers(spec):
    results = [r for block in harness.trial_blocks(spec)
               for r in m.run_trial(spec, spec.snr_db[0], block)]
    return np.array([r.errors / r.bits for r in results])


@pytest.mark.parametrize("label", GATE)
def test_matched_draw_ber_agrees_with_antenna_draw(monkeypatch, label):
    # both draws share each packet's channel and frame, so the per-packet
    # BER difference is paired; its mean must lie within z standard errors
    # of zero
    kw, snr, packets = GATE[label]
    spec = spec_of(snr, packets=packets, **kw)
    matched = packet_bers(spec)
    monkeypatch.setattr(harness, "_receive_block", conftest.antenna_domain_receive_block)
    diff = matched - packet_bers(spec)
    mean, se = diff.mean(), diff.std(ddof=1) / np.sqrt(len(diff))
    print(f"{label}: ber {matched.mean():.4e}, paired difference {mean:+.2e} "
          f"(se {se:.1e}, z {GATE_Z:.2f})")
    assert abs(mean) <= GATE_Z * se, label
