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

import functools
import itertools
import math
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
    chans, frames, rx_pilots, _ = zip(*(conftest._draw_packet(spec, 0, t, noise_var)
                                        for t in block))
    if spec.estimator == "perfect":
        return chans
    return harness._train(spec, conftest.stack_frames(frames).pilots, np.stack(rx_pilots))


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


@pytest.mark.parametrize("kw", [{}, LMS, KRYLOV, dict(coded=True)],
                         ids=["perfect", "lms", "rr-krylov", "coded"])
def test_draw_and_oracle_return_stacks_of_one_shape(kw):
    # the program and its oracle share one interface: the block's stacked
    # frame, then its Gram matrices (P, M, M) and matched outputs (P, M, T)
    spec = spec_of(12.0, **kw)
    n_streams = spec.system.n_streams
    noise_var = harness.trial_noise_variance(spec, 12.0)
    draws = [receive_block(spec, 0, range(3), noise_var) for receive_block in
             (harness._receive_block, conftest.antenna_domain_receive_block)]
    for frame, grams, ys in draws:
        assert frame.data_symbols.shape == (3, n_streams, spec.packet_symbols)
        assert grams.shape == (3, n_streams, n_streams)
        assert ys.shape == (3, n_streams, spec.packet_symbols)
        assert grams.dtype == ys.dtype == complex
    ours, oracle = (frame for frame, _, _ in draws)
    assert conftest.same_bytes(ours.data_symbols, oracle.data_symbols)


def test_noiseless_packet_is_its_clean_statistic():
    # with noise_var = 0 and perfect CSI, y = G^H G s exactly
    spec = spec_of(12.0)
    frame, grams, ys = harness._receive_block(spec, 0, range(3), 0.0)
    for t, (symbols, gram, y) in enumerate(zip(frame.data_symbols, grams, ys)):
        chan = conftest._draw_trial_channel(spec.system, spec.seed, 0, t)
        assert conftest.same_bytes(gram, chan.conj().T @ chan)
        assert conftest.same_bytes(y, gram @ symbols)


# -- the stacked draw against the per-packet one --------------------------------

def per_packet_receive_block(spec, snr_index, block, noise_var):
    """``_receive_block`` one packet at a time: each packet drawn, trained
    and reduced to its ``(A, y)`` as a stack of one."""
    chans, frames, rx_pilots, noises = zip(*(conftest._draw_packet(spec, snr_index, t,
                                                                  noise_var)
                                             for t in block))
    fronts = chans
    if spec.estimator != "perfect":
        fronts = [harness._train(spec, f.pilots, r[None])[0]
                  for f, r in zip(frames, rx_pilots)]
    grams, ys = zip(*(m.matched_transmit(front[None], chan[None], f.data_symbols, noise_var,
                                         [noise])
                      for front, chan, f, noise in zip(fronts, chans, frames, noises)))
    return conftest.stack_frames(frames), np.concatenate(grams), np.concatenate(ys)


_SMALL_DAS = m.SystemConfig(n_users=2, n_bs=2, n_heads=2, antennas_per_head=2,
                            antennas_per_user=2)
_PER_PACKET = {f"{est}-{name}": dict(system=system, estimator=est, pilot_len=12, rank=2,
                                     forgetting=0.998)
               for est in ("ls", "rls", "lms", "rr-pc", "rr-krylov", "rr-jio")
               for name, system in (("cas", m.SystemConfig(n_users=2, n_bs=4)),
                                    ("das", _SMALL_DAS))}
_PER_PACKET.update({f"perfect-{name}": dict(system=system)
                    for name, system in (("cas", m.SystemConfig(n_users=2, n_bs=4)),
                                         ("das", _SMALL_DAS))})
_PER_PACKET.update({f"coded-{name}": dict(system=system, coded=True)
                    for name, system in (("cas", m.SystemConfig(n_users=2, n_bs=4)),
                                         ("das", _SMALL_DAS))})
_PER_PACKET["coded-lms-das"] = dict(system=_SMALL_DAS, coded=True, estimator="lms",
                                    pilot_len=12)


@pytest.mark.parametrize("extra", _PER_PACKET.values(), ids=_PER_PACKET)
def test_receive_block_equals_the_per_packet_draws(extra):
    # every draw function runs once per block on its stacks; each packet's
    # frame, A and y are byte for byte what it draws alone, in blocks of
    # one, two and a full block
    spec = m.ScenarioSpec(packet_symbols=40, snr_db=(6.0,), packets=40, seed=17,
                          **extra).validate()
    noise_var = harness.trial_noise_variance(spec, 6.0)
    full = harness.trial_blocks(spec)[0]
    assert len(full) * spec.system.n_streams == harness.MAX_BLOCK_STREAMS
    for block in (range(3, 4), range(3, 5), full):
        got = harness._receive_block(spec, 0, block, noise_var)
        want = per_packet_receive_block(spec, 0, block, noise_var)
        for name in ("info_bits", "channel_bits", "pilots", "data_symbols", "perms"):
            ours, alone = getattr(got[0], name), getattr(want[0], name)
            assert (ours is None) == (alone is None) == (name == "perms" and not spec.coded)
            assert ours is None or conftest.same_bytes(ours, alone), (name, len(block))
        assert conftest.same_bytes(got[1], want[1]), len(block)
        assert conftest.same_bytes(got[2], want[2]), len(block)


def test_stacked_draw_takes_the_hermitian_root_per_packet(monkeypatch):
    # LMS on two pilots leaves every 8-stream estimate of rank 2: each
    # packet of the stack falls back to matrix_sqrt, and its statistic is
    # what it draws alone
    spec = spec_of(12.0, packets=4, estimator="lms", pilot_len=2)
    noise_var = harness.trial_noise_variance(spec, 12.0)
    roots = []
    real = txchain.matrix_sqrt

    def recording(gram):
        roots.append(gram)
        return real(gram)

    monkeypatch.setattr(txchain, "matrix_sqrt", recording)
    got = harness._receive_block(spec, 0, range(4), noise_var)
    assert len(roots) == 4
    want = per_packet_receive_block(spec, 0, range(4), noise_var)
    assert conftest.same_bytes(got[1], want[1]) and conftest.same_bytes(got[2], want[2])


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


def block_records(spec):
    return [m.run_trial(spec, spec.snr_db[0], block) for block in harness.trial_blocks(spec)]


def packet_errors(spec):
    """Each packet's errors after the last iteration, from the sweep's blocks."""
    return np.concatenate([r.packet_errors[-1] for r in block_records(spec)])


def packet_bers(spec):
    return np.concatenate([r.packet_errors[-1] / r.packet_bits for r in block_records(spec)])


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


# -- the exact conditional BER of perfect-CSI ZF -------------------------------

def independent_noise_variance(cfg, snr_db):
    """sigma^2 of an uncoded sweep at ``snr_db``, the total mean received
    symbol energy over the noise energy per bit, from the config alone:
    ``K N_U E_s E[gamma^2] / (2 * 10^(snr / 10))``, with ``E[gamma^2]`` the
    product of the link gain's mean, the mean of d^-tau over the distance
    grid and the lognormal shadowing's second moment."""
    lo, hi = cfg.distance_range
    grid = np.linspace(lo, hi, int(round((hi - lo) / 0.05)) + 1)
    shadow = math.exp((cfg.shadow_spread_db * math.log(10.0) / 5.0) ** 2 / 2.0)
    gamma_sq = sum(cfg.path_gain_range) / 2 * np.mean(grid ** -cfg.path_loss_exp) * shadow
    return cfg.n_streams * cfg.symbol_power * gamma_sq / (2 * 10.0 ** (snr_db / 10.0))


def zf_expected_errors(grams, symbol_power, noise_var, n_sym):
    """Each packet's expected bit errors under perfect-CSI ZF given its A:
    stream k's two bits per symbol err with probability
    ``Q(sqrt(E_s / (sigma^2 [A^-1]_kk)))``."""
    gains = np.diagonal(np.linalg.inv(grams), axis1=-2, axis2=-1).real
    snr = np.sqrt(symbol_power / (noise_var * gains))
    q = np.vectorize(lambda x: 0.5 * math.erfc(x / math.sqrt(2.0)))(snr)
    return 2 * n_sym * q.sum(axis=-1)


#: label -> (system, SNR, seed); each case draws its own packets, so that
#: the cases' z are independent and their Stouffer sum is N(0, 1)
ZF_CASES = {f"{name}@{snr:g}": (system, snr, 301 + i)
            for i, ((name, system), snr) in enumerate(itertools.product((
                ("cas-8x16", CAS), ("das-8x16", DAS),
                ("cas-8x64", m.SystemConfig(n_users=8, n_bs=64)),
                ("das-8x64", m.SystemConfig(n_users=8, n_bs=32, n_heads=8,
                                            antennas_per_head=4))), (4.0, 12.0)))}
ZF_Z = statistics.NormalDist().inv_cdf(1.0 - 1e-3 / (2 * len(ZF_CASES)))
ZF_SYMBOLS = 500


def packet_grams(spec):
    """Each packet's Gram matrix A, from the draw its sweep runs."""
    noise_var = harness.trial_noise_variance(spec, spec.snr_db[0])
    return np.concatenate([harness._receive_block(spec, 0, block, noise_var)[1]
                           for block in harness.trial_blocks(spec)])


@functools.lru_cache(maxsize=None)
def zf_case(label):
    """Each packet's counted errors under perfect-CSI ZF, from the sweep's
    own blocks, and its Gram matrix A, from the same draw."""
    system, snr, seed = ZF_CASES[label]
    spec = m.ScenarioSpec(system=system, detector="zf", packet_symbols=ZF_SYMBOLS,
                          snr_db=(snr,), packets=600, seed=seed).validate()
    return packet_errors(spec), packet_grams(spec)


def zf_z(label, scale=1.0):
    """z of the mean of counted minus expected errors per packet, the
    expectation taken at ``scale`` times the independent noise variance."""
    system, snr, _ = ZF_CASES[label]
    counted, grams = zf_case(label)
    noise_var = scale * independent_noise_variance(system, snr)
    diff = counted - zf_expected_errors(grams, system.symbol_power, noise_var, ZF_SYMBOLS)
    return diff.mean() / (diff.std(ddof=1) / np.sqrt(len(diff)))


@pytest.mark.parametrize("label", ZF_CASES)
def test_zf_errors_agree_with_their_exact_conditional_expectation(label):
    # counted minus expected errors per packet has mean zero within the
    # family-wise z
    z = zf_z(label)
    print(f"{label}: z {z:+.2f} (gate {ZF_Z:.2f})")
    assert abs(z) <= ZF_Z, label


def test_zf_oracle_sees_a_tenth_of_a_db_in_the_snr_map():
    # the cases' combined (Stouffer) z stays within its two-sided 1e-3
    # gate at the map, and the same packets read against a noise variance
    # 0.1 dB off must fail clearly, which checks the draw's noise scaling
    # end to end.  A single case's z reads about 5 to 14 at 600 packets
    # where it counts errors; a 12 dB DAS 8x64 packet errs about 0.2 times,
    # so it alone cannot tell
    n = len(ZF_CASES)
    at_map = {label: zf_z(label) for label in ZF_CASES}
    off = {label: zf_z(label, 10.0 ** 0.01) for label in ZF_CASES}
    combined = sum(at_map.values()) / np.sqrt(n)
    shifted = sum(off.values()) / np.sqrt(n)
    for name, zs, total in (("at the map", at_map, combined), ("at +0.1 dB", off, shifted)):
        print(f"{name}:", ", ".join(f"{label} {z:+.2f}" for label, z in zs.items()),
              f"combined {total:+.2f}")
    assert abs(combined) <= statistics.NormalDist().inv_cdf(1.0 - 1e-3 / 2)
    assert abs(shifted) >= 7.7


# -- the exact conditional BER of perfect-CSI MMSE and RMF ---------------------

def q_function(x):
    """Q(x) = erfc(x / sqrt 2) / 2 on arrays, by the Chebyshev fit of erfc
    in Press et al., *Numerical Recipes* (2nd ed., sec. 6.2), whose
    fractional error is below 1.2e-7 everywhere."""
    z = np.abs(x) / math.sqrt(2.0)
    t = 1.0 / (1.0 + 0.5 * z)
    fit = -z * z - 1.26551223 + t * (1.00002368 + t * (0.37409196 + t * (0.09678418 + t * (
        -0.18628806 + t * (0.27886807 + t * (-1.13520398 + t * (1.48851587 + t * (
            -0.82215223 + t * 0.17087277))))))))
    upper = 0.5 * t * np.exp(fit)
    return np.where(x >= 0, upper, 1.0 - upper)


def linear_expected_errors(grams, design, symbol_power, noise_var, filter_var, n_sym):
    """Each packet's expected bit errors under a perfect-CSI linear filter
    given its A.

    The filter's outputs are ``z = B s + P^H n`` with ``B = P^H A`` and noise
    ``CN(0, sigma^2 P^H A P)``: P is ``(A + (sigma_f^2 / E_s) I)^-1`` for
    mmse, with ``sigma_f^2 = filter_var`` the variance the filter is built
    with, and I for rmf.  Stream k's self gain ``B_kk`` is real and
    positive, so its real bit, sent as ``a = +sqrt(E_s / 2)``, errs with
    probability ``Q((B_kk a + Re I) / s)`` given the other streams'
    interference I, and its imaginary bit with ``Q((B_kk a + Im I) / s)``,
    where ``s^2 = sigma^2 (P^H A P)_kk / 2``.  Both are averaged over the
    4^(M-1) equally likely symbols of the other streams; the sent sign does
    not matter, since the patterns are symmetric."""
    n = grams.shape[-1]
    amp = math.sqrt(symbol_power / 2.0)
    if design == "mmse":
        inv = np.linalg.inv(grams + (filter_var / symbol_power) * np.eye(n))
        filt = np.conj(np.swapaxes(inv, -1, -2))
    else:
        filt = np.broadcast_to(np.eye(n), grams.shape)
    response = filt @ grams
    noise_gain = np.einsum("pkj,pji,pki->pk", filt, grams, filt.conj()).real
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=2 * (n - 1))))
    patterns = amp * (signs[:, 0::2] + 1j * signs[:, 1::2])  # (4^(M-1), M-1)
    expected = np.zeros(len(grams))
    for k in range(n):
        interference = response[:, k, np.arange(n) != k] @ patterns.T
        signal = amp * response[:, k, k].real[:, None]
        spread = np.sqrt(noise_var * noise_gain[:, k] / 2.0)[:, None]
        for part in (interference.real, interference.imag):
            expected += q_function((signal + part) / spread).mean(axis=-1)
    return n_sym * expected


LINEAR_SYMBOLS = 500
LINEAR_SYSTEMS = (("cas-6x16", m.SystemConfig(n_users=6, n_bs=16)),
                  ("das-6x16", m.SystemConfig(n_users=6, n_bs=8, n_heads=4,
                                              antennas_per_head=2)))
#: label -> (system, design, SNR, seed); each case draws its own packets,
#: so that the cases' z are independent and their Stouffer sum is N(0, 1)
LINEAR_CASES = {f"{name}-{design}@{snr:g}": (system, design, snr, 101 + i)
                for i, ((name, system), design, snr) in enumerate(itertools.product(
                    LINEAR_SYSTEMS, ("mmse", "rmf"), (4.0, 12.0)))}
LINEAR_Z = statistics.NormalDist().inv_cdf(1.0 - 1e-3 / (2 * len(LINEAR_CASES)))


@functools.lru_cache(maxsize=None)
def linear_case(label):
    """Each packet's counted errors, read from its block's trial record,
    and its Gram matrix A, from the same draw."""
    system, design, snr, seed = LINEAR_CASES[label]
    spec = m.ScenarioSpec(system=system, detector=design, packet_symbols=LINEAR_SYMBOLS,
                          snr_db=(snr,), packets=400, seed=seed).validate()
    return packet_errors(spec), packet_grams(spec)


def linear_z(label, scale=1.0):
    """z of the mean of counted minus expected errors per packet, with the
    noise at ``scale`` times the independent noise variance and the mmse
    filter built with the independent variance itself."""
    system, design, snr, _ = LINEAR_CASES[label]
    counted, grams = linear_case(label)
    noise_var = independent_noise_variance(system, snr)
    diff = counted - linear_expected_errors(grams, design, system.symbol_power,
                                            scale * noise_var, noise_var, LINEAR_SYMBOLS)
    return diff.mean() / (diff.std(ddof=1) / np.sqrt(len(diff)))


def test_linear_oracle_is_exact_on_a_two_stream_packet():
    # with no noise to speak of, each bit errs exactly when the filter's
    # interference outweighs its signal: count those patterns by hand
    # (E_s = 2, so stream k sends 1 + 1j; mmse is built for a noise
    # variance of 1 or 6, that is A + I / 2 or A + 3 I)
    gram = np.array([[[1.0, 1.2 + 0.6j], [1.2 - 0.6j, 4.0]]])
    for design, filter_var, wrong in (("mmse", 1.0, 0), ("mmse", 6.0, 2), ("rmf", 1.0, 2)):
        filt = (np.linalg.inv(gram[0] + filter_var / 2.0 * np.eye(2)).conj().T
                if design == "mmse" else np.eye(2))
        response = filt @ gram[0]
        counted = 0
        for k in range(2):
            for s in (1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j):
                out = response[k, k] * (1 + 1j) + response[k, 1 - k] * s
                counted += (out.real < 0) + (out.imag < 0)
        assert counted == wrong, (design, filter_var)
        got = linear_expected_errors(gram, design, 2.0, 1e-12, filter_var, 1)
        assert got[0] == pytest.approx(wrong / 4, abs=1e-9), (design, filter_var)
    # one stream alone: Q(sqrt(E_s |g|^2 / sigma^2)) a bit, both designs
    lone = np.array([[[2.5 + 0j]]])
    want = 2 * 0.5 * math.erfc(math.sqrt(1.0 * 2.5 / 0.3) / math.sqrt(2.0))
    for design in ("mmse", "rmf"):
        assert linear_expected_errors(lone, design, 1.0, 0.3, 0.3, 1)[0] == pytest.approx(
            want, rel=1e-6)


@pytest.mark.parametrize("label", LINEAR_CASES)
def test_linear_errors_agree_with_their_exact_conditional_expectation(label):
    # counted minus expected errors per packet has mean zero within the
    # family-wise z
    z = linear_z(label)
    print(f"{label}: z {z:+.2f} (gate {LINEAR_Z:.2f})")
    assert abs(z) <= LINEAR_Z, label


def test_linear_oracle_cases_agree_together_and_see_a_tenth_of_a_db():
    # the combined (Stouffer) z over the cases stays within its two-sided
    # 1e-3 gate, and fails clearly when the noise is 0.1 dB off the map;
    # rmf at 12 dB is interference-limited and alone cannot tell
    n = len(LINEAR_CASES)
    combined = sum(linear_z(label) for label in LINEAR_CASES) / np.sqrt(n)
    off = {label: linear_z(label, 10.0 ** 0.01) for label in LINEAR_CASES}
    shifted = sum(off.values()) / np.sqrt(n)
    print(f"combined {combined:+.2f};", ", ".join(f"{k} {z:+.2f}" for k, z in off.items()),
          f"combined at +0.1 dB {shifted:+.2f}")
    assert abs(combined) <= statistics.NormalDist().inv_cdf(1.0 - 1e-3 / 2)
    assert abs(shifted) >= 7.7
