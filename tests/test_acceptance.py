"""Acceptance suite: one end-to-end check per shipped performance claim.

Every test prints a single ``[PASS]``/``[FAIL]`` line with the measured
numbers so a log scrape shows the verdict per criterion.  All scenarios are
fully seeded, so reruns reproduce the same verdicts bit for bit.
"""

import itertools
import os

import numpy as np

import mumimo as m
from conftest import (filter_training_experiment, matched, random_channel,
                      reference_encode)

WORKERS = min(8, os.cpu_count() or 1)


def verdict(num, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}"
    print(line, flush=True)
    assert ok, line


def sweep(system, detector, snr_db, packets, seed=1, **kw):
    spec = m.ScenarioSpec(system=system, detector=detector, packet_symbols=500,
                          snr_db=snr_db, packets=packets, seed=seed,
                          **kw).validate()
    return m.run_sweep(spec, workers=WORKERS)


MULTIUSER = m.SystemConfig(n_users=8, n_bs=16)


# -- criterion 1: oracle equivalences -----------------------------------------

def _label_bits(label):
    return ((label >> 1) & 1, label & 1)


def _point_prob(label, lam0, lam1):
    sig = lambda x: 1.0 / (1.0 + np.exp(-x))
    b0, b1 = _label_bits(label)
    return (sig(lam0) if b0 == 0 else sig(-lam0)) * \
           (sig(lam1) if b1 == 0 else sig(-lam1))


def _llr_oracle(z, v, s2, const, priors):
    weights = np.array([np.exp(-abs(z - v * const[a]) ** 2 / (2.0 * s2))
                        * _point_prob(a, priors[0], priors[1]) for a in range(4)])
    out = []
    for c in range(2):
        mask0 = np.array([_label_bits(a)[c] == 0 for a in range(4)])
        out.append(np.log(weights[mask0].sum())
                   - np.log(weights[~mask0].sum()) - priors[c])
    return np.array(out)


def _app_oracle(channel_llrs, k_info):
    infos = np.array(list(itertools.product((0, 1), repeat=k_info)))
    codewords = np.array([reference_encode(word) for word in infos])
    log_w = 0.5 * np.sum(channel_llrs * (1.0 - 2.0 * codewords), axis=1)

    def llr_over(mask_zero):
        return (np.logaddexp.reduce(log_w[mask_zero])
                - np.logaddexp.reduce(log_w[~mask_zero]))

    info = np.array([llr_over(infos[:, i] == 0) for i in range(k_info)])
    post = np.array([llr_over(codewords[:, j] == 0)
                     for j in range(codewords.shape[1])])
    return info, post - channel_llrs


def test_criterion_1_oracle_equivalences():
    rng = np.random.default_rng(2024)

    # zero-forcing filter inverts the channel: its outputs for the columns
    # of G, the matched outputs G^H G, are the identity
    chan = random_channel(rng, 8, 4)
    gram, response = matched(chan, chan)
    inv = m.compute_receive_filter(gram, 1.0, 0.3, "zf")
    zf_resid = np.max(np.abs(inv.conj().T @ response - np.eye(4)))

    # unit-forgetting RLS reproduces the batch least-squares estimate
    true = random_channel(rng, 6, 3)
    pilots = m.qpsk_constellation()[rng.integers(0, 4, size=(3, 80))]
    recv = true @ pilots + 0.2 * (rng.standard_normal((6, 80))
                                  + 1j * rng.standard_normal((6, 80)))
    tracker = m.RlsChannelEstimator(3, 6, lam=1.0)
    for i in range(80):
        tracker.update(pilots[:, i], recv[:, i])
    batch = m.ls_channel_estimate(pilots, recv)
    rls_err = np.max(np.abs(tracker.estimate - batch))

    # demapper LLRs against four-point enumeration with priors: for Gray
    # QPSK the other bit's prior cancels, so the demapper takes none
    const = m.qpsk_constellation()
    z = rng.standard_normal((2, 9)) + 1j * rng.standard_normal((2, 9))
    v = np.abs(rng.normal(0.9, 0.1, size=(2, 1)))
    s2 = np.abs(rng.normal(0.4, 0.05, size=(2, 1)))
    priors = rng.normal(0.0, 1.5, size=(2, 9, 2))
    got = m.extrinsic_llr(z, v, s2, clip=1e9)
    llr_err = 0.0
    for j, t in np.ndindex(2, 9):
        ref = _llr_oracle(z[j, t], v[j, 0], s2[j, 0], const, priors[j, t])
        llr_err = max(llr_err, np.max(np.abs(got[j, t] - ref)))

    # MAP decoder against exhaustive codeword posteriors
    k_info = 8
    lam = rng.normal(0.0, 2.0, size=2 * (k_info + 2))
    result = m.bcjr_decode(lam)
    info_ref, ext_ref = _app_oracle(lam, k_info)
    bcjr_err = max(np.max(np.abs(result.info_llrs - info_ref)),
                   np.max(np.abs(result.extrinsic - ext_ref)))

    # ML detector against an independent exhaustive search
    chan = random_channel(rng, 6, 4)
    labels = rng.integers(0, 4, size=(4, 30))
    r = chan @ const[labels] + 0.8 * (rng.standard_normal((6, 30))
                                      + 1j * rng.standard_normal((6, 30)))
    out = m.ml_detect_oracle(*matched(chan, r))
    ml_mismatches = 0
    for t in range(30):
        best, best_d = None, np.inf
        for cand in itertools.product(range(4), repeat=4):
            d = np.sum(np.abs(r[:, t] - chan @ const[list(cand)]) ** 2)
            if d < best_d - 1e-15:
                best, best_d = cand, d
        ml_mismatches += int(not np.array_equal(out[:, t], best))

    ok = (zf_resid < 1e-8 and rls_err < 1e-6 and llr_err < 1e-10
          and bcjr_err < 1e-8 and ml_mismatches == 0)
    verdict(1, "oracle equivalences", ok,
            f"zf={zf_resid:.2e} rls={rls_err:.2e} llr={llr_err:.2e} "
            f"bcjr={bcjr_err:.2e} ml_mismatch={ml_mismatches}")


# -- criterion 2: detector ordering at high load ------------------------------

def test_criterion_2_detector_ordering():
    rows = {det: sweep(MULTIUSER, det, (12.0,), packets=2000).rows[0]
            for det in ("rmf", "mmse", "sic", "mb-sic")}
    chain = ("mb-sic", "sic", "mmse", "rmf")
    ok = True
    parts = []
    for a, b in zip(chain, chain[1:]):
        ra, rb = rows[a], rows[b]
        separated = ra.ci_high < rb.ci_low
        margin = rb.ber / ra.ber if ra.ber > 0 else np.inf
        ok = ok and ra.ber <= rb.ber and (separated or margin >= 1.1)
        parts.append(f"{a}={ra.ber:.3e}<{b}={rb.ber:.3e}"
                     f"({'ci' if separated else f'x{margin:.2f}'})")
    verdict(2, "detector ordering", ok, " ".join(parts))


# -- criterion 3: single-user matched filter bound ----------------------------

def test_criterion_3_single_user_bound():
    snrs = (0.0, 4.0, 8.0, 12.0)
    single = sweep(m.SystemConfig(n_users=1, n_bs=16), "rmf", snrs, packets=200)
    ok = True
    worst = np.inf
    for det in ("rmf", "mmse", "sic", "mb-sic"):
        multi = sweep(MULTIUSER, det, snrs, packets=200)
        for su, mu in zip(single.rows, multi.rows):
            ok = ok and su.ber < mu.ber and su.ci_high < mu.ci_low
            worst = min(worst, mu.ci_low / max(su.ci_high, 1e-12))
    bers = " ".join(f"{r.ber:.2e}" for r in single.rows)
    verdict(3, "single-user bound", ok,
            f"single-user ber [{bers}] below all detectors at all SNRs, "
            f"min separation x{worst:.1f}")


# -- criterion 4: iterative detection and decoding gain -----------------------

def test_criterion_4_idd_gain():
    snr = 22.0
    spec = m.ScenarioSpec(system=MULTIUSER, detector="mmse", coded=True,
                          idd_iterations=4, packet_symbols=500, packets=48,
                          snr_db=(snr,), seed=1).validate()
    errors = np.zeros(4, dtype=int)
    bits = 0
    for t in range(spec.packets):
        res = m.run_trial(spec, snr, t)
        errors += np.asarray(res.per_iteration_errors)
        bits += res.bits
    ber = errors / bits
    ci = [m.confidence_interval(int(e), bits) for e in errors]
    uncoded = sweep(MULTIUSER, "mmse", (snr,), packets=100).rows[0]
    iter_gain = ber[3] <= ber[0] and ci[3][1] < ci[0][0]
    coding_gain = ci[3][1] < uncoded.ci_low
    verdict(4, "iterative decoding gain", iter_gain and coding_gain,
            f"iter1={ber[0]:.3e} iter4={ber[3]:.3e} uncoded={uncoded.ber:.3e} "
            f"at {snr:g} dB (CIs separated)")


# -- criterion 5: channel-estimation loss -------------------------------------

def _snr_at_ber(snrs, bers, target=1e-2):
    logs = np.log10(np.asarray(bers))
    t = np.log10(target)
    for i in range(len(logs) - 1):
        if logs[i] >= t >= logs[i + 1]:
            frac = (logs[i] - t) / (logs[i] - logs[i + 1])
            return snrs[i] + frac * (snrs[i + 1] - snrs[i])
    return float("nan")


def test_criterion_5_estimation_loss():
    snrs = tuple(float(s) for s in range(14, 27, 2))
    modes = {"perfect": {},
             "rls": dict(estimator="rls", pilot_len=250, forgetting=0.999),
             "lms": dict(estimator="lms", pilot_len=250, step_size=0.05)}
    crossing = {}
    for mode, kw in modes.items():
        res = sweep(MULTIUSER, "mmse", snrs, packets=150, **kw)
        crossing[mode] = _snr_at_ber(snrs, [r.ber for r in res.rows])
    rls_gap = crossing["rls"] - crossing["perfect"]
    lms_gap = crossing["lms"] - crossing["perfect"]
    ok = (np.isfinite(rls_gap) and np.isfinite(lms_gap)
          and rls_gap <= 2.5 and rls_gap <= lms_gap)
    verdict(5, "channel-estimation loss", ok,
            f"SNR@1e-2 perfect={crossing['perfect']:.2f} dB, "
            f"rls gap={rls_gap:.2f} dB (<=2.5), lms gap={lms_gap:.2f} dB")


# -- criterion 6: reduced-rank training savings -------------------------------

def test_criterion_6_reduced_rank_training():
    cfg = m.SystemConfig(n_users=8, n_bs=64)
    ckpt = (25, 50, 75, 100, 150, 200, 250, 300, 400, 500, 625, 750, 1000,
            1250, 1500)
    curves = {}
    for method in ("rls", "krylov", "jio"):
        acc = np.zeros(len(ckpt))
        for seed in range(1, 51):
            acc += filter_training_experiment(cfg, 15.0, method, rank=5,
                                              lam=0.999, n_train=1500,
                                              checkpoints=ckpt, n_eval=400,
                                              seed=seed, delta=0.01)
        curves[method] = acc / 50
    threshold = 2.0 * curves["rls"][-1]
    stt = {meth: next((c for c, b in zip(ckpt, curve) if b <= threshold), None)
           for meth, curve in curves.items()}
    reach = all(stt[meth] is not None and stt[meth] <= 0.5 * ckpt[-1]
                for meth in ("krylov", "jio"))
    ranking = (stt["jio"] is not None and stt["krylov"] is not None
               and stt["rls"] is not None
               and stt["jio"] <= stt["krylov"] <= stt["rls"])
    verdict(6, "reduced-rank training savings", reach and ranking,
            f"symbols to 2x-final-BER threshold {threshold:.2e}: "
            f"jio={stt['jio']} <= krylov={stt['krylov']} <= rls={stt['rls']}, "
            f"both reduced-rank <= {ckpt[-1] // 2} of {ckpt[-1]} symbols")


# -- criterion 7: distributed vs centralized antennas -------------------------

def test_criterion_7_distributed_beats_centralized():
    snrs = (0.0, 4.0, 8.0, 12.0)
    cas = sweep(m.SystemConfig(n_users=8, n_bs=16), "mmse", snrs, packets=200)
    das = sweep(m.SystemConfig(n_users=8, n_bs=8, n_heads=8, antennas_per_head=1),
                "mmse", snrs, packets=200)
    lower = [d.ber <= c.ber for d, c in zip(das.rows, cas.rows)]
    separated = [d.ci_high < c.ci_low for d, c in zip(das.rows, cas.rows)]
    ok = all(lower) and sum(separated) >= len(snrs) / 2
    pairs = " ".join(f"{d.ber:.2e}<{c.ber:.2e}" for d, c in zip(das.rows, cas.rows))
    verdict(7, "distributed beats centralized", ok,
            f"das<cas at all {len(snrs)} points [{pairs}], "
            f"{sum(separated)}/{len(snrs)} CI-separated")


# -- criterion 8: determinism -------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    spec = m.ScenarioSpec(system=MULTIUSER, detector="mb-sic",
                          packet_symbols=500, snr_db=(4.0, 12.0), packets=25,
                          seed=1).validate()
    first = m.write_csv(m.run_sweep(spec, workers=1), tmp_path / "a.csv")
    again = m.write_csv(m.run_sweep(spec, workers=1), tmp_path / "b.csv")
    parallel = m.format_csv(m.run_sweep(spec, workers=WORKERS))
    ok = (first == again == parallel
          and (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes())
    verdict(8, "deterministic reruns", ok,
            f"csv identical across reruns and worker counts "
            f"({len(first.splitlines()) - 1} rows)")
