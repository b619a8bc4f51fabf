import dataclasses

import numpy as np
import pytest

import mumimo as m
from mumimo import harness
from mumimo import rng as rngmod
from mumimo.channel import compose_channel, draw_large_scale, draw_small_scale
from mumimo.errors import ConfigError
from mumimo.estimation import DEFAULT_DELTA, _hermitize
from mumimo.txchain import (SymbolFrame, assemble_frame, channel_transmit,
                            coded_payload_length)


def pytest_configure(config):
    # a ParameterWarning that no test expects (with pytest.warns) fails the
    # run; pyproject's filterwarnings would also reach perfbench's tests,
    # which run without mumimo on the path
    config.addinivalue_line("filterwarnings", "error::mumimo.errors.ParameterWarning")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def same_bytes(a, b):
    """Bitwise equality of two arrays: dtype, shape and every byte, so a
    flipped signed zero counts (``np.array_equal`` takes -0.0 == 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def random_channel(rng, n_rx, n_streams, scale=1.0):
    """Well-conditioned complex Gaussian channel for filter tests."""
    return scale * (rng.standard_normal((n_rx, n_streams))
                    + 1j * rng.standard_normal((n_rx, n_streams))) / np.sqrt(2.0)


def matched(chan, r):
    """The matched-filter statistic ``(G^H G, G^H r)`` every detector takes."""
    adjoint = np.asarray(chan, dtype=complex).conj().T
    return adjoint @ chan, adjoint @ r


# -- the per-packet draw, the oracle of harness._receive_block's stacked one --

def _draw_trial_channel(cfg, seed, snr_index, trial_index):
    """One packet's true channel (N_A, M), drawn as a stack of one from its
    large-scale substream and one small-scale substream per user."""
    large = draw_large_scale(cfg, [rngmod.substream(
        seed, snr_index, trial_index, rngmod.LARGE_SCALE)])
    small = draw_small_scale(cfg, [[rngmod.substream(
        seed, snr_index, trial_index, rngmod.SMALL_SCALE, k) for k in range(cfg.n_users)]])
    return compose_channel(cfg, small, large)[0]


def _build_trial_frame(spec, snr_index, trial_index):
    """One packet's frame, a :class:`SymbolFrame` stack of one, from its
    payload and frame substreams."""
    cfg = spec.system
    n_bits = (coded_payload_length(spec.packet_symbols) if spec.coded
              else 2 * spec.packet_symbols)
    payload = rngmod.substream(spec.seed, snr_index, trial_index, rngmod.PAYLOAD).integers(
        0, 2, size=(1, cfg.n_streams, n_bits))
    frame_rng = rngmod.substream(spec.seed, snr_index, trial_index, rngmod.FRAME)
    return assemble_frame(cfg, payload, spec.pilot_len, [frame_rng], coded=spec.coded)


def _draw_packet(spec, snr_index, trial_index, noise_var):
    """Draw one packet from its own substreams: its true channel (N_A, M),
    its frame (a stack of one), its received pilots (N_A, n) and its noise
    generator, left where the pilots end."""
    chan = _draw_trial_channel(spec.system, spec.seed, snr_index, trial_index)
    frame = _build_trial_frame(spec, snr_index, trial_index)
    noise = rngmod.substream(spec.seed, snr_index, trial_index, rngmod.NOISE)
    return chan, frame, channel_transmit(chan[None], frame.pilots, noise_var, [noise])[0], noise


def stack_frames(frames):
    """One :class:`SymbolFrame` of the packets of ``frames``, each a stack."""
    def joined(name):
        parts = [getattr(f, name) for f in frames]
        return None if parts[0] is None else np.concatenate(parts)
    return SymbolFrame(**{f.name: joined(f.name) for f in dataclasses.fields(SymbolFrame)})


def antenna_domain_receive_block(spec, snr_index, block, noise_var, seen=None):
    """The draw that ``harness._receive_block`` replaced, kept as its oracle.

    Each packet is drawn alone.  Its whole frame, pilots and data, goes
    through ``channel_transmit`` at the N_A antennas from the packet's
    noise substream; the block trains on the received pilots, and each
    front end F (true channel, estimate or trained filters) reduces the
    received data r to ``matched(F, r)``.  Returns the block's stacked
    frame and the packets' ``(A, y)`` stacked, (P, M, M) and (P, M, T), as
    ``_receive_block`` does; ``seen``, if given, collects each packet's
    ``(F, r)``.
    """
    chans = [_draw_trial_channel(spec.system, spec.seed, snr_index, t) for t in block]
    frame = stack_frames([_build_trial_frame(spec, snr_index, t) for t in block])
    received = [channel_transmit(chan[None], np.concatenate([s, x], axis=-1)[None],
                                 noise_var,
                                 [rngmod.substream(spec.seed, snr_index, t, rngmod.NOISE)])[0]
                for chan, s, x, t in zip(chans, frame.pilots, frame.data_symbols, block)]
    n_pilots = spec.pilot_len
    fronts = chans
    if spec.estimator != "perfect":
        fronts = harness._train(spec, frame.pilots,
                                np.stack([r[:, :n_pilots] for r in received]))
    data = [r[:, n_pilots:] for r in received]
    if seen is not None:
        seen.extend(zip(fronts, data))
    grams, ys = map(np.stack, zip(*(matched(front, r) for front, r in zip(fronts, data))))
    return frame, grams, ys


def reference_encode(bits, generators=(0b111, 0b101), memory=2):
    """Independent shift-register convolutional encoder (zero-terminated)."""
    reg = [0] * memory
    out = []
    for u in list(bits) + [0] * memory:
        window = [u] + reg
        for gen in generators:
            acc = 0
            for t in range(memory + 1):
                if (gen >> (memory - t)) & 1:
                    acc ^= window[t]
            out.append(acc)
        reg = [u] + reg[:-1]
    return np.array(out, dtype=np.int8)


class ReferenceRls:
    """The per-sample RLS recursion of the stacked channel matrix, the oracle
    of ``RlsChannelEstimator``'s closed form: after n pilots from
    ``P = I / delta`` it stands at the delta-regularized batch solve."""

    def __init__(self, n_streams, n_rx, lam=1.0, delta=DEFAULT_DELTA):
        self.lam = lam
        self.p = np.eye(n_streams, dtype=complex) / delta
        self.t = np.zeros((n_rx, n_streams), dtype=complex)

    @property
    def estimate(self):
        """Current channel estimate T @ P."""
        return self.t @ self.p

    def run(self, pilots, received):
        """Fold in the pilots of an (M, n) block one at a time, with the
        received (N_A, n) block."""
        ilam = 1.0 / self.lam
        for s, r in zip(pilots.T, received.T):
            ps = self.p @ s
            denom = 1.0 + ilam * np.real(s.conj() @ ps)
            self.p = _hermitize(ilam * self.p - (ilam ** 2 / denom) * np.outer(ps, ps.conj()))
            self.t = self.lam * self.t + np.outer(r, s.conj())
        return self


class ReferenceLms:
    """The per-sample LMS recursion of the stacked channel matrix, the oracle
    of ``LmsChannelEstimator``'s block form: one step per pilot,
    ``e = r - G s`` and ``G += mu e s^H``, for every packet of the stack."""

    def __init__(self, n_streams, n_rx, mu=0.05, packets=1):
        self.mu = mu
        self.estimate = np.zeros((packets, n_rx, n_streams), dtype=complex)

    def update(self, pilots, received):
        """Step over a block: pilots (P, M, n), received (P, N_A, n)."""
        # each snapshot contiguous, as a block of one snapshot would be
        for s_i, r_i in zip(*(np.ascontiguousarray(np.moveaxis(np.asarray(x, dtype=complex),
                                                               -1, 0))
                              for x in (pilots, received))):
            err = r_i - (self.estimate @ s_i[..., None])[..., 0]
            self.estimate = self.estimate + self.mu * (err[..., :, None]
                                                       * s_i.conj()[..., None, :])
        return self


class WarmStartJio:
    """A JIO bank started from a Krylov warm-up.  The first ``warmup``
    samples train a Krylov bank, whose weights stand until then; its basis,
    projected solution and inverse statistics then seed the cold ``jio``
    bank, which takes every later sample.  An update is cut at the hand-off."""

    def __init__(self, n_dim, n_streams, rank, lam=1.0, delta=DEFAULT_DELTA, warmup=0,
                 packets=1):
        self.pooled = m.ReducedRankFilterBank(n_dim, n_streams, "krylov", rank, lam,
                                              delta, packets)
        self.jio = m.JioFilterBank(n_dim, n_streams, rank, lam, delta, packets)
        self.left = warmup  # warm-up samples still to come

    def update(self, received, desired):
        n = np.shape(received)[-1]
        head = min(n, self.left)
        if head:
            self.pooled.update(received[..., :head], desired[..., :head])
            self.left -= head
            if not self.left:
                self._hand_off()
        if head < n:
            self.jio.update(received[..., head:], desired[..., head:])

    def _hand_off(self):
        # per packet and trained stream; a collapsed ladder leaves its padded
        # coordinates inert (zero basis columns)
        corr, cross, jio = self.pooled.corr, self.pooled.cross, self.jio
        for i in range(len(corr)):
            for k in np.flatnonzero(np.any(cross[i], axis=0)):
                b = m.build_projection("krylov", corr[i], cross[i][:, k], jio.rank)
                small = b.conj().T @ corr[i] @ b
                depth = b.shape[1]
                basis, w_bar, p_bar = jio.basis[i][k], jio.w_bar[i][k], jio.p_bar[i][k]
                basis[...] = 0.0
                basis[:, :depth] = b
                w_bar[...] = 0.0
                w_bar[:depth] = np.linalg.solve(small, b.conj().T @ cross[i][:, k])
                p_bar[...] = np.eye(jio.rank)
                p_bar[:depth, :depth] = _hermitize(np.linalg.inv(small))
        jio.p_full = _hermitize(np.linalg.inv(corr))

    @property
    def weights(self):
        return (self.pooled if self.left else self.jio).weights


# substream purpose of the held-out evaluation block, beside rng's purpose codes
EVAL = 6  # not 5: renumbering would move every EVAL substream


def filter_training_experiment(cfg, snr_db, method, rank, lam, n_train, checkpoints,
                               n_eval, seed, delta=DEFAULT_DELTA):
    """BER of linear detection with trained filters, at training checkpoints.

    One channel realization per seed; filters adapt over ``n_train`` known
    symbol vectors at the given SNR and are frozen at each checkpoint to
    detect a held-out block of ``n_eval`` vectors (fresh symbols and
    noise).  Methods: ``rls`` (full rank), ``krylov``, ``pc``, ``jio``.
    The substreams depend only on (seed, purpose), so different methods
    see identical data.
    """
    checkpoints = sorted(set(int(c) for c in checkpoints))
    if not checkpoints or checkpoints[0] < 1 or checkpoints[-1] > n_train:
        raise ConfigError("checkpoints must list at least one point in [1, n_train]")
    if n_eval < 1:
        raise ConfigError(f"n_eval must be >= 1, got {n_eval}")
    if delta <= 0.0:
        raise ConfigError(f"delta must be > 0, got {delta}")
    n_streams = cfg.n_streams
    if method == "rls":
        # at full rank the bank solves the delta-regularized normal equations,
        # where the RLS recursion started from P = I / delta stands
        bank = m.ReducedRankFilterBank(cfg.n_rx_total, n_streams, "krylov",
                                       cfg.n_rx_total, lam, delta)
    elif method == "jio":
        # joint refinement starts once the pooled covariance has ~4 snapshots
        # per dimension; before that the bank runs on the Krylov ladder
        bank = WarmStartJio(cfg.n_rx_total, n_streams, rank, lam, delta,
                            warmup=4 * cfg.n_rx_total)
    elif method in ("krylov", "pc"):
        bank = m.ReducedRankFilterBank(cfg.n_rx_total, n_streams, method, rank, lam, delta)
    else:
        raise ConfigError(f"unknown training method {method!r}")

    noise_var = m.trial_noise_variance(m.ScenarioSpec(cfg), snr_db)
    chan = _draw_trial_channel(cfg, seed, 0, 0)

    def transmit(n, label_key, noise_key):
        labels = rngmod.substream(seed, 0, 0, *label_key).integers(0, 4, size=(n_streams, n))
        symbols = m.qpsk_constellation(cfg.symbol_power)[labels]
        received = channel_transmit(chan[None], symbols[None], noise_var,
                                    [rngmod.substream(seed, 0, 0, *noise_key)])[0]
        return labels, symbols, received

    _, train_syms, train_rx = transmit(n_train, (rngmod.PAYLOAD,), (rngmod.NOISE,))
    eval_labels, _, eval_rx = transmit(n_eval, (EVAL,), (EVAL, 1))
    eval_bits = m.labels_to_bits(eval_labels)
    bers = np.empty(len(checkpoints))
    for i, (lo, hi) in enumerate(zip([0] + checkpoints[:-1], checkpoints)):
        bank.update(train_rx[None, :, lo:hi], train_syms[None, :, lo:hi])
        labels = m.linear_detect(None, bank.weights[0].conj().T @ eval_rx)
        bers[i] = np.mean(m.labels_to_bits(labels) != eval_bits)
    return bers
