"""Per-user transmit chain: convolutional coding, interleaving, QPSK framing.

Coded streams use the simulator's one code, a rate-1/2 feedforward
convolutional code (generators 7 and 5 octal, constraint length 3, kept as
module constants) terminated with zero tail bits, a random
per-stream bit interleaver and Gray-mapped QPSK.  Uncoded streams map raw
bits straight onto symbols.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import matrix_sqrt
from .config import SystemConfig
from .errors import ParameterError

LLR_CLIP = 50.0  # feedback log-likelihood ratios are clipped to +/- this


#: the one code: rate 1/2, constraint length MEMORY + 1 = 3, generators 7
#: and 5 octal
GENERATORS = (0o7, 0o5)
MEMORY = 2
RATE = 1 / len(GENERATORS)

#: TAPS[g, i] = 1 where generator g taps register bit i, the oldest bit first
TAPS = (np.array(GENERATORS)[:, None] >> np.arange(MEMORY + 1) & 1).astype(np.int8)


def _code_bits(registers) -> np.ndarray:
    """Code bits (..., len(GENERATORS)) of register contents (..., MEMORY + 1),
    oldest bit first: each generator's XOR of the bits its taps select."""
    return np.bitwise_xor.reduce(registers[..., None, :] & TAPS, axis=-1)


#: the trellis, indexed by [state, input].  A state holds the last MEMORY
#: inputs, the most recent in the least significant bit, so state s under
#: input u holds the register 2 s + u and moves to (2 s + u) mod 2**MEMORY
_REGISTERS = np.arange(2 << MEMORY)
NEXT_STATE = (_REGISTERS % (1 << MEMORY)).reshape(-1, 2)
OUT_BITS = _code_bits(_REGISTERS[:, None] >> np.arange(MEMORY, -1, -1) & 1).astype(
    np.int8).reshape(-1, 2, len(GENERATORS))
for _table in (TAPS, NEXT_STATE, OUT_BITS):
    _table.flags.writeable = False


def conv_encode(bits) -> np.ndarray:
    """Encode bit rows (..., n) with zero tail bits that flush the register,
    into int8 code rows (..., 2 (n + MEMORY)).

    An empty row still produces the tail.  Each generator's output is the
    XOR of the register bits its taps select: the input convolved with the
    taps, modulo 2.  ``bits`` are rows of 0/1, as the payload draw gives.
    """
    bits = np.asarray(bits)
    # MEMORY zeros (the register's start), the input, then the tail
    seq = np.zeros(bits.shape[:-1] + (bits.shape[-1] + 2 * MEMORY,), dtype=np.int8)
    seq[..., MEMORY:seq.shape[-1] - MEMORY] = bits
    regs = sliding_window_view(seq, MEMORY + 1, axis=-1)  # (..., n + MEMORY, MEMORY + 1)
    return _code_bits(regs).reshape(bits.shape[:-1] + (-1,))


def interleave(x, perm) -> np.ndarray:
    """Reorder the last axis of ``x`` by ``perm``: out[..., i] = x[..., perm[..., i]].

    ``perm`` is one permutation for every row, or one per row of ``x``, of
    the rows' length.
    """
    x = np.asarray(x)
    return np.take_along_axis(x, np.broadcast_to(perm, x.shape), axis=-1)


def deinterleave(x, perm) -> np.ndarray:
    """Invert :func:`interleave` for the same permutation(s)."""
    x = np.asarray(x)
    out = np.empty_like(x)
    np.put_along_axis(out, np.broadcast_to(perm, x.shape), x, axis=-1)
    return out


# -- QPSK -----------------------------------------------------------------

@lru_cache(maxsize=8)
def qpsk_constellation(symbol_power: float = 1.0) -> np.ndarray:
    """Gray QPSK points indexed by the 2-bit label (b0 b1).

    b0 selects the real sign, b1 the imaginary sign; bit 0 maps to +.
    Every point has energy ``symbol_power``.  The array is cached per
    symbol power and shared by every caller, so it is read-only.
    ``symbol_power`` > 0, as ``SystemConfig`` guarantees.
    """
    amp = np.sqrt(symbol_power / 2.0)
    labels = np.arange(4)
    re = 1.0 - 2.0 * (labels >> 1)
    im = 1.0 - 2.0 * (labels & 1)
    points = amp * (re + 1j * im)
    points.setflags(write=False)
    return points


def qpsk_map(bits, symbol_power: float = 1.0) -> np.ndarray:
    """Map pairs of bits onto QPSK symbols (last axis holds the bits).

    The labels are formed in the bits' own integer type (int8 channel
    bits stay int8); bits of any other type are read as int64.  The bit
    count is even: two per symbol, as a frame lays them out."""
    bits = np.asarray(bits)
    if bits.dtype.kind not in "iu":
        bits = bits.astype(np.int64)
    pairs = bits.reshape(bits.shape[:-1] + (-1, 2))
    labels = pairs[..., 0] << 1
    labels |= pairs[..., 1]
    return qpsk_constellation(symbol_power).take(labels)


def qpsk_slice_labels(symbols) -> np.ndarray:
    """Hard decisions as 2-bit labels; boundary ties resolve toward bit 0."""
    symbols = np.asarray(symbols)
    labels = (symbols.real < 0).astype(np.int64)
    labels <<= 1
    labels |= symbols.imag < 0
    return labels


def labels_to_bits(labels) -> np.ndarray:
    labels = np.asarray(labels)
    bits = np.empty(labels.shape + (2,), dtype=np.int8)
    np.right_shift(labels, 1, out=bits[..., 0], casting="unsafe")
    np.bitwise_and(labels, 1, out=bits[..., 1], casting="unsafe")
    bits[..., 0] &= 1
    return bits


# -- frame assembly ---------------------------------------------------------

@dataclass
class SymbolFrame:
    """Everything a block of P packets transmits, per packet and stream.

    ``data_symbols`` has shape (P, M, T) for M = K * N_U streams;
    ``pilots`` (P, M, N_p), if any, precede them on the air interface.
    ``channel_bits`` (P, M, 2 T) holds the bits in transmitted symbol
    order, which for coded frames is the code stream interleaved by
    ``perms``, one permutation per packet and stream.
    """

    info_bits: np.ndarray
    channel_bits: np.ndarray
    pilots: np.ndarray
    data_symbols: np.ndarray
    perms: np.ndarray = None


def assemble_frame(cfg: SystemConfig, payload_bits, pilot_len: int, rngs,
                   coded: bool = False) -> SymbolFrame:
    """Build the transmit frames of P packets, every array stacked (P, M, ...).

    Parameters
    ----------
    payload_bits : array (P, M, n_bits)
        For uncoded frames, the channel bits themselves (n_bits even).  For
        coded frames, the information bits of each stream.  M is
        ``cfg.n_streams``, as ``harness._receive_block`` draws them.
    pilot_len : int
        Number of pseudo-random QPSK pilot symbols per stream (>= 0, as
        ``validate`` guarantees), drawn from the packet's generator and
        known at the receiver.
    rngs : sequence of Generator
        Frame randomness, one generator per packet: its pilots first, then
        one interleaver permutation per stream (coded frames only).
    """
    payload_bits = np.asarray(payload_bits)
    n_streams = cfg.n_streams
    pilot_labels = np.empty((len(rngs), n_streams, pilot_len), dtype=np.int64)
    for rng, labels in zip(rngs, pilot_labels):
        labels[...] = rng.integers(0, 4, size=labels.shape)
    pilots = qpsk_constellation(cfg.symbol_power).take(pilot_labels)

    info_bits = payload_bits.astype(np.int8, copy=False)
    if coded:
        coded_bits = conv_encode(payload_bits)
        n_coded = coded_bits.shape[-1]
        perms = np.empty(coded_bits.shape, dtype=np.int64)
        for rng, packet in zip(rngs, perms):
            for perm in packet:
                perm[...] = rng.permutation(n_coded)
        channel_bits = interleave(coded_bits, perms)
    else:
        perms = None
        channel_bits = info_bits

    data_symbols = qpsk_map(channel_bits, cfg.symbol_power)
    return SymbolFrame(info_bits=info_bits, channel_bits=channel_bits, pilots=pilots,
                       data_symbols=data_symbols, perms=perms)


def coded_payload_length(n_data_symbols: int) -> int:
    """Information bits per stream that fill ``n_data_symbols`` QPSK symbols:
    a symbol carries the two code bits of one trellis step, and the last
    MEMORY steps are the tail."""
    k_info = n_data_symbols - MEMORY
    if k_info < 1:
        raise ParameterError(f"packet of {n_data_symbols} symbols is too short to code")
    return k_info


def channel_transmit(chan: np.ndarray, symbols: np.ndarray, noise_var: float,
                     rngs) -> np.ndarray:
    """Pass P packets' stream symbols through their channels and add
    CN(0, noise_var).

    ``chan`` is (P, N_A, M), ``symbols`` (P, M, n) and ``rngs`` one
    generator per packet; the result is (P, N_A, n) and always complex.
    A packet's noise is one ``standard_normal((2, N_A, n))`` draw from its
    generator, every real part before any imaginary part.  The harness
    sends a block's pilots through here, because estimators read them at
    the antennas; its data is drawn by :func:`matched_transmit`.
    ``noise_var`` > 0, as ``validate`` guarantees.
    """
    chan = np.asarray(chan)
    symbols = np.asarray(symbols)
    out = (chan @ symbols).astype(complex, copy=False)
    noise = np.empty((len(out), 2) + out.shape[1:])
    for rng, packet in zip(rngs, noise):
        rng.standard_normal(out=packet)
    noise *= np.sqrt(noise_var / 2.0)
    out.real += noise[:, 0]
    out.imag += noise[:, 1]
    return out


def gram_root(gram: np.ndarray) -> np.ndarray:
    """A factor L with ``L L^H = gram`` for each Gram matrix ``F^H F`` of a
    stack (..., M, M).

    The Cholesky factor, unless F is rank deficient (LMS trained on fewer
    pilots than streams, say): then the factorization raises, or leaves a
    pivot ``l_ii^2`` within its own backward error ``gamma_{M+1} a_ii``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, Thm 10.3),
    a zero that rounding left positive.  Either way the Hermitian square
    root of :func:`channel.matrix_sqrt` stands in for that item, so two
    front ends equal to rounding get the same kind of factor.  One stacked
    factorization is one LAPACK call per item; if any item cannot be
    factored, the items are factored one by one.
    """
    gram = np.asarray(gram)
    try:
        root = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        if gram.ndim == 2:
            return matrix_sqrt(gram)
        return np.stack([gram_root(item) for item in gram])
    floor = ((gram.shape[-1] + 1) * np.finfo(float).eps
             * np.diagonal(gram, axis1=-2, axis2=-1).real)
    weak = ~np.all(np.diagonal(root, axis1=-2, axis2=-1).real ** 2 > floor, axis=-1)
    for item in np.ndindex(weak.shape):
        if weak[item]:
            root[item] = matrix_sqrt(gram[item])
    return root


def matched_transmit(front: np.ndarray, chan: np.ndarray, symbols: np.ndarray,
                     noise_var: float, rngs):
    """Draw P packets' data as their front ends see it.

    A receive front end F (N_A, M) reduces ``r = G s + n``, with n white
    CN(0, noise_var) at the N_A antennas, to ``A = F^H F`` and
    ``y = F^H r = F^H G s + F^H n``.  ``F^H n`` is CN(0, noise_var A), so
    it is drawn as ``sqrt(noise_var) L w`` with ``L L^H = A``
    (:func:`gram_root`) and w ~ CN(0, I) of shape (M, T): M x T normals
    instead of N_A x T, with the statistic's exact distribution.  A
    packet's w takes its real and imaginary parts interleaved from one
    ``standard_normal((M, 2 T))`` draw of its generator, made into its
    slot of y.  ``front`` and ``chan`` (the true G) are (P, N_A, M),
    ``symbols`` (P, M, T) and ``rngs`` one generator per packet.  Returns
    the stacks ``(A, y)``, (P, M, M) and (P, M, T); y is always complex.
    Every product is one BLAS call per packet, so a packet's statistic is
    what a stack of that packet alone gives it.  ``noise_var`` > 0, as
    ``validate`` guarantees.
    """
    front, chan, symbols = np.asarray(front), np.asarray(chan), np.asarray(symbols)
    adjoint = np.conj(front).swapaxes(-1, -2)
    gram = adjoint @ front
    cross = gram if front is chan else adjoint @ chan
    matched = np.empty(gram.shape[:-1] + symbols.shape[-1:], dtype=complex)
    for rng, packet in zip(rngs, matched):
        rng.standard_normal(out=packet.view(float))
    noise = (np.sqrt(noise_var / 2.0) * gram_root(gram)) @ matched
    np.matmul(cross, symbols, out=matched)
    matched += noise
    return gram, matched
