"""Per-user transmit chain: convolutional coding, interleaving, QPSK framing.

Coded streams use a rate-1/2 feedforward convolutional code (generators 7
and 5 octal, constraint length 3) terminated with zero tail bits, a random
per-stream bit interleaver and Gray-mapped QPSK.  Uncoded streams map raw
bits straight onto symbols.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import matrix_sqrt
from .config import SystemConfig
from .errors import ParameterError, StructuralError

LLR_CLIP = 50.0  # feedback log-likelihood ratios are clipped to +/- this


@dataclass(frozen=True)
class TrellisSpec:
    """Feedforward convolutional code description (octal generators)."""

    constraint_length: int = 3
    generators: tuple = (0o7, 0o5)

    def __post_init__(self):
        # a generator taps the input and the memory: constraint_length bits
        k = self.constraint_length
        if k < 1 or not self.generators or not all(0 < g < 1 << k for g in self.generators):
            raise ParameterError(
                f"constraint length {k} with generators {self.generators}: a code needs "
                f"K >= 1 and at least one generator, each in [1, 2**K)")

    @property
    def memory(self) -> int:
        return self.constraint_length - 1

    @property
    def n_states(self) -> int:
        return 1 << self.memory

    @property
    def n_out(self) -> int:
        return len(self.generators)

    @property
    def rate(self) -> float:
        return 1.0 / self.n_out


@lru_cache(maxsize=8)
def trellis_tables(trellis: TrellisSpec):
    """(next_state, out_bits) tables indexed by [state, input].

    ``out_bits`` has shape (n_states, 2, n_out).  State bits hold the most
    recent input in the least significant position.
    """
    m = trellis.memory
    n_states = trellis.n_states
    next_state = np.zeros((n_states, 2), dtype=np.int64)
    out_bits = np.zeros((n_states, 2, trellis.n_out), dtype=np.int8)
    for s in range(n_states):
        reg_state = [(s >> t) & 1 for t in range(m)]  # [b(i-1), ..., b(i-m)]
        for u in (0, 1):
            reg = [u] + reg_state
            for gi, gen in enumerate(trellis.generators):
                acc = 0
                for t in range(trellis.constraint_length):
                    if (gen >> (trellis.constraint_length - 1 - t)) & 1:
                        acc ^= reg[t]
                out_bits[s, u, gi] = acc
            next_state[s, u] = (u + (s << 1)) & (n_states - 1)
    return next_state, out_bits


@lru_cache(maxsize=8)
def trellis_predecessors(trellis: TrellisSpec):
    """(pred_state, pred_input) tables indexed by [state, branch].

    State ``s'`` is entered from ``pred_state[s', k]`` under input
    ``pred_input[s', k]``; the two branches are listed in increasing
    (state, input) order.  The cached arrays are shared, so read-only.
    """
    next_state, _ = trellis_tables(trellis)
    branches = np.argsort(next_state.ravel(), kind="stable").reshape(-1, 2)
    tables = branches >> 1, branches & 1
    for table in tables:
        table.flags.writeable = False
    return tables


def conv_encode(bits, trellis: TrellisSpec = TrellisSpec()) -> np.ndarray:
    """Encode a bit vector, appending zero tail bits to flush the register.

    Output length is ``n_out * (len(bits) + memory)``; an empty input still
    produces the tail.  Each generator's output is the input convolved
    with its taps, modulo 2.
    """
    bits = np.asarray(bits, dtype=np.int64).ravel()
    if bits.size and not np.isin(bits, (0, 1)).all():
        raise ParameterError("input bits must be 0/1")
    seq = np.concatenate([bits, np.zeros(trellis.memory, dtype=np.int64)])
    shifts = np.arange(trellis.constraint_length - 1, -1, -1)
    out = np.empty((seq.size, trellis.n_out), dtype=np.int8)
    for gi, gen in enumerate(trellis.generators):
        out[:, gi] = np.convolve(seq, (gen >> shifts) & 1)[:seq.size] & 1
    return out.ravel()


def _row_perms(x, perm):
    if x.shape[-1] != perm.shape[-1]:
        raise StructuralError(
            f"length mismatch: data {x.shape[-1]} vs permutation {perm.shape[-1]}")
    return np.broadcast_to(perm, x.shape)


def interleave(x, perm) -> np.ndarray:
    """Reorder the last axis of ``x`` by ``perm``: out[..., i] = x[..., perm[..., i]].

    ``perm`` is one permutation for every row, or one per row of ``x``.
    """
    x = np.asarray(x)
    return np.take_along_axis(x, _row_perms(x, np.asarray(perm)), axis=-1)


def deinterleave(x, perm) -> np.ndarray:
    """Invert :func:`interleave` for the same permutation(s)."""
    x = np.asarray(x)
    out = np.empty_like(x)
    np.put_along_axis(out, _row_perms(x, np.asarray(perm)), x, axis=-1)
    return out


# -- QPSK -----------------------------------------------------------------

@lru_cache(maxsize=8)
def qpsk_constellation(symbol_power: float = 1.0) -> np.ndarray:
    """Gray QPSK points indexed by the 2-bit label (b0 b1).

    b0 selects the real sign, b1 the imaginary sign; bit 0 maps to +.
    Every point has energy ``symbol_power``.  The array is cached per
    symbol power and shared by every caller, so it is read-only.
    """
    if symbol_power <= 0.0:
        raise ParameterError("symbol_power must be > 0")
    amp = np.sqrt(symbol_power / 2.0)
    labels = np.arange(4)
    re = 1.0 - 2.0 * (labels >> 1)
    im = 1.0 - 2.0 * (labels & 1)
    points = amp * (re + 1j * im)
    points.setflags(write=False)
    return points


def qpsk_map(bits, symbol_power: float = 1.0) -> np.ndarray:
    """Map pairs of bits onto QPSK symbols (last axis holds the bits)."""
    bits = np.asarray(bits, dtype=np.int64)
    if bits.shape[-1] % 2 != 0:
        raise StructuralError("bit count must be even for QPSK")
    pairs = bits.reshape(bits.shape[:-1] + (-1, 2))
    labels = (pairs[..., 0] << 1) | pairs[..., 1]
    return qpsk_constellation(symbol_power)[labels]


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
    """Everything one trial transmits, per stream.

    ``data_symbols`` has shape (M, P) for M = K * N_U streams; ``pilots``
    (M, N_p), if any, precede them on the air interface.
    ``channel_bits`` holds the bits in transmitted symbol order, which for
    coded frames is the code stream interleaved by ``perms``, one
    permutation per stream.
    """

    info_bits: np.ndarray
    channel_bits: np.ndarray
    pilots: np.ndarray
    data_symbols: np.ndarray
    perms: np.ndarray = None


def assemble_frame(cfg: SystemConfig, payload_bits, pilot_len: int,
                   rng: np.random.Generator, coded: bool = False,
                   trellis: TrellisSpec = TrellisSpec()) -> SymbolFrame:
    """Build the transmit frame for all streams.

    Parameters
    ----------
    payload_bits : array (M, n_bits)
        For uncoded frames, the channel bits themselves (n_bits even).  For
        coded frames, the information bits of each stream.
    pilot_len : int
        Number of pseudo-random QPSK pilot symbols per stream, drawn from
        ``rng`` and known at the receiver.
    rng : Generator
        Frame randomness: pilots first, then one interleaver permutation
        per stream (coded frames only).
    """
    payload_bits = np.atleast_2d(np.asarray(payload_bits, dtype=np.int8))
    n_streams = cfg.n_streams
    if payload_bits.shape[0] != n_streams:
        raise StructuralError(
            f"payload has {payload_bits.shape[0]} streams, config expects {n_streams}")
    if pilot_len < 0:
        raise ParameterError("pilot_len must be >= 0")

    pilot_labels = rng.integers(0, 4, size=(n_streams, pilot_len))
    pilots = qpsk_constellation(cfg.symbol_power)[pilot_labels]

    if coded:
        coded_bits = np.stack([conv_encode(row, trellis) for row in payload_bits])
        n_coded = coded_bits.shape[1]
        if n_coded % 2 != 0:
            raise StructuralError("coded stream length must be even for QPSK")
        perms = np.stack([rng.permutation(n_coded) for _ in range(n_streams)])
        channel_bits = interleave(coded_bits, perms)
    else:
        if payload_bits.shape[1] % 2 != 0:
            raise StructuralError("uncoded payload length must be even for QPSK")
        perms = None
        channel_bits = payload_bits

    data_symbols = qpsk_map(channel_bits, cfg.symbol_power)
    return SymbolFrame(info_bits=payload_bits, channel_bits=channel_bits,
                       pilots=pilots, data_symbols=data_symbols, perms=perms)


def coded_payload_length(n_data_symbols: int, trellis: TrellisSpec = TrellisSpec(),
                         bits_per_symbol: int = 2) -> int:
    """Information bits per stream that fill ``n_data_symbols`` exactly."""
    total = n_data_symbols * bits_per_symbol
    if total % trellis.n_out != 0:
        raise ParameterError("symbol budget does not fit a whole code block")
    k_info = total // trellis.n_out - trellis.memory
    if k_info < 1:
        raise ParameterError(f"packet of {n_data_symbols} symbols is too short to code")
    return k_info


def channel_transmit(chan: np.ndarray, symbols: np.ndarray, noise_var: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Pass stacked stream symbols through the channel and add CN(0, noise_var).

    ``chan`` is (N_A, M), ``symbols`` (M, n); the result is (N_A, n) and
    always complex.  The noise is one ``standard_normal((2, N_A, n))``
    draw, every real part before any imaginary part.  The harness sends a
    packet's pilots through here, because estimators read them at the
    antennas; its data is drawn by :func:`matched_transmit`.
    """
    chan = np.asarray(chan)
    symbols = np.asarray(symbols)
    if chan.shape[1] != symbols.shape[0]:
        raise StructuralError(
            f"channel has {chan.shape[1]} streams, symbols carry {symbols.shape[0]}")
    if noise_var < 0.0:
        raise ParameterError("noise_var must be >= 0")
    out = (chan @ symbols).astype(complex, copy=False)
    if noise_var == 0.0:
        return out
    noise = rng.standard_normal((2,) + out.shape)
    noise *= np.sqrt(noise_var / 2.0)
    out.real += noise[0]
    out.imag += noise[1]
    return out


def gram_root(gram: np.ndarray) -> np.ndarray:
    """A factor L with ``L L^H = gram`` for a Gram matrix ``F^H F``.

    The Cholesky factor, unless F is rank deficient (LMS trained on fewer
    pilots than streams, say): then the factorization raises, or leaves a
    pivot ``l_ii^2`` within its own backward error ``gamma_{M+1} a_ii``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, Thm 10.3),
    a zero that rounding left positive.  Either way the Hermitian square
    root of :func:`channel.matrix_sqrt` stands in, so two front ends equal
    to rounding get the same kind of factor.
    """
    try:
        root = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return matrix_sqrt(gram)
    floor = (len(gram) + 1) * np.finfo(float).eps * np.diagonal(gram).real
    if np.all(np.diagonal(root).real ** 2 > floor):
        return root
    return matrix_sqrt(gram)


def matched_transmit(front: np.ndarray, chan: np.ndarray, symbols: np.ndarray,
                     noise_var: float, rng: np.random.Generator, out=None):
    """Draw a block of data as the front end ``front`` sees it.

    A receive front end F (N_A, M) reduces ``r = G s + n``, with n white
    CN(0, noise_var) at the N_A antennas, to ``A = F^H F`` and
    ``y = F^H r = F^H G s + F^H n``.  ``F^H n`` is CN(0, noise_var A), so
    it is drawn as ``sqrt(noise_var) L w`` with ``L L^H = A``
    (:func:`gram_root`) and w ~ CN(0, I) of shape (M, T): M x T normals
    instead of N_A x T, with the statistic's exact distribution.  w takes
    its real and imaginary parts interleaved from one
    ``standard_normal((M, 2 T))`` draw, made into y's own memory.  ``chan``
    is the true G (N_A, M) and ``symbols`` (M, T).  Returns ``(A, y)``; y
    is always complex.  ``out``, if given, is the pair of arrays, (M, M)
    and C-contiguous complex (M, T), that receive them.
    """
    front, chan, symbols = np.asarray(front), np.asarray(chan), np.asarray(symbols)
    if front.shape != chan.shape or chan.shape[1] != symbols.shape[0]:
        raise StructuralError(
            f"front end {front.shape} and channel {chan.shape} must match, with "
            f"one symbol row per stream, got {symbols.shape[0]}")
    if noise_var < 0.0:
        raise ParameterError("noise_var must be >= 0")
    gram, matched = (None, None) if out is None else out
    adjoint = front.conj().T
    gram = np.matmul(adjoint, front, out=gram)
    cross = gram if front is chan else adjoint @ chan
    if matched is None:
        matched = np.empty((len(gram), symbols.shape[1]), dtype=complex)
    if noise_var == 0.0:
        return gram, np.matmul(cross, symbols, out=matched)
    rng.standard_normal(out=matched.view(float))
    noise = (np.sqrt(noise_var / 2.0) * gram_root(gram)) @ matched
    np.matmul(cross, symbols, out=matched)
    matched += noise
    return gram, matched
