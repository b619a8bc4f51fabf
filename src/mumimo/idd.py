"""Iterative detection and decoding for coded uplink frames.

The receiver loops a soft-input soft-output MMSE detector with parallel
soft interference cancellation against per-stream BCJR decoders.  LLRs
follow the convention ``lambda = log P(b = 0) / P(b = 1)`` (bit 0 is the
positive amplitude), so ``P(b = 0) = 1 / (1 + exp(-lambda))``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError, StructuralError
from .txchain import (LLR_CLIP, TrellisSpec, deinterleave, interleave,
                      qpsk_constellation, trellis_predecessors,
                      trellis_tables)

_VAR_FLOOR = 1e-30

#: symbols (soft detection) or trellis steps (decoding) whose working
#: arrays exist at once; bounds the working set whatever the stream count
_CHUNK = 64


def _qpsk_amplitude(constellation, symbol_power: float) -> float:
    """``a`` of the Gray QPSK points ``a (+/-1 +/- j)``, the one point set for
    which the closed forms below hold; any other constellation is rejected."""
    if constellation is None:
        constellation = qpsk_constellation(symbol_power)
    points = np.asarray(constellation)
    amp = points[0].real if points.shape == (4,) else np.nan
    if not (amp > 0.0 and np.array_equal(points, qpsk_constellation(2.0 * amp ** 2))):
        raise ParameterError("the soft receiver needs a Gray QPSK constellation")
    return amp


def soft_symbol_stats(priors: np.ndarray, constellation=None,
                      symbol_power: float = 1.0):
    """Per-symbol soft mean and variance from bitwise prior LLRs.

    ``priors`` has shape (..., 2) holding the LLR of each QPSK label bit.
    Returns ``(means, variances)`` where the mean is the prior expectation
    of the constellation point and the variance its spread around the mean.
    Gray QPSK carries one bit per quadrature, so with ``t = tanh(lambda /
    2)`` the mean is ``a (t_0 + j t_1)`` and the variance ``a^2
    (sech^2(lambda_0 / 2) + sech^2(lambda_1 / 2))``, which keeps its
    relative accuracy for confident priors where ``E_s - |mean|^2``
    cancels.  Zero LLRs give mean 0 and variance ``2 a^2`` for every symbol.
    """
    priors = np.asarray(priors, dtype=float)
    if priors.shape[-1] != 2:
        raise StructuralError("QPSK priors need a trailing axis of 2 bit LLRs")
    amp = _qpsk_amplitude(constellation, symbol_power)
    half = 0.5 * np.clip(priors, -LLR_CLIP, LLR_CLIP)
    soft = amp * np.tanh(half)
    means = soft[..., 0] + 1j * soft[..., 1]
    sech2 = 1.0 / np.cosh(half) ** 2
    variances = amp ** 2 * (sech2[..., 0] + sech2[..., 1])
    return means, variances


def soft_mmse_sic_detect(r_block: np.ndarray, chan: np.ndarray,
                         means: np.ndarray, variances: np.ndarray,
                         noise_var: float, symbol_power: float = 1.0):
    """Soft MMSE detection with parallel soft interference cancellation.

    For each stream j the soft means of all other streams are subtracted
    and an MMSE filter built against the residual covariance
    ``sum_{m != j} v_m g_m g_m^H + noise_var I`` is applied (Wang and Poor,
    1999).  With ``A = G^H G``, the push-through identity ``G^H C_t^-1 =
    (A V_t + noise_var I)^-1 G^H`` turns each symbol's covariance ``C_t =
    G V_t G^H + noise_var I`` into one M x M solve against ``[A | G^H
    residual_t]``; no N_A x N_A matrix is formed.  When every symbol has
    the same prior variances (zero priors) the systems coincide and one
    solve serves them all.  Returns the filter outputs ``z`` (M, T) and the
    model-implied effective amplitude and residual variance per (stream,
    symbol) of the scalar model ``z = V s + xi``.
    """
    chan = np.asarray(chan, dtype=complex)
    r_block = np.asarray(r_block, dtype=complex)
    means = np.asarray(means, dtype=complex)
    variances = np.asarray(variances, dtype=float)
    n_rx, m = chan.shape
    if r_block.shape[0] != n_rx:
        raise StructuralError("received block does not match channel row count")
    if means.shape != variances.shape or means.shape[0] != m:
        raise StructuralError("soft statistics must be (M, T) matching the channel")
    if noise_var <= 0.0:
        raise ParameterError("soft MMSE detection requires noise_var > 0")
    if np.any(variances < 0):
        raise ParameterError("prior variances must be non-negative")

    gram = chan.conj().T @ chan  # A, (M, M)
    matched = chan.conj().T @ (r_block - chan @ means)  # G^H residual, (M, T)
    try:
        if np.all(variances == variances[:, :1]):
            # equal priors for every symbol (the zero-prior first IDD pass):
            # all T systems are one, so one solve takes every right-hand side
            system = gram * variances[:, 0] + noise_var * np.eye(m)
            x = np.linalg.solve(system, np.concatenate([gram, matched], axis=1))
            q = np.broadcast_to(np.diagonal(x).real[:, None], means.shape)
            u = x[:, m:] + means * q
        else:
            q = np.empty(means.shape)  # g^H C^-1 g, (M, T)
            u = np.empty_like(means)
            for t0 in range(0, means.shape[1], _CHUNK):
                span = slice(t0, t0 + _CHUNK)
                system = gram * variances.T[span, None, :]  # A V_t, (chunk, M, M)
                system += noise_var * np.eye(m)
                rhs = np.concatenate([np.broadcast_to(gram, system.shape),
                                      matched.T[span, :, None]], axis=2)
                x = np.linalg.solve(system, rhs)  # (chunk, M, M + 1)
                q[:, span] = np.diagonal(x, axis1=1, axis2=2).real.T
                u[:, span] = x[:, :, m].T + means[:, span] * q[:, span]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"soft detection system is singular: {exc}") from None

    denom = 1.0 + (symbol_power - variances) * q
    z = symbol_power * u / denom
    v_model = symbol_power * q / denom
    xi_model = np.maximum(symbol_power ** 2 * q * (1.0 - variances * q) / denom ** 2,
                          _VAR_FLOOR)
    return z, v_model, xi_model


def extrinsic_llr(z: np.ndarray, v_hat, xi_var, constellation=None,
                  symbol_power: float = 1.0, priors=None,
                  clip: float = LLR_CLIP) -> np.ndarray:
    """Detector-side bitwise LLRs from the Gaussian scalar model.

    Each candidate point ``s`` is weighted by ``exp(-|z - V s|^2 / (2
    sigma_xi^2))``.  For Gray QPSK ``a (+/-1 +/- j)`` the two label bits
    ride the two quadratures, so the log-sum-exp over each bit's subsets
    (and its max-log approximation) is exactly ``2 a V (Re z, Im z) /
    sigma_xi^2``, and the other bit's prior cancels: ``priors``, if given,
    is checked for shape and does not change the value.  Output is
    clipped to ``+/- clip``.
    """
    z = np.asarray(z, dtype=complex)
    amp = _qpsk_amplitude(constellation, symbol_power)
    if priors is not None and np.shape(priors) != z.shape + (2,):
        raise StructuralError("priors need one pair of bit LLRs per symbol")
    xi_var = np.asarray(xi_var, dtype=float)
    if np.any(xi_var < 0):
        raise ParameterError("residual variance must be non-negative")
    gain = 2.0 * amp * np.asarray(v_hat, dtype=float) / np.maximum(xi_var, _VAR_FLOOR)
    out = np.empty(z.shape + (2,))
    out[..., 0] = gain * z.real
    out[..., 1] = gain * z.imag
    return np.clip(out, -clip, clip, out=out)


# -- BCJR decoding ----------------------------------------------------------

@dataclass
class BcjrResult:
    """Outputs of one BCJR pass (arrays are per stream when batched)."""

    extrinsic: np.ndarray   # coded-bit extrinsic LLRs, same shape as the input
    info_llrs: np.ndarray   # a-posteriori LLRs of the information bits
    info_bits: np.ndarray   # hard information-bit decisions


def _branch_metrics(lam_steps: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """gamma[b, t, s, u]: half the LLRs of step t correlated with the output
    signs (S, 2, n_out) of branch (s, u)."""
    table = sign.reshape(-1, sign.shape[-1]).T  # (n_out, S * 2)
    return 0.5 * (lam_steps @ table).reshape(lam_steps.shape[:2] + sign.shape[:2])


def _state_recursions(lam_steps: np.ndarray, sign: np.ndarray,
                      trellis: TrellisSpec) -> np.ndarray:
    """Forward and backward state metrics from step LLRs (batch, t, n_out).

    Both recursions run in one loop over a stacked ``(2 * batch, n_states)``
    state vector: the alpha rows gather their predecessor states and the
    beta rows their successor states through one flat index table, and
    each adds its time-aligned branch metric.  Row ``t`` of the result
    holds alpha at time ``t`` (first ``batch`` rows) and beta at time
    ``n_steps - t`` (last ``batch`` rows); every row is max-normalized.
    """
    batch, n_steps, _ = lam_steps.shape
    n_states = trellis.n_states
    next_state, _ = trellis_tables(trellis)
    pred_state, pred_input = trellis_predecessors(trellis)
    # step t advances alpha from time t and beta from time n_steps - t; the
    # two candidate branches of every state lead the arrays, so each is a
    # contiguous (2 * batch, n_states) block
    gather = np.empty((2, 2 * batch, n_states), dtype=np.int64)
    rows = n_states * np.arange(2 * batch)[:, None]
    for k in (0, 1):
        gather[k, :batch] = rows[:batch] + pred_state[:, k]
        gather[k, batch:] = rows[batch:] + next_state[:, k]

    states = np.full((n_steps, 2 * batch, n_states), -np.inf)
    states[0, :, 0] = 0.0
    step_gammas = np.empty((_CHUNK, 2, 2 * batch, n_states))
    # alpha at n_steps and beta at 0 are never read, so one step is skipped
    for t0 in range(0, n_steps - 1, _CHUNK):
        t1 = min(t0 + _CHUNK, n_steps - 1)
        fwd = _branch_metrics(lam_steps[:, t0:t1], sign)
        bwd = _branch_metrics(lam_steps[:, n_steps - t1:n_steps - t0], sign)[:, ::-1]
        for k in (0, 1):
            step_gammas[:t1 - t0, k, :batch] = fwd[:, :, pred_state[:, k],
                                                   pred_input[:, k]].transpose(1, 0, 2)
            step_gammas[:t1 - t0, k, batch:] = bwd[:, :, :, k].transpose(1, 0, 2)
        for t in range(t0, t1):
            cand = states[t].take(gather) + step_gammas[t - t0]
            step = np.logaddexp(cand[0], cand[1])
            # normalize to keep the recursion bounded; differences are invariant
            states[t + 1] = step - np.maximum.reduce(step, axis=1, keepdims=True)
    return states


def bcjr_decode(channel_llrs: np.ndarray,
                trellis: TrellisSpec = TrellisSpec()) -> BcjrResult:
    """Exact log-domain BCJR for a zero-tail terminated convolutional code.

    ``channel_llrs`` holds one LLR per coded bit, shape (n_coded,) or
    (streams, n_coded) with ``n_coded = n_out * (k_info + memory)``.  The
    forward/backward boundary conditions pin both endpoint states at zero,
    matching the tail-bit termination.  Extrinsic LLRs are the coded-bit
    posteriors minus the inputs; information-bit LLRs exclude the tail.
    Every stream's output equals its own single-stream call.

    Only the state recursions are sequential (:func:`_state_recursions`);
    the branch posteriors are then reduced a chunk of time steps at a time.
    """
    lam = np.asarray(channel_llrs, dtype=float)
    squeeze = lam.ndim == 1
    lam = np.atleast_2d(lam)
    n_out = trellis.n_out
    if lam.shape[1] % n_out != 0:
        raise StructuralError(
            f"coded length {lam.shape[1]} is not a multiple of {n_out}")
    n_steps = lam.shape[1] // n_out
    if n_steps <= trellis.memory:
        raise StructuralError("coded block is shorter than the code tail")
    batch = lam.shape[0]
    next_state, out_bits = trellis_tables(trellis)
    sign = (1.0 - 2.0 * out_bits).astype(float)  # (S, 2, n_out), bit 0 -> +1
    lam_steps = lam.reshape(batch, n_steps, n_out)

    states = _state_recursions(lam_steps, sign, trellis)
    alphas = states[:, :batch]  # alpha at time t
    betas = states[::-1, batch:]  # beta at time t + 1
    out_flat = out_bits.reshape(-1, n_out)  # (S*2, n_out)
    input_flat = np.tile([0, 1], trellis.n_states)
    extrinsic = np.empty_like(lam_steps)
    info_llrs = np.empty((batch, n_steps))
    for t0 in range(0, n_steps, _CHUNK):
        t1 = min(t0 + _CHUNK, n_steps)
        # joint metric of every branch (s, u) at every time t of the chunk
        joint = _branch_metrics(lam_steps[:, t0:t1], sign)
        joint += alphas[t0:t1].transpose(1, 0, 2)[..., None]
        for u in (0, 1):
            joint[..., u] += betas[t0:t1, :, next_state[:, u]].transpose(1, 0, 2)
        jf = joint.reshape(batch, t1 - t0, -1)
        for c in range(n_out):
            zero = np.logaddexp.reduce(jf[..., out_flat[:, c] == 0], axis=-1)
            one = np.logaddexp.reduce(jf[..., out_flat[:, c] == 1], axis=-1)
            extrinsic[:, t0:t1, c] = zero - one - lam_steps[:, t0:t1, c]
        info_llrs[:, t0:t1] = (np.logaddexp.reduce(jf[..., input_flat == 0], axis=-1)
                               - np.logaddexp.reduce(jf[..., input_flat == 1], axis=-1))

    k_info = n_steps - trellis.memory
    info = info_llrs[:, :k_info]
    bits = (info < 0).astype(np.int8)  # ties resolve toward bit 0
    ext = extrinsic.reshape(batch, -1)
    if squeeze:
        return BcjrResult(ext[0], info[0], bits[0])
    return BcjrResult(ext, info, bits)


# -- full receiver ----------------------------------------------------------

@dataclass
class IddResult:
    """Decoded bits after the final iteration plus per-iteration snapshots."""

    info_bits: np.ndarray
    per_iteration_bits: list
    v_hat: np.ndarray
    xi_var: np.ndarray


def idd_receive(r_block: np.ndarray, chan: np.ndarray, noise_var: float,
                perms: np.ndarray, trellis: TrellisSpec = TrellisSpec(),
                symbol_power: float = 1.0, n_outer: int = 4) -> IddResult:
    """Iterative detection and decoding of one coded frame or a block of them.

    Each outer iteration forms soft symbols from the decoders' extrinsic
    LLRs, runs the soft MMSE detector, sets the scalar model ``z = V s +
    xi`` per stream to the packet average of the detector's own filter
    statistics (the receiver never sees the transmitted data), converts
    the outputs to extrinsic bit LLRs, deinterleaves them into the
    decoders, and feeds the decoder extrinsics back as the next priors.

    One frame is ``r_block`` (N_A, T), ``chan`` (N_A, M) and ``perms``
    (M, 2T).  A block of P frames stacks them on a leading axis; the soft
    detector runs per frame, while the soft statistics, demapping,
    (de)interleaving and BCJR decoding run once on all P * M streams.
    Every frame of a block decodes exactly as it would alone, and the
    results keep the leading axis.
    """
    if n_outer < 1:
        raise ParameterError("n_outer must be >= 1")
    chan = np.asarray(chan, dtype=complex)
    r_block = np.asarray(r_block, dtype=complex)
    perms = np.asarray(perms)
    single = chan.ndim == 2
    if single:
        chan, r_block, perms = chan[None], r_block[None], perms[None]
    n_pkt, _, m = chan.shape
    n_sym = r_block.shape[-1]
    if r_block.shape[0] != n_pkt or perms.shape != (n_pkt, m, 2 * n_sym):
        raise StructuralError("permutations must be (M, 2 * n_symbols) for QPSK, "
                              "one set per frame")
    perms = perms.reshape(n_pkt * m, -1)
    constellation = qpsk_constellation(symbol_power)

    priors = np.zeros((n_pkt, m, n_sym, 2))
    z = np.empty((n_pkt, m, n_sym), dtype=complex)
    v_hat = np.empty((n_pkt, m))
    xi_var = np.empty((n_pkt, m))
    per_iter = []
    for _ in range(n_outer):
        means, variances = soft_symbol_stats(priors, constellation)
        for k in range(n_pkt):
            z[k], v_model, xi_model = soft_mmse_sic_detect(
                r_block[k], chan[k], means[k], variances[k], noise_var, symbol_power)
            v_hat[k] = v_model.mean(axis=1)
            xi_var[k] = xi_model.mean(axis=1)
        lam1 = extrinsic_llr(z, v_hat[..., None], xi_var[..., None],
                             constellation).reshape(n_pkt * m, -1)
        lam1 = deinterleave(lam1, perms)
        decoded = bcjr_decode(lam1, trellis)
        feedback = np.clip(decoded.extrinsic, -LLR_CLIP, LLR_CLIP, out=decoded.extrinsic)
        priors = interleave(feedback, perms).reshape(priors.shape)
        per_iter.append(decoded.info_bits.reshape(n_pkt, m, -1))
        # the next pass's working set starts from the priors and bits alone
        del means, variances, lam1, decoded, feedback
    if single:
        per_iter, v_hat, xi_var = [bits[0] for bits in per_iter], v_hat[0], xi_var[0]
    return IddResult(info_bits=per_iter[-1], per_iteration_bits=per_iter,
                     v_hat=v_hat, xi_var=xi_var)
