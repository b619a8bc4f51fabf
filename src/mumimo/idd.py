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


def soft_symbol_stats(priors: np.ndarray, constellation=None,
                      symbol_power: float = 1.0):
    """Per-symbol soft mean and variance from bitwise prior LLRs.

    ``priors`` has shape (..., 2) holding the LLR of each QPSK label bit.
    Returns ``(means, variances)`` where the mean is the prior expectation
    of the constellation point and the variance its spread around the mean.
    Zero LLRs give mean 0 and variance equal to the symbol energy.
    """
    priors = np.asarray(priors, dtype=float)
    if priors.shape[-1] != 2:
        raise StructuralError("QPSK priors need a trailing axis of 2 bit LLRs")
    if constellation is None:
        constellation = qpsk_constellation(symbol_power)
    lam = np.clip(priors, -LLR_CLIP, LLR_CLIP)
    p_zero = 1.0 / (1.0 + np.exp(-lam))  # P(bit = 0) per label bit
    labels = np.arange(len(constellation))
    bits = np.stack([(labels >> 1) & 1, labels & 1], axis=-1)  # (4, 2)
    # P(point) = prod over bits of the matching bit probability
    probs = np.where(bits[:, 0] == 0, p_zero[..., :1], 1.0 - p_zero[..., :1]) \
        * np.where(bits[:, 1] == 0, p_zero[..., 1:], 1.0 - p_zero[..., 1:])
    means = probs @ constellation
    spread = np.abs(constellation[None, :] - means[..., None]) ** 2
    variances = np.einsum('...m,...m->...', probs, spread)
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
    residual_t]``; no N_A x N_A matrix is formed.  Returns the filter
    outputs ``z`` (M, T) and the model-implied effective amplitude and
    residual variance per (stream, symbol) of the scalar model ``z = V s + xi``.
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
    system = gram * variances.T[:, None, :]  # A V_t, (T, M, M)
    system += noise_var * np.eye(m)
    rhs = np.concatenate([np.broadcast_to(gram, system.shape),
                          matched.T[:, :, None]], axis=2)
    try:
        x = np.linalg.solve(system, rhs)  # (T, M, M + 1)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"soft detection system is singular: {exc}") from None
    q = np.diagonal(x, axis1=1, axis2=2).real.T  # g^H C^-1 g, (M, T)
    u = x[:, :, m].T + means * q

    denom = 1.0 + (symbol_power - variances) * q
    z = symbol_power * u / denom
    v_model = symbol_power * q / denom
    xi_model = np.maximum(symbol_power ** 2 * q * (1.0 - variances * q) / denom ** 2,
                          _VAR_FLOOR)
    return z, v_model, xi_model


def extrinsic_llr(z: np.ndarray, v_hat, xi_var, constellation=None,
                  symbol_power: float = 1.0, priors=None,
                  max_log: bool = False, clip: float = LLR_CLIP) -> np.ndarray:
    """Detector-side bitwise LLRs from the Gaussian scalar model.

    For each bit the candidate constellation points are weighted by
    ``exp(-|z - V a|^2 / (2 sigma_xi^2))`` (plus the other bits' priors if
    given), reduced by log-sum-exp over the bit-0 and bit-1 subsets and
    differenced; for Gray QPSK the prior weighting on the other bit has no
    effect.  ``max_log = True`` substitutes a max for the log-sum-exp.
    Output is clipped to ``+/- clip``.
    """
    z = np.asarray(z, dtype=complex)
    if constellation is None:
        constellation = qpsk_constellation(symbol_power)
    constellation = np.asarray(constellation)
    if np.any(np.asarray(xi_var) < 0):
        raise ParameterError("residual variance must be non-negative")
    v = np.broadcast_to(np.asarray(v_hat, dtype=float), z.shape)
    s2 = np.broadcast_to(np.maximum(np.asarray(xi_var, dtype=float), _VAR_FLOOR),
                         z.shape)
    diff = z[..., None] - v[..., None] * constellation  # broadcast over points
    metric = -np.abs(diff) ** 2 / (2.0 * s2[..., None])
    labels = np.arange(len(constellation))
    bit_table = np.stack([(labels >> 1) & 1, labels & 1], axis=0)  # (2, 4)
    if priors is not None:
        priors = np.clip(np.asarray(priors, dtype=float), -LLR_CLIP, LLR_CLIP)
        # total prior weight per point; each bit's own prior is removed after
        # the reduction, leaving only the other bits' contribution
        sign = 1.0 - 2.0 * bit_table  # bit 0 -> +1
        metric = metric + 0.5 * np.einsum('...c,cm->...m', priors, sign)
    out = np.empty(z.shape + (2,))
    for c in range(2):
        zero = metric[..., bit_table[c] == 0]
        one = metric[..., bit_table[c] == 1]
        if max_log:
            out[..., c] = zero.max(axis=-1) - one.max(axis=-1)
        else:
            out[..., c] = (np.logaddexp.reduce(zero, axis=-1)
                           - np.logaddexp.reduce(one, axis=-1))
        if priors is not None:
            out[..., c] -= priors[..., c]
    return np.clip(out, -clip, clip)


# -- BCJR decoding ----------------------------------------------------------

@dataclass
class BcjrResult:
    """Outputs of one BCJR pass (arrays are per stream when batched)."""

    extrinsic: np.ndarray   # coded-bit extrinsic LLRs, same shape as the input
    info_llrs: np.ndarray   # a-posteriori LLRs of the information bits
    info_bits: np.ndarray   # hard information-bit decisions


def _state_recursions(gammas: np.ndarray, trellis: TrellisSpec) -> np.ndarray:
    """Forward and backward state metrics from branch metrics (batch, t, s, u).

    Both recursions run in one loop over a stacked ``(2 * batch, n_states)``
    state vector: the alpha rows gather their predecessor states and the
    beta rows their successor states through one flat index table, and
    each adds its time-aligned branch metric.  Row ``t`` of the result
    holds alpha at time ``t`` (first ``batch`` rows) and beta at time
    ``n_steps - t`` (last ``batch`` rows); every row is max-normalized.
    """
    batch, n_steps, n_states, _ = gammas.shape
    next_state, _ = trellis_tables(trellis)
    pred_state, pred_input = trellis_predecessors(trellis)
    # step t advances alpha from time t and beta from time n_steps - t; the
    # two candidate branches of every state lead the arrays, so each is a
    # contiguous (2 * batch, n_states) block
    step_gammas = np.empty((n_steps, 2, 2 * batch, n_states))
    gather = np.empty((2, 2 * batch, n_states), dtype=np.int64)
    rows = n_states * np.arange(2 * batch)[:, None]
    for k in (0, 1):
        step_gammas[:, k, :batch] = gammas[:, :, pred_state[:, k],
                                           pred_input[:, k]].transpose(1, 0, 2)
        step_gammas[:, k, batch:] = gammas[:, ::-1, :, k].transpose(1, 0, 2)
        gather[k, :batch] = rows[:batch] + pred_state[:, k]
        gather[k, batch:] = rows[batch:] + next_state[:, k]

    states = np.full((n_steps, 2 * batch, n_states), -np.inf)
    states[0, :, 0] = 0.0
    # alpha at n_steps and beta at 0 are never read, so one step is skipped
    for t in range(n_steps - 1):
        cand = states[t].take(gather) + step_gammas[t]
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

    Only the state recursions are sequential (:func:`_state_recursions`);
    the branch posteriors are then reduced for all time steps at once.
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

    # branch metrics gamma[t] for all (state, input) pairs at once
    gammas = 0.5 * np.einsum('btc,suc->btsu', lam_steps, sign)
    states = _state_recursions(gammas, trellis)
    alphas = states[:, :batch].transpose(1, 0, 2)  # alpha at time t
    betas = states[::-1, batch:].transpose(1, 0, 2)  # beta at time t + 1
    # joint metric of every branch (s, u) at every time t; it reuses the
    # gammas buffer, which nothing reads afterwards
    joint = np.add(alphas[..., None], gammas, out=gammas)
    for u in (0, 1):
        joint[..., u] += betas[:, :, next_state[:, u]]
    jf = joint.reshape(batch, n_steps, -1)
    out_flat = out_bits.reshape(-1, n_out)  # (S*2, n_out)
    input_flat = np.tile([0, 1], trellis.n_states)
    extrinsic = np.empty_like(lam_steps)
    for c in range(n_out):
        zero = np.logaddexp.reduce(jf[..., out_flat[:, c] == 0], axis=-1)
        one = np.logaddexp.reduce(jf[..., out_flat[:, c] == 1], axis=-1)
        extrinsic[..., c] = zero - one - lam_steps[..., c]
    info_llrs = (np.logaddexp.reduce(jf[..., input_flat == 0], axis=-1)
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
                symbol_power: float = 1.0, n_outer: int = 4,
                max_log: bool = False) -> IddResult:
    """Iterative detection and decoding of one coded frame.

    Each outer iteration forms soft symbols from the decoders' extrinsic
    LLRs, runs the soft MMSE detector, sets the scalar model ``z = V s +
    xi`` per stream to the packet average of the detector's own filter
    statistics (the receiver never sees the transmitted data), converts
    the outputs to extrinsic bit LLRs, deinterleaves them into the
    decoders, and feeds the decoder extrinsics back as the next priors.
    """
    if n_outer < 1:
        raise ParameterError("n_outer must be >= 1")
    chan = np.asarray(chan, dtype=complex)
    r_block = np.asarray(r_block, dtype=complex)
    perms = np.asarray(perms)
    m = chan.shape[1]
    n_sym = r_block.shape[1]
    if perms.shape[0] != m or perms.shape[1] != 2 * n_sym:
        raise StructuralError("permutations must be (M, 2 * n_symbols) for QPSK")
    constellation = qpsk_constellation(symbol_power)

    priors = np.zeros((m, n_sym, 2))
    per_iter = []
    info_bits = None
    v_hat = xi_var = None
    for _ in range(n_outer):
        means, variances = soft_symbol_stats(priors, constellation, symbol_power)
        z, v_model, xi_model = soft_mmse_sic_detect(
            r_block, chan, means, variances, noise_var, symbol_power)
        v_hat = v_model.mean(axis=1)
        xi_var = xi_model.mean(axis=1)
        lam1 = extrinsic_llr(z, v_hat[:, None], xi_var[:, None], constellation,
                             symbol_power, max_log=max_log)
        lam1_flat = lam1.reshape(m, -1)
        dec_in = np.stack([deinterleave(row, p) for row, p in zip(lam1_flat, perms)])
        decoded = bcjr_decode(dec_in, trellis)
        feedback = np.clip(decoded.extrinsic, -LLR_CLIP, LLR_CLIP)
        priors = np.stack([interleave(row, p) for row, p in
                           zip(feedback, perms)]).reshape(m, n_sym, 2)
        info_bits = decoded.info_bits
        per_iter.append(info_bits)
    return IddResult(info_bits=info_bits, per_iteration_bits=per_iter,
                     v_hat=v_hat, xi_var=xi_var)
