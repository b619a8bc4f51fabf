"""Iterative detection and decoding for coded uplink frames.

The receiver loops a soft-input soft-output MMSE detector with parallel
soft interference cancellation against per-stream BCJR decoders.  LLRs
follow the convention ``lambda = log P(b = 0) / P(b = 1)`` (bit 0 is the
positive amplitude), so ``P(b = 0) = 1 / (1 + exp(-lambda))``.

The soft detector takes the detectors' stacks: Gram matrices ``(..., M, M)``
and matched outputs ``(..., M, T)`` with the same leading axes.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, StructuralError
from .txchain import (GENERATORS, LLR_CLIP, MEMORY, NEXT_STATE, OUT_BITS, deinterleave,
                      interleave)

_VAR_FLOOR = 1e-30

#: symbols (soft detection) or trellis steps (decoding) whose working
#: arrays exist at once; bounds the working set whatever the stream count
_CHUNK = 64


def soft_symbol_stats(priors: np.ndarray, symbol_power: float = 1.0):
    """Per-symbol soft mean and variance from bitwise prior LLRs.

    ``priors`` has shape (..., 2) holding the LLR of each QPSK label bit.
    Returns ``(means, variances)`` where the mean is the prior expectation
    of the Gray QPSK point ``a (+/-1 +/- j)``, ``a = sqrt(symbol_power /
    2)``, and the variance its spread around the mean.  Gray QPSK carries
    one bit per quadrature, so with ``t = tanh(lambda / 2)`` the mean is ``a (t_0 + j t_1)`` and the variance ``a^2
    (sech^2(lambda_0 / 2) + sech^2(lambda_1 / 2))``, which keeps its
    relative accuracy for confident priors where ``E_s - |mean|^2``
    cancels.  Zero LLRs give mean 0 and variance ``2 a^2`` for every symbol.
    ``symbol_power`` > 0, as ``SystemConfig`` guarantees.
    """
    priors = np.asarray(priors, dtype=float)
    amp = np.sqrt(symbol_power / 2.0)
    half = 0.5 * np.clip(priors, -LLR_CLIP, LLR_CLIP)
    soft = amp * np.tanh(half)
    means = soft[..., 0] + 1j * soft[..., 1]
    sech2 = 1.0 / np.cosh(half) ** 2
    variances = amp ** 2 * (sech2[..., 0] + sech2[..., 1])
    return means, variances


def soft_mmse_sic_detect(gram: np.ndarray, matched: np.ndarray,
                         means: np.ndarray, variances: np.ndarray,
                         noise_var: float, symbol_power: float = 1.0):
    """Soft MMSE detection with parallel soft interference cancellation.

    For each stream j the soft means of all other streams are subtracted
    and an MMSE filter built against the residual covariance
    ``sum_{m != j} v_m g_m g_m^H + noise_var I`` is applied (Wang and Poor,
    1999).  A packet reaches it in the matched-filter domain, as ``A =
    G^H G`` (M, M) and ``y = G^H r`` (M, T): the push-through identity
    ``G^H C_t^-1 = (A V_t + noise_var I)^-1 G^H`` turns each symbol's
    covariance ``C_t = G V_t G^H + noise_var I`` into one M x M solve
    against ``[A | y_t - A means_t]``; no N_A x N_A matrix is formed.  A
    block's packets stack on leading axes.  When every stream of every
    packet has one prior variance at all its symbols (zero priors, or priors
    saturated at the clip), a packet's systems are one, and one solve gives
    the bytes of the per-symbol solves.  Returns the filter outputs ``z``
    (..., M, T) and the model-implied effective amplitude and residual
    variance per (stream, symbol) of the scalar model ``z = V s + xi``.
    ``means`` and ``variances`` have the shape of ``matched``, the variances
    are those of :func:`soft_symbol_stats` (non-negative), and ``noise_var``
    > 0, as ``validate`` guarantees.
    """
    means = np.asarray(means, dtype=complex)
    variances = np.asarray(variances, dtype=float)
    m = gram.shape[-1]

    residual = matched - gram @ means  # G^H (r - G means), (..., M, T)
    try:
        if np.all(variances == variances[..., :1]):
            # each item's T systems are one: one solve takes every right-hand side
            system = gram * variances[..., None, :, 0] + noise_var * np.eye(m)
            x = np.linalg.solve(system, np.concatenate([gram, residual], axis=-1))
            q = np.diagonal(x, axis1=-2, axis2=-1).real[..., None]  # g^H C^-1 g
            u = x[..., m:] + means * q
        else:
            q = np.empty(means.shape)  # g^H C^-1 g, (..., M, T)
            u = np.empty_like(means)
            for t0 in range(0, means.shape[-1], _CHUNK):
                span = np.s_[..., t0:t0 + _CHUNK]
                system = gram[..., None, :, :] * variances[span].swapaxes(-1, -2)[..., None, :]
                system += noise_var * np.eye(m)  # A V_t + noise_var I, (..., chunk, M, M)
                rhs = np.concatenate([np.broadcast_to(gram[..., None, :, :], system.shape),
                                      residual[span].swapaxes(-1, -2)[..., None]], axis=-1)
                x = np.linalg.solve(system, rhs)  # (..., chunk, M, M + 1)
                q[span] = np.diagonal(x, axis1=-2, axis2=-1).real.swapaxes(-1, -2)
                u[span] = x[..., m].swapaxes(-1, -2) + means[span] * q[span]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"soft detection system is singular: {exc}") from None

    denom = 1.0 + (symbol_power - variances) * q
    z = symbol_power * u / denom
    v_model = symbol_power * q / denom
    xi_model = np.maximum(symbol_power ** 2 * q * (1.0 - variances * q) / denom ** 2,
                          _VAR_FLOOR)
    return z, v_model, xi_model


def extrinsic_llr(z: np.ndarray, v_hat, xi_var, symbol_power: float = 1.0,
                  clip: float = LLR_CLIP) -> np.ndarray:
    """Detector-side bitwise LLRs from the Gaussian scalar model.

    Each candidate point ``s`` is weighted by ``exp(-|z - V s|^2 / (2
    sigma_xi^2))``.  For Gray QPSK ``a (+/-1 +/- j)``, ``a =
    sqrt(symbol_power / 2)``, the two label bits ride the two quadratures,
    so the log-sum-exp over each bit's subsets (and its max-log
    approximation) is exactly ``2 a V (Re z, Im z) / sigma_xi^2``, and the
    other bit's prior cancels, so the value needs no priors.  Output is
    clipped to ``+/- clip``.  ``symbol_power`` > 0, as ``SystemConfig``
    guarantees, and ``xi_var`` >= 0, as :func:`soft_mmse_sic_detect` floors it.
    """
    z = np.asarray(z, dtype=complex)
    amp = np.sqrt(symbol_power / 2.0)
    xi_var = np.asarray(xi_var, dtype=float)
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


def _branch_weights(lam_t: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Weights ``exp(lambda . sign / 2 - sum |lambda| / 2)`` (t, ..., cols) of
    the branches with output bits ``bits`` (..., cols, n_out) at every step
    of the LLRs ``lam_t`` (t, n_out, cols): the product over coded bits c of
    ``exp(min(0, +/-lambda_c))`` for bit 0 or 1, which is 1 where the bit
    agrees with the sign of lambda_c."""
    n_steps, n_out, cols = lam_t.shape
    factors = np.empty((n_steps, n_out, 2, cols))
    np.minimum(lam_t, 0.0, out=factors[:, :, 0])
    np.minimum(-lam_t, 0.0, out=factors[:, :, 1])
    factors = np.exp(factors, out=factors).reshape(n_steps, -1)
    # flat position of each branch's bit-c factor in a step's factors
    index = cols * (2 * np.arange(n_out) + bits) + np.arange(cols)[:, None]
    weights = factors.take(index[..., 0], axis=1)
    for c in range(1, n_out):
        weights *= factors.take(index[..., c], axis=1)
    return weights


def _state_recursions(lam_t: np.ndarray) -> np.ndarray:
    """Forward and backward state probabilities from step LLRs (t, n_out,
    batch), in one loop over a stacked ``(n_states, 2 * batch)`` slice: alpha
    columns gather their predecessor states and beta columns their successor
    states through one flat index table, each weighed by its branch.  Slice
    ``t`` holds alpha at time ``t`` (first ``batch`` columns) and beta at
    time ``n_steps - t``, each column scaled to a maximum of 1.
    """
    n_steps, _, batch = lam_t.shape
    width = 2 * batch
    # the trellis read backwards: state s is entered from pred_state[s, k]
    # under input pred_input[s, k], the two branches in increasing (state,
    # input) order
    pred_state, pred_input = np.divmod(
        np.argsort(NEXT_STATE.ravel(), kind="stable").reshape(-1, 2), 2)
    cols = np.arange(width)
    fwd = cols < batch  # the alpha columns
    # the two candidate branches k of every state s lead the arrays, so each
    # is a contiguous (n_states, 2 * batch) block: alpha's enters s from
    # pred_state[s, k], beta's leaves s under input k
    gather = width * np.where(fwd, pred_state.T[..., None], NEXT_STATE.T[..., None]) + cols
    bits = np.where(fwd[:, None], OUT_BITS[pred_state.T, pred_input.T][:, :, None],
                    OUT_BITS.swapaxes(0, 1)[:, :, None])  # (2, S, width, n_out)

    states = np.zeros((n_steps, len(NEXT_STATE), width))
    states[0, 0] = 1.0
    cand, scale = np.empty((2,) + states.shape[1:]), np.empty(width)
    # alpha at n_steps and beta at 0 are never read, so one step is skipped
    for t0 in range(0, n_steps - 1, _CHUNK):
        t1 = min(t0 + _CHUNK, n_steps - 1)
        # step t advances alpha with step t and beta with step n_steps - 1 - t
        back = lam_t[n_steps - t1:n_steps - t0][::-1]
        weights = _branch_weights(np.concatenate([lam_t[t0:t1], back], axis=-1), bits)
        for prev, step, weight in zip(states[t0:t1], states[t0 + 1:t1 + 1], weights):
            prev.take(gather, out=cand, mode="clip")
            np.multiply(cand, weight, out=cand)
            np.add(cand[0], cand[1], out=step)
            # rescale to keep the recursion in range; ratios are invariant
            np.maximum.reduce(step, out=scale)
            np.divide(step, scale, out=step)
    return states


def bcjr_decode(channel_llrs: np.ndarray) -> BcjrResult:
    """Scaled probability-domain BCJR for the zero-tail terminated code of
    :mod:`txchain`.

    ``channel_llrs`` (..., n_coded) holds one row of LLRs per stream, with
    ``n_coded = n_out * (k_info + MEMORY)`` and ``k_info`` >= 1, as
    ``validate``'s packet length check guarantees; the results keep its leading
    axes.  It is clipped to ``+/- LLR_CLIP`` first, as the receiver's
    demapper already does, so no branch weight is below ``exp(-n_out *
    LLR_CLIP)`` and the state probabilities, rescaled every step, stay in
    range.  Both endpoint states are pinned at zero (tail termination).
    Extrinsic LLRs are the coded-bit posteriors minus the clipped inputs;
    information-bit LLRs exclude the tail.  The joint weights ``alpha w
    beta`` are summed over each bit's branches a chunk of steps at a time,
    with one ``log(S0/S1)`` per bit: the log-MAP posteriors (Robertson,
    Villebrun and Hoeher, 1995) up to rounding.  Every stream decodes as
    its own call would.
    """
    lam = np.clip(np.asarray(channel_llrs, dtype=float), -LLR_CLIP, LLR_CLIP)
    n_out = len(GENERATORS)
    if lam.ndim == 0 or lam.shape[-1] % n_out != 0:
        raise StructuralError(
            f"coded LLRs of shape {lam.shape} do not end in a multiple of {n_out}")
    n_steps = lam.shape[-1] // n_out
    k_info = n_steps - MEMORY
    # the clipped copy turns into the extrinsics a chunk at a time
    ext = lam.reshape(-1, n_steps, n_out)
    batch = len(ext)
    lam_t = ext.transpose(1, 2, 0)  # (t, n_out, batch)

    states = _state_recursions(lam_t)
    # members[i, 2 g + v]: the i-th branch whose bit g (coded bits, then input) is v
    labels = np.column_stack([OUT_BITS.reshape(-1, n_out), np.tile([0, 1], len(OUT_BITS))])
    members = np.stack([np.flatnonzero(bit == v) for bit in labels.T for v in (0, 1)], 1)
    info = np.empty((batch, k_info))
    for t0 in range(0, n_steps, _CHUNK):
        t1 = min(t0 + _CHUNK, n_steps)
        joint = _branch_weights(lam_t[t0:t1], OUT_BITS[:, :, None])  # (t, S, 2, batch)
        joint *= states[t0:t1, :, None, :batch]  # alpha at time t
        joint *= states[::-1][t0:t1, NEXT_STATE, batch:]  # beta at time t + 1
        joint = joint.reshape(t1 - t0, -1, batch)
        # a left fold over the members, so every stream sums its branches alike
        sums = joint[:, members[0]]
        for branches in members[1:]:
            sums += joint[:, branches]
        with np.errstate(divide="ignore"):  # a bit the code fixes gets an infinite LLR
            post = np.log(sums[:, 0:-2:2] / sums[:, 1:-2:2]).transpose(2, 0, 1)
        ext[:, t0:t1] = post - ext[:, t0:t1]
        # the tail steps carry no input-1 mass, so only k_info steps are formed
        n_info = max(0, min(t1, k_info) - t0)
        info[:, t0:t0 + n_info] = np.log(sums[:n_info, -2] / sums[:n_info, -1]).T

    info = info.reshape(lam.shape[:-1] + (k_info,))
    bits = (info < 0).astype(np.int8)  # ties resolve toward bit 0
    return BcjrResult(ext.reshape(lam.shape), info, bits)


# -- full receiver ----------------------------------------------------------

@dataclass
class IddResult:
    """Decoded bits after the final iteration plus per-iteration snapshots."""

    info_bits: np.ndarray
    per_iteration_bits: list
    v_hat: np.ndarray
    xi_var: np.ndarray


def idd_receive(grams: np.ndarray, matched: np.ndarray, noise_var: float,
                perms: np.ndarray, symbol_power: float = 1.0,
                n_outer: int = 4) -> IddResult:
    """Iterative detection and decoding of a block of P coded frames.

    Each outer iteration forms soft symbols from the decoders' extrinsic
    LLRs, runs the soft MMSE detector, sets the scalar model ``z = V s +
    xi`` per stream to the packet average of the detector's own filter
    statistics (the receiver never sees the transmitted data), converts
    the outputs to extrinsic bit LLRs, deinterleaves them into the
    decoders, and feeds the decoder extrinsics back as the next priors.

    Frame k arrives in the matched-filter domain of its channel G_k: the
    Gram matrix ``grams[k] = G_k^H G_k`` of the stack (P, M, M), the
    matched outputs ``matched[k] = G_k^H r_k`` of the stack (P, M, T), and
    its interleavers ``perms[k]`` (M, 2T).  Soft detection, demapping,
    (de)interleaving and BCJR decoding each run once per iteration on the
    whole block.  Every frame of a block decodes exactly as it would alone,
    and the results keep the leading axis.  The stacks are the block's, as
    ``harness.run_trial`` passes them, and ``n_outer`` >= 1, as ``validate``
    guarantees.
    """
    perms = np.asarray(perms)
    shape = np.shape(matched)  # (P, M, T)

    priors = np.zeros(shape + (2,))
    per_iter = []
    for _ in range(n_outer):
        means, variances = soft_symbol_stats(priors, symbol_power=symbol_power)
        z, v_model, xi_model = soft_mmse_sic_detect(grams, matched, means, variances,
                                                    noise_var, symbol_power)
        v_hat, xi_var = v_model.mean(axis=-1), xi_model.mean(axis=-1)
        lam1 = extrinsic_llr(z, v_hat[..., None], xi_var[..., None],
                             symbol_power=symbol_power).reshape(perms.shape)
        decoded = bcjr_decode(deinterleave(lam1, perms))
        feedback = np.clip(decoded.extrinsic, -LLR_CLIP, LLR_CLIP, out=decoded.extrinsic)
        priors = interleave(feedback, perms).reshape(priors.shape)
        per_iter.append(decoded.info_bits)
        # the next pass's working set starts from the priors and bits alone
        del means, variances, z, v_model, xi_model, lam1, decoded, feedback
    return IddResult(info_bits=per_iter[-1], per_iteration_bits=per_iter,
                     v_hat=v_hat, xi_var=xi_var)
