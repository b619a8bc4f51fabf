"""Multiuser detection: linear filters, SIC, multi-branch SIC, decision feedback.

All detectors accept a received block ``r`` of shape (N_A,) for a single
symbol vector or (N_A, T) for a batch sharing one channel realization; the
batch form is what the Monte Carlo harness uses, since filters and
orderings depend only on the channel.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ParameterError, SingularMatrixError, StructuralError
from .txchain import qpsk_constellation, qpsk_slice_labels

LINEAR_DESIGNS = ("rmf", "zf", "mmse")
ORDERING_CRITERIA = ("norm", "snr", "sinr")
ML_CANDIDATE_GUARD = 10 ** 6


@dataclass
class DetectorOutput:
    """Hard decisions plus any branch bookkeeping a detector produced.

    ``labels`` carries constellation indices with the same trailing shape as
    the input block; ``symbols`` the corresponding points in natural stream
    order.  Multi-branch detectors also report per-branch Euclidean
    distances and the selected branch per symbol vector.
    """

    labels: np.ndarray
    symbols: np.ndarray
    branch_distances: np.ndarray = None
    selected_branch: np.ndarray = None


def _as_block(r, n_rx):
    r = np.asarray(r, dtype=complex)
    if r.ndim == 1:
        if r.shape[0] != n_rx:
            raise StructuralError(f"received vector has length {r.shape[0]}, expected {n_rx}")
        return r[:, None], True
    if r.ndim != 2 or r.shape[0] != n_rx:
        raise StructuralError(f"received block shape {r.shape} does not match {n_rx} antennas")
    return r, False


def _inverse_gram(chan, gram, symbol_power, noise_var, design):
    """Inverse of the Gram matrix a linear design filters with, after checking
    the design; None for rmf, which needs no inverse.

    zf    (G^H G)^{-1}
    mmse  (G^H G + (sigma_n^2 / sigma_s^2) I)^{-1}
    """
    if design not in LINEAR_DESIGNS:
        raise ParameterError(f"unknown filter design {design!r}")
    if symbol_power <= 0.0:
        raise ParameterError("symbol_power must be > 0")
    if design == "rmf":
        return None
    if design == "zf":
        if np.linalg.matrix_rank(chan) < chan.shape[1]:
            raise SingularMatrixError("zf filter: channel is rank deficient")
        return np.linalg.inv(gram)
    if noise_var <= 0.0:
        raise ParameterError("mmse filter requires noise_var > 0")
    return np.linalg.inv(gram + (noise_var / symbol_power) * np.eye(gram.shape[0]))


def compute_receive_filter(chan: np.ndarray, symbol_power: float, noise_var: float,
                           design: str) -> np.ndarray:
    """Linear receive filter bank W (N_A, M) for the stacked channel;
    estimates are ``W.conj().T @ r``.

    rmf   W = G
    zf    W = G (G^H G)^{-1}
    mmse  W = G (G^H G + (sigma_n^2 / sigma_s^2) I)^{-1}
    """
    chan = np.asarray(chan, dtype=complex)
    if chan.ndim != 2:
        raise StructuralError(f"channel must be 2-D, got shape {chan.shape}")
    gram = None if design == "rmf" else chan.conj().T @ chan
    inv = _inverse_gram(chan, gram, symbol_power, noise_var, design)
    return chan.copy() if inv is None else chan @ inv


def linear_detect(filters: np.ndarray, r, constellation=None) -> DetectorOutput:
    """Filter with the bank W (N_A, M), then slice each stream independently."""
    w = np.asarray(filters)
    block, single = _as_block(r, w.shape[0])
    if constellation is None:
        constellation = qpsk_constellation()
    soft = w.conj().T @ block
    labels = qpsk_slice_labels(soft)
    symbols = constellation[labels]
    if single:
        labels, symbols = labels[:, 0], symbols[:, 0]
    return DetectorOutput(labels=labels, symbols=symbols)


def _sinr_ordering(gram, mmse_inv, symbol_power, noise_var):
    """Descending one-shot output SINR under the initial MMSE filters
    ``W = G P``, read in the matched domain: their responses ``W^H G`` are
    ``P A`` and their noise gains ``diag(W^H W)`` are ``diag(P A P)``."""
    cross = mmse_inv @ gram  # (M, M): row j = responses of filter j
    sig = np.abs(np.diagonal(cross)) ** 2
    interf = np.sum(np.abs(cross) ** 2, axis=1) - sig
    noise = noise_var * np.einsum('ij,ji->i', cross, mmse_inv).real
    keys = symbol_power * sig / (symbol_power * interf + noise)
    return np.argsort(-keys, kind="stable")


def compute_ordering(chan: np.ndarray, symbol_power: float, noise_var: float,
                     criterion: str = "norm") -> np.ndarray:
    """Detection order over streams, first entry detected first (descending
    key, ties by stream index)."""
    chan = np.asarray(chan, dtype=complex)
    if criterion not in ORDERING_CRITERIA:
        raise ParameterError(f"unknown ordering criterion {criterion!r}")
    if criterion == "sinr":
        gram = chan.conj().T @ chan
        return _sinr_ordering(gram, _inverse_gram(chan, gram, symbol_power, noise_var, "mmse"),
                              symbol_power, noise_var)
    keys = np.sum(np.abs(chan) ** 2, axis=0)
    if criterion == "snr":
        if noise_var <= 0.0:
            raise ParameterError("snr ordering requires noise_var > 0")
        keys = symbol_power * keys / noise_var
    return np.argsort(-keys, kind="stable")


def _sic_setup(chan, block, filter_design, symbol_power, noise_var):
    """What every SIC ordering shares, in natural stream order: the Gram
    matrix ``G^H G``, its inverse under the design (None for rmf) and the
    matched-filter outputs ``G^H r`` (M, T)."""
    gram = chan.conj().T @ chan
    inv = _inverse_gram(chan, gram, symbol_power, noise_var, filter_design)
    return gram, inv, chan.conj().T @ block


def _sic_labels(gram, inv, matched, perm, constellation):
    """Labels (M, T) of SIC in the order ``perm``, worked in the matched
    domain from the undeflated outputs ``y`` and the decided symbols ``x``:
    stage k's estimate is ``P[0] y[k:] - (P[0] A[k:, :k]) x[:k]`` (rmf:
    ``y[k] - A[k, :k] x[:k]``), a few row-vector products per stage."""
    gram = gram[np.ix_(perm, perm)]
    p = None if inv is None else inv[np.ix_(perm, perm)]
    y = matched[perm]
    decided = np.empty(matched.shape, dtype=complex)
    labels = np.empty(matched.shape, dtype=np.int64)
    for stage in range(len(perm)):
        # w^H residual for the deflated filter w = G_R P_R e_0
        row = gram[stage, :stage] if p is None else p[0] @ gram[stage:, :stage]
        est = y[stage] if p is None else p[0] @ y[stage:]
        lab = qpsk_slice_labels(est - row @ decided[:stage])
        labels[perm[stage]] = lab
        decided[stage] = constellation[lab]
        if p is not None:
            # inverse of the trailing block: the Schur complement of P[0, 0]
            p = p[1:, 1:] - np.outer(p[1:, 0], p[0, 1:]) / p[0, 0]
    return labels


def _setup_ordering(chan, setup, criterion, filter_design, symbol_power, noise_var):
    """Detection order for ``criterion`` with a SIC set-up at hand: the sinr
    keys read the set-up's inverse when it is the mmse one."""
    if criterion != "sinr":
        return compute_ordering(chan, symbol_power, noise_var, criterion)
    gram, inv, _ = setup
    mmse_inv = (inv if filter_design == "mmse"
                else _inverse_gram(chan, gram, symbol_power, noise_var, "mmse"))
    return _sinr_ordering(gram, mmse_inv, symbol_power, noise_var)


def sic_detect(chan: np.ndarray, r, ordering, filter_design: str = "mmse",
               symbol_power: float = 1.0, noise_var: float = 1.0,
               constellation=None) -> DetectorOutput:
    """Successive interference cancellation with per-stage refiltering.

    ``ordering`` is a permutation of the streams, or the name of a
    criterion of :func:`compute_ordering`, which then orders the streams
    from this block's own set-up (sinr with the mmse design costs no
    second inversion).  Stage k detects stream ``ordering[k]`` with the
    ``filter_design`` filter of the deflated channel G_R, whose columns R
    are the streams not yet detected, applied to the residual left by
    cancelling the streams already decided.  The work happens in the
    matched-filter domain ``y = G^H r`` (M, T), which is never deflated:
    with P_R the inverse (regularised) Gram matrix of G_R, the estimate is
    ``P_R[0] @ (y_R - A[R, D] x_D)`` for the decided streams D and their
    symbols x_D, formed as ``P_R[0] @ y_R - (P_R[0] @ A[R, D]) @ x_D``, and
    P_R shrinks by a rank-one downdate, so the block costs one M x M
    inversion in all rather than one per stage.
    """
    chan = np.asarray(chan, dtype=complex)
    block, single = _as_block(r, chan.shape[0])
    m = chan.shape[1]
    named = isinstance(ordering, str)
    if not named:
        perm = np.asarray(ordering, dtype=np.int64)
        if sorted(perm.tolist()) != list(range(m)):
            raise StructuralError(f"ordering {perm} is not a permutation of {m} streams")
    if constellation is None:
        constellation = qpsk_constellation(symbol_power)
    setup = _sic_setup(chan, block, filter_design, symbol_power, noise_var)
    if named:
        perm = _setup_ordering(chan, setup, ordering, filter_design, symbol_power,
                               noise_var)
    labels = _sic_labels(*setup, perm, constellation)
    symbols = constellation[labels]
    if single:
        labels, symbols = labels[:, 0], symbols[:, 0]
    return DetectorOutput(labels=labels, symbols=symbols)


def mb_sic_detect(chan: np.ndarray, r, n_branches: int = 4,
                  filter_design: str = "mmse", symbol_power: float = 1.0,
                  noise_var: float = 1.0, base_criterion: str = "norm",
                  constellation=None) -> DetectorOutput:
    """Multi-branch SIC: parallel SIC branches under shifted orderings.

    Branch 1 uses the base ordering; branch l applies a circular left shift
    by l - 1.  Every branch produces a full decision vector and the branch
    with the smallest Euclidean distance ``||r - G s_l||`` wins, per
    received vector.  The branches share one SIC set-up (Gram matrix, its
    inverse, matched outputs), each reading it in its own order; the
    ``sinr`` base ordering is read from the same set-up.
    """
    chan = np.asarray(chan, dtype=complex)
    block, single = _as_block(r, chan.shape[0])
    m = chan.shape[1]
    if not 1 <= n_branches <= m:
        raise ParameterError(
            f"branch count must lie in [1, {m}] for circularly shifted orderings, got {n_branches}")
    if constellation is None:
        constellation = qpsk_constellation(symbol_power)
    setup = _sic_setup(chan, block, filter_design, symbol_power, noise_var)
    base = _setup_ordering(chan, setup, base_criterion, filter_design, symbol_power,
                           noise_var)
    n_vec = block.shape[1]
    all_labels = np.empty((n_branches, m, n_vec), dtype=np.int64)
    dists = np.empty((n_branches, n_vec))
    for li in range(n_branches):
        all_labels[li] = _sic_labels(*setup, np.roll(base, -li), constellation)
        dists[li] = np.linalg.norm(block - chan @ constellation[all_labels[li]], axis=0)
    selected = np.argmin(dists, axis=0)
    labels = all_labels[selected, :, np.arange(n_vec)].T
    symbols = constellation[labels]
    if single:
        return DetectorOutput(labels=labels[:, 0], symbols=symbols[:, 0],
                              branch_distances=dists[:, 0],
                              selected_branch=int(selected[0]))
    return DetectorOutput(labels=labels, symbols=symbols,
                          branch_distances=dists, selected_branch=selected)


def df_detect(chan: np.ndarray, r, mode: str = "s-df",
              filter_design: str = "mmse", symbol_power: float = 1.0,
              noise_var: float = 1.0, constellation=None) -> DetectorOutput:
    """Decision feedback detection seeded by a linear first pass.

    The feedback matrix is ``W^H G`` with the diagonal zeroed (parallel
    mode, "p-df") or with only the strictly lower triangle kept
    (successive mode, "s-df"), so exactly the cross-stream response of the
    linear stage is cancelled using the first-pass decisions.
    """
    if mode not in ("s-df", "p-df"):
        raise ParameterError(f"unknown decision-feedback mode {mode!r}")
    chan = np.asarray(chan, dtype=complex)
    block, single = _as_block(r, chan.shape[0])
    if constellation is None:
        constellation = qpsk_constellation(symbol_power)
    w = compute_receive_filter(chan, symbol_power, noise_var, filter_design)
    soft = w.conj().T @ block
    first = constellation[qpsk_slice_labels(soft)]
    feedback = w.conj().T @ chan
    if mode == "p-df":
        np.fill_diagonal(feedback, 0.0)
    else:
        feedback = np.tril(feedback, k=-1)
    labels = qpsk_slice_labels(soft - feedback @ first)
    symbols = constellation[labels]
    if single:
        labels, symbols = labels[:, 0], symbols[:, 0]
    return DetectorOutput(labels=labels, symbols=symbols)


def ml_detect_oracle(chan: np.ndarray, r, constellation=None,
                     chunk: int = 512) -> DetectorOutput:
    """Brute-force maximum-likelihood detection (reference oracle).

    Enumerates every candidate stream vector in lexicographic label order
    and returns the minimum-distance one (first hit wins ties).  Guarded to
    ``ML_CANDIDATE_GUARD`` candidates.
    """
    chan = np.asarray(chan, dtype=complex)
    block, single = _as_block(r, chan.shape[0])
    if constellation is None:
        constellation = qpsk_constellation()
    constellation = np.asarray(constellation)
    m = chan.shape[1]
    n_cand = len(constellation) ** m
    if n_cand > ML_CANDIDATE_GUARD:
        raise CapacityError(
            f"ML enumeration of {n_cand} candidates exceeds guard {ML_CANDIDATE_GUARD}")
    # first stream varies slowest -> row i of cand_labels is lexicographic
    cand_labels = np.array(np.unravel_index(np.arange(n_cand),
                                            (len(constellation),) * m))
    cand_points = chan @ constellation[cand_labels]  # (N_A, n_cand)
    cand_energy = np.sum(np.abs(cand_points) ** 2, axis=0)
    n_vec = block.shape[1]
    best = np.empty(n_vec, dtype=np.int64)
    for start in range(0, n_vec, chunk):
        seg = block[:, start:start + chunk]
        # ||r - c||^2 = ||r||^2 - 2 Re(c^H r) + ||c||^2; drop the ||r||^2 term
        score = cand_energy[:, None] - 2.0 * (cand_points.conj().T @ seg).real
        best[start:start + chunk] = np.argmin(score, axis=0)
    labels = cand_labels[:, best]
    symbols = constellation[labels]
    if single:
        labels, symbols = labels[:, 0], symbols[:, 0]
    return DetectorOutput(labels=labels, symbols=symbols)
