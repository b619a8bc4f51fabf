"""Multiuser detection in the matched-filter domain: linear filters, SIC,
multi-branch SIC, decision feedback and the ML oracle.

A block of T received vectors ``r`` (N_A, T) that share one channel G (N_A,
M) reaches the detectors as its sufficient statistic (Verdú, *Multiuser
Detection*, 1998, ch. 2): the Gram matrix ``A = G^H G`` (M, M) and the
matched-filter outputs ``y = G^H r`` (M, T).  The harness draws both for
each packet (``txchain.matched_transmit``), so no detector sees the N_A
receive antennas.  Every detector returns the decided QPSK labels (M, T)
and builds its points from ``symbol_power``.
"""

import numpy as np

from .errors import CapacityError, ParameterError, SingularMatrixError, StructuralError
from .txchain import qpsk_constellation, qpsk_slice_labels

LINEAR_DESIGNS = ("rmf", "zf", "mmse")
ORDERING_CRITERIA = ("norm", "snr", "sinr")
ML_CANDIDATE_GUARD = 10 ** 6


def _stream_count(gram):
    """Stream count M of a Gram matrix, which must be (M, M)."""
    m = len(gram)
    if np.shape(gram) != (m, m):
        raise StructuralError(f"Gram matrix must be (M, M), got shape {np.shape(gram)}")
    return m


def _check_matched(gram, matched):
    """Stream count M of a Gram matrix (M, M) and matched outputs (M, T)."""
    m = _stream_count(gram)
    if np.ndim(matched) != 2 or len(matched) != m:
        raise StructuralError(f"matched outputs must be ({m}, T), got shape "
                              f"{np.shape(matched)}")
    return m


def compute_receive_filter(gram: np.ndarray, symbol_power: float, noise_var: float,
                           design: str):
    """Inverse Gram matrix P (M, M) of a linear design, from ``A = G^H G``; its
    filter bank is ``W = G P``, whose outputs ``W^H r`` are ``P^H y``.  None
    for rmf, whose bank is G itself.

    zf    P = A^{-1}
    mmse  P = (A + (sigma_n^2 / sigma_s^2) I)^{-1}

    zf raises :class:`SingularMatrixError` when ``A`` is numerically rank
    deficient: its smallest eigenvalue is at most ``M eps lambda_max``
    (numpy's ``matrix_rank`` tolerance).  The eigenvalues of A are the
    squared singular values of G, so a channel passes while its condition
    number stays below about ``1 / sqrt(M eps)``, 3.4e7 at M = 4.
    """
    if design not in LINEAR_DESIGNS:
        raise ParameterError(f"unknown filter design {design!r}")
    if symbol_power <= 0.0:
        raise ParameterError("symbol_power must be > 0")
    m = _stream_count(gram)
    if design == "rmf":
        return None
    if design == "zf":
        if np.linalg.matrix_rank(gram, hermitian=True) < m:
            raise SingularMatrixError("zf filter: channel is rank deficient")
        return np.linalg.inv(gram)
    if noise_var <= 0.0:
        raise ParameterError("mmse filter requires noise_var > 0")
    try:
        return np.linalg.inv(gram + (noise_var / symbol_power) * np.eye(m))
    except np.linalg.LinAlgError:
        raise SingularMatrixError(f"mmse filter: the regularised Gram matrix of M = {m} "
                                  f"streams is singular (noise_var = {noise_var:.3g})") from None


def linear_detect(inv, matched: np.ndarray) -> np.ndarray:
    """Slice the linear filter outputs ``P^H y`` of the inverse Gram matrix
    ``inv`` from :func:`compute_receive_filter`; with ``inv`` None (rmf)
    ``matched`` are the filter outputs themselves, such as a trained bank's
    ``W^H r``."""
    if inv is not None:
        _check_matched(inv, matched)
        matched = inv.conj().T @ matched
    return qpsk_slice_labels(matched)


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


def compute_ordering(gram: np.ndarray, symbol_power: float, noise_var: float,
                     criterion: str = "norm") -> np.ndarray:
    """Detection order over streams from ``A = G^H G``, first entry detected
    first (descending key, ties by stream index).  norm and snr rank the
    column energies ``diag(A)``, sinr the one-shot MMSE output SINR."""
    if criterion not in ORDERING_CRITERIA:
        raise ParameterError(f"unknown ordering criterion {criterion!r}")
    if criterion == "sinr":
        mmse_inv = compute_receive_filter(gram, symbol_power, noise_var, "mmse")
        return _sinr_ordering(gram, mmse_inv, symbol_power, noise_var)
    _stream_count(gram)
    keys = np.diagonal(gram).real
    if criterion == "snr":
        if noise_var <= 0.0:
            raise ParameterError("snr ordering requires noise_var > 0")
        keys = symbol_power * keys / noise_var
    return np.argsort(-keys, kind="stable")


def _sic_ordering(gram, inv, criterion, filter_design, symbol_power, noise_var):
    """:func:`compute_ordering` for a SIC block whose inverse Gram matrix
    ``inv`` is at hand: the sinr keys read it when it is the mmse one."""
    if criterion == "sinr" and filter_design == "mmse":
        return _sinr_ordering(gram, inv, symbol_power, noise_var)
    return compute_ordering(gram, symbol_power, noise_var, criterion)


def _stage_filters(inv, filter_design):
    """Every SIC stage's filter from one factor of the ordered inverse Gram
    matrix ``P`` (Wuebben et al., VTC 2003, for the MMSE form).  With
    ``P = L L^H`` the inverse of the trailing block ``A[k:, k:]``, a Schur
    complement of P, is ``L[k:, k:] L[k:, k:]^H``, so its first row, stage
    k's filter, is row k of ``F = diag(L) L^H`` (zero before k)."""
    try:
        chol = np.linalg.cholesky(inv)
    except np.linalg.LinAlgError:
        raise SingularMatrixError(
            f"{filter_design} SIC: the ordered inverse Gram matrix of M = {len(inv)} "
            "streams is not positive definite") from None
    return np.diagonal(chol).real[:, None] * chol.conj().T


def _sic_symbols(gram, inv, matched, perm, constellation, filter_design):
    """Decided points (M, T), in stream order, of SIC in the order ``perm``,
    worked in the matched domain from the undeflated outputs ``y`` and the
    decided symbols ``x``: with the stage filters F of
    :func:`_stage_filters`, stage k decides ``(F y)_k - (F A)[k, :k] x[:k]``
    (rmf: ``y_k - A[k, :k] x[:k]``), one product up front and one
    row-vector product per stage.  A stage takes the point of its
    estimate's quadrant, each part's sign with ties toward +, so the
    labels are :func:`qpsk_slice_labels` of the points."""
    gram = gram[np.ix_(perm, perm)]
    y = matched[perm]
    if inv is not None:
        filters = _stage_filters(inv[np.ix_(perm, perm)], filter_design)
        y, gram = filters @ y, filters @ gram
    sides = constellation[[0, 3]].real  # a part's value for sign + and -
    decided = np.empty(matched.shape, dtype=complex)
    for stage in range(len(perm)):
        est = y[stage] - gram[stage, :stage] @ decided[:stage]
        np.take(sides, est.view(float) < 0.0, out=decided[stage].view(float))
    symbols = np.empty_like(decided)
    symbols[perm] = decided
    return symbols


def sic_detect(gram: np.ndarray, matched: np.ndarray, ordering,
               filter_design: str = "mmse", symbol_power: float = 1.0,
               noise_var: float = 1.0) -> np.ndarray:
    """Successive interference cancellation with per-stage refiltering.

    ``ordering`` is a permutation of the streams, or the name of a
    criterion of :func:`compute_ordering` (sinr with the mmse design reads
    the block's own inverse, so it costs no second inversion).  Stage k
    detects stream ``ordering[k]`` with the ``filter_design`` filter of the
    deflated channel G_R, whose columns R are the streams not yet detected,
    applied to the residual left by cancelling the streams already decided.
    The matched outputs ``y`` are never deflated: with P_R the inverse
    (regularised) Gram matrix of G_R, the estimate is ``P_R[0] @ (y_R -
    A[R, D] x_D)`` for the decided streams D and their symbols x_D.  Every
    ``P_R[0]`` is a row of one triangular factor of the ordered inverse
    (:func:`_stage_filters`), so the block costs one M x M inversion and one
    Cholesky factorization in all rather than one per stage.  A factor that
    does not exist raises :class:`SingularMatrixError`.
    """
    m = _check_matched(gram, matched)
    named = isinstance(ordering, str)
    if not named:
        perm = np.asarray(ordering, dtype=np.int64)
        if sorted(perm.tolist()) != list(range(m)):
            raise StructuralError(f"ordering {perm} is not a permutation of {m} streams")
    inv = compute_receive_filter(gram, symbol_power, noise_var, filter_design)
    if named:
        perm = _sic_ordering(gram, inv, ordering, filter_design, symbol_power, noise_var)
    return qpsk_slice_labels(_sic_symbols(gram, inv, matched, perm,
                                          qpsk_constellation(symbol_power), filter_design))


def _branch_distance(gram, matched, symbols):
    """``s^H A s - 2 Re(s^H y)`` per column: ``||r - G s||^2 - ||r||^2``."""
    return np.einsum('mt,mt->t', symbols.conj(), gram @ symbols - 2.0 * matched).real


def mb_sic_detect(gram: np.ndarray, matched: np.ndarray, n_branches: int = 4,
                  filter_design: str = "mmse", symbol_power: float = 1.0,
                  noise_var: float = 1.0, base_criterion: str = "norm") -> np.ndarray:
    """Multi-branch SIC: parallel SIC branches under shifted orderings.

    Branch 1 uses the base ordering; branch l applies a circular left shift
    by l - 1.  Every branch produces a full decision vector ``s_l`` and the
    branch nearest the received vector wins, per vector: the smallest
    ``s_l^H A s_l - 2 Re(s_l^H y)``, which is ``||r - G s_l||^2`` less the
    ``||r||^2`` all branches share.  The branches share one inverse Gram
    matrix, and each factors it in its own order.
    """
    m = _check_matched(gram, matched)
    if not 1 <= n_branches <= m:
        raise ParameterError(
            f"branch count must lie in [1, {m}] for circularly shifted orderings, got {n_branches}")
    constellation = qpsk_constellation(symbol_power)
    inv = compute_receive_filter(gram, symbol_power, noise_var, filter_design)
    base = _sic_ordering(gram, inv, base_criterion, filter_design, symbol_power, noise_var)
    n_vec = matched.shape[1]
    symbols = np.empty((n_branches, m, n_vec), dtype=complex)
    dists = np.empty((n_branches, n_vec))
    for li in range(n_branches):
        symbols[li] = _sic_symbols(gram, inv, matched, np.roll(base, -li), constellation,
                                   filter_design)
        dists[li] = _branch_distance(gram, matched, symbols[li])
    return qpsk_slice_labels(symbols[np.argmin(dists, axis=0), :, np.arange(n_vec)].T)


def df_detect(gram: np.ndarray, matched: np.ndarray, mode: str = "s-df",
              filter_design: str = "mmse", symbol_power: float = 1.0,
              noise_var: float = 1.0) -> np.ndarray:
    """Decision feedback detection seeded by a linear first pass.

    The feedback matrix is the linear stage's response ``W^H G = P^H A``
    (rmf: ``A``) with the diagonal zeroed (parallel mode, "p-df") or with
    only the strictly lower triangle kept (successive mode, "s-df"), so
    exactly the cross-stream response of the linear stage is cancelled
    using the first-pass decisions.
    """
    if mode not in ("s-df", "p-df"):
        raise ParameterError(f"unknown decision-feedback mode {mode!r}")
    m = _check_matched(gram, matched)
    inv = compute_receive_filter(gram, symbol_power, noise_var, filter_design)
    soft, feedback = ((matched, gram) if inv is None
                      else (inv.conj().T @ matched, inv.conj().T @ gram))
    first = qpsk_constellation(symbol_power)[qpsk_slice_labels(soft)]
    keep = np.tri(m, k=-1, dtype=bool) if mode == "s-df" else ~np.eye(m, dtype=bool)
    return qpsk_slice_labels(soft - (feedback * keep) @ first)


def ml_detect_oracle(gram: np.ndarray, matched: np.ndarray, symbol_power: float = 1.0,
                     chunk: int = 512) -> np.ndarray:
    """Brute-force maximum-likelihood detection (reference oracle).

    Enumerates every candidate stream vector ``c`` in lexicographic label
    order and returns the one of least ``c^H A c - 2 Re(c^H y)``, which is
    ``||r - G c||^2`` less ``||r||^2`` (first hit wins ties).  Guarded to
    ``ML_CANDIDATE_GUARD`` candidates.
    """
    m = _check_matched(gram, matched)
    constellation = qpsk_constellation(symbol_power)
    n_cand = len(constellation) ** m
    if n_cand > ML_CANDIDATE_GUARD:
        raise CapacityError(
            f"ML enumeration of {n_cand} candidates exceeds guard {ML_CANDIDATE_GUARD}")
    # first stream varies slowest -> row i of cand_labels is lexicographic
    cand_labels = np.array(np.unravel_index(np.arange(n_cand),
                                            (len(constellation),) * m))
    cand = constellation[cand_labels]  # (M, n_cand)
    cand_energy = np.einsum('mc,mc->c', cand.conj(), gram @ cand).real
    best = np.empty(matched.shape[1], dtype=np.int64)
    for start in range(0, matched.shape[1], chunk):
        seg = matched[:, start:start + chunk]
        score = cand_energy[:, None] - 2.0 * (cand.conj().T @ seg).real
        best[start:start + chunk] = np.argmin(score, axis=0)
    return cand_labels[:, best]
