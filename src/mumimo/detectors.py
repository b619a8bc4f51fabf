"""Multiuser detection in the matched-filter domain: linear filters, SIC,
multi-branch SIC, decision feedback and the ML oracle.

A block of T received vectors ``r`` (N_A, T) that share one channel G (N_A,
M) reaches the detectors as its sufficient statistic (Verdú, *Multiuser
Detection*, 1998, ch. 2): the Gram matrix ``A = G^H G`` (M, M) and the
matched-filter outputs ``y = G^H r`` (M, T).  The harness draws both for
each packet (``txchain.matched_transmit``), so no detector sees the N_A
receive antennas.  Every detector returns the decided QPSK labels (M, T)
and builds its points from ``symbol_power``.

Every detector also takes a stack of blocks, ``(..., M, M)`` and
``(..., M, T)`` with any leading axes, and decides each item as its 2-D
call would, byte for byte: the stacked ``inv``, ``cholesky`` and
leading-axis products are one LAPACK or BLAS call per item, the same call
the item alone makes.  A 2-D call is the stack with no leading axis.
"""

import numpy as np

from .errors import CapacityError, ParameterError, SingularMatrixError, StructuralError
from .estimation import _adjoint
from .txchain import qpsk_constellation, qpsk_slice_labels

LINEAR_DESIGNS = ("rmf", "zf", "mmse")
ORDERING_CRITERIA = ("norm", "snr", "sinr")
ML_CANDIDATE_GUARD = 10 ** 6


def _stream_count(gram):
    """Stream count M of a stack of Gram matrices, which must be (..., M, M)."""
    shape = np.shape(gram)
    if len(shape) < 2 or shape[-1] != shape[-2]:
        raise StructuralError(f"Gram matrix must be (..., M, M), got shape {shape}")
    return shape[-1]


def _check_matched(gram, matched):
    """Stream count M of Gram matrices (..., M, M) and matched outputs
    (..., M, T) with the same leading axes."""
    m = _stream_count(gram)
    if np.ndim(matched) != np.ndim(gram) or np.shape(matched)[:-1] != np.shape(gram)[:-1]:
        raise StructuralError(f"matched outputs must be {np.shape(gram)[:-1]} x T, got "
                              f"shape {np.shape(matched)}")
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
    number stays below about ``1 / sqrt(M eps)``, 3.4e7 at M = 4.  On a
    stack, one singular item fails the call.
    """
    if design not in LINEAR_DESIGNS:
        raise ParameterError(f"unknown filter design {design!r}")
    if symbol_power <= 0.0:
        raise ParameterError("symbol_power must be > 0")
    m = _stream_count(gram)
    if design == "rmf":
        return None
    if design == "zf":
        if np.any(np.linalg.matrix_rank(gram, hermitian=True) < m):
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
        matched = _adjoint(inv) @ matched
    return qpsk_slice_labels(matched)


def compute_ordering(gram: np.ndarray, symbol_power: float, noise_var: float,
                     criterion: str = "norm", mmse_inv=None) -> np.ndarray:
    """Detection order over streams from ``A = G^H G``, first entry detected
    first (descending key, ties by stream index); (..., M) for a stack.
    norm and snr rank the column energies ``diag(A)``.  sinr ranks the
    one-shot output SINR under the initial MMSE filters ``W = G P``, read
    in the matched domain: their responses ``W^H G`` are ``P A`` and their
    noise gains ``diag(W^H W)`` are ``diag(P A P)``.  ``mmse_inv`` is that
    P when the caller has it at hand, so the sinr keys cost no second
    inversion."""
    if criterion not in ORDERING_CRITERIA:
        raise ParameterError(f"unknown ordering criterion {criterion!r}")
    _stream_count(gram)
    if criterion == "sinr":
        if mmse_inv is None:
            mmse_inv = compute_receive_filter(gram, symbol_power, noise_var, "mmse")
        cross = mmse_inv @ gram  # (..., M, M): row j = responses of filter j
        sig = np.abs(np.diagonal(cross, axis1=-2, axis2=-1)) ** 2
        interf = np.sum(np.abs(cross) ** 2, axis=-1) - sig
        noise = noise_var * np.einsum('...ij,...ji->...i', cross, mmse_inv).real
        keys = symbol_power * sig / (symbol_power * interf + noise)
    else:
        keys = np.diagonal(gram, axis1=-2, axis2=-1).real
        if criterion == "snr":
            if noise_var <= 0.0:
                raise ParameterError("snr ordering requires noise_var > 0")
            keys = symbol_power * keys / noise_var
    return np.argsort(-keys, axis=-1, kind="stable")


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
            f"{filter_design} SIC: the ordered inverse Gram matrix of M = {inv.shape[-1]} "
            "streams is not positive definite") from None
    return np.diagonal(chol, axis1=-2, axis2=-1).real[..., None] * _adjoint(chol)


def _permuted(x, perm, columns=False, out=None):
    """Each matrix of the stack ``x`` (..., M, K) with its rows in the order
    ``perm`` (..., M), and its columns too if ``columns``; the leading axes
    broadcast.  Whole rows are gathered from the flattened stack, so a 2-D
    call is ``x[perm]`` (``x[np.ix_(perm, perm)]``).  Rows go to ``out``
    if given."""
    m, k = x.shape[-2:]
    items = np.arange(int(np.prod(x.shape[:-2]))).reshape(x.shape[:-2] + (1,))
    rows = perm + m * items
    flat = np.reshape(x, (-1, k))
    if columns:
        return flat[rows[..., :, None], perm[..., None, :]]
    # every index is in range, so "clip" only spares the buffered copy of out
    return np.take(flat, rows, axis=0, out=out, mode="clip")


def _sic_symbols(gram, inv, matched, perm, constellation, filter_design, work=None):
    """Decided points (..., M, T), in stream order, of SIC in the orders
    ``perm`` (..., M), worked in the matched domain from the undeflated
    outputs ``y`` and the decided symbols ``x``: with the stage filters F of
    :func:`_stage_filters`, stage k decides ``(F y)_k - (F A)[k, :k] x[:k]``
    (rmf: ``y_k - A[k, :k] x[:k]``), one product up front and one
    row-vector product per stage.  A stage takes the point of its
    estimate's quadrant, each part's sign with ties toward +, so the
    labels are :func:`qpsk_slice_labels` of the points.  ``gram``, ``inv``
    and ``matched`` broadcast against the items of ``perm``.

    ``work`` (2, ..., M, T), complex, holds the points and the filter
    outputs, in which stage k's point overwrites row k, which no later
    stage reads; the points are ``work[0]``.  One allocation for both
    keeps a block's freed memory on the heap for the next block: glibc
    hands a free heap top back to the kernel once it exceeds twice the
    largest chunk it has mapped and freed, and every page handed back
    faults in again."""
    if work is None:
        work = np.empty((2,) + perm.shape + matched.shape[-1:], dtype=complex)
    points, staged = work
    gram, y = _permuted(gram, perm, columns=True), _permuted(matched, perm)
    if inv is None:
        staged[...] = y
    else:
        filters = _stage_filters(_permuted(inv, perm, columns=True), filter_design)
        np.matmul(filters, y, out=staged)
        gram = filters @ gram
    del y
    sides = constellation[[0, 3]].real  # a part's value for sign + and -
    for stage in range(perm.shape[-1]):
        est = staged[..., stage, :] - (gram[..., stage:stage + 1, :stage]
                                       @ staged[..., :stage, :])[..., 0, :]
        np.take(sides, est.view(float) < 0.0, out=staged[..., stage, :].view(float))
    return _permuted(staged, np.argsort(perm, axis=-1), out=points)


def sic_detect(gram: np.ndarray, matched: np.ndarray, ordering,
               filter_design: str = "mmse", symbol_power: float = 1.0,
               noise_var: float = 1.0) -> np.ndarray:
    """Successive interference cancellation with per-stage refiltering.

    ``ordering`` is a permutation of the streams, one per item of a stack
    or one for all, or the name of a criterion of :func:`compute_ordering`
    (sinr with the mmse design reads the block's own inverse, so it costs
    no second inversion).  Stage k detects stream ``ordering[k]`` with the
    ``filter_design`` filter of the deflated channel G_R, whose columns R
    are the streams not yet detected, applied to the residual left by
    cancelling the streams already decided.  The matched outputs ``y`` are
    never deflated: with P_R the inverse (regularised) Gram matrix of G_R,
    the estimate is ``P_R[0] @ (y_R - A[R, D] x_D)`` for the decided
    streams D and their symbols x_D.  Every ``P_R[0]`` is a row of one
    triangular factor of the ordered inverse (:func:`_stage_filters`), so
    the block costs one M x M inversion and one Cholesky factorization in
    all rather than one per stage.  A factor that does not exist raises
    :class:`SingularMatrixError`.
    """
    m = _check_matched(gram, matched)
    named = isinstance(ordering, str)
    if not named:
        perm = np.asarray(ordering, dtype=np.int64)
        if (perm.ndim == 0 or perm.shape[-1] != m
                or np.any(np.sort(perm, axis=-1) != np.arange(m))):
            raise StructuralError(f"ordering {perm} is not a permutation of {m} streams")
        perm = np.broadcast_to(perm, gram.shape[:-1])
    inv = compute_receive_filter(gram, symbol_power, noise_var, filter_design)
    if named:
        perm = compute_ordering(gram, symbol_power, noise_var, ordering,
                                inv if filter_design == "mmse" else None)
    return qpsk_slice_labels(_sic_symbols(gram, inv, matched, perm,
                                          qpsk_constellation(symbol_power), filter_design))


def _branch_distance(gram, matched, symbols, out=None):
    """``s^H A s - 2 Re(s^H y)`` per column, ``||r - G s||^2 - ||r||^2``:
    the real part of ``sum_m s_m conj(A s - 2 y)_m``, which rounds as that
    of ``sum_m conj(s_m) (A s - 2 y)_m``.  ``A s - 2 y`` is formed in
    ``out`` if given."""
    residual = np.matmul(gram, symbols, out=out)
    residual -= 2.0 * matched
    return np.einsum('...mt,...mt->...t', symbols, np.conjugate(residual, out=residual)).real


def mb_sic_detect(gram: np.ndarray, matched: np.ndarray, n_branches: int = 4,
                  filter_design: str = "mmse", symbol_power: float = 1.0,
                  noise_var: float = 1.0, base_criterion: str = "norm") -> np.ndarray:
    """Multi-branch SIC: parallel SIC branches under shifted orderings.

    Branch 1 uses the base ordering; branch l applies a circular left shift
    by l - 1.  Every branch produces a full decision vector ``s_l`` and the
    branch nearest the received vector wins, per vector: the smallest
    ``s_l^H A s_l - 2 Re(s_l^H y)``, which is ``||r - G s_l||^2`` less the
    ``||r||^2`` all branches share, the first branch on a tie.  The
    branches share one inverse Gram matrix, and each factors it in its own
    order: the L branches of a stack of P blocks run as one SIC over L P
    items, each under its own order.
    """
    m = _check_matched(gram, matched)
    if not 1 <= n_branches <= m:
        raise ParameterError(
            f"branch count must lie in [1, {m}] for circularly shifted orderings, got {n_branches}")
    constellation = qpsk_constellation(symbol_power)
    inv = compute_receive_filter(gram, symbol_power, noise_var, filter_design)
    base = compute_ordering(gram, symbol_power, noise_var, base_criterion,
                            inv if filter_design == "mmse" else None)
    perms = np.stack([np.roll(base, -li, axis=-1) for li in range(n_branches)])
    work = np.empty((2,) + perms.shape + matched.shape[-1:], dtype=complex)
    symbols = _sic_symbols(gram[None], None if inv is None else inv[None], matched[None],
                           perms, constellation, filter_design, work)
    # the staged outputs are spent: the residuals take their place
    best = np.argmin(_branch_distance(gram, matched, symbols, out=work[1]), axis=0)
    nearest = symbols[0]
    for li in range(1, n_branches):
        np.copyto(nearest, symbols[li], where=(best == li)[..., None, :])
    return qpsk_slice_labels(nearest)


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
    soft, feedback = matched, gram
    if inv is not None:
        adjoint = _adjoint(inv)
        soft, feedback = adjoint @ matched, adjoint @ gram
    first = qpsk_constellation(symbol_power)[qpsk_slice_labels(soft)]
    keep = np.tri(m, k=-1, dtype=bool) if mode == "s-df" else ~np.eye(m, dtype=bool)
    cancelled = (feedback * keep) @ first
    return qpsk_slice_labels(np.subtract(soft, cancelled, out=cancelled))


def ml_detect_oracle(gram: np.ndarray, matched: np.ndarray, symbol_power: float = 1.0,
                     chunk: int = 512) -> np.ndarray:
    """Brute-force maximum-likelihood detection (reference oracle).

    Enumerates every candidate stream vector ``c`` in lexicographic label
    order and returns the one of least ``c^H A c - 2 Re(c^H y)``, which is
    ``||r - G c||^2`` less ``||r||^2`` (first hit wins ties).  Guarded to
    ``ML_CANDIDATE_GUARD`` candidates.  The scores of ``chunk`` vectors are
    held at a time, so a stack is scored one item after another.
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
    cand_energy = np.einsum('...mc,...mc->...c', cand.conj(), gram @ cand).real
    lead, n_vec = matched.shape[:-2], matched.shape[-1]
    best = np.empty(lead + (n_vec,), dtype=np.int64)
    for item in np.ndindex(lead):
        for start in range(0, n_vec, chunk):
            seg = matched[item][:, start:start + chunk]
            score = cand_energy[item][:, None] - 2.0 * (cand.conj().T @ seg).real
            best[item][start:start + chunk] = np.argmin(score, axis=0)
    return np.moveaxis(cand_labels[:, best], 0, -2)
