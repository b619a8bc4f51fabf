"""Adaptive parameter estimation: channel and receive-filter tracking.

Channel estimators regress the received vector on the known pilot vector
(all streams simultaneously); filter estimators adapt a per-stream receive
filter directly against the known symbol.  Reduced-rank variants project
the received vector onto a low-dimensional subspace first — principal
components, a Krylov ladder seeded by the cross-correlation, or a jointly
optimized projection (JIO) adapted together with the short filter.

Exponentially weighted recursions use forgetting factor ``lam`` and the
inverse-correlation initialization ``P[0] = I / delta``.  The default
``delta = 1e-6`` keeps the recursive solutions within 1e-6 of their batch
least-squares counterparts once the history has full rank.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (ParameterError, ParameterWarning, RankError,
                     StructuralError)

DEFAULT_DELTA = 1e-6
KRYLOV_BREAKDOWN_TOL = 1e-12


def _check_forgetting(lam):
    if not 0.0 < lam <= 1.0:
        raise ParameterError(f"forgetting factor must lie in (0, 1], got {lam}")


def _weights(n, lam):
    # lam ** (n-1), ..., lam ** 0
    return lam ** np.arange(n - 1, -1, -1, dtype=float)


def _hermitize(p):
    # re-symmetrize an inverse-correlation iterate: the anti-Hermitian
    # roundoff component of the conventional recursion grows like lam**-n
    # and eventually dominates unless it is projected out each step
    return 0.5 * (p + np.conj(np.swapaxes(p, -1, -2)))


# -- channel estimation -------------------------------------------------------

def ls_channel_estimate(pilots: np.ndarray, received: np.ndarray,
                        lam: float = 1.0, delta: float = 0.0) -> np.ndarray:
    """Batch (exponentially weighted, optionally regularized) least-squares
    channel estimate.

    ``pilots`` is (M, N) holding the stacked known stream symbols and
    ``received`` (N_A, N); the estimate solves the weighted normal
    equations ``G_hat = Q (R + delta lam^N I)^{-1}`` with Q the
    received/pilot cross-moment and R the pilot autocorrelation.  With
    ``delta > 0`` this is exactly where :class:`RlsChannelEstimator`
    started from ``P = I / delta`` stands after the same N pilots, and it
    needs no minimum pilot count.
    """
    pilots = np.asarray(pilots, dtype=complex)
    received = np.asarray(received, dtype=complex)
    _check_forgetting(lam)
    if delta < 0.0:
        raise ParameterError("delta must be >= 0")
    if pilots.ndim != 2 or received.ndim != 2 or pilots.shape[1] != received.shape[1]:
        raise StructuralError("pilots (M, N) and received (N_A, N) must share N")
    n = pilots.shape[1]
    if delta == 0.0 and n < pilots.shape[0]:
        raise RankError(
            f"{n} pilots cannot resolve {pilots.shape[0]} streams")
    w = _weights(n, lam)
    q = (received * w) @ pilots.conj().T
    r = (pilots * w) @ pilots.conj().T + delta * lam ** n * np.eye(pilots.shape[0])
    try:
        return np.linalg.solve(r.conj().T, q.conj().T).conj().T
    except np.linalg.LinAlgError:
        raise RankError(
            f"pilot correlation is singular after {n} pilots of {pilots.shape[0]} streams"
        ) from None


class RlsChannelEstimator:
    """Recursive least-squares tracker of the stacked channel matrix."""

    def __init__(self, n_streams: int, n_rx: int, lam: float = 1.0,
                 delta: float = DEFAULT_DELTA):
        _check_forgetting(lam)
        if delta <= 0.0:
            raise ParameterError("delta must be > 0")
        self.lam = lam
        self.p = np.eye(n_streams, dtype=complex) / delta
        self.t = np.zeros((n_rx, n_streams), dtype=complex)
        self.n_updates = 0

    @property
    def estimate(self) -> np.ndarray:
        """Current channel estimate T @ P."""
        return self.t @ self.p

    def update(self, pilot: np.ndarray, received: np.ndarray):
        """Fold in one pilot interval (pilot: (M,), received: (N_A,))."""
        s = np.asarray(pilot, dtype=complex).ravel()
        r = np.asarray(received, dtype=complex).ravel()
        ilam = 1.0 / self.lam
        ps = self.p @ s
        denom = 1.0 + ilam * np.real(s.conj() @ ps)
        self.p = _hermitize(ilam * self.p - (ilam ** 2 / denom) * np.outer(ps, ps.conj()))
        self.t = self.lam * self.t + np.outer(r, s.conj())
        self.n_updates += 1
        return self


class LmsChannelEstimator:
    """Least-mean-squares tracker of the stacked channel matrix."""

    def __init__(self, n_streams: int, n_rx: int, mu: float = 0.05,
                 symbol_power: float = 1.0):
        if mu <= 0.0:
            raise ParameterError("step size must be > 0")
        # stability heuristic: mu < 2 / tr(R) with white pilots
        if mu >= 2.0 / (n_streams * symbol_power):
            warnings.warn(
                f"LMS step size {mu} exceeds 2 / tr(R) = {2.0 / (n_streams * symbol_power):.4g}; "
                "the recursion may diverge", ParameterWarning, stacklevel=2)
        self.mu = mu
        self.estimate = np.zeros((n_rx, n_streams), dtype=complex)

    def update(self, pilot: np.ndarray, received: np.ndarray):
        s = np.asarray(pilot, dtype=complex).ravel()
        r = np.asarray(received, dtype=complex).ravel()
        err = r - self.estimate @ s
        self.estimate = self.estimate + self.mu * np.outer(err, s.conj())
        return self


# -- direct filter estimation -------------------------------------------------

def ls_filter_estimate(received: np.ndarray, desired: np.ndarray,
                       lam: float = 1.0) -> np.ndarray:
    """Batch weighted least-squares receive filter for one stream.

    Solves ``R_r w = p`` with R_r the received autocorrelation and p the
    cross-correlation with the desired symbol sequence; the filter is
    applied as ``w^H r``.
    """
    received = np.asarray(received, dtype=complex)
    desired = np.asarray(desired, dtype=complex).ravel()
    _check_forgetting(lam)
    if received.ndim != 2 or received.shape[1] != desired.size:
        raise StructuralError("received (N_A, N) and desired (N,) must share N")
    n = desired.size
    if n < received.shape[0]:
        raise RankError(
            f"{n} training samples cannot resolve a {received.shape[0]}-dimensional filter")
    w = _weights(n, lam)
    r_corr = (received * w) @ received.conj().T
    p = (received * w) @ desired.conj()
    try:
        return np.linalg.solve(r_corr, p)
    except np.linalg.LinAlgError:
        raise RankError(
            f"received correlation is singular after {n} training samples") from None


class RlsFilterEstimator:
    """Recursive least-squares adaptation of one receive filter."""

    def __init__(self, n_dim: int, lam: float = 1.0, delta: float = DEFAULT_DELTA):
        _check_forgetting(lam)
        if delta <= 0.0:
            raise ParameterError("delta must be > 0")
        self.lam = lam
        self.p = np.eye(n_dim, dtype=complex) / delta
        self.w = np.zeros(n_dim, dtype=complex)
        self.n_updates = 0

    def update(self, received: np.ndarray, desired: complex) -> complex:
        """One adaptation step; returns the a-priori error."""
        r = np.asarray(received, dtype=complex).ravel()
        pr = self.p @ r
        gain = pr / (self.lam + np.real(r.conj() @ pr))
        err = desired - self.w.conj() @ r
        self.w = self.w + gain * np.conj(err)
        self.p = _hermitize((self.p - np.outer(gain, r.conj() @ self.p)) / self.lam)
        self.n_updates += 1
        return err


# -- reduced-rank projections -------------------------------------------------

@dataclass
class ProjectionSpec:
    """A projection basis with orthonormal columns.

    ``effective_rank`` can fall short of the request when the Krylov ladder
    collapses; ``collapsed`` flags that case.
    """

    method: str
    requested_rank: int
    basis: np.ndarray
    effective_rank: int
    collapsed: bool = False


def build_projection(method: str, corr: np.ndarray, cross=None,
                     rank: int = 5) -> ProjectionSpec:
    """Build a rank-D projection from correlation estimates.

    ``pc`` keeps the top-D eigenvectors of ``corr``; ``krylov``
    orthonormalizes ``[t, R t, ..., R^{D-1} t]`` with ``t`` the normalized
    cross-correlation ``cross``.
    """
    corr = np.asarray(corr, dtype=complex)
    n = corr.shape[0]
    if corr.ndim != 2 or corr.shape[1] != n:
        raise StructuralError("correlation matrix must be square")
    if not 1 <= rank <= n:
        raise ParameterError(f"rank must lie in [1, {n}], got {rank}")
    if method == "pc":
        evals, evecs = np.linalg.eigh(corr)
        order = np.argsort(evals)[::-1][:rank]
        return ProjectionSpec("pc", rank, evecs[:, order], rank)
    if method != "krylov":
        raise ParameterError(f"unknown projection method {method!r}")
    if cross is None:
        raise ParameterError("krylov projection needs the cross-correlation vector")
    t = np.asarray(cross, dtype=complex).ravel()
    nt = np.linalg.norm(t)
    if nt == 0.0:
        raise ParameterError("krylov seed vector is zero")
    basis = [t / nt]
    vec = basis[0]
    collapsed = False
    for _ in range(1, rank):
        vec = corr @ vec
        # modified Gram-Schmidt against the basis built so far
        for b in basis:
            vec = vec - (b.conj() @ vec) * b
        nv = np.linalg.norm(vec)
        if nv < KRYLOV_BREAKDOWN_TOL:
            collapsed = True
            break
        vec = vec / nv
        basis.append(vec)
    t_mat = np.stack(basis, axis=1)
    return ProjectionSpec("krylov", rank, t_mat, t_mat.shape[1], collapsed)


class ReducedRankRlsFilter:
    """RLS in a fixed projected subspace: identical recursion on T^H r."""

    def __init__(self, projection, lam: float = 1.0, delta: float = DEFAULT_DELTA):
        basis = projection.basis if isinstance(projection, ProjectionSpec) else np.asarray(projection)
        self.basis = np.asarray(basis, dtype=complex)
        self.inner = RlsFilterEstimator(self.basis.shape[1], lam, delta)

    def update(self, received: np.ndarray, desired: complex) -> complex:
        return self.inner.update(self.basis.conj().T @ np.asarray(received, dtype=complex),
                                 desired)

    @property
    def w_reduced(self) -> np.ndarray:
        return self.inner.w

    @property
    def w(self) -> np.ndarray:
        """Equivalent full-dimension filter T @ w_bar."""
        return self.basis @ self.inner.w


class JioRlsFilter:
    """Joint iterative optimization: RLS on the short filter and a recursive
    least-squares step on the projection, alternating once per sample.

    The projection step moves ``T`` along the full-dimension RLS gain
    direction scaled onto the current short filter, so the effective filter
    ``T @ w_bar`` tracks the full least-squares solution while the short
    filter converges at the pace of its ``D``-dimensional recursion.  With
    ``w_bar = 0`` the projection step is a no-op (zero gradient).
    """

    def __init__(self, n_dim: int, rank: int, lam: float = 1.0,
                 delta: float = DEFAULT_DELTA):
        if not 1 <= rank <= n_dim:
            raise ParameterError(f"rank must lie in [1, {n_dim}], got {rank}")
        _check_forgetting(lam)
        self.lam = lam
        self.basis = np.eye(n_dim, rank, dtype=complex)
        self.w_bar = np.zeros(rank, dtype=complex)
        self.p_bar = np.eye(rank, dtype=complex) / delta
        self.p_full = np.eye(n_dim, dtype=complex) / delta
        self.n_updates = 0

    def update(self, received: np.ndarray, desired: complex) -> complex:
        r = np.asarray(received, dtype=complex).ravel()
        r_bar = self.basis.conj().T @ r
        # short-filter RLS step with the projection held fixed
        pr = self.p_bar @ r_bar
        gain = pr / (self.lam + np.real(r_bar.conj() @ pr))
        err = desired - self.w_bar.conj() @ r_bar
        self.w_bar = self.w_bar + gain * np.conj(err)
        self.p_bar = _hermitize((self.p_bar - np.outer(gain, r_bar.conj() @ self.p_bar)) / self.lam)
        # projection step with the short filter held fixed
        pf = self.p_full @ r
        gain_full = pf / (self.lam + np.real(r.conj() @ pf))
        self.p_full = _hermitize((self.p_full - np.outer(gain_full, r.conj() @ self.p_full)) / self.lam)
        w_energy = float(np.real(self.w_bar.conj() @ self.w_bar))
        if w_energy > 0.0:
            err_post = desired - self.w_bar.conj() @ r_bar  # basis not updated yet
            self.basis = self.basis + np.outer(
                gain_full * np.conj(err_post), self.w_bar.conj()) / w_energy
        self.n_updates += 1
        return err

    @property
    def w(self) -> np.ndarray:
        return self.basis @ self.w_bar


# -- multi-stream filter banks (shared statistics) ---------------------------

class RlsFilterBank:
    """Full-rank RLS filters for every stream, sharing one P recursion."""

    def __init__(self, n_dim: int, n_streams: int, lam: float = 1.0,
                 delta: float = DEFAULT_DELTA):
        _check_forgetting(lam)
        self.lam = lam
        self.p = np.eye(n_dim, dtype=complex) / delta
        self.weights = np.zeros((n_dim, n_streams), dtype=complex)

    def update(self, received: np.ndarray, desired: np.ndarray):
        r = np.asarray(received, dtype=complex).ravel()
        pr = self.p @ r
        gain = pr / (self.lam + np.real(r.conj() @ pr))
        err = np.asarray(desired, dtype=complex).ravel() - self.weights.conj().T @ r
        self.weights = self.weights + np.outer(gain, err.conj())
        self.p = _hermitize((self.p - np.outer(gain, r.conj() @ self.p)) / self.lam)
        return err


def _krylov_stream_solution(corr, cross_k, rank):
    """Basis, short filter and projected inverse for one stream's Krylov ladder.

    The basis is padded with zero columns if the ladder collapses early, so
    callers always see ``rank`` columns; padded coordinates never receive
    energy and stay inert.
    """
    n_dim = corr.shape[0]
    proj = build_projection("krylov", corr, cross_k, rank)
    b = proj.basis
    small = b.conj().T @ corr @ b
    w_bar = np.linalg.solve(small, b.conj().T @ cross_k)
    p_bar = _hermitize(np.linalg.inv(small))
    r_eff = b.shape[1]
    if r_eff < rank:
        basis = np.zeros((n_dim, rank), dtype=complex)
        basis[:, :r_eff] = b
        wb = np.zeros(rank, dtype=complex)
        wb[:r_eff] = w_bar
        pb = np.eye(rank, dtype=complex)
        pb[:r_eff, :r_eff] = p_bar
        return basis, wb, pb
    return b, w_bar, p_bar


def _krylov_bank_weights(corr, cross, rank):
    n_streams = cross.shape[1]
    out = np.zeros((corr.shape[0], n_streams), dtype=complex)
    for k in range(n_streams):
        if not np.any(cross[:, k]):
            continue  # nothing learned about this stream yet
        basis, w_bar, _ = _krylov_stream_solution(corr, cross[:, k], rank)
        out[:, k] = basis @ w_bar
    return out


class ReducedRankFilterBank:
    """Per-stream reduced-rank filters rebuilt from running statistics.

    Keeps exponentially weighted estimates of the received correlation and
    of each stream's cross-correlation; ``weights`` solves the projected
    normal equations on demand, with the basis rebuilt from the current
    statistics (principal components are shared, Krylov ladders are
    per stream).
    """

    def __init__(self, n_dim: int, n_streams: int, method: str = "krylov",
                 rank: int = 5, lam: float = 1.0, delta: float = DEFAULT_DELTA):
        if method not in ("pc", "krylov"):
            raise ParameterError(f"unknown reduced-rank method {method!r}")
        _check_forgetting(lam)
        self.method = method
        self.rank = rank
        self.lam = lam
        self.corr = np.eye(n_dim, dtype=complex) * delta
        self.cross = np.zeros((n_dim, n_streams), dtype=complex)
        self.n_updates = 0

    def update(self, received: np.ndarray, desired: np.ndarray):
        r = np.asarray(received, dtype=complex).ravel()
        d = np.asarray(desired, dtype=complex).ravel()
        self.corr = self.lam * self.corr + np.outer(r, r.conj())
        self.cross = self.lam * self.cross + np.outer(r, d.conj())
        self.n_updates += 1

    @property
    def weights(self) -> np.ndarray:
        if self.method == "pc":
            proj = build_projection("pc", self.corr, rank=self.rank)
            basis = proj.basis
            small = basis.conj().T @ self.corr @ basis
            rhs = basis.conj().T @ self.cross
            return basis @ np.linalg.solve(small, rhs)
        return _krylov_bank_weights(self.corr, self.cross, self.rank)


class JioFilterBank:
    """Per-stream JIO-RLS filters vectorized across streams.

    The joint recursions adapt a projection and a short filter per stream.
    Because the stochastic basis step needs a usable short filter to define
    its direction, an optional ``warmup`` window defers it: during the first
    ``warmup`` updates the bank pools correlation statistics and behaves
    exactly like the Krylov-ladder bank (an alternating scheme wants a
    subspace-aware starting point, and the pooled ladder is the natural
    one), then hands the ladder basis, the projected solution and the
    inverse statistics over to the joint recursions.
    """

    def __init__(self, n_dim: int, n_streams: int, rank: int = 5,
                 lam: float = 1.0, delta: float = DEFAULT_DELTA,
                 warmup: int = 0):
        if not 1 <= rank <= n_dim:
            raise ParameterError(f"rank must lie in [1, {n_dim}], got {rank}")
        if warmup < 0:
            raise ParameterError(f"warmup must be >= 0, got {warmup}")
        _check_forgetting(lam)
        self.lam = lam
        self.rank = rank
        self.warmup = int(warmup)
        self.n_updates = 0
        self.basis = np.broadcast_to(np.eye(n_dim, rank, dtype=complex),
                                     (n_streams, n_dim, rank)).copy()
        self.w_bar = np.zeros((n_streams, rank), dtype=complex)
        self.p_bar = np.broadcast_to(np.eye(rank, dtype=complex) / delta,
                                     (n_streams, rank, rank)).copy()
        self.p_full = np.eye(n_dim, dtype=complex) / delta
        if self.warmup > 0:
            self.corr = np.eye(n_dim, dtype=complex) * delta
            self.cross = np.zeros((n_dim, n_streams), dtype=complex)

    def _hand_off(self):
        # seed the joint recursions from the pooled statistics
        for k in range(self.cross.shape[1]):
            if not np.any(self.cross[:, k]):
                continue
            basis, w_bar, p_bar = _krylov_stream_solution(
                self.corr, self.cross[:, k], self.rank)
            self.basis[k] = basis
            self.w_bar[k] = w_bar
            self.p_bar[k] = p_bar
        self.p_full = _hermitize(np.linalg.inv(self.corr))

    def update(self, received: np.ndarray, desired: np.ndarray):
        r = np.asarray(received, dtype=complex).ravel()
        d = np.asarray(desired, dtype=complex).ravel()
        if self.n_updates < self.warmup:
            self.corr = self.lam * self.corr + np.outer(r, r.conj())
            self.cross = self.lam * self.cross + np.outer(r, d.conj())
            self.n_updates += 1
            if self.n_updates == self.warmup:
                self._hand_off()
            return
        self.n_updates += 1
        r_bar = np.einsum('knd,n->kd', self.basis.conj(), r)
        pr = np.einsum('kde,ke->kd', self.p_bar, r_bar)
        denom = self.lam + np.einsum('kd,kd->k', r_bar.conj(), pr).real
        gain = pr / denom[:, None]
        err = d - np.einsum('kd,kd->k', self.w_bar.conj(), r_bar)
        self.w_bar = self.w_bar + gain * err.conj()[:, None]
        rp = np.einsum('kd,kde->ke', r_bar.conj(), self.p_bar)
        self.p_bar = _hermitize((self.p_bar - gain[:, :, None] * rp[:, None, :]) / self.lam)
        pf = self.p_full @ r
        gain_full = pf / (self.lam + np.real(r.conj() @ pf))
        self.p_full = _hermitize((self.p_full - np.outer(gain_full, r.conj() @ self.p_full)) / self.lam)
        err_post = d - np.einsum('kd,kd->k', self.w_bar.conj(), r_bar)
        w_energy = np.einsum('kd,kd->k', self.w_bar.conj(), self.w_bar).real
        active = w_energy > 0.0
        if np.any(active):
            scale = np.where(active, err_post.conj() / np.maximum(w_energy, 1e-300), 0.0)
            self.basis = self.basis + (scale[:, None, None] * gain_full[None, :, None]
                                       * self.w_bar.conj()[:, None, :])

    @property
    def weights(self) -> np.ndarray:
        if self.n_updates < self.warmup:
            return _krylov_bank_weights(self.corr, self.cross, self.rank)
        return np.einsum('knd,kd->nk', self.basis, self.w_bar)
