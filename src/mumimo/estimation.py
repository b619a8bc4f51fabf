"""Adaptive parameter estimation: channel and receive-filter training.

Channel estimators regress the received vector on the known pilot vector
(all streams simultaneously); filter banks adapt one receive filter per
stream directly against the known symbols.

Receive-filter training statistics are folded in blocks: a bank keeps the
exponentially weighted received correlation and the per-stream
cross-correlations, and a block of ``n`` snapshots enters both in one
product.  Filters are solved from these statistics on demand.  The
full-rank (RLS) filter is the regularized solve of the statistics, which is
exactly where the RLS recursion started from ``P[0] = I / delta`` stands
after the same samples.  Reduced-rank filters first project onto principal
components or onto a Krylov ladder seeded by the cross-correlation.  Only
LMS, the short filters of the joint iterative optimization (JIO) of
projection and short filter, and the :class:`RlsChannelEstimator` oracle of
the batch channel solve remain per-sample recursions; JIO's full-dimension
RLS and its basis step move once per block of samples.

The LMS tracker and both filter banks train ``packets=P`` independent
packets at once: every array has a leading packet axis, a lone packet is a
block of one, and LMS and JIO step all P in one per-sample loop.  Each
operation is elementwise or one BLAS or LAPACK call per packet, so a
packet's estimate is bitwise what a block of that packet alone would give.

``delta`` starts the correlation at ``delta * I`` (``P[0] = I / delta`` for
the recursions).  The default ``delta = 1e-6`` keeps the solutions within
1e-6 of unregularized least squares once the history has full rank.
"""

import numpy as np

from .errors import NumericalError, ParameterError, RankError, StructuralError

DEFAULT_DELTA = 1e-6
KRYLOV_BREAKDOWN_TOL = 1e-12
# samples per block of JIO's full-dimension RLS, and never more than N_A:
# the block's Gram matrix R^H P R has rank N_A at most, so a longer block
# leaves H conditioned by its lam^j diagonal alone.  Longer blocks round
# further from the per-sample recursion: on 64 dimensions, 300 samples, the
# weights and bases of the oracle tests sit within 2.5x, 3.5x and 7.0x the
# recursion's own one-ulp sensitivity for blocks of 16, 24 and 32
_BLOCK = 16


def _check_forgetting(lam):
    if not 0.0 < lam <= 1.0:
        raise ParameterError(f"forgetting factor must lie in (0, 1], got {lam}")


def _check_delta(delta):
    if delta <= 0.0:
        raise ParameterError("delta must be > 0")


def _check_packets(packets):
    # the length of the leading packet axis of a tracker's or bank's arrays
    if packets < 1:
        raise ParameterError(f"packets must be >= 1, got {packets}")
    return int(packets)


def _weights(n, lam):
    # lam ** (n-1), ..., lam ** 0
    return lam ** np.arange(n - 1, -1, -1, dtype=float)


def _scale(x, c):
    # x * c in place for a fresh complex array and a real c, on the real
    # view: numpy's complex ``0.5 * x`` and ``x / lam`` round each part as
    # ``part * 0.5`` and ``part * (1.0 / lam)``, so the bits are the same
    # without a complex multiply or division per entry
    x.view(float)[...] *= c
    return x


def _hermitize(p, out=None):
    # re-symmetrize an inverse-correlation iterate: the anti-Hermitian
    # roundoff component of the conventional recursion grows like lam**-n
    # and eventually dominates unless it is projected out each step; the
    # result goes to ``out`` (not ``p``) or to a fresh C-ordered array
    h = np.conjugate(np.swapaxes(p, -1, -2),
                     out=np.empty_like(p, order="C") if out is None else out)
    return _scale(np.add(p, h, out=h), 0.5)


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
        _check_delta(delta)
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
    """Least-mean-squares tracker of the stacked channel matrix.

    It tracks the channels of ``packets`` packets at once: ``estimate`` is
    (P, N_A, M) and one update steps every packet per pilot.  A step size
    past the stability bound is the config's to flag
    (``ScenarioSpec.validate``), not the tracker's.
    """

    def __init__(self, n_streams: int, n_rx: int, mu: float = 0.05, *, packets: int = 1):
        if mu <= 0.0:
            raise ParameterError("step size must be > 0")
        self.mu = mu
        self.estimate = np.zeros((_check_packets(packets), n_rx, n_streams),
                                 dtype=complex)

    def update(self, pilots: np.ndarray, received: np.ndarray):
        """Run the recursion over a block: pilots (P, M, n), received (P, N_A, n)."""
        packets, n_rx, m = self.estimate.shape
        s, r = _snapshots((pilots, received), packets, (m, n_rx),
                          ("pilots", "received vectors"))
        for s_i, r_i in zip(_samples(s), _samples(r)):
            err = r_i - (self.estimate @ s_i[..., None])[..., 0]
            self.estimate = self.estimate + self.mu * (err[..., :, None]
                                                       * s_i.conj()[..., None, :])
        return self


# -- reduced-rank projections -------------------------------------------------

def build_projection(method: str, corr: np.ndarray, cross=None,
                     rank: int = 5) -> np.ndarray:
    """Orthonormal rank-D projection basis (N_A, D) from correlation estimates.

    ``pc`` keeps the top-D eigenvectors of ``corr``; ``krylov``
    orthonormalizes ``[t, R t, ..., R^{D-1} t]`` with ``t`` the normalized
    cross-correlation ``cross``.  A Krylov ladder that collapses returns
    fewer than D columns.
    """
    corr = np.asarray(corr, dtype=complex)
    n = corr.shape[0]
    if corr.ndim != 2 or corr.shape[1] != n:
        raise StructuralError("correlation matrix must be square")
    if not 1 <= rank <= n:
        raise ParameterError(f"rank must lie in [1, {n}], got {rank}")
    if method == "pc":
        evals, evecs = np.linalg.eigh(corr)
        return evecs[:, np.argsort(evals)[::-1][:rank]]
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
    for _ in range(1, rank):
        vec = corr @ vec
        # modified Gram-Schmidt against the basis built so far
        for b in basis:
            vec = vec - (b.conj() @ vec) * b
        nv = np.linalg.norm(vec)
        if nv < KRYLOV_BREAKDOWN_TOL:
            break
        vec = vec / nv
        basis.append(vec)
    return np.stack(basis, axis=1)


def _projected_solve(corr, basis, cross):
    # filter T (T^H R T)^{-1} T^H p of the projected normal equations
    return basis @ np.linalg.solve(basis.conj().T @ corr @ basis,
                                   basis.conj().T @ cross)


# -- receive-filter banks (shared statistics) --------------------------------

def _snapshots(blocks, packets, rows, names=("received vectors", "desired vectors")):
    # two (P, rows, n) blocks read together, a snapshot (column) of each at
    # a time
    out = []
    for block, n in zip(blocks, rows):
        block = np.asarray(block, dtype=complex)
        if block.ndim != 3 or block.shape[:2] != (packets, n):
            raise StructuralError(f"expected ({packets}, {n}, n) snapshots, "
                                  f"got {block.shape}")
        out.append(block)
    if out[0].shape[-1] != out[1].shape[-1]:
        raise StructuralError(f"{out[0].shape[-1]} {names[0]} but {out[1].shape[-1]} {names[1]}")
    return out


def _samples(block):
    # the snapshots one at a time, each contiguous, so that a step sees the
    # operands a block of one snapshot would
    return np.ascontiguousarray(np.moveaxis(block, -1, 0))


class ReducedRankFilterBank:
    """Per-stream receive filters solved from block-folded training statistics.

    Keeps exponentially weighted estimates of the received correlation
    (started at ``delta * I``) and of each stream's cross-correlation;
    ``weights`` solves the projected normal equations on demand, with the
    basis rebuilt from the current statistics (principal components are
    shared, Krylov ladders are per stream).  With ``rank == n_dim`` the bank
    is the full-rank RLS filter.  The statistics and the weights have a
    leading axis of ``packets``, and each packet is solved alone.
    """

    def __init__(self, n_dim: int, n_streams: int, method: str = "krylov",
                 rank: int = 5, lam: float = 1.0, delta: float = DEFAULT_DELTA,
                 packets: int = 1):
        if method not in ("pc", "krylov"):
            raise ParameterError(f"unknown reduced-rank method {method!r}")
        if not 1 <= rank <= n_dim:
            raise ParameterError(f"rank must lie in [1, {n_dim}], got {rank}")
        _check_forgetting(lam)
        _check_delta(delta)
        self.method = method
        self.rank = rank
        self.lam = lam
        packets = _check_packets(packets)
        self.corr = np.broadcast_to(np.eye(n_dim, dtype=complex) * delta,
                                    (packets, n_dim, n_dim)).copy()
        self.cross = np.zeros((packets, n_dim, n_streams), dtype=complex)
        self.n_updates = 0

    def update(self, received: np.ndarray, desired: np.ndarray):
        """Fold in a block: received (P, N_A, n), desired (P, M, n)."""
        packets, *rows = self.cross.shape
        r, d = _snapshots((received, desired), packets, rows)
        n = r.shape[-1]
        decay = self.lam ** n
        rw = r * _weights(n, self.lam)
        self.corr = decay * self.corr + rw @ np.swapaxes(r.conj(), -1, -2)
        self.cross = decay * self.cross + rw @ np.swapaxes(d.conj(), -1, -2)
        self.n_updates += n

    @property
    def weights(self) -> np.ndarray:
        return np.stack([self._solve(c, x) for c, x in zip(self.corr, self.cross)])

    def _solve(self, corr, cross):
        if self.rank == corr.shape[0]:
            # the projected solve is the full one here: the pc basis spans the
            # whole space, and the span of a krylov ladder contains R^{-1} p
            # even when it collapses (the ladder then spans an R-invariant
            # subspace holding p)
            return np.linalg.solve(corr, cross)
        if self.method == "pc":
            basis = build_projection("pc", corr, rank=self.rank)
            return _projected_solve(corr, basis, cross)
        out = np.zeros_like(cross)
        # a stream with no training yet has no ladder seed and a zero filter
        for k in np.flatnonzero(np.any(cross, axis=0)):
            basis = build_projection("krylov", corr, cross[:, k], self.rank)
            out[:, k] = _projected_solve(corr, basis, cross[:, k])
        return out


class _RlsBlock:
    """The full-dimension RLS recursion over a block of b samples R (N_A, b),
    started from the inverse iterate P, and each sample's projection onto
    the bases C (N_A, K*D) as the block's earlier samples move them.

    After j samples the iterate is ``P_j = lam^-j (P - Z H_j^-1 Z^H)`` with
    ``Z = P R`` and H_j the leading j x j block of
    ``H = R^H P R + diag(lam, lam^2, ..., lam^b)`` (Woodbury on
    ``P_j^-1 = lam^j P^-1 + sum_i lam^(j-1-i) r_i r_i^H``).  With the
    Cholesky factor ``H = L L^H``, sample i's gain is ``g_i = Z L^-H e_i / L_ii``
    and ``r_j^H g_i = L_ji / L_ii`` for i < j: the per-sample recursion
    becomes one b x b triangular factorization, and the iterate moves once,
    by ``F F^H`` with ``F = Z L^-H``.

    Step i moves the bases by ``-lam^(i+1) g_i row_i``, so sample j's
    projection ``r_j^H C + sum_{i<j} (r_j^H g_i) (-lam^(i+1)) row_i`` is
    row j of ``coeff @ terms``, with ``terms = [R^H C; rows]`` and ``coeff
    = [I, -L diag(lam^(i+1) / L_ii)]``: step j reads its row before it
    writes rows j.., which are still zero.  Every array keeps the packet
    axis of P.
    """

    def __init__(self, p_full, r, d, lam, columns):
        self.z = p_full @ r
        r_h = np.swapaxes(r.conj(), -1, -2)
        gram = r_h @ self.z
        packets, b, n_streams = gram.shape[:-2], r.shape[-1], d.shape[-2]
        self.powers = lam ** np.arange(1.0, b + 1.0)  # lam^(j+1)
        gram.reshape(packets + (b * b,))[..., ::b + 1] += self.powers
        self.chol = np.linalg.cholesky(gram)
        self.pivots = np.diagonal(self.chol, axis1=-2, axis2=-1).real
        self.coeff = np.zeros(packets + (b, 2 * b), dtype=complex)
        self.coeff.reshape(packets + (2 * b * b,))[..., ::2 * b + 1] = 1.0
        np.multiply(self.chol, -self.powers / self.pivots[..., None, :],
                    out=self.coeff[..., b:])
        self.terms = np.zeros(packets + (2 * b, columns.shape[-1]), dtype=complex)
        np.matmul(r_h, columns, out=self.terms[..., :b, :])
        self.rows = self.terms[..., b:, :]
        self.d_conj = np.moveaxis(d.conj(), -1, 0)  # sample j's conj(d) at [j]
        # per step (b, P, K): its short filters' energies and step scales
        self.energy = np.empty((b,) + packets + (n_streams,))
        self.scale = np.zeros((b,) + packets + (n_streams,), dtype=complex)
        self.steps = 0


class _StepBuffers:
    """The operands of a joint step over (P, K) streams of rank D, as
    preallocated arrays and views of them, so that a step allocates little
    and slices little: ``x`` holds conj(r_bar) (P, 1, K*D) and
    ``x_streams`` its (P, K, 1, D) view, ``y`` the product ``x S`` (P, K, 1,
    D + 1), ``quad`` the real dot of their parts and ``outer`` the rank-one
    update of S."""

    def __init__(self, packets, n_streams, rank):
        self.x = np.empty((packets, 1, n_streams * rank), dtype=complex)
        self.x_streams = self.x.reshape(packets, n_streams, 1, rank)
        self.x_parts = self.x_streams[..., 0, :].view(float)
        self.y = np.empty((packets, n_streams, 1, rank + 1), dtype=complex)
        self.y_parts = self.y[..., 0, :-1].view(float)
        self.y_last = self.y[..., 0, -1]
        self.v_head = np.swapaxes(self.y[..., :-1], -1, -2)
        self.quad = np.empty((packets, n_streams))
        self.u = np.empty((packets, n_streams, rank, 1), dtype=complex)
        self.outer = np.empty((packets, n_streams, rank, rank + 1), dtype=complex)
        self.w_conj = np.empty((packets, n_streams, rank), dtype=complex)
        self.w_parts = self.w_conj.view(float)


class JioFilterBank:
    """Per-stream JIO-RLS filters vectorized across streams.

    The joint recursions adapt a projection and a short filter per stream,
    alternating an RLS step on the short filter with a recursive
    least-squares step on the projection once per sample.  The projection
    step moves the basis along the full-dimension RLS gain direction scaled
    onto the current short filter, so the effective filter ``T @ w_bar``
    tracks the full least-squares solution while the short filter converges
    at the pace of its ``D``-dimensional recursion.  With ``w_bar = 0`` the
    projection step is a no-op (zero gradient).

    The K bases are stored side by side as one (N_A, K*D) array and
    ``basis`` is its (K, N_A, D) view, so a block's open projects its
    samples onto every stream with one product.  Only the short filters
    step per sample.
    The full-dimension RLS iterate ``p_full`` and the bases move once per
    block of up to ``_BLOCK`` samples, and at most N_A
    (:class:`_RlsBlock`): a sample's projection adds the moves of the
    block's earlier samples to its projection onto the block's starting
    basis.

    A stream's short filter sits beside its inverse correlation in one
    D x (D + 1) matrix ``S = [P_bar, w_bar]``; ``p_bar`` and ``w_bar`` are
    views of it.  ``conj(r_bar)^T S`` holds ``conj(P_bar r_bar)^T`` (P_bar
    is Hermitian) and the a priori estimate, and one rank-one update moves
    both.  Within a block S holds ``lam^j P_bar`` after j steps, which takes
    the per-step ``1 / lam`` out of the recursion; the block's close scales
    it back.

    Every iterate has a leading axis of ``packets`` (``basis`` (P, K, N_A,
    D), ``p_bar`` (P, K, D, D), ``p_full`` (P, N_A, N_A)), and one joint
    step advances all P packets.
    """

    def __init__(self, n_dim: int, n_streams: int, rank: int = 5,
                 lam: float = 1.0, delta: float = DEFAULT_DELTA, packets: int = 1):
        if not 1 <= rank <= n_dim:
            raise ParameterError(f"rank must lie in [1, {n_dim}], got {rank}")
        _check_forgetting(lam)
        _check_delta(delta)
        self.lam = lam
        self.rank = rank
        packets = _check_packets(packets)
        # stream k's basis is columns k*D..(k+1)*D - 1
        self._columns = np.broadcast_to(np.tile(np.eye(n_dim, rank, dtype=complex),
                                                n_streams),
                                        (packets, n_dim, n_streams * rank)).copy()
        self.basis = np.moveaxis(
            self._columns.reshape(packets, n_dim, n_streams, rank), -3, -2)
        self._short = np.zeros((packets, n_streams, rank, rank + 1), dtype=complex)
        self.p_bar = self._short[..., :rank]
        self.p_bar[...] = np.eye(rank) / delta
        self.w_bar = self._short[..., rank]
        self._step = _StepBuffers(packets, n_streams, rank)
        self.p_full = np.broadcast_to(np.eye(n_dim, dtype=complex) / delta,
                                      (packets, n_dim, n_dim)).copy()
        self._block = None  # the open block of the full-dimension RLS

    def update(self, received: np.ndarray, desired: np.ndarray):
        """Fold in a block: received (P, N_A, n), desired (P, M, n)."""
        packets, n_streams, n_dim, _ = self.basis.shape
        r, d = _snapshots((received, desired), packets, (n_dim, n_streams))
        width = min(_BLOCK, n_dim)
        for lo in range(0, r.shape[-1], width):
            r_blk, d_blk = r[..., lo:lo + width], d[..., lo:lo + width]
            try:
                self._block = _RlsBlock(self.p_full, r_blk, d_blk, self.lam, self._columns)
            except np.linalg.LinAlgError:
                window = 1.0 / (1.0 - self.lam) if self.lam < 1.0 else np.inf
                raise NumericalError(
                    f"JIO's full-dimension RLS iterate is no longer positive definite: "
                    f"forgetting factor lambda = {self.lam} keeps a window of "
                    f"1/(1 - lambda) = {window:.3g} samples against N_A = {n_dim} "
                    f"dimensions") from None
            for r_i, d_i in zip(np.moveaxis(r_blk, -1, 0), np.moveaxis(d_blk, -1, 0)):
                self._joint_step(r_i, d_i)
            self._close_block()

    def _joint_step(self, r, d):
        # r (P, N_A) and d (P, K): the next sample of every packet in the
        # open block, which the block's open already took in (a per-sample
        # oracle reads them here).  The short filters step here; the
        # block's close moves the full-dimension iterates, by the rows this
        # step leaves
        blk, buf = self._block, self._step
        j = blk.steps
        blk.steps += 1
        # x = conj(r_bar) of all K streams against the bases as the block's
        # earlier samples moved them
        np.matmul(blk.coeff[..., j:j + 1, :], blk.terms, out=buf.x)
        # y = x S = [conj(Q r_bar), -conj(e)] for Q = lam^j P_bar, and
        # denom = lam^(j+1) + r_bar^H Q r_bar = lam^j (lam + r_bar^H P_bar
        # r_bar), the first part a real dot of the parts
        y = np.matmul(buf.x_streams, self._short, out=buf.y)
        buf.y_last -= blk.d_conj[j]
        root = np.sqrt(np.vecdot(buf.y_parts, buf.x_parts, out=buf.quad) + blk.powers[j])
        # with v = y / sqrt(denom), S - conj(v[:D])^T v is
        # [Q - Q r_bar r_bar^H Q / denom, w_bar + Q r_bar conj(e) / denom],
        # its P block Hermitian entry by entry
        v = np.divide(y, root[..., None, None], out=y)
        self._short -= np.matmul(np.conjugate(buf.v_head, out=buf.u), v, out=buf.outer)
        # the basis step g_j row_j: every stream's conj(w_bar) scaled by the
        # conjugate a posteriori error e lam / (lam + r_bar^H P_bar r_bar) =
        # -v_D lam^(j+1) / sqrt(denom) over |w_bar|^2, laid out as the basis
        # columns; rows keep the factor -lam^(j+1) out, coeff and the close
        # apply it.  A stream whose filter is zero gets a zero row
        w_conj = np.conjugate(self.w_bar, out=buf.w_conj)
        energy = np.vecdot(buf.w_parts, buf.w_parts, out=blk.energy[j])
        scale = np.divide(buf.y_last, energy * root, out=blk.scale[j],
                          where=energy > 0.0)
        np.multiply(scale[..., None], w_conj,
                    out=blk.rows[..., j, :].reshape(w_conj.shape))

    def _close_block(self):
        # P <- lam^-b (P - F F^H), hermitized, and C <- C + F (-lam^(i+1)
        # rows_i / L_ii) for the b samples stepped, F = Z L^-H; P_bar takes
        # its lam^-b.  F comes from the inverse of the triangular L^H, which
        # a block of at most N_A samples keeps well conditioned: LAPACK's
        # solve for the N_A right-hand sides of L^-1 Z^H takes ~3x as long.
        # A packet whose filters never moved keeps its basis, as it would
        # alone: adding its zero step would turn -0.0 entries into +0.0
        blk, self._block = self._block, None
        b = blk.steps
        _scale(self.p_bar, self.lam ** -b)
        f = blk.z[..., :b] @ np.linalg.inv(np.swapaxes(blk.chol[..., :b, :b].conj(), -1, -2))
        f_h = np.swapaxes(f.conj(), -1, -2)
        p_full = f @ f_h
        _hermitize(_scale(np.subtract(self.p_full, p_full, out=p_full),
                          self.lam ** -b), out=self.p_full)
        moved = np.any(blk.energy[:b] > 0.0, axis=(0, -1))
        if np.any(moved):
            step = f @ (blk.rows[..., :b, :] * (-blk.powers[:b] / blk.pivots[..., :b])[..., None])
            np.add(self._columns, step, out=self._columns, where=moved[..., None, None])

    @property
    def weights(self) -> np.ndarray:
        return np.einsum('...knd,...kd->...nk', self.basis, self.w_bar)
