"""Adaptive parameter estimation: channel and receive-filter training.

Channel estimators regress the received vector on the known pilot vector
(all streams simultaneously); filter banks adapt one receive filter per
stream directly against the known symbols.

Least-squares training statistics are folded in blocks, and a block of
``n`` snapshots enters them in one product.  :class:`RlsChannelEstimator`
keeps the exponentially weighted pilot autocorrelation and received/pilot
cross-moment; a filter bank keeps the received correlation and the
per-stream cross-correlations.  Estimates and filters are solved from these
statistics on demand.  The RLS channel estimate and the full-rank (RLS)
filter are regularized solves of the statistics, which is exactly where the
RLS recursion started from ``P[0] = I / delta`` stands after the same
samples; with ``delta = 0`` the channel solve is plain least squares.
Reduced-rank filters first project onto principal components or onto a
Krylov ladder seeded by the cross-correlation.  LMS runs in its exact block
form, one solve per run of pilots.  Only the short filters of the joint
iterative optimization (JIO) of projection and short filter remain
per-sample recursions; JIO's full-dimension RLS and its basis step move
once per block of samples.

Every trainer takes ``packets=P`` independent packets at once: every array
has a leading packet axis, a lone packet is a block of one, and JIO steps
all P in one per-sample loop.  Each operation is elementwise or one
BLAS or LAPACK call per packet, so a packet's estimate is bitwise what a
block of that packet alone would give.

``delta`` starts the correlation at ``delta * I`` (``P[0] = I / delta`` for
the recursions).  The default ``delta = 1e-6`` keeps the solutions within
1e-6 of unregularized least squares once the history has full rank.

The trainers take their parameters as ``ScenarioSpec.validate`` leaves
them: a forgetting factor in (0, 1], a step size > 0, a rank in [1, N_A],
``delta`` > 0 (>= 0 for the channel estimator) and ``packets`` >= 1.
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
# pilots per run of the LMS block form: the fastest of 1 to 128 at 8x16 with
# 250 pilots, and within 3.6x of the recursion's one-ulp sensitivity over 300
# seeds of the oracle test
_LMS_RUN = 32


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


def _adjoint(x):
    # the conjugate transpose of each matrix of a stack
    return np.swapaxes(x.conj(), -1, -2)


def _hermitize(p, out=None):
    # re-symmetrize an inverse-correlation iterate: the anti-Hermitian
    # roundoff component of the conventional recursion grows like lam**-n
    # and eventually dominates unless it is projected out each step; the
    # result goes to ``out`` (not ``p``) or to a fresh C-ordered array
    h = np.conjugate(np.swapaxes(p, -1, -2),
                     out=np.empty_like(p, order="C") if out is None else out)
    return _scale(np.add(p, h, out=h), 0.5)


# -- channel estimation -------------------------------------------------------

class RlsChannelEstimator:
    """Least-squares trainer of the stacked channel matrix, from block-folded
    pilot statistics.

    Keeps the exponentially weighted pilot autocorrelation (started at
    ``delta * I``) and received/pilot cross-moment of ``packets`` packets;
    ``estimate`` solves the weighted normal equations
    ``G_hat = Q (R + delta lam^n I)^{-1}`` for each, a (P, N_A, M) stack.
    With ``delta > 0`` this is exactly where the RLS recursion started from
    ``P = I / delta`` stands after the same n pilots, and it needs no
    minimum pilot count; ``delta = 0`` is plain (weighted) least squares.
    """

    def __init__(self, n_streams: int, n_rx: int, lam: float = 1.0,
                 delta: float = DEFAULT_DELTA, *, packets: int = 1):
        self.lam = lam
        self.delta = delta
        self.corr = np.broadcast_to(np.eye(n_streams, dtype=complex) * delta,
                                    (packets, n_streams, n_streams)).copy()
        self.cross = np.zeros((packets, n_rx, n_streams), dtype=complex)
        self.n_updates = 0

    def update(self, pilots: np.ndarray, received: np.ndarray):
        """Fold in a block: pilots (P, M, n), received (P, N_A, n)."""
        packets, n_rx, m = self.cross.shape
        s, r = _snapshots((pilots, received), packets, (m, n_rx),
                          ("pilots", "received vectors"))
        n = s.shape[-1]
        decay = self.lam ** n
        w = _weights(n, self.lam)
        s_h = _adjoint(s)
        self.corr = decay * self.corr + (s * w) @ s_h
        self.cross = decay * self.cross + (r * w) @ s_h
        self.n_updates += n
        return self

    @property
    def estimate(self) -> np.ndarray:
        m, n = self.corr.shape[-1], self.n_updates
        if self.delta == 0.0 and n < m:
            raise RankError(f"{n} pilots cannot resolve {m} streams")
        try:
            return _adjoint(np.linalg.solve(_adjoint(self.corr), _adjoint(self.cross)))
        except np.linalg.LinAlgError:
            raise RankError(
                f"pilot correlation is singular after {n} pilots of {m} streams") from None


class LmsChannelEstimator:
    """Least-mean-squares tracker of the stacked channel matrix.

    It tracks the channels of ``packets`` packets at once: ``estimate`` is
    (P, N_A, M).  The recursion ``e_i = r_i - G_hat s_i``,
    ``G_hat += mu e_i s_i^H`` runs in its exact block form (Benesty and
    Duhamel, IEEE Trans. Signal Process. 1992): over a run of b pilots S
    (M, b) and received vectors R (N_A, b) from the estimate ``G_hat``, the
    errors E solve ``E (I + mu U) = R - G_hat S``, with U the strictly upper
    triangle of ``S^H S``, and then ``G_hat += mu E S^H``.  That is the
    recursion's result to rounding, with one solve and three products per
    run instead of b steps.  A step size past the stability bound is the
    config's to flag (``ScenarioSpec.validate``), not the tracker's.
    """

    def __init__(self, n_streams: int, n_rx: int, mu: float = 0.05, *, packets: int = 1):
        self.mu = mu
        self.estimate = np.zeros((packets, n_rx, n_streams), dtype=complex)

    def update(self, pilots: np.ndarray, received: np.ndarray):
        """Run the recursion over a block: pilots (P, M, n), received (P, N_A, n),
        in runs of ``_LMS_RUN`` pilots from the first."""
        packets, n_rx, m = self.estimate.shape
        s, r = _snapshots((pilots, received), packets, (m, n_rx),
                          ("pilots", "received vectors"))
        for lo in range(0, s.shape[-1], _LMS_RUN):
            run_s, run_r = s[..., lo:lo + _LMS_RUN], r[..., lo:lo + _LMS_RUN]
            s_h = _adjoint(run_s)
            coupling = np.triu(s_h @ run_s, 1)
            coupling *= self.mu
            coupling += np.eye(coupling.shape[-1])
            # mu E S^H = mu D (I + mu U)^-1 S^H: solve against the M columns
            # of S^H, not the N_A rows of D = R - G_hat S
            gain = np.linalg.solve(coupling, s_h)
            self.estimate = self.estimate + self.mu * ((run_r - self.estimate @ run_s) @ gain)
        return self


# -- reduced-rank projections -------------------------------------------------

def build_projection(method: str, corr: np.ndarray, cross=None,
                     rank: int = 5) -> np.ndarray:
    """Orthonormal rank-D projection basis (N_A, D) from correlation estimates.

    ``pc`` keeps the top-D eigenvectors of ``corr``; ``krylov``
    orthonormalizes ``[t, R t, ..., R^{D-1} t]`` with ``t`` the normalized
    cross-correlation ``cross``.  A Krylov ladder that collapses returns
    fewer than D columns.  ``corr`` is square and D in [1, N_A].
    """
    corr = np.asarray(corr, dtype=complex)
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
        self.method = method
        self.rank = rank
        self.lam = lam
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
        self.corr = decay * self.corr + rw @ _adjoint(r)
        self.cross = decay * self.cross + rw @ _adjoint(d)
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
        r_h = _adjoint(r)
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
        self.lam = lam
        self.rank = rank
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
        f = blk.z[..., :b] @ np.linalg.inv(_adjoint(blk.chol[..., :b, :b]))
        f_h = _adjoint(f)
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
