"""Uplink channel model: antenna correlation, small- and large-scale fading.

The composite channel of user k is ``G_k = Gamma_k * H_k`` where ``H_k``
carries correlated Rayleigh fading and ``Gamma_k`` the large-scale gain
(path loss, link gain and log-normal shadowing).  In a distributed
deployment the receive correlation is block diagonal over co-located
antenna groups and every group sees its own large-scale coefficient.
"""

from functools import lru_cache

import numpy as np

from .config import DISTANCE_GRID_STEP, SystemConfig
from .errors import NumericalError

_PSD_TOL = 1e-10


def correlation_matrix(n: int, rho: float) -> np.ndarray:
    """Antenna correlation matrix with entries rho ** (i - j)^2.

    ``rho = 0`` gives the identity and ``rho = 1`` the all-ones matrix; any
    rho in [0, 1] yields a symmetric positive semidefinite matrix.  ``n`` >= 1
    and rho in [0, 1], as ``SystemConfig`` guarantees.
    """
    idx = np.arange(n)
    expo = (idx[:, None] - idx[None, :]) ** 2
    # 0**0 == 1 keeps the diagonal at unity for rho = 0
    return np.power(float(rho), expo)


def matrix_sqrt(mat: np.ndarray) -> np.ndarray:
    """Hermitian square root S of a PSD matrix, with S @ S.conj().T == mat.

    ``mat`` is square.  Eigenvalues within a small negative tolerance of zero
    are clipped; anything more negative raises :class:`NumericalError`.
    """
    mat = np.asarray(mat)
    w, v = np.linalg.eigh(mat)
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 1.0)
    if np.min(w) < -_PSD_TOL * scale:
        raise NumericalError(
            f"matrix is not positive semidefinite (min eigenvalue {np.min(w):.3e})")
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)) @ v.conj().T
    return root


@lru_cache(maxsize=64)
def _cached_corr_sqrt(n: int, rho: float) -> np.ndarray:
    out = matrix_sqrt(correlation_matrix(n, rho))
    out.setflags(write=False)
    return out


@lru_cache(maxsize=8)
def _receive_corr_sqrt(blocks: tuple, rho: float) -> np.ndarray:
    """Block-diagonal square root of the receive correlation matrix.

    Stored real and read-only: it colors the real and imaginary parts of
    every user's fading in one real product.
    """
    n_rx = sum(blocks)
    root = np.zeros((n_rx, n_rx))
    start = 0
    for size in blocks:
        root[start:start + size, start:start + size] = _cached_corr_sqrt(size, rho)
        start += size
    root.setflags(write=False)
    return root


def draw_small_scale(cfg: SystemConfig, rngs) -> np.ndarray:
    """Correlated Rayleigh fading of every user of P packets, (P, N_A, K * N_U).

    ``rngs[p][k]`` is user k's generator in packet p.  Its i.i.d. CN(0, 1)
    matrix (real part, then imaginary part) fills that packet's columns
    k * N_U ... (k + 1) * N_U - 1, which depend on that generator alone.
    Every packet's white matrices are colored on the receive side by one
    real product with the (block-diagonal) correlation root, and each
    user's on the transmit side by the per-user antenna correlation root;
    both products run over the packet axis, one BLAS call per packet, so a
    packet's fading is what a stack of that packet alone gives it.  Each
    packet has ``cfg.n_users`` generators, as ``_receive_block`` draws them.
    """
    n_rx, n_u = cfg.n_rx_total, cfg.antennas_per_user
    normals = np.empty((len(rngs), cfg.n_users, 2, n_rx, n_u))
    for users, packet in zip(rngs, normals):
        for rng, user in zip(users, packet):
            rng.standard_normal(out=user)
    # scaled once into the product's layout, an entry's real and imaginary
    # parts side by side: the real product is the complex fading's real view
    white = np.empty((len(rngs), n_rx, cfg.n_users, n_u, 2))
    np.multiply(normals.transpose(0, 3, 1, 4, 2), 1.0 / np.sqrt(2.0), out=white)
    rx_root = _receive_corr_sqrt(cfg.receive_blocks(), cfg.rho)
    fading = (rx_root @ white.reshape(len(rngs), n_rx, -1)).view(complex)
    tx_root = _cached_corr_sqrt(n_u, cfg.rho)
    return (fading.reshape(len(rngs), -1, n_u) @ tx_root).reshape(
        len(rngs), n_rx, cfg.n_streams)


@lru_cache(maxsize=8)
def _distance_grid(distance_range: tuple) -> np.ndarray:
    """The distance grid over ``distance_range``, shared and read-only."""
    lo, hi = distance_range
    n = int(round((hi - lo) / DISTANCE_GRID_STEP)) + 1
    grid = np.linspace(lo, hi, max(n, 1))
    grid.setflags(write=False)
    return grid


def draw_large_scale(cfg: SystemConfig, rngs) -> np.ndarray:
    """Large-scale gains of P channel realizations, (P, K, L + 1).

    Packet p's gains come from its generator ``rngs[p]``: grid indices,
    then link gains, then shadowing normals.  Column j is the gain between
    each user and co-located group j (the central array is group 0); a
    centralized system has one column.  The gain is
    ``gamma = sqrt(link / d^tau) * 10^(sigma v / 10)``: distances d uniform
    on a discrete grid over ``cfg.distance_range``, link gains uniform
    (continuous) on ``cfg.path_gain_range`` and v standard normal.
    """
    shape = (len(rngs), cfg.n_users, cfg.n_heads + 1)
    grid = _distance_grid(cfg.distance_range)
    index, link, v = np.empty(shape, dtype=np.int64), np.empty(shape), np.empty(shape)
    for rng, i, u, w in zip(rngs, index, link, v):
        i[...] = rng.integers(0, len(grid), size=shape[1:])
        rng.random(out=u)
        rng.standard_normal(out=w)
    d = grid[index]
    lo, hi = cfg.path_gain_range
    link = lo + (hi - lo) * link
    return np.sqrt(link / d ** cfg.path_loss_exp) * 10.0 ** (cfg.shadow_spread_db * v / 10.0)


def compose_channel(cfg: SystemConfig, small: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """Scale every user's fading columns by its large-scale gains.

    ``small`` is the (P, N_A, K * N_U) fading of :func:`draw_small_scale`
    and ``gains`` the (P, K, L + 1) draw of :func:`draw_large_scale`; row n
    of user k's columns is scaled by the gain of user k's link to the
    receive block that holds antenna n, every packet and user in one
    broadcast.  Both stacks hold the same P packets of ``cfg``.
    """
    gains = np.repeat(gains, cfg.receive_blocks(), axis=-1)  # (P, K, N_A)
    return np.repeat(gains.swapaxes(-1, -2), cfg.antennas_per_user, axis=-1) * small
