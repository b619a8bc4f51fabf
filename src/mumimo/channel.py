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
from .errors import NumericalError, ParameterError, StructuralError

_PSD_TOL = 1e-10


def correlation_matrix(n: int, rho: float) -> np.ndarray:
    """Antenna correlation matrix with entries rho ** (i - j)^2.

    ``rho = 0`` gives the identity and ``rho = 1`` the all-ones matrix; any
    rho in [0, 1] yields a symmetric positive semidefinite matrix.
    """
    if n < 1:
        raise ParameterError(f"correlation matrix size must be >= 1, got {n}")
    if not 0.0 <= rho <= 1.0:
        raise ParameterError(f"rho must lie in [0, 1], got {rho}")
    idx = np.arange(n)
    expo = (idx[:, None] - idx[None, :]) ** 2
    # 0**0 == 1 keeps the diagonal at unity for rho = 0
    return np.power(float(rho), expo)


def matrix_sqrt(mat: np.ndarray) -> np.ndarray:
    """Hermitian square root S of a PSD matrix, with S @ S.conj().T == mat.

    Eigenvalues within a small negative tolerance of zero are clipped;
    anything more negative raises :class:`NumericalError`.
    """
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise StructuralError(f"matrix_sqrt expects a square matrix, got shape {mat.shape}")
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
    """Correlated Rayleigh fading of every user, stacked (N_A, K * N_U).

    User k's i.i.d. CN(0, 1) matrix comes from its own generator
    ``rngs[k]`` (real part, then imaginary part), so its columns
    k * N_U ... (k + 1) * N_U - 1 depend on that generator alone.  All
    users' white matrices are colored on the receive side by one real
    product with the (block-diagonal) correlation root, and each user's
    on the transmit side by the per-user antenna correlation root.
    """
    n_rx, n_u = cfg.n_rx_total, cfg.antennas_per_user
    if len(rngs) != cfg.n_users:
        raise StructuralError(f"expected {cfg.n_users} generators, one per user, "
                              f"got {len(rngs)}")
    normals = np.empty((cfg.n_users, 2, n_rx, n_u))
    for rng, user in zip(rngs, normals):
        rng.standard_normal(out=user)
    # scaled once into the product's layout, an entry's real and imaginary
    # parts side by side: the real product is the complex fading's real view
    white = np.empty((n_rx, cfg.n_users, n_u, 2))
    np.multiply(normals.transpose(2, 0, 3, 1), 1.0 / np.sqrt(2.0), out=white)
    rx_root = _receive_corr_sqrt(cfg.receive_blocks(), cfg.rho)
    fading = (rx_root @ white.reshape(n_rx, -1)).view(complex)
    tx_root = _cached_corr_sqrt(n_u, cfg.rho)
    return (fading.reshape(-1, n_u) @ tx_root).reshape(n_rx, cfg.n_streams)


@lru_cache(maxsize=8)
def _distance_grid(distance_range: tuple) -> np.ndarray:
    """The distance grid over ``distance_range``, shared and read-only."""
    lo, hi = distance_range
    n = int(round((hi - lo) / DISTANCE_GRID_STEP)) + 1
    grid = np.linspace(lo, hi, max(n, 1))
    grid.setflags(write=False)
    return grid


def draw_large_scale(cfg: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    """Large-scale gains of one channel realization, (K, L + 1).

    Column j is the gain between each user and co-located group j (the
    central array is group 0); a centralized system has one column.  The
    gain is ``gamma = sqrt(link / d^tau) * 10^(sigma v / 10)``: distances d
    uniform on a discrete grid over ``cfg.distance_range``, link gains
    uniform (continuous) on ``cfg.path_gain_range`` and v standard normal.
    """
    shape = (cfg.n_users, cfg.n_heads + 1)
    grid = _distance_grid(cfg.distance_range)
    d = grid[rng.integers(0, len(grid), size=shape)]
    lo, hi = cfg.path_gain_range
    link = lo + (hi - lo) * rng.random(size=shape)
    v = rng.standard_normal(shape)
    return np.sqrt(link / d ** cfg.path_loss_exp) * 10.0 ** (cfg.shadow_spread_db * v / 10.0)


def compose_channel(cfg: SystemConfig, small: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """Scale every user's fading columns by its large-scale gains.

    ``small`` is the stacked (N_A, K * N_U) fading of
    :func:`draw_small_scale` and ``gains`` the (K, L + 1) draw of
    :func:`draw_large_scale`; row n of user k's columns is scaled by the
    gain of user k's link to the receive block that holds antenna n, all
    users in one broadcast.
    """
    small = np.asarray(small)
    shape = (cfg.n_rx_total, cfg.n_streams)
    if small.shape != shape:
        raise StructuralError(f"expected stacked fading of shape {shape}, got {small.shape}")
    gains = np.repeat(gains, cfg.receive_blocks(), axis=1)  # (K, N_A)
    return np.repeat(gains.T, cfg.antennas_per_user, axis=1) * small
