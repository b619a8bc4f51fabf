"""System-level configuration for the uplink scenario.

A :class:`SystemConfig` describes the antenna geometry (one centralized
array, or a base station plus remote radio heads), the user population and
the statistical parameters of the channel.  It is immutable and hashable so
derived quantities can be cached against it.
"""

import math
from dataclasses import dataclass, fields

from .errors import ParameterError

#: grid step of the discrete uniform distance distribution (both endpoints
#: of ``distance_range`` are included in the grid)
DISTANCE_GRID_STEP = 0.05

#: lower bounds of the integer fields of a system
_MINIMA = {"n_users": 1, "n_bs": 1, "n_heads": 0, "antennas_per_user": 1}


def check_int_fields(obj, minima: dict, error: type, keys: dict = None):
    """Raise ``error`` unless every ``int`` field of the dataclass ``obj``
    holds an int, not a bool, of at least its bound in ``minima``, if any.
    Messages name a field by its entry in ``keys``, or else by its name."""
    for f in fields(obj):
        if f.type is not int:
            continue
        key, value = (keys or {}).get(f.name, f.name), getattr(obj, f.name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise error(f"{key} must be an integer, got {value!r}")
        if value < minima.get(f.name, value):
            raise error(f"{key} must be >= {minima[f.name]}, got {value}")


@dataclass(frozen=True)
class SystemConfig:
    """Geometry and channel statistics of one uplink scenario.

    Parameters
    ----------
    n_users : int
        Number of single-user terminals K.
    n_bs : int
        Antennas at the central array (N_B).  For a centralized system this
        is the whole array.
    n_heads : int
        Number of remote radio heads L.  ``n_heads == 0`` means a
        centralized (CAS) deployment, anything else is distributed (DAS).
    antennas_per_head : int
        Antennas per remote head Q (ignored when ``n_heads == 0``).
    antennas_per_user : int
        Transmit antennas per user N_U.
    rho : float
        Correlation coefficient of the antenna correlation matrices,
        applied at both link ends to co-located antennas.
    path_loss_exp : float
        Path-loss exponent tau, nominally in [2, 4].
    shadow_spread_db : float
        Log-normal shadowing spread sigma in dB.
    path_gain_range : tuple
        Interval for the link path gain; a degenerate (a, a) interval makes
        the gain deterministic.
    distance_range : tuple
        Interval in (0, 1] for the normalized user-array distance, sampled
        on a discrete grid of step ``DISTANCE_GRID_STEP``.
    symbol_power : float
        Average transmit symbol energy sigma_s^2.
    """

    n_users: int
    n_bs: int
    n_heads: int = 0
    antennas_per_head: int = 0
    antennas_per_user: int = 1
    rho: float = 0.2
    path_loss_exp: float = 2.0
    shadow_spread_db: float = 3.0
    path_gain_range: tuple = (0.7, 0.7)
    distance_range: tuple = (0.1, 0.95)
    symbol_power: float = 1.0

    def __post_init__(self):
        check_int_fields(self, _MINIMA, ParameterError)
        if self.n_heads > 0 and self.antennas_per_head < 1:
            raise ParameterError("antennas_per_head must be >= 1 when heads are present")
        if not 0.0 <= self.rho <= 1.0:
            raise ParameterError(f"rho must lie in [0, 1], got {self.rho}")
        if not 2.0 <= self.path_loss_exp <= 4.0:
            raise ParameterError(f"path_loss_exp must lie in [2, 4], got {self.path_loss_exp}")
        if not 0.0 <= self.shadow_spread_db < math.inf:
            raise ParameterError("shadow_spread_db must be finite and >= 0")
        lo, hi = self.path_gain_range
        if not (0.0 < lo <= hi):
            raise ParameterError(f"path_gain_range must satisfy 0 < lo <= hi, got {self.path_gain_range}")
        lo, hi = self.distance_range
        if not (0.0 < lo <= hi <= 1.0):
            raise ParameterError(f"distance_range must lie in (0, 1], got {self.distance_range}")
        if not 0.0 < self.symbol_power < math.inf:
            raise ParameterError("symbol_power must be finite and > 0")
        if self.n_rx_total < self.n_streams:
            raise ParameterError(
                f"receive antennas ({self.n_rx_total}) must be >= total streams ({self.n_streams})")

    # -- derived geometry ------------------------------------------------

    @property
    def n_rx_total(self) -> int:
        """Total receive antennas N_A = N_B + L * Q."""
        return self.n_bs + self.n_heads * self.antennas_per_head

    @property
    def n_streams(self) -> int:
        """Total transmit streams K * N_U."""
        return self.n_users * self.antennas_per_user

    def receive_blocks(self):
        """Sizes of the co-located receive antenna groups.

        The central array forms one block of ``n_bs`` antennas; each remote
        head contributes a block of ``antennas_per_head``.  Correlation only
        couples antennas inside a block.
        """
        return (self.n_bs,) + (self.antennas_per_head,) * self.n_heads
