"""Exception and warning types shared across the simulator."""


class ParameterError(ValueError):
    """A parameter lies outside its documented domain."""


class StructuralError(ValueError):
    """Array shapes or stream counts do not line up."""


class NumericalError(ArithmeticError):
    """A numerical-domain failure (non-PSD matrix, singular covariance, ...)."""


class SingularMatrixError(NumericalError):
    """A matrix inversion required by a filter design is not possible."""


class RankError(NumericalError):
    """A sample correlation matrix is singular (too few / degenerate pilots)."""


class CapacityError(ValueError):
    """An enumeration guard was exceeded (search space too large)."""


class ConfigError(ValueError):
    """A scenario configuration is malformed or inconsistent."""


class ParameterWarning(UserWarning):
    """A parameter is outside its recommended range; the run proceeds."""
