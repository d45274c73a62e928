"""Exception types shared across the toolkit."""


class TodkitError(Exception):
    """Base class for all toolkit errors."""


class DomainError(TodkitError):
    """An elementary function was evaluated outside its domain.

    Carries the function name and the offending value so callers can tell
    a bad sample point from a genuinely invalid configuration.
    """

    def __init__(self, func, value, message=None):
        self.func = func
        self.value = value
        super().__init__(message or f"{func}: argument {value!r} outside domain")


class SingularPointError(TodkitError):
    """Division by a jet whose value term vanishes."""


class AxisEvaluationError(TodkitError):
    """Interior-only field requested on or too close to the axis rho = 0."""


class NutProximityError(TodkitError):
    """Sample point inside the exclusion radius of a nut (0, z_i)."""


class RodDataError(TodkitError):
    """Rod data failed validation (ordering, weights, sign of c)."""


class LevelBoundError(RodDataError):
    """A surviving family's level exceeds the level bound of a search.

    Carries both, so that a caller can name its own flag for the bound.
    """

    def __init__(self, level, bound):
        self.level = level
        self.bound = bound
        super().__init__(f"level bound {bound} is below the surviving level {level}")


class InversionError(TodkitError):
    """Coordinate-map inversion failed: Newton stalled or the Jacobian is singular.

    The last residual is kept so reports can quote how far off it ended.
    """

    def __init__(self, residual, message=None):
        self.residual = residual
        super().__init__(message or f"inversion stalled at residual {residual:.3e}")


class DegenerateMetricError(TodkitError):
    """Metric assembly hit a vanishing or non-positive density (e.g. W <= 0)."""


class SignatureError(TodkitError):
    """Metric is not positive definite where it was required to be."""


class CertificateError(TodkitError):
    """A certificate that the theory guarantees did not hold."""
