"""Exception types shared across the package."""


class QpKamError(Exception):
    """Base class for all qpkam errors."""


class ConfigError(QpKamError, ValueError):
    """An input or configuration value the construction cannot use."""


class ResidualDefect(QpKamError):
    """A solver's residual postcondition failed."""


class ResonantFrequency(QpKamError):
    """A lattice vector annihilates the frequency vector to machine tolerance."""

    def __init__(self, k, value):
        self.k = tuple(int(v) for v in k)
        self.value = float(value)
        super().__init__(f"resonance <k,omega> = {value:.3e} at k = {self.k}")


class NotMonotone(QpKamError):
    """The angle map t -> t + h(t) is not orientation preserving."""


class NoConvergence(QpKamError):
    """A fixed-point iteration did not reach tolerance within its iteration cap."""


class RealityDefect(QpKamError):
    """Conjugate-symmetry defect of recovered coefficients above tolerance."""


class SamplerNotFinite(QpKamError):
    """A sampled value was nan or inf."""


class SmoothnessTooLow(ConfigError):
    """Declared smoothness p fails p > 2*tau + 1."""


class UncertifiedDivisor(QpKamError):
    """A solver needs divisors beyond the rotation number's certified cutoff."""


class ContractionDiverged(QpKamError):
    """Picard iteration for the conjugacy correction failed to contract."""


class RootFindFailed(QpKamError):
    """Per-point root finding in the solve-back step failed."""

    def __init__(self, point, residual):
        self.point = point
        self.residual = residual
        super().__init__(f"root find failed at {point} (residual {residual:.3e})")


class NoIntersectionWitness(QpKamError):
    """No sign change of the radial displacement found at grid resolution."""


class NotAGraph(QpKamError):
    """The image of a curve folds over and is not a graph over the angle."""


class NoneAdmissible(QpKamError):
    """All sampled rotation numbers were rejected; decrease gamma."""


class NotConverged(QpKamError):
    """The KAM iteration stopped above tolerance; trace attached."""

    def __init__(self, message, trace=None):
        self.trace = trace or []
        super().__init__(message)
