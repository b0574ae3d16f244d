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


class CertifiedStripExceeded(QpKamError):
    """A composition would evaluate a series outside its certified strip."""


class NotMonotone(QpKamError):
    """The angle map t -> t + h(t) is not orientation preserving."""


class NoConvergence(QpKamError):
    """A fixed-point iteration did not reach tolerance within its iteration cap."""


class RealityDefect(QpKamError):
    """Conjugate-symmetry defect of recovered coefficients above tolerance."""


class SamplerNotFinite(QpKamError):
    """A sampled value was nan or inf."""


class QTooLarge(QpKamError):
    """q violates the smallness bound tied to (p, tau)."""

    def __init__(self, q, bound_smooth, bound_abs):
        self.q = q
        self.bound_smooth = bound_smooth
        self.bound_abs = bound_abs
        super().__init__(
            f"q = {q:.6g} exceeds min({bound_smooth:.6g}, {bound_abs:.6g})"
        )


class SmoothnessTooLow(ConfigError):
    """Declared smoothness p fails p > 2*tau + 1."""


class UncertifiedDivisor(QpKamError):
    """A solver needs divisors beyond the rotation number's certified cutoff."""


class ContractionDiverged(QpKamError):
    """Picard iteration for the conjugacy correction failed to contract."""


class PreconditionDefect(QpKamError):
    """|H - Omega| exceeds the level bound M in strict mode."""


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


class OutOfStrip(QpKamError):
    """A map was applied outside its declared strip a < r < b."""


class NoneAdmissible(QpKamError):
    """All sampled rotation numbers were rejected; decrease gamma."""


class NotConverged(QpKamError):
    """The KAM iteration stopped above tolerance; trace attached."""

    def __init__(self, message, trace=None):
        self.trace = trace or []
        super().__init__(message)
