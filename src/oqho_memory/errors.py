"""Exception hierarchy shared across the package."""


class OqhoError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(OqhoError, ValueError):
    """Matrix shapes are mutually inconsistent."""


class ValidationError(OqhoError, ValueError):
    """A structural invariant of an input object is violated."""


class PreconditionError(OqhoError, ValueError):
    """A documented precondition of an operation does not hold."""


class ResonanceError(OqhoError):
    """A Lyapunov equation M X + X M^T + Q = 0 is singular: M and -M^T share an eigenvalue."""

    def __init__(self, message, eig_pair=None):
        super().__init__(message)
        self.eig_pair = eig_pair


class InvalidMomentMatrixError(ValidationError):
    """P is not finite, P or Sigma not symmetric or PSD, or P fails the Heisenberg condition."""


class NumericalError(OqhoError):
    """A numerical kernel failed to reach its accuracy contract."""
