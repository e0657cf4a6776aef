"""Exception types shared across the package."""


class WeylError(Exception):
    """Base class for all errors raised by this package."""


class SingularFrame(WeylError):
    """The proposed basis matrix is not invertible over Q(tau)."""


class DimensionMismatch(WeylError):
    """Vectors or matrices of incompatible dimensions were combined."""


class FrameMismatch(WeylError):
    """Two objects built over different frames were combined."""


class NotDecomposable(WeylError):
    """A tau-dependent coordinate reached an operation that needs a plain rational."""


class NotAScalar(WeylError, TypeError):
    """A coordinate or scalar operand is not an int, a Fraction or an exact
    scalar; also a TypeError, so a caller that catches TypeError from a
    coercion still does."""


class NotAState(WeylError):
    """The supplied data does not describe a normalized state."""


class InvalidProbeSet(WeylError):
    """A probe set violated a precondition (e.g. non-commuting probes)."""


class Unsupported(WeylError):
    """The requested classification is not defined for this family."""


class OutOfSubalgebra(WeylError):
    """A monomial falls outside the subalgebra the representation acts on."""


class WindowTooSmall(WeylError):
    """A truncation window cannot accommodate the requested computation."""


class FamilyMismatch(WeylError):
    """Path endpoints belong to different state families."""


class ExpressionError(WeylError):
    """Parse failure in the element expression grammar."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PhasePrecisionError(WeylError):
    """An exact angle is too large to reduce to turns within the precision bound."""
