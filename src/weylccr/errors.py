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


class NotRational(WeylError, TypeError):
    """A parameter that must be a plain rational (a free-dynamics time) is
    a float or depends on tau; also a TypeError."""


class ZeroDenominator(WeylError, ZeroDivisionError):
    """An exact scalar was divided by zero or built over a zero denominator;
    also a ZeroDivisionError."""


class InvalidParameter(WeylError, ValueError):
    """A numeric or named parameter lies outside its range: a box size, a
    sample count, a path kind, a path grid or a power; also a ValueError."""


class ImmutableObject(WeylError, AttributeError):
    """An attribute of an immutable object was set; also an AttributeError."""


class NotAState(WeylError):
    """The supplied data does not describe a normalized state."""


class InvalidProbeSet(WeylError):
    """A probe set violated a precondition (e.g. non-commuting probes)."""


class Unsupported(WeylError, NotImplementedError):
    """The requested classification or evaluation is not defined for this
    family; also a NotImplementedError."""


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
