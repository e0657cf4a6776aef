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


class NotAScalar(WeylError, TypeError, ValueError):
    """A value given where a number or a sequence of numbers is required is
    not one the call takes: a bool or a string, which are never numbers here,
    None, NaN, inf, a number past the float range, or a float where an exact
    scalar is required.  Also a TypeError and a ValueError, the classes that
    ``int``, ``float`` and ``complex`` raise on such values."""


class NotRational(WeylError, TypeError):
    """A parameter that must be a plain rational (a free-dynamics time) is
    a float or depends on tau; also a TypeError."""


class ZeroDenominator(WeylError, ZeroDivisionError):
    """An exact scalar was divided by zero or built over a zero denominator;
    also a ZeroDivisionError."""


class InvalidParameter(WeylError, ValueError):
    """A numeric or named parameter lies outside its range: a box size, a
    sample count, a window size, a path kind, a path grid or a power; also a
    ValueError."""


class ImmutableObject(WeylError, AttributeError):
    """An attribute of an immutable object was set; also an AttributeError."""


class NotACharacter(WeylError, TypeError, IndexError):
    """The factors of a product character are not a non-empty sequence of
    characters; also a TypeError and an IndexError, which a number and an
    empty tuple of factors raised on first use."""


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
