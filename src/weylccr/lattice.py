"""Frames, dual lattices and the exact pairings feeding every phase.

Conventions used throughout the package:

* a frame is built from its lattice basis, the columns of ``E``, and derives
  the dual basis, the columns of ``F``, with ``F^T E = tau * I`` exactly;
* momenta are kept in dual-basis coordinates ``a`` (ambient alpha = F a) and
  positions in primal-basis coordinates ``b`` (ambient beta = E b), so the
  Euclidean pairing is always ``alpha . beta = tau * (a . b)`` in Q(tau).
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import (DimensionMismatch, FrameMismatch, NotAScalar, NotDecomposable, SingularFrame,
                     WeylError)
from .scalars import (ExactScalar, PhaseAngle, S_ONE, S_ZERO, TAU, integer_vector,
                      rational_key, scalar)

Vector = tuple  # tuple[ExactScalar, ...]
Matrix = tuple  # tuple[tuple[ExactScalar, ...], ...]


def vector(values: Sequence) -> Vector:
    """``values`` as a tuple of ExactScalar (such a tuple as is); NotAScalar if not a sequence."""
    if values.__class__ is tuple:
        for v in values:
            if v.__class__ is not ExactScalar:
                break
        else:
            return values
    if not hasattr(values, "__iter__"):
        raise NotAScalar(f"{values!r:.40} is not a sequence of numbers")
    return tuple(map(scalar, values))


def vadd(x: Vector, y: Vector) -> Vector:
    _check_dims(x, y)
    return tuple(a + b for a, b in zip(x, y))


def vsub(x: Vector, y: Vector) -> Vector:
    _check_dims(x, y)
    return tuple(a - b for a, b in zip(x, y))


def vneg(x: Vector) -> Vector:
    return tuple(-a for a in x)


def vscale(c, x: Vector) -> Vector:
    c = scalar(c)
    return tuple(c * a for a in x)


def vdot(x: Vector, y: Vector) -> ExactScalar:
    _check_dims(x, y)
    out = S_ZERO
    for a, b in zip(x, y):
        out = out + a * b
    return out


def zero_vector(d: int) -> Vector:
    return (S_ZERO,) * d


def is_zero_vector(x: Vector) -> bool:
    return all(c.is_zero() for c in x)


def integer_point(coords, error: type) -> tuple:
    """``coords``, a lattice index given as numbers, as a tuple of ints;
    ``error`` when an entry does not equal its int (a fraction, NaN, inf or a
    string) or a bool, where ``int`` alone would truncate it, raise a bare
    exception or read the bool as 0 or 1."""
    try:
        ints = tuple(int(c) for c in coords)
        if ints == tuple(coords) and bool not in map(type, coords):
            return ints
    except (TypeError, ValueError, OverflowError):
        pass
    raise error(f"lattice index {coords!r} has an entry that is not an integer")


#: the largest decimal exponent of a rational written as a string, well past the
#: float range: "1e100000000" alone would build a hundred-million-digit integer
MAX_DECIMAL_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE][-+]?([\d_]*)\s*\Z")


def decimal_fraction(s: str, error: type) -> Fraction:
    """The rational written in ``s`` as "p/q" or as a decimal; ``error`` when
    its exponent is past MAX_DECIMAL_EXPONENT in size, before any digit of
    the number is built."""
    exponent = _EXPONENT.search(s)
    digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
    if len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits or 0) > MAX_DECIMAL_EXPONENT:
        raise error(f"the exponent of {s[:40]!r} is past {MAX_DECIMAL_EXPONENT}")
    return Fraction(s)


def rational_label(coords, error: type) -> tuple:
    """``coords``, a label given as numbers, as a tuple of Fractions; ``error``
    when an entry is not a finite rational (NaN, inf, a bool or a string that
    is not a number) or is a string or Decimal whose exponent
    ``decimal_fraction`` refuses, where ``Fraction`` alone would raise a bare
    exception, read a bool as 0 or 1 or build a million-digit number."""
    try:
        coords = tuple(coords)
        label = tuple(decimal_fraction(str(c), error) if isinstance(c, (str, Decimal))
                      else Fraction(c) for c in coords)
    except (TypeError, ValueError, OverflowError):
        label = None
    if label is None or bool in map(type, coords):
        raise error(f"label {coords!r} has an entry that is not a finite number")
    return label


def _check_dims(x, y):
    if len(x) != len(y):
        raise DimensionMismatch(f"vector lengths {len(x)} and {len(y)} differ")


# -- exact matrix helpers ---------------------------------------------------


def matrix(rows) -> Matrix:
    """``rows`` as a tuple of vectors; NotAScalar when it is not a sequence."""
    if not hasattr(rows, "__iter__"):
        raise NotAScalar(f"{rows!r:.40} is not a sequence of vectors")
    return tuple(vector(row) for row in rows)


def mat_identity(d: int) -> Matrix:
    return tuple(tuple(S_ONE if i == j else S_ZERO for j in range(d)) for i in range(d))


def mat_transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def mat_mul(m: Matrix, n: Matrix) -> Matrix:
    nt = mat_transpose(n)
    return tuple(tuple(vdot(row, col) for col in nt) for row in m)


def mat_vec(m: Matrix, x: Vector) -> Vector:
    return tuple(vdot(row, x) for row in m)


def mat_scale(c, m: Matrix) -> Matrix:
    c = scalar(c)
    return tuple(tuple(c * e for e in row) for row in m)


def mat_inverse(m: Matrix) -> Matrix:
    """Gauss-Jordan inverse over Q(tau).  Raises SingularFrame if singular."""
    d = len(m)
    aug = [list(row) + list(ident_row) for row, ident_row in zip(m, mat_identity(d))]
    for col in range(d):
        pivot = next((r for r in range(col, d) if not aug[r][col].is_zero()), None)
        if pivot is None:
            raise SingularFrame("matrix is singular over Q(tau)")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = S_ONE / aug[col][col]
        aug[col] = [inv_p * e for e in aug[col]]
        for r in range(d):
            if r != col and not aug[r][col].is_zero():
                f = aug[r][col]
                aug[r] = [e - f * p for e, p in zip(aug[r], aug[col])]
    return tuple(tuple(row[d:]) for row in aug)


def dual_frame(E: Matrix) -> Matrix:
    """Dual basis matrix F = tau * (E^-1)^T, so that F^T E = tau * I."""
    return Frame(E).F


# -- frame ------------------------------------------------------------------


@dataclass(frozen=True)
class Frame:
    """A lattice basis, the columns of ``E``.  One inverse E^-1 gives the other
    fields: the dimension ``d``, the 2*pi-dual basis ``F = tau (E^-1)^T``
    (columns; F^T E = tau I) and the free dynamics' change of coordinates
    ``shear = E^-1 F``, which equals F^T F / tau.  When shear = tau G with G
    rational, as for every rational basis (G = E^-1 E^-T), ``shear_over_tau``
    = (g, rows) holds G = rows / g in ints; else it is None.  Frames compare
    and hash by E alone; ``dataclasses.replace(frame, E=...)`` re-derives."""

    E: Matrix
    d: int = field(init=False, compare=False)
    F: Matrix = field(init=False, compare=False)
    shear: Matrix = field(init=False, compare=False)
    shear_over_tau: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        E = matrix(self.E)
        d = len(E)
        if d == 0 or any(len(row) != d for row in E):
            raise DimensionMismatch("frame matrix must be square and non-empty")
        inverse = mat_inverse(E)
        F = mat_scale(TAU, mat_transpose(inverse))
        shear = mat_mul(inverse, F)
        key = rational_key(tuple(x / TAU for row in shear for x in row))
        if key is not None:
            key = key[0], tuple(key[1][i:i + d] for i in range(0, d * d, d))
        self.__dict__.update(E=E, d=d, F=F, shear=shear, shear_over_tau=key)

    @staticmethod
    def from_basis(rows) -> "Frame":
        return Frame(rows)

    @staticmethod
    def standard(d: int) -> "Frame":
        if d.__class__ is not int:
            raise NotAScalar(f"a frame dimension is an int, not {d!r:.20}")
        if not 0 < d <= 64:  # the d x d identity is built entry by entry
            raise DimensionMismatch(f"a standard frame has dimension 1 to 64, not {d!r:.20}")
        return Frame.from_basis(mat_identity(d))

    def to_ambient_position(self, b: Vector) -> Vector:
        return mat_vec(self.E, vector(b))

    def to_ambient_momentum(self, a: Vector) -> Vector:
        return mat_vec(self.F, vector(a))

    def position_norm_sq(self, b: Vector) -> ExactScalar:
        """|beta|^2 = |E b|^2, a sum of squares."""
        beta = mat_vec(self.E, vector(b))
        return vdot(beta, beta)

    def momentum_norm_sq(self, a: Vector) -> ExactScalar:
        """|alpha|^2 = |F a|^2, a sum of squares."""
        alpha = mat_vec(self.F, vector(a))
        return vdot(alpha, alpha)

    @cached_property
    def doubles(self) -> tuple | None:
        """(F, E) with every entry ``ExactScalar.evaluate``d, taken once per
        frame; None when an entry leaves the float range."""
        try:
            return tuple(tuple(tuple(x.evaluate() for x in row) for row in M)
                         for M in (self.F, self.E))
        except WeylError:
            return None

    def __str__(self):
        rows = "; ".join(", ".join(str(e) for e in row) for row in self.E)
        return f"Frame(d={self.d}, E=[{rows}])"


def check_same_frame(f1: Frame, f2: Frame):
    if f1 != f2:
        raise FrameMismatch("operands live over different frames")


# -- pairings ---------------------------------------------------------------


def pairing(a: Vector, b: Vector) -> PhaseAngle:
    """Exact value of alpha . beta = tau * (a . b) as a phase angle."""
    return PhaseAngle.from_dot(vector(a), vector(b))


# -- unit-cell decompositions ------------------------------------------------


@dataclass(frozen=True)
class CellDecomposition:
    fractional: tuple  # tuple[Fraction, ...] in [0, 1)
    integral: tuple  # tuple[int, ...]


def decompose(coords: Vector) -> CellDecomposition:
    """Split position (momentum) coordinates into a (dual-)lattice point and a
    unit-cell point (quasi-momentum)."""
    key = rational_key(vector(coords))
    if key is None:
        raise NotDecomposable(f"a coordinate of {coords!r:.60} is not a plain rational")
    (D, r), ints = _unit_cell(*key)
    return CellDecomposition(tuple(Fraction(x, D) for x in r), ints)


def _unit_cell(D: int, n: tuple) -> tuple:
    """The cell of x = n / D, for ints n and D > 0: the canonical key (D', r)
    of x - floor(x), gcd(D', *r) == 1, and the ints floor(x)."""
    frac = [v % D for v in n]
    g = math.gcd(D, *frac)
    return (D // g, tuple([v // g for v in frac])), tuple([v // D for v in n])


def enumerate_trs_fixed_points(frame: Frame):
    """The 2^d quasi-momenta fixed by reflection, coordinates in {0, 1/2}."""
    return list(itertools.product((Fraction(0), Fraction(1, 2)), repeat=frame.d))
