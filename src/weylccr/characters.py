"""Characters of R^d restricted to implementable data.

Two computable families are provided: continuous characters labelled by an
ambient momentum vector, and discontinuous characters built from the p-adic
fractional part of rational coordinates.  Finite pointwise products of these
cover every character this package can evaluate exactly.  Each character
gives its exact phase at an ambient position (``angle``) and its total
momentum (``momentum``), which is None when a p-adic factor is present.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .errors import (DimensionMismatch, NotACharacter, NotAScalar, NotDecomposable, WeylError,
                     _require)
from .lattice import Vector, rational_label, vadd, vdot, vector, zero_vector
from .scalars import PhaseAngle

#: the largest prime of a p-adic character, so that its primality test is at
#: most 255 trial divisions
MAX_PRIME = 2**16


def _check_prime(p) -> None:
    if not (isinstance(p, int) and 2 <= p <= MAX_PRIME
            and all(p % k for k in range(2, math.isqrt(p) + 1))):
        raise WeylError(f"a p-adic character takes primes up to {MAX_PRIME}, not {p!r}")


def padic_fraction(x, p: int) -> Fraction:
    """The p-adic fractional part of a rational: {a/(p^k m)}_p = c/p^k.

    Here gcd(m, p) = 1 and c is the unique residue with c = a * m^-1 mod p^k,
    so the map is a group homomorphism Q -> Q/Z supported on p-power
    denominators.  Raises WeylError unless ``p`` is a prime up to MAX_PRIME.
    """
    _check_prime(p)
    (x,) = rational_label((x,), NotAScalar)
    den = x.denominator
    k = 0
    while den % p == 0:
        den //= p
        k += 1
    if k == 0:
        return Fraction(0)
    pk = p**k
    c = (x.numerator * pow(den, -1, pk)) % pk
    return Fraction(c, pk)


class BohrCharacter:
    """Base class of the characters: ``dim``, ``angle(beta)`` and ``momentum()``."""


@dataclass(frozen=True)
class ContinuousCharacter(BohrCharacter):
    """beta -> e^{i p . beta} for an ambient momentum vector p."""

    p: Vector

    def __post_init__(self):
        object.__setattr__(self, "p", vector(self.p))

    @property
    def dim(self) -> int:
        return len(self.p)

    def angle(self, beta: Vector) -> PhaseAngle:
        if len(self.p) != len(beta):
            raise DimensionMismatch("character momentum and position lengths differ")
        return PhaseAngle(vdot(self.p, beta))

    def momentum(self) -> Vector:
        return self.p


@dataclass(frozen=True)
class PadicCharacter(BohrCharacter):
    """x -> e^{2 pi i sum_j {x_j}_{p_j}}, one small prime per coordinate.

    Discontinuous at 0 in the usual topology, but still an exact character of
    the rationals; this is the simplest computable family of irregular data.
    """

    primes: tuple

    def __post_init__(self):
        if not hasattr(self.primes, "__iter__"):
            raise NotAScalar(f"{self.primes!r:.40} is not a sequence of primes")
        primes = tuple(self.primes)
        for p in primes:
            _check_prime(p)
        object.__setattr__(self, "primes", primes)

    @property
    def dim(self) -> int:
        return len(self.primes)

    def angle(self, beta: Vector) -> PhaseAngle:
        if len(self.primes) != len(beta):
            raise DimensionMismatch("one prime per coordinate is required")
        total = Fraction(0)
        for comp, p in zip(beta, self.primes):
            if not comp.is_rational():
                raise NotDecomposable(f"coordinate {comp} is not a plain rational")
            total += padic_fraction(comp.as_fraction(), p)
        return PhaseAngle.from_turns(total)

    def momentum(self) -> None:
        return None


@dataclass(frozen=True)
class ProductCharacter(BohrCharacter):
    """Pointwise product of finitely many characters, at least one, all of
    one dimension."""

    factors: tuple

    def __post_init__(self):
        factors = tuple(self.factors) if hasattr(self.factors, "__iter__") else ()
        if not factors or not all(isinstance(f, BohrCharacter) for f in factors):
            raise NotACharacter(f"{self.factors!r:.40} is not a sequence of characters")
        if len({f.dim for f in factors}) > 1:
            raise DimensionMismatch("the factors of a product character differ in dimension")
        object.__setattr__(self, "factors", factors)

    @property
    def dim(self) -> int:
        return self.factors[0].dim

    def angle(self, beta: Vector) -> PhaseAngle:
        return sum((character_eval(f, beta) for f in self.factors), PhaseAngle.zero())

    def momentum(self) -> Vector | None:
        momenta = [factor.momentum() for factor in self.factors]
        return None if None in momenta else reduce(vadd, momenta, zero_vector(self.dim))


def character_eval(char: BohrCharacter, beta) -> PhaseAngle:
    """Exact phase angle of the character at the ambient position ``beta``.

    The p-adic family needs plain rational coordinates and raises
    NotDecomposable on tau-dependent input.
    """
    _require((char, BohrCharacter))
    return char.angle(vector(beta))


def character_is_trivial(char: BohrCharacter) -> bool:
    """Exact triviality test used by the time-reversal classifier.

    A finite product of the families above is the trivial character exactly
    when it has no p-adic factor (``momentum`` is not None) and its momentum is
    zero: any p-adic factor is nontrivial on denominators divisible by its
    prime, and no continuous factor can cancel it at every such point.
    """
    p = char.momentum()
    return p is not None and all(c.is_zero() for c in p)
