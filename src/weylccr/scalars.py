"""Exact scalars: rational functions of the symbol tau over the rationals.

The symbol ``tau`` stands for the real number 2*pi.  Every coordinate, every
pairing and every phase angle in this package lives in the field Q(tau).
Because pi is transcendental, two such scalars are equal as real numbers if
and only if their canonical forms coincide, so phase bookkeeping is exact:
an angle represents a full turn exactly when it is an integer multiple of tau.

Representation.  As in FLINT's ``fmpq_poly``, a polynomial is a tuple of
integer coefficients, lowest degree first and without trailing zeros (zero is
the empty tuple), over one positive integer denominator that shares no factor
with the coefficients.  A general value is such a polynomial divided by a
denominator polynomial, stored as a primitive integer tuple with positive
leading coefficient and no factor in common with the numerator; dividing it
by its leading coefficient gives the monic denominator of the canonical form.
The canonical form is unique, so equality and hashing compare fields.  No
other module reads them: ``rational_key`` is their integer view, and
``integer_vector`` and ``PhaseAngle.from_dot`` read it.

Almost every scalar met in practice has denominator 1, and most of those are
integers or plain rationals.  Arithmetic on them runs on Python ints alone,
with direct paths for degree 0 and 1: no polynomial gcd, no ``Fraction``.
Genuine rational functions, which arise from frames whose basis contains
tau, use that both operands are already reduced (Henrici's gcd-splitting,
as in ``fractions.Fraction``): a product cancels only the numerator of each
operand against the denominator of the other, and a sum takes a gcd with
the gcd of the two denominators only.  A square, a plain rational factor
and a polynomial summand need no polynomial gcd at all, only an integer
content gcd or none.  Every polynomial gcd splits off the common power of
tau before its pseudo-remainder sequence, so an operand c * tau^k costs no
division.  The gcd of the whole numerator and denominator runs only when a
scalar is built from arbitrary coefficients.

Phase angles of the form tau * n / d, which covers every phase of a
standard frame, are stored as a reduced integer pair of turns (n, d) with
0 <= n < d, so adding, negating, comparing and converting them runs on ints
alone.  ``PhaseAngle.from_dot`` builds the angle tau * (a . b) of a lattice
pairing straight from the integer fields of the coordinates when they are
all plain rationals; when any coordinate contains tau it falls back to the
dot product summed in Q(tau).  Any angle that is not tau times a rational is
reduced to turns with pi from an integer Machin series, at a working
precision that depends only on the bits the angle needs, so the double it
rounds to does not depend on which angles were converted before.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from math import gcd
from numbers import Rational
from operator import mul

from .errors import (DimensionMismatch, InvalidParameter, NotAScalar, NotDecomposable,
                     PhasePrecisionError, WeylError, ZeroDenominator)

TWO_PI = 2.0 * math.pi

#: the largest exponent of ``ExactScalar.__pow__``, which multiplies n times
MAX_POWER = 1024

_Q1 = (1,)  # the denominator polynomial of every polynomial value
_DEN1 = (Fraction(1),)


# -- integer polynomials ---------------------------------------------------


def _zadd(p: tuple, q: tuple) -> tuple:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    if len(p) == len(q):
        while out and not out[-1]:
            out.pop()
    return tuple(out)


def _zmul(p: tuple, q: tuple) -> tuple:
    if not p or not q:
        return ()
    if len(q) == 1:
        c = q[0]
        return tuple(c * x for x in p)
    if len(p) == 1:
        c = p[0]
        return tuple(c * x for x in q)
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return tuple(out)


def _zdivexact(p: tuple, q: tuple) -> tuple:
    """p / q for a primitive q dividing p over Q; the quotient is integral."""
    rem = list(p)
    n = len(q)
    lead = q[-1]
    quo = [0] * (len(p) - n + 1)
    for k in range(len(p) - n, -1, -1):
        f = rem[k + n - 1] // lead
        quo[k] = f
        if f:
            for i, c in enumerate(q):
                rem[k + i] -= f * c
    return tuple(quo)


def _primitive(p: tuple) -> tuple:
    """p divided by its content, leading coefficient made positive."""
    g = gcd(*p)
    if p[-1] < 0:
        g = -g
    return p if g == 1 else tuple(x // g for x in p)


def _prem(p: tuple, q: tuple) -> tuple:
    """Pseudo-remainder of p by q, over the integers."""
    rem = list(p)
    n = len(q)
    lead = q[-1]
    while len(rem) >= n:
        top = rem[-1]
        shift = len(rem) - n
        rem = [lead * x for x in rem]
        for i, c in enumerate(q):
            rem[shift + i] -= top * c
        while rem and not rem[-1]:
            rem.pop()
    return tuple(rem)


def _tau_order(p: tuple) -> int:
    """The power of tau dividing a nonzero polynomial: its count of leading
    zero coefficients."""
    k = 0
    while not p[k]:
        k += 1
    return k


def _zgcd(p: tuple, q: tuple) -> tuple:
    """Primitive greatest common divisor of two nonzero integer polynomials.

    The common power tau^k is split off first: what remains of each operand
    has a nonzero constant term, so its gcd is free of tau, and an operand
    c * tau^j leaves a constant, whose gcd with anything is 1.
    """
    i, j = _tau_order(p), _tau_order(q)
    g = _zgcd_prs(p[i:], q[j:]) if len(p) > i + 1 and len(q) > j + 1 else _Q1
    k = min(i, j)
    return (0,) * k + g if k else g


def _zgcd_prs(p: tuple, q: tuple) -> tuple:
    """Primitive gcd by the primitive pseudo-remainder sequence."""
    p, q = _primitive(p), _primitive(q)
    if len(p) < len(q):
        p, q = q, p
    while len(q) > 1:
        r = _prem(p, q)
        if not r:
            return q
        p, q = q, _primitive(r)
    return _Q1


def _integral(coeffs) -> tuple[tuple, int]:
    """Integer coefficients and one positive denominator for a sequence of
    rationals: ``coeffs == ints / den``.  Trailing zeros are dropped.
    NotAScalar unless ``coeffs`` is a sequence of finite rationals; a bool or
    a string is not one."""
    try:
        coeffs = tuple(coeffs)
        fracs = [Fraction(c) for c in coeffs if c.__class__ is not bool and c.__class__ is not str]
    except (TypeError, ValueError, OverflowError):  # None, NaN, inf
        fracs = None
    if fracs is None or len(fracs) != len(coeffs):  # or a bool or a string was left out
        _not_a_scalar(coeffs)
    while fracs and not fracs[-1]:
        fracs.pop()
    den = math.lcm(*(f.denominator for f in fracs))
    return tuple(f.numerator * (den // f.denominator) for f in fracs), den


def _poly_str(p) -> str:
    if not p:
        return "0"
    parts = []
    for k, c in enumerate(p):
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            base = "tau" if k == 1 else f"tau^{k}"
            parts.append(base if c == 1 else f"{c}*{base}")
    return " + ".join(parts) if parts else "0"


# -- exact scalars ---------------------------------------------------------


_new = object.__new__


def _make(p: tuple, c: int = 1, q: tuple = _Q1) -> "ExactScalar":
    """An ExactScalar from fields already in canonical form."""
    x = _new(ExactScalar)
    x._p = p
    x._c = c
    x._q = q
    return x


def _poly(p: tuple, c: int) -> "ExactScalar":
    """The polynomial p / c, p trimmed and c > 0, reduced by content."""
    if not p:
        return S_ZERO
    if c != 1:
        g = gcd(c, *p)
        if g != 1:
            return _make(tuple(x // g for x in p), c // g)
    return _make(p, c)


def _rat(n: int, c: int) -> "ExactScalar":
    """The rational n / c, c > 0."""
    if not n:
        return S_ZERO
    if c != 1:
        g = gcd(n, c)
        if g != 1:
            return _make((n // g,), c // g)
    return _make((n,), c)


def _reduced(N: tuple, scale: int, q: tuple) -> "ExactScalar":
    """The scalar (N / scale) / (q / lead of q) for a nonzero integer
    polynomial N with no factor in common with q, q primitive with positive
    leading coefficient and scale a nonzero integer: only the content and the
    sign are normalised."""
    if scale < 0:
        N, scale = tuple(-x for x in N), -scale
    g = gcd(scale, *N)
    if g != 1:
        N, scale = tuple(x // g for x in N), scale // g
    return _make(N, scale, _Q1 if len(q) == 1 else q)


def _canonical(N: tuple, D: tuple) -> "ExactScalar":
    """The scalar N / D for trimmed integer polynomials N and D, D nonzero."""
    if not N:
        return S_ZERO
    if len(D) > 1:
        g = _zgcd(N, D)
        if len(g) > 1:
            N, D = _zdivexact(N, g), _zdivexact(D, g)
    # N / D == (N / lead of D) / (q / lead of q)
    return _reduced(N, D[-1], _Q1 if len(D) == 1 else _primitive(D))


def _cancel(p: tuple, q: tuple) -> tuple[tuple, tuple, int]:
    """(p / g, q / g, lead of g) for g the primitive gcd of a nonzero p and a
    primitive q with positive leading coefficient."""
    if q is _Q1 or len(p) == 1:
        return p, q, 1
    g = _zgcd(p, q)
    if g is _Q1:
        return p, q, 1
    return _zdivexact(p, g), _zdivexact(q, g), g[-1]


def _fraction_mul(x: "ExactScalar", y: "ExactScalar") -> "ExactScalar":
    """x * y for nonzero x and y.

    Both operands are reduced, so only the cross pairs, the numerator of one
    with the denominator of the other, can share a factor (Henrici).  A plain
    rational factor needs no polynomial gcd at all, and neither does a
    square: p^2 and q^2 stay coprime, and by Gauss's lemma q^2 stays
    primitive and the content of p^2 stays prime to c^2.
    """
    p1, p2, q1, q2 = x._p, y._p, x._q, y._q
    if x is y:
        return _make(_zmul(p1, p1), x._c * x._c, _zmul(q1, q1))
    c = x._c * y._c
    if q2 is _Q1 and len(p2) == 1:
        return _reduced(_zmul(p1, p2), c, q1)
    if q1 is _Q1 and len(p1) == 1:
        return _reduced(_zmul(p2, p1), c, q2)
    p1, q2, k1 = _cancel(p1, q2)
    p2, q1, k2 = _cancel(p2, q1)
    # x * y == (p1 * p2 * lead q1 * lead q2 / c) / (q1 * q2) before the
    # cancellation, which divides lead q2 by k1 and lead q1 by k2
    return _reduced(_zmul(_zmul(p1, p2), (k1 * k2,)), c, _zmul(q1, q2))


def _fraction_add(x: "ExactScalar", y: "ExactScalar") -> "ExactScalar":
    """x + y for nonzero x and y.

    With g the gcd of the two denominators, the sum over the common
    denominator can share a factor with g only (Henrici).  A polynomial
    summand p1 / c1 keeps the other denominator q2 and needs no polynomial
    gcd: p1 * q2 + p2 * lead q2 is prime to q2, as p2 is.
    """
    if x._q is _Q1:
        x, y = y, x
    p1, p2, q1, q2 = x._p, y._p, x._q, y._q
    c1, c2 = x._c, y._c
    if q2 is _Q1:
        # x + y == (p1 * lead q1 * c2 + p2 * q1 * c1) / (c1 * c2 * q1)
        lead = q1[-1]
        t = _zadd(_zmul(p1, (lead * c2,)), _zmul(p2, tuple(c1 * v for v in q1)))
        return _reduced(t, c1 * c2 * lead, q1)
    if q1 == q2:
        g, r1, r2 = q1, _Q1, _Q1
    else:
        g = _zgcd(q1, q2)
        r1, r2 = (q1, q2) if g is _Q1 else (_zdivexact(q1, g), _zdivexact(q2, g))
    # x + y == t / (c1 * c2 * g * r1 * r2)
    t = _zadd(_zmul(p1, _zmul(r2, (q1[-1] * c2,))), _zmul(p2, _zmul(r1, (q2[-1] * c1,))))
    if not t:
        return S_ZERO
    t, g, _ = _cancel(t, g)
    q = _zmul(_zmul(g, r1), r2)
    return _reduced(t, c1 * c2 * q[-1], q)


class ExactScalar:
    """Canonical-form element of Q(tau): ``num/den`` reduced, ``den`` monic.

    Build one from sequences of rational coefficients, lowest degree first:
    ``ExactScalar(num, den)``; ``den`` defaults to 1 and need be neither
    reduced nor monic.  ``num`` and ``den`` read back the canonical form as
    tuples of ``Fraction``.
    """

    __slots__ = ("_p", "_c", "_q")

    def __init__(self, num=(), den=_Q1):
        n, a = _integral(num)
        d, b = _integral(den)
        if not d:
            raise ZeroDenominator("zero denominator in ExactScalar")
        x = _canonical(tuple(b * v for v in n), tuple(a * v for v in d))
        self._p, self._c, self._q = x._p, x._c, x._q

    @property
    def num(self) -> tuple:
        c = self._c
        return tuple(Fraction(v, c) for v in self._p)

    @property
    def den(self) -> tuple:
        q = self._q
        if q is _Q1:
            return _DEN1
        lead = q[-1]
        return tuple(Fraction(v, lead) for v in q)

    def __eq__(self, other):
        if other.__class__ is not ExactScalar:
            return NotImplemented
        return self._p == other._p and self._c == other._c and self._q == other._q

    def __hash__(self):
        return hash((self._p, self._c, self._q))

    def __reduce__(self):
        return ExactScalar, (self.num, self.den)

    # -- constructors -------------------------------------------------

    @staticmethod
    def rational(p, q=1) -> "ExactScalar":
        """The rational p / q; on two ints, reduced by one gcd."""
        if p.__class__ is int and q.__class__ is int:
            if q < 0:
                p, q = -p, -q
            elif not q:
                raise ZeroDenominator("zero denominator in ExactScalar")
            return _rat(p, q)
        for x in (p, q):
            if not isinstance(x, Rational) or x.__class__ is bool:
                _not_a_scalar(x)
        if not q:
            raise ZeroDenominator("zero denominator in ExactScalar")
        return scalar(Fraction(p, q))

    # -- predicates and conversions ------------------------------------

    def is_zero(self) -> bool:
        return not self._p

    def is_rational(self) -> bool:
        """True when the scalar is a plain rational number (tau-free)."""
        return len(self._p) <= 1 and self._q is _Q1

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise NotDecomposable(f"{self} depends on tau")
        return Fraction(self._p[0], self._c) if self._p else Fraction(0)

    def evaluate(self) -> float:
        """Numeric value with tau substituted by 2*pi (the double ``TWO_PI``).

        Raises ``WeylError`` when a coefficient, the denominator or the value
        leaves the float range, or when the denominator is 0.0 there (a root
        at the double 2*pi), so the result is never infinite or NaN.
        """
        c = self._c
        q = self._q
        lead = q[-1]
        try:
            num = 0.0
            for v in reversed(self._p):
                num = num * TWO_PI + v / c
            den = 0.0
            for v in reversed(q):
                den = den * TWO_PI + v / lead
            if not den:
                raise WeylError("a scalar's denominator is 0 at tau = 2*pi")
            value = num / den
            if math.isfinite(den) and math.isfinite(value):
                return value
        except OverflowError:
            pass
        raise WeylError("a scalar leaves the float range at tau = 2*pi")

    # -- field arithmetic ----------------------------------------------

    def __add__(self, other):
        if other.__class__ is not ExactScalar:
            other = _coerce_or_none(other)
            if other is None:
                return NotImplemented
        p1, p2 = self._p, other._p
        if not p2:
            return self
        if not p1:
            return other
        if self._q is _Q1 and other._q is _Q1:
            c1, c2 = self._c, other._c
            if len(p1) == 1 and len(p2) == 1:
                if c1 == c2:
                    return _rat(p1[0] + p2[0], c1)
                return _rat(p1[0] * c2 + p2[0] * c1, c1 * c2)
            if c1 == c2:
                return _poly(_zadd(p1, p2), c1)
            g = gcd(c1, c2)
            m1, m2 = c2 // g, c1 // g
            return _poly(_zadd(tuple(m1 * v for v in p1), tuple(m2 * v for v in p2)),
                         c1 * m1)
        return _fraction_add(self, other)

    __radd__ = __add__

    def __neg__(self):
        if not self._p:
            return self
        return _make(tuple(-v for v in self._p), self._c, self._q)

    def __sub__(self, other):
        if other.__class__ is not ExactScalar:
            other = _coerce_or_none(other)
            if other is None:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if other.__class__ is not ExactScalar:
            other = _coerce_or_none(other)
            if other is None:
                return NotImplemented
        p1, p2 = self._p, other._p
        if not p1 or not p2:
            return S_ZERO
        if self._q is _Q1 and other._q is _Q1:
            c = self._c * other._c
            if len(p1) == 1 and len(p2) == 1:
                return _rat(p1[0] * p2[0], c)
            return _poly(_zmul(p1, p2), c)
        return _fraction_mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not ExactScalar:
            other = _coerce_or_none(other)
            if other is None:
                return NotImplemented
        p2 = other._p
        if not p2:
            raise ZeroDenominator("division by zero ExactScalar")
        if len(p2) == 1 and other._q is _Q1:
            n = p2[0]
            return self * (_make((other._c,), n) if n > 0 else _make((-other._c,), -n))
        if not self._p:
            return S_ZERO
        # 1 / other == (c q / (lead q * lead p)) / (primitive p / its lead)
        q = other._q
        return _fraction_mul(self, _reduced(_zmul(q, (other._c,)), q[-1] * p2[-1],
                                            _primitive(p2)))

    def __rtruediv__(self, other):
        other = _coerce_or_none(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        """The n-th power for an int n from 0 to MAX_POWER, by n products."""
        if not isinstance(n, int) or not 0 <= n <= MAX_POWER or n.__class__ is bool:
            raise InvalidParameter(f"only integer powers from 0 to {MAX_POWER} are supported")
        out = S_ONE
        for _ in range(n):
            out = out * self
        return out

    def __bool__(self):
        return bool(self._p)

    def __str__(self):
        num = _poly_str(self.num)
        if self._q is _Q1:
            return num
        return f"({num})/({_poly_str(self.den)})"

    __repr__ = __str__


def _coerce_or_none(x):
    if x.__class__ is int:
        return _make((x,)) if x else S_ZERO
    if x.__class__ is ExactScalar:
        return x
    if x.__class__ is Fraction:
        return _make((x.numerator,), x.denominator) if x else S_ZERO
    if isinstance(x, Rational) and x.__class__ is not bool:
        f = Fraction(x)
        return _rat(f.numerator, f.denominator)
    return None


S_ZERO = _make(())
S_ONE = _make((1,))
TAU = _make((0, 1))


def scalar(x) -> ExactScalar:
    """Coerce an int, Fraction or ExactScalar to an ExactScalar; a bool is
    not a number here."""
    out = _coerce_or_none(x)
    return _not_a_scalar(x) if out is None else out


def _not_a_scalar(x):
    raise NotAScalar(f"cannot interpret {x!r} as an ExactScalar")


# -- integer views ---------------------------------------------------------


def rational_key(xs: tuple):
    """The canonical key (D, n) of a tuple of scalars, or None if one of them
    contains tau: D is the lcm of the reduced denominators and n holds the
    ints with xs = n / D, so gcd(D, *n) == 1."""
    D = 1
    for x in xs:
        if x._q is not _Q1 or len(x._p) > 1:
            return None
        c = x._c
        if D % c:
            D = math.lcm(D, c)
    return D, tuple([x._p[0] * (D // x._c) if x._p else 0 for x in xs])


def integer_vector(x: tuple):
    """The tuple of ints behind ``x``, or None if any entry is non-integral."""
    key = rational_key(x)
    return key[1] if key is not None and key[0] == 1 else None


# -- phases ----------------------------------------------------------------


#: largest working precision, in bits, used to reduce an angle to turns; an
#: angle needing more (roughly, a tau-polynomial angle whose coefficients
#: exceed 2**65000) raises PhasePrecisionError
MAX_PHASE_BITS = 1 << 16

#: bits of the turn fraction certified before it is rounded to a double
_TURN_BITS = 72

_pi_cache: dict = {}  # working bits -> P with |P - pi * 2**bits| < 2


def _arctan_inv(x: int, one: int) -> int:
    """arctan(1/x) in fixed point with unit ``one``, one ulp of error per term."""
    power = one // x
    total = power
    x2 = x * x
    k = 3
    while power:
        power //= x2
        term = power // k
        total += -term if k & 2 else term
        k += 2
    return total


def _tau_floor(bits: int) -> int:
    """An integer T with T < tau * 2**bits < T + 10.

    pi comes from Machin's formula 16 atan(1/5) - 4 atan(1/239) in integer
    fixed point, 64 guard bits over a working precision of max(256, the power
    of two >= bits), and is cached once per working precision.  T therefore
    depends on ``bits`` alone, not on which angles were converted before.
    """
    work = max(256, 1 << (bits - 1).bit_length())
    have = _pi_cache.get(work)
    if have is None:
        one = 1 << (work + 64)
        have = _pi_cache[work] = (16 * _arctan_inv(5, one) - 4 * _arctan_inv(239, one)) >> 64
    return 2 * ((have - 2) >> (work - bits))


def _homogeneous(p: tuple, t: int, bits: int) -> int:
    """2**(bits * deg p) * p(t / 2**bits), exactly."""
    n = len(p) - 1
    acc = 0
    for i in range(n, -1, -1):
        acc = acc * t + (p[i] << (bits * (n - i)))
    return acc


def _turns_at(x: ExactScalar, t: int, bits: int) -> tuple[int, int]:
    """x / tau at tau = t / 2**bits, as (numerator, positive denominator)."""
    p, q = x._p, x._q
    num = _homogeneous(p, t, bits) * q[-1]
    den = _homogeneous(q, t, bits) * x._c * t
    shift = bits * (len(q) - len(p) + 1)
    if shift >= 0:
        num <<= shift
    else:
        den <<= -shift
    return (num, den) if den > 0 else (-num, -den)


def _size_bits(x: ExactScalar) -> int:
    """Rough log2 of how fast x / tau moves with tau."""
    top = max(abs(v) for v in x._p).bit_length() + max(abs(v) for v in x._q).bit_length()
    return max(top + 3 * (len(x._p) + len(x._q)) - x._c.bit_length(), 0)


def _reduced_turns(x: ExactScalar) -> tuple[int, int]:
    """(n, d) with n / d the angle x in turns mod 1, to 2**-_TURN_BITS.

    tau is bracketed between two fixed-point values; the precision grows
    until x / tau agrees at both ends to the certified bits.
    """
    bits = _size_bits(x) + _TURN_BITS + 16
    while True:
        if bits > MAX_PHASE_BITS:
            raise PhasePrecisionError(
                f"reducing an angle of size 2^{_size_bits(x)} to turns needs more "
                f"than {MAX_PHASE_BITS} bits of pi")
        t = _tau_floor(bits)
        n1, d1 = _turns_at(x, t, bits)
        n2, d2 = _turns_at(x, t + 10, bits)
        spread = abs(n1 * d2 - n2 * d1)
        scale = d1 * d2
        if spread << _TURN_BITS <= scale:
            return n1 % d1, d1
        bits += spread.bit_length() - scale.bit_length() + _TURN_BITS + 16


def unit_from_turns(n: int, d: int) -> complex:
    """e^{2 pi i n/d}; exactly 1 for n = 0."""
    return cmath.exp(2j * math.pi * (n / d)) if n else 1.0 + 0.0j


def _tau_linear_reduced(x: ExactScalar) -> ExactScalar:
    """x with the tau-linear coefficient of a polynomial moved into [0, 1)."""
    p, c = x._p, x._c
    if x._q is not _Q1 or len(p) < 2:
        return x
    lin = p[1] % c
    if lin == p[1]:
        return x
    out = list(p)
    out[1] = lin
    while out and not out[-1]:
        out.pop()
    return _poly(tuple(out), c)


def _turn_angle(n: int, d: int) -> "PhaseAngle":
    """The angle of n / d turns, 0 <= n < d and gcd(n, d) == 1."""
    out = _new(PhaseAngle)
    out._n = n
    out._d = d
    out._value = None
    return out


def _angle_of_turns(n: int, d: int) -> "PhaseAngle":
    """The angle of n / d turns, 0 <= n < d, not necessarily reduced."""
    if not n:
        return _ZERO_ANGLE
    g = gcd(n, d)
    return _turn_angle(n // g, d // g) if g != 1 else _turn_angle(n, d)


class PhaseAngle:
    """The radian angle of a unit complex number, exact in Q(tau).

    Two angles describe the same unit complex number exactly when their
    difference is an integer multiple of tau.  An angle tau * n / d, n / d
    rational, is kept as the reduced integer pair (n mod d, d) of turns, so
    0 <= n < d; negation is (d - n, d), and sums, comparisons, hashing and
    the complex value use ints alone.  Any other angle has d = 0 and keeps
    its value, with the tau-linear coefficient of a polynomial reduced into
    [0, 1); constant and higher-degree parts are never reducible and are
    kept verbatim, as are genuine rational-function values.  ``value`` gives
    the angle as an ExactScalar in either case.
    """

    __slots__ = ("_n", "_d", "_value")

    def __init__(self, value):
        if value.__class__ is not ExactScalar:
            value = scalar(value)
        p = value._p
        if not p:
            self._n, self._d, self._value = 0, 1, S_ZERO
        elif len(p) == 2 and not p[0] and value._q is _Q1:
            c = value._c
            self._n, self._d, self._value = p[1] % c, c, None
        else:
            self._n, self._d, self._value = 0, 0, _tau_linear_reduced(value)

    @property
    def value(self) -> ExactScalar:
        v = self._value
        if v is None:
            n = self._n
            v = self._value = _make((0, n), self._d) if n else S_ZERO
        return v

    @staticmethod
    def zero() -> "PhaseAngle":
        return _ZERO_ANGLE

    @staticmethod
    def from_turns(r) -> "PhaseAngle":
        """Angle of ``r`` full turns, r rational (or any scalar of Q(tau)).

        For r with tau, the angle tau * r is read off r's canonical fields,
        with no product: tau cancels a factor of a denominator that it
        divides, and otherwise shifts the numerator up one degree.  Either
        way the fields stay canonical, so the angle is that of ``TAU * r``.
        """
        if r.__class__ is not ExactScalar:
            r = scalar(r)
        p, q = r._p, r._q
        if not p:
            return _ZERO_ANGLE
        if len(p) == 1 and q is _Q1:
            c = r._c
            return _turn_angle(p[0] % c, c) if c != 1 else _ZERO_ANGLE
        if q[0]:
            return PhaseAngle(_make((0,) + p, r._c, q))
        return PhaseAngle(_make(p, r._c, _Q1 if len(q) == 2 else q[1:]))

    @staticmethod
    def from_dot(a: tuple, b: tuple, sign: int = 1) -> "PhaseAngle":
        """The angle tau * sign * (a . b), for tuples of ExactScalar and
        sign +1 or -1: ``sign * (a . b)`` turns.

        When both vectors are plain rational, a = n_a / D_a and b = n_b / D_b
        by their ``rational_key``s, and the turns are n_a . n_b over
        D_a * D_b, on ints.  A vector with tau falls back to ``from_turns``
        of the dot product summed in Q(tau).
        """
        if len(a) != len(b):
            raise DimensionMismatch(f"vector lengths {len(a)} and {len(b)} differ")
        kb = rational_key(b)  # b carries tau at most call sites, so it goes first
        ka = rational_key(a) if kb is not None else None
        if ka is None:
            total = S_ZERO
            for u, w in zip(a, b):
                total = total + u * w
            return PhaseAngle.from_turns(total if sign > 0 else -total)
        n = sum(map(mul, ka[1], kb[1]))
        d = ka[0] * kb[0]
        return _angle_of_turns(n % d if sign > 0 else -n % d, d)

    def __eq__(self, other):
        if other.__class__ is not PhaseAngle:
            return NotImplemented
        d = self._d
        if d:
            return d == other._d and self._n == other._n
        return not other._d and self._value == other._value

    def __hash__(self):
        d = self._d
        return hash((self._n, d)) if d else hash(self._value)

    def __reduce__(self):
        return PhaseAngle, (self.value,)

    def __add__(self, other: "PhaseAngle") -> "PhaseAngle":
        d1, d2 = self._d, other._d
        if d1 and d2:
            n1, n2 = self._n, other._n
            if not n2:
                return self
            if not n1:
                return other
            if d1 == d2:
                n, d = n1 + n2, d1
            else:
                n, d = n1 * d2 + n2 * d1, d1 * d2
            return _angle_of_turns(n - d if n >= d else n, d)
        return PhaseAngle(self.value + other.value)

    def __sub__(self, other: "PhaseAngle") -> "PhaseAngle":
        return self + (-other)

    def __neg__(self) -> "PhaseAngle":
        d = self._d
        if d:
            n = self._n
            return _turn_angle(d - n, d) if n else self
        return PhaseAngle(-self._value)

    def is_same_rotation(self, other: "PhaseAngle") -> bool:
        """Exact test that both angles give the same unit complex number."""
        d1, d2 = self._d, other._d
        if d1 and d2:
            return self._n == other._n and d1 == d2
        diff = self.value - other.value
        p = diff._p
        return not p or (diff._q is _Q1 and diff._c == 1 and len(p) == 2 and not p[0])

    def to_complex(self) -> complex:
        """The unit complex number e^{i angle}.

        The angle is reduced by an exact whole number of turns first, so the
        result keeps full double precision at any size, and exact full turns
        map to exactly 1.  Raises PhasePrecisionError past MAX_PHASE_BITS.
        """
        d = self._d
        if d:
            return unit_from_turns(self._n, d)
        return unit_from_turns(*_reduced_turns(self._value))

    def __str__(self):
        return f"angle({self.value})"

    __repr__ = __str__


_ZERO_ANGLE = PhaseAngle(S_ZERO)
