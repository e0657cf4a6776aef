"""The finitely supported Weyl *-algebra: monomials, elements, automorphisms
and the symmetry declarations of the invariant states.

A monomial indexes the product u_alpha v_beta by its coordinate pair (a, b);
an element is a finite complex combination of monomials over a fixed frame.
Every phase produced by commutation or by an automorphism is computed exactly
as a :class:`~weylccr.scalars.PhaseAngle` and turned into a complex number
only when it is merged into a coefficient.

A monomial whose coordinates are all plain rationals carries the canonical
integer key (D, n) of ``Monomial``.  Products, adjoints, the automorphisms,
equality, hashing and the ``Symmetry`` tests work on keyed monomials with
ints alone and build coordinate scalars only when asked for them; an
``Element`` product whose terms are all keyed runs on the keys over their
common denominator (``_keyed_product``).  Monomials with tau coordinates go
through the exact Q(tau) vector operations and ``PhaseAngle.from_dot``.  Both
paths give the same angle, the same monomial and the same complex value, bit
for bit: ``int / int`` is correctly rounded, so reduced and unreduced turns
give the same double, and every sum is taken in the same order.
"""

from __future__ import annotations

from cmath import isfinite
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, inf, lcm, pi, sin
from numbers import Rational
from operator import add, mul, neg
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Union

from .errors import (DimensionMismatch, ImmutableObject, InvalidObject, InvalidParameter,
                     NotAScalar, NotRational)
from .lattice import (
    Frame,
    PhasePoint,
    Vector,
    check_same_frame,
    integer_vector,
    is_zero_vector,
    mat_vec,
    vadd,
    vdot,
    vector,
    vneg,
    vscale,
    vsub,
    zero_vector,
)
from .scalars import (
    S_ZERO,
    ExactScalar,
    PhaseAngle,
    _angle_of_turns,
    _poly,
    _rat,
    rational_key,
    unit_from_turns,
)

_new = object.__new__
_set = object.__setattr__

#: coefficients with modulus below this are dropped after arithmetic
ZERO_THRESHOLD = 1e-14
_NUMBERS = (int, float, complex, Fraction)


def _is_number(x) -> bool:
    """x is a number operand of an element; a bool is an int but not a number."""
    return isinstance(x, _NUMBERS) and x.__class__ is not bool


def _finite(x, convert: Callable = complex, error: type = NotAScalar):
    """``convert(x)``, with ``convert`` complex or float, as a finite number;
    ``error`` when x is a bool or a string, which are not numbers here, when
    ``convert`` refuses it, or when the value is NaN, infinite or too large."""
    if x.__class__ is not complex and x.__class__ is not float and isinstance(x, (bool, str)):
        raise error(f"{x!r:.40} is not a number")
    try:
        z = convert(x)
    except OverflowError:
        raise error("a number is too large for a double") from None
    except (TypeError, ValueError):
        raise error(f"{x!r:.40} is not a number") from None
    if not isfinite(z):
        raise error(f"the number {z!r} is not finite")
    return z


class Monomial:
    """Coordinate labels (a, b) of the monomial u_alpha v_beta.

    An immutable value.  When every coordinate is a plain rational it
    carries the canonical integer key (D, n): D is the lcm of the reduced
    denominators of the 2d coordinates and a + b = n / D, so gcd(D, *n) ==
    1; the key is None exactly when a coordinate contains tau.  Equality and
    hashing read the key, and the hash is computed at construction for a
    keyed monomial, on first use otherwise.  Keyed results of the algebra
    are built from their keys, and their ``a`` and ``b`` on first access.
    """

    __slots__ = ("_a", "_b", "_key", "_hash")

    def __init__(self, a: Vector, b: Vector):
        a, b = vector(a), vector(b)
        if len(a) != len(b):
            raise DimensionMismatch("momentum and position parts differ in length")
        key = rational_key(a + b)
        self._a = a
        self._b = b
        self._key = key
        self._hash = None if key is None else hash(key)

    @staticmethod
    def identity(d: int) -> "Monomial":
        return _keyed(1, (0,) * (2 * d))

    @property
    def a(self) -> Vector:
        if self._a is None:
            self._unpack()
        return self._a

    @property
    def b(self) -> Vector:
        if self._b is None:
            self._unpack()
        return self._b

    def _unpack(self):
        D, n = self._key
        coords = tuple(_rat(x, D) for x in n)
        d = len(n) >> 1
        self._a, self._b = coords[:d], coords[d:]

    @property
    def d(self) -> int:
        key = self._key
        return len(self._a) if key is None else len(key[1]) >> 1

    def is_identity(self) -> bool:
        return TRACIAL_SYMMETRY.keeps(self)

    def __eq__(self, other):
        if other.__class__ is not Monomial:
            return NotImplemented
        key = self._key
        if key is not None:
            return key == other._key
        return other._key is None and self._a == other._a and self._b == other._b

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self._a, self._b))
        return h

    def __reduce__(self):
        return Monomial, (self.a, self.b)

    def __str__(self):
        a = ",".join(str(c) for c in self.a)
        b = ",".join(str(c) for c in self.b)
        return f"u({a})v({b})"

    __repr__ = __str__


def _keyed(D: int, n: tuple) -> Monomial:
    """The monomial of the canonical key (D, n), built without ``__init__``."""
    m = _new(Monomial)
    m._a = m._b = None
    m._key = key = (D, n)
    m._hash = hash(key)
    return m


def _reduced(D: int, n: tuple) -> Monomial:
    """The monomial of the coordinates n / D, reduced to its key by one gcd."""
    if D != 1:
        g = gcd(D, *n)
        if g != 1:
            D, n = D // g, tuple([x // g for x in n])
    return _keyed(D, n)


def _ratio_monomial(pairs: list) -> Monomial:
    """The monomial whose 2d coordinates, a then b, are the rationals p / q
    of the int pairs (p, q), q != 0: the numerators over the lcm D of the
    denominators, reduced to the key by one gcd, with no coordinate scalar."""
    D = 1
    for _, q in pairs:
        if D % q:
            D = lcm(D, q)
    return _reduced(D, tuple([p * (D // q) for p, q in pairs]))


def monomial_product(m1: Monomial, m2: Monomial) -> tuple[PhaseAngle, Monomial]:
    """Normal-order the product of two monomials.

    u_{a1} v_{b1} u_{a2} v_{b2} = e^{-i alpha2 . beta1} u_{a1+a2} v_{b1+b2},
    returned as the exact angle together with the combined monomial.  Keyed
    operands (D1, n1) and (D2, n2) are combined on ints alone: the phase is
    -(n2_a . n1_b) turns over D1 * D2, and the coordinates are summed over
    lcm(D1, D2) and reduced by one gcd.
    """
    k1, k2 = m1._key, m2._key
    if k1 is None or k2 is None:
        phase = PhaseAngle.from_dot(m2.a, m1.b, -1)
        return phase, Monomial(vadd(m1.a, m2.a), vadd(m1.b, m2.b))
    (D1, n1), (D2, n2) = k1, k2
    if len(n1) != len(n2):
        raise DimensionMismatch("monomial dimensions differ")
    d = len(n1) >> 1
    turns = D1 * D2
    k = _phase_turns(n2[:d], n1[d:], turns)
    if D1 == D2:
        D, n = D1, tuple(map(add, n1, n2))
    else:
        D = lcm(D1, D2)
        f1, f2 = D // D1, D // D2
        n = tuple(x * f1 + y * f2 for x, y in zip(n1, n2))
    return _angle_of_turns(k, turns), _reduced(D, n)


def monomial_adjoint(m: Monomial) -> tuple[PhaseAngle, Monomial]:
    """Adjoint of a unit-coefficient monomial: (u_a v_b)* = e^{-i a.b} u_{-a} v_{-b}.

    A keyed monomial (D, n) gives -(n_a . n_b) turns over D^2 and the key
    (D, -n), which is canonical as it stands.
    """
    key = m._key
    if key is None:
        phase = PhaseAngle.from_dot(m.a, m.b, -1)
        return phase, Monomial(vneg(m.a), vneg(m.b))
    k, turns, key = _keyed_adjoint(key)
    return _angle_of_turns(k, turns), _keyed(*key)


def _phase_turns(a, b, turns: int) -> int:
    """-(a . b) mod turns: the phase e^{-i alpha . beta} of a reordering, as
    a numerator over ``turns``, for alpha and beta with the integer numerators
    a and b over two denominators whose product is ``turns``."""
    return -sum(map(mul, a, b)) % turns


def _keyed_adjoint(key: tuple) -> tuple[int, int, tuple]:
    """(k, D^2, (D, -n)) for the key (D, n): the adjoint of its monomial is
    e^{2 pi i k / D^2} times the monomial of the key (D, -n), which is
    canonical as it stands."""
    D, n = key
    d = len(n) >> 1
    turns = D * D
    return _phase_turns(n[:d], n[d:], turns), turns, (D, tuple(map(neg, n)))


def _common_denominator(t1, t2):
    """The lcm L of the key denominators of the term maps t1 and t2, or None
    when a monomial has tau."""
    L = 1
    for m in chain(t1, t2):
        key = m._key
        if key is None:
            return None
        if L % key[0]:
            L = lcm(L, key[0])
    return L


def _keyed_product(d: int, L: int, t1, t2) -> list:
    """The (monomial, coefficient) terms of the product of the keyed term maps
    t1 and t2 in dimension d: every pair's phase and summed key is taken on
    ints over their common denominator L, and each distinct sum reduced once,
    in first-occurrence order."""
    turns = L * L
    right = [(n[:d], n, c) for n, c in _scaled(L, t2)]
    out: dict[tuple, complex] = {}
    get = out.get
    for n1, c1 in _scaled(L, t1):
        b1 = n1[d:]
        for a2, n2, c2 in right:
            n = tuple(map(add, n1, n2))
            out[n] = get(n, 0j) + c1 * c2 * unit_from_turns(
                _phase_turns(a2, b1, turns), turns)
    return [(_reduced(L, n), c) for n, c in out.items()]


def _scaled(L: int, terms) -> list:
    """(n, c) for each term (D, n) -> c of ``terms``, n rescaled to the
    denominator L."""
    out = []
    for m, c in terms.items():
        D, n = m._key
        if D != L:
            f = L // D
            n = tuple([x * f for x in n])
        out.append((n, c))
    return out


class Element:
    """A finite complex combination of monomials over a fixed frame.

    Instances are immutable values: all arithmetic returns new elements, and
    the term map is exposed read-only.  The empty map is the zero element and
    {identity -> 1} is the unit.  A coefficient or number operand that is
    NaN, infinite, a bool or a string raises NotAScalar, a WeylError; an
    operator given a bool or a string returns NotImplemented.  A frame that is
    not a ``Frame``, or terms that are not a mapping of monomials, raise
    InvalidObject.
    """

    __slots__ = ("frame", "_terms")

    def __init__(self, frame: Frame, terms: Mapping[Monomial, complex] | None = None,
                 *, threshold: float = ZERO_THRESHOLD):
        if not isinstance(frame, Frame):
            raise InvalidObject(f"an element's frame must be a Frame, not {type(frame).__name__}")
        merged: dict[Monomial, complex] = {}
        if terms is not None:
            try:
                items = terms.items()
            except AttributeError:
                raise InvalidObject("an element's terms must be a mapping") from None
            for m, c in items:
                if m.__class__ is not Monomial:
                    raise InvalidObject(f"an element's term {m!r} is not a Monomial")
                if m.d != frame.d:
                    raise DimensionMismatch("monomial dimension differs from frame")
                c = _finite(c)
                if abs(c) > threshold:
                    merged[m] = c
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "_terms", merged)

    def __setattr__(self, *_):
        raise ImmutableObject("Element is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(frame: Frame) -> "Element":
        return Element(frame)

    @staticmethod
    def one(frame: Frame) -> "Element":
        return Element(frame, {Monomial.identity(frame.d): 1.0})

    @staticmethod
    def from_monomial(frame: Frame, m: Monomial, coeff: complex = 1.0) -> "Element":
        return Element(frame, {m: coeff})

    @staticmethod
    def u(frame: Frame, coords) -> "Element":
        """The generator u_alpha with alpha = F . coords."""
        return Element(frame, {Monomial(vector(coords), zero_vector(frame.d)): 1.0})

    @staticmethod
    def v(frame: Frame, coords) -> "Element":
        """The generator v_beta with beta = E . coords."""
        return Element(frame, {Monomial(zero_vector(frame.d), vector(coords)): 1.0})

    # -- inspection -------------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, complex]:
        return MappingProxyType(self._terms)

    def coefficient(self, m: Monomial) -> complex:
        """The coefficient of m, which is the tracial pairing t(m* x)."""
        return self._terms.get(m, 0j)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.frame == other.frame and self._terms == other._terms

    def max_coeff_diff(self, other: "Element") -> float:
        check_same_frame(self.frame, other.frame)
        keys = set(self._terms) | set(other._terms)
        return max((abs(self.coefficient(m) - other.coefficient(m)) for m in keys),
                   default=0.0)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for m, c in other._terms.items():
            out[m] = out.get(m, 0j) + c
        return _element_of(self.frame, out.items())

    __radd__ = __add__

    def __neg__(self):
        return Element(self.frame, {m: -c for m, c in self._terms.items()},
                       threshold=0.0)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else (-self) + other

    def __mul__(self, other):
        if isinstance(other, Element):
            check_same_frame(self.frame, other.frame)
            t1, t2 = self._terms, other._terms
            L = _common_denominator(t1, t2)
            if L is not None:
                return _element_of(self.frame, _keyed_product(self.frame.d, L, t1, t2))
            out: dict[Monomial, complex] = {}
            for m1, c1 in t1.items():
                for m2, c2 in t2.items():
                    phase, m = monomial_product(m1, m2)
                    out[m] = out.get(m, 0j) + c1 * c2 * phase.to_complex()
            return _element_of(self.frame, out.items())
        if _is_number(other):
            z = _finite(other)
            return _element_of(self.frame, ((m, c * z) for m, c in self._terms.items()))
        return NotImplemented

    def __rmul__(self, other):
        return self * other if _is_number(other) else NotImplemented

    def adjoint(self) -> "Element":
        """The *-involution, with every reordering phase exact.

        A keyed term takes its phase and adjoint key from ``_keyed_adjoint``
        on ints alone, without building an angle.
        """
        out: dict[Monomial, complex] = {}
        for m, c in self._terms.items():
            key = m._key
            if key is None:
                phase, ms = monomial_adjoint(m)
                z = phase.to_complex()
            else:
                k, turns, key = _keyed_adjoint(key)
                ms, z = _keyed(*key), unit_from_turns(k, turns)
            out[ms] = out.get(ms, 0j) + c.conjugate() * z
        return _element_of(self.frame, out.items())

    def _coerce(self, other):
        if isinstance(other, Element):
            check_same_frame(self.frame, other.frame)
            return other
        if _is_number(other):
            return Element(self.frame, {Monomial.identity(self.frame.d): other})
        return None

    def __str__(self):
        if not self._terms:
            return "0"
        parts = [f"({c.real:.15g}{c.imag:+.15g}j)*{m}"
                 for m, c in sorted(self._terms.items(), key=lambda kv: str(kv[0]))]
        return " + ".join(parts)

    __repr__ = __str__


def _element_of(frame: Frame, items: Iterable, threshold: float = ZERO_THRESHOLD) -> Element:
    """The element of the (monomial, complex) pairs ``items``, which come
    from valid elements of ``frame``: only the threshold is applied."""
    x = _new(Element)
    _set(x, "frame", frame)
    _set(x, "_terms", {m: c for m, c in items if abs(c) > threshold})
    return x


def weyl_generator_parts(z: PhasePoint) -> tuple[PhaseAngle, Monomial]:
    """Exact phase and monomial of w_z = e^{-(i/2) alpha.beta} u_alpha v_beta."""
    half = ExactScalar.rational(1, 2)
    phase = PhaseAngle.from_turns(-(half * vdot(z.a, z.b)))
    return phase, Monomial(z.a, z.b)


def weyl_generator(z: PhasePoint) -> Element:
    phase, m = weyl_generator_parts(z)
    return Element(z.frame, {m: phase.to_complex()})


# -- automorphisms ------------------------------------------------------------


@dataclass(frozen=True)
class SpaceTranslation:
    """tau_lambda = v_lambda (.) v_lambda*; lam in position coordinates.  With
    ``lam``'s key, a keyed monomial (D, n) picks up -(n_a . n_lam) turns over
    D * D_lam on ints alone."""

    lam: Vector

    def __post_init__(self):
        lam = vector(self.lam)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "_key", rational_key(lam))

    def act(self, frame: Frame, m: Monomial):
        key, lam = m._key, self._key
        if key is None or lam is None or len(key[1]) != 2 * len(lam[1]):
            return PhaseAngle.from_dot(m.a, self.lam, -1), m, False
        (D, n), (Dl, nl) = key, lam
        turns = D * Dl
        return _angle_of_turns(_phase_turns(n[:len(nl)], nl, turns), turns), m, False


@dataclass(frozen=True)
class MomentumTranslation:
    """theta_mu = u_mu (.) u_mu*; mu in momentum coordinates.  With ``mu``'s
    key, a keyed monomial (D, n) picks up +(n_mu . n_b) turns over D * D_mu."""

    mu: Vector

    def __post_init__(self):
        mu = vector(self.mu)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "_key", rational_key(mu))

    def act(self, frame: Frame, m: Monomial):
        key, mu = m._key, self._key
        if key is None or mu is None or len(key[1]) != 2 * len(mu[1]):
            return PhaseAngle.from_dot(self.mu, m.b), m, False
        (D, n), (Dm, nm) = key, mu
        turns = D * Dm
        return _angle_of_turns(sum(map(mul, nm, n[len(nm):])) % turns, turns), m, False


@dataclass(frozen=True)
class FreeDynamics:
    """Phi_t: u_alpha v_beta -> e^{i (t/2) |alpha|^2} u_alpha v_{beta - t alpha}.

    The time parameter is restricted to a plain rational so that the shifted
    coordinates stay in Q(tau).  On a frame with ``shear_over_tau`` set, a
    keyed monomial's phase and image are built from ints as canonical scalars.
    """

    t: Fraction

    def __post_init__(self):
        if not isinstance(self.t, Rational) or self.t.__class__ is bool:
            raise NotRational("free-dynamics time must be rational")
        object.__setattr__(self, "t", Fraction(self.t))

    def act(self, frame: Frame, m: Monomial):
        t = self.t
        key, G = m._key, frame.shear_over_tau
        if key is None or G is None or len(key[1]) != 2 * frame.d:
            norm_sq = frame.momentum_norm_sq(m.a)
            phase = PhaseAngle(ExactScalar.rational(t.numerator, 2 * t.denominator) * norm_sq)
            shift = vscale(t, mat_vec(frame.shear, m.a))
            return phase, Monomial(m.a, vsub(m.b, shift)), False
        # shear = tau * rows / g and |F a|^2 = tau^2 a . G a: with a = n_a / D,
        # G a = Ga / (g D), the phase is tau^2 * p * (n_a . Ga) / (2 q g D^2)
        # and the image b - t tau G a has the coordinates
        # (n_b * q g - tau * p * Ga) / (q g D), for t = p / q
        D, n = key
        g, rows = G
        p, q = t.numerator, t.denominator
        a, b = n[:frame.d], n[frame.d:]
        Ga = [sum(map(mul, row, a)) for row in rows]
        k = p * sum(map(mul, a, Ga))
        phase = PhaseAngle(_poly((0, 0, k), 2 * q * g * D * D) if k else S_ZERO)
        if not p or not any(Ga):
            return phase, m, False
        c, f = q * g * D, q * g
        image = tuple(_poly((x * f, -p * y) if y else (x * f,) if x else (), c)
                      for x, y in zip(b, Ga))
        return phase, Monomial(m.a, image), False


@dataclass(frozen=True)
class TimeReversal:
    """The antilinear multiplicative involution u_alpha -> u_{-alpha}, v_beta ->
    v_beta; a keyed monomial (D, n) maps to the canonical key (D, -n_a || n_b)."""

    def act(self, frame: Frame, m: Monomial):
        key = m._key
        if key is None:
            return PhaseAngle.zero(), Monomial(vneg(m.a), m.b), True
        D, n = key
        d = len(n) >> 1
        return PhaseAngle.zero(), _keyed(D, tuple([-x for x in n[:d]]) + n[d:]), True


AutomorphismSpec = Union[SpaceTranslation, MomentumTranslation, FreeDynamics, TimeReversal]


def automorphism_action(spec: AutomorphismSpec, frame: Frame,
                        m: Monomial) -> tuple[PhaseAngle, Monomial, bool]:
    """Per-monomial action of an automorphism, ``spec.act(frame, m)``.

    Returns the exact phase picked up, the image monomial, and whether the
    coefficient must additionally be conjugated (time reversal only).
    """
    return spec.act(frame, m)


def apply_automorphism(spec: AutomorphismSpec, x: Element) -> Element:
    out: dict[Monomial, complex] = {}
    for m, c in x.terms.items():
        phase, image, conj = automorphism_action(spec, x.frame, m)
        if conj:
            c = c.conjugate()
        out[image] = out.get(image, 0j) + c * phase.to_complex()
    return _element_of(x.frame, out.items())


# -- symmetries and ergodic means ------------------------------------------------

#: the subgroups a half of a monomial, a or b, may be declared to lie in
ZERO, LATTICE, ANYWHERE = "zero", "lattice", "anywhere"


class Symmetry:
    """Where a state invariant under a group of translations can be nonzero:
    omega(u_a v_b) is exactly 0 unless a lies in ``momentum``, b in ``position``
    and an integer a passes the ``filter``, if any (Bloch's supp fhat - supp
    fhat).  That kept set is what every translation of the group fixes: all
    space translations fix a = 0 only, the lattice ones a integral, and
    momentum translations act on b in the same way."""

    __slots__ = ("momentum", "position", "filter", "_keyed")

    def __init__(self, momentum: str, position: str, filter: Callable | None = None):
        self.momentum, self.position, self.filter = momentum, position, filter
        keyed = _KEYED[momentum, position]
        if filter is not None:
            def keyed(D, n, base=keyed):
                return base(D, n) and filter(tuple([x // D for x in n[:len(n) >> 1]]))
        self._keyed = keyed  # the test of a keyed monomial's (D, n), chosen once

    def keeps(self, m: Monomial) -> bool:
        """Whether ``m`` lies in the kept set."""
        key = m._key
        if key is not None:
            return self._keyed(*key)
        # a coordinate has tau, and a half with tau lies only ANYWHERE
        momentum, position = self.momentum, self.position
        return ((momentum is ANYWHERE or position is ANYWHERE)
                and _lies_in(momentum, m.a) and _lies_in(position, m.b)
                and (self.filter is None or self.filter(integer_vector(m.a))))

    def kept(self, terms) -> list:
        """The (monomial, value) pairs of ``terms`` in the kept set."""
        keyed, keeps = self._keyed, self.keeps
        return [(m, c) for m, c in terms
                if (keeps(m) if m._key is None else keyed(*m._key))]

    def support(self, n: tuple) -> bool:
        """Whether the kept set has a monomial with the integer momentum n."""
        return (self.momentum is not ZERO or not any(n)) and (
            self.filter is None or self.filter(n))


#: (momentum, position) -> the test of a canonical key (D, n), n = (a, b) * D:
#: a half in ZERO has zero ints and a half in LATTICE ints that D divides;
#: with both halves constrained D is 1, the only D of an integer point's key
_KEYED = {
    (ANYWHERE, ANYWHERE): lambda D, n: True,
    (ZERO, ANYWHERE): lambda D, n: not any(n[:len(n) >> 1]),
    (LATTICE, ANYWHERE): lambda D, n: D == 1 or not gcd(*n[:len(n) >> 1]) % D,
    (ANYWHERE, ZERO): lambda D, n: not any(n[len(n) >> 1:]),
    (ANYWHERE, LATTICE): lambda D, n: D == 1 or not gcd(*n[len(n) >> 1:]) % D,
    (ZERO, ZERO): lambda D, n: D == 1 and not any(n),
    (ZERO, LATTICE): lambda D, n: D == 1 and not any(n[:len(n) >> 1]),
    (LATTICE, ZERO): lambda D, n: D == 1 and not any(n[len(n) >> 1:]),
    (LATTICE, LATTICE): lambda D, n: D == 1,
}


def _lies_in(group: str, x: Vector) -> bool:
    """Whether the exact coordinates x lie in ``group``."""
    return group is ANYWHERE or (
        is_zero_vector(x) if group is ZERO else integer_vector(x) is not None)


#: BohrState and PlaneWave: all space translations; Bloch: the lattice ones
#: (each state adds its filter); Zak: both lattices; Tracial: all translations
BOHR_SYMMETRY = Symmetry(ZERO, ANYWHERE)
BLOCH_SYMMETRY = Symmetry(LATTICE, ANYWHERE)
ZAK_SYMMETRY = Symmetry(LATTICE, LATTICE)
TRACIAL_SYMMETRY = Symmetry(ZERO, ZERO)


def ergodic_mean(x: Element) -> Element:
    """Projection onto the translation-invariant part: the a = 0 terms."""
    return _element_of(x.frame, BOHR_SYMMETRY.kept(x._terms.items()), threshold=0.0)


def ergodic_mean_lattice(x: Element) -> Element:
    """Projection onto the lattice-invariant part: the terms with a integral."""
    return _element_of(x.frame, BLOCH_SYMMETRY.kept(x._terms.items()), threshold=0.0)


def ergodic_mean_zak(x: Element) -> Element:
    """Projection onto the part invariant under both lattices: the terms with
    a and b integral."""
    return _element_of(x.frame, ZAK_SYMMETRY.kept(x._terms.items()), threshold=0.0)


def numeric_box_average(x: Element, L: float, samples_per_dim: int) -> Element:
    """Midpoint-rule approximation of the translation average over [-L, L]^d.

    Each coefficient is multiplied by the product over coordinates of the
    midpoint mean of e^{-i alpha lambda}; terms with a = 0 are reproduced exactly.
    """
    if L.__class__ is not float:  # a float goes to the range test, which refuses NaN
        L = _finite(L, float)
    if not 0 < L < inf:  # NaN fails too
        raise InvalidParameter("box size must be positive and finite")
    n = samples_per_dim
    if not isinstance(n, int) or not 2 <= n <= 2**53:  # 2.5, inf and NaN fail too
        raise InvalidParameter("need an int count of at least two samples per dimension, "
                               "and at most 2**53")
    out: dict[Monomial, complex] = {}
    for m, c in x.terms.items():
        mult = 1.0
        for comp in x.frame.to_ambient_momentum(m.a):
            mult *= _midpoint_mean(comp.evaluate() * L / n, n)
        out[m] = out.get(m, 0j) + c * mult
    return Element(x.frame, out)


def _midpoint_mean(x: float, n: int) -> float:
    """Mean of e^{-i alpha lambda} over the n midpoints of [-L, L], x = alpha L / n:
    the real Dirichlet kernel sin(n x) / (n sin x).  For x = j pi + r it equals
    s sin(n r) / (n sin r) with s = (-1)^(j (n - 1)), and s at r = 0 (the 0/0 case)."""
    j = round(x / pi)
    r = x - j * pi
    sign = -1.0 if j * (n - 1) % 2 else 1.0
    return sign if r == 0.0 else sign * sin(n * r) / (n * sin(r))


def tracial_inner_product(x: Element, y: Element) -> complex:
    """t(x* y), the l2 pairing behind the expansion coefficients.

    (u_a v_b)* u_a' v_b' is a multiple of the identity only when (a', b') =
    (a, b), and then its phase -a.b + a.b is exactly 0, so each monomial of
    x is looked up in y and contributes conj(c) c' times the unit phase; for
    x = y the result is exactly the coefficient l2-norm squared.
    """
    check_same_frame(x.frame, y.frame)
    terms = y._terms
    total = 0j
    for m, c in x._terms.items():
        c2 = terms.get(m)
        if c2 is not None:
            total += c.conjugate() * c2 * (1 + 0j)
    return total
