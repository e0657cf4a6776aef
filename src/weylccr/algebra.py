"""The finitely supported Weyl *-algebra: monomials, elements, automorphisms.

A monomial indexes the product u_alpha v_beta by its coordinate pair (a, b);
an element is a finite complex combination of monomials over a fixed frame.
Every phase produced by commutation or by an automorphism is computed exactly
as a :class:`~weylccr.scalars.PhaseAngle` and turned into a complex number
only when it is merged into a coefficient.

A monomial whose 2d coordinates are all plain rationals also carries the
canonical integer key (D, n), with D the lcm of the reduced denominators and
a + b = n / D, so gcd(D, *n) == 1; the key is None exactly when a coordinate
contains tau.  Products, adjoints, equality, hashing and the ergodic means
work on keyed monomials with ints alone, and their results build coordinate
scalars only when asked for them.  Monomials with tau coordinates go through
the exact Q(tau) vector operations and ``PhaseAngle.from_dot``.

The automorphisms act on keyed monomials on ints as well.  A translation
keeps the key of its shift, and a keyed monomial (D, n) picks up -(n_a .
n_lam) turns over D * D_lam (space) or +(n_mu . n_b) turns over D * D_mu
(momentum).  Time reversal negates n_a in the key.  The free dynamics, on a
frame whose shear is tau times a rational matrix G (every rational basis),
builds its phase (t/2) tau^2 a . G a and its image b - t tau G a from ints
as canonical scalars.  Shifts with tau, monomials with tau and the free
dynamics on other frames keep the Q(tau) path; both paths give the same
angle, the same image and the same complex value.

An ``Element`` product takes its path from keyedness alone.  When every
term of both operands is keyed, whatever their sizes, it runs on the keys
with no monomial or angle per term pair: both go over the common denominator
L, and for each term pair in order c1 * c2 * e^{2 pi i k / L^2} with
k = -(n2_a . n1_b) mod L^2 is added into a dict keyed by the summed integer
tuple; each distinct key is then reduced by one gcd and becomes one monomial,
in first-occurrence order.  A product with a tau coordinate in either
operand sends every term pair through ``monomial_product``.  The adjoint
takes each keyed term's phase and key on ints alone, and
``tracial_inner_product`` looks each monomial of x up in y.  Results agree
bit for bit with the pairwise composition of ``monomial_product`` and
``monomial_adjoint``: ``int / int`` is correctly rounded, so reduced and
unreduced turns give the same double, and every sum is taken in the same
order.
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
from typing import Iterable, Mapping, Union

from .errors import DimensionMismatch, ImmutableObject, InvalidParameter, NotRational, WeylError
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


def _finite(x) -> complex:
    """The number x as a coefficient: a finite complex, or WeylError."""
    try:
        z = complex(x)
    except OverflowError:
        raise WeylError("a number is too large for a coefficient") from None
    if not isfinite(z):
        raise WeylError(f"the number {z!r} is not finite")
    return z


class Monomial:
    """Coordinate labels (a, b) of the monomial u_alpha v_beta.

    An immutable value with its hash computed once: at construction when
    every coordinate is a plain rational, on first use otherwise (most
    monomials with tau coordinates are never hashed).  When every coordinate
    is a plain rational, the monomial also carries the canonical integer key
    (D, n): D is the lcm of the reduced denominators of the 2d coordinates
    and n holds the 2d integers with a + b = n / D, so gcd(D, *n) == 1.  The
    key is None exactly when some coordinate contains tau.  Equality and
    hashing read the key, so a monomial has one key and one hash whatever
    built it, and a keyed monomial never equals one with a tau coordinate.
    ``monomial_product`` and ``monomial_adjoint`` build keyed results from
    the key alone; their coordinate tuples ``a`` and ``b`` are made on first
    access.
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
        key = self._key
        if key is None:
            return is_zero_vector(self._a) and is_zero_vector(self._b)
        return not any(key[1])

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
    ints over their common denominator L, and each distinct sum reduced once."""
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
    {identity -> 1} is the unit; a NaN or infinite coefficient or number
    operand raises WeylError.
    """

    __slots__ = ("frame", "_terms")

    def __init__(self, frame: Frame, terms: Mapping[Monomial, complex] | None = None,
                 *, threshold: float = ZERO_THRESHOLD):
        merged: dict[Monomial, complex] = {}
        if terms:
            for m, c in terms.items():
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
        return (-self) + other

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
        if isinstance(other, _NUMBERS):
            z = _finite(other)
            return _element_of(self.frame, ((m, c * z) for m, c in self._terms.items()))
        return NotImplemented

    def __rmul__(self, other):
        return self * other if isinstance(other, _NUMBERS) else NotImplemented

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
        if isinstance(other, _NUMBERS):
            return Element(self.frame, {Monomial.identity(self.frame.d): other})
        return None

    def __str__(self):
        if not self._terms:
            return "0"
        parts = [f"({c.real:.15g}{c.imag:+.15g}j)*{m}"
                 for m, c in sorted(self._terms.items(), key=lambda kv: str(kv[0]))]
        return " + ".join(parts)

    __repr__ = __str__


def _element_of(frame: Frame, items: Iterable[tuple[Monomial, complex]]) -> Element:
    """The element of the (monomial, complex) pairs ``items``, which come
    from valid elements of ``frame``: only ``ZERO_THRESHOLD`` is applied."""
    x = _new(Element)
    _set(x, "frame", frame)
    _set(x, "_terms", {m: c for m, c in items if abs(c) > ZERO_THRESHOLD})
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
    """tau_lambda = v_lambda (.) v_lambda*; lam in position coordinates.

    The canonical key of ``lam`` is kept, or None when a coordinate has tau;
    a keyed monomial (D, n) then picks up -(n_a . n_lam) turns over D * D_lam
    on ints alone.
    """

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
    """theta_mu = u_mu (.) u_mu*; mu in momentum coordinates.

    As for ``SpaceTranslation``, a keyed monomial (D, n) picks up
    +(n_mu . n_b) turns over D * D_mu on ints alone when mu is rational.
    """

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
        if not isinstance(self.t, Rational):
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
    """The antilinear multiplicative involution u_alpha -> u_{-alpha}, v_beta -> v_beta.

    A keyed monomial (D, n) maps to the key (D, -n_a || n_b), canonical as
    it stands.
    """

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


# -- ergodic means -------------------------------------------------------------
# Their memberships, read off the key, also say where the invariant states vanish.


def _a_is_zero(m: Monomial) -> bool:
    key = m._key
    if key is None:
        return is_zero_vector(m.a)
    n = key[1]
    return not any(n[:len(n) >> 1])


def _a_is_integral(m: Monomial) -> bool:
    key = m._key
    if key is None:
        return integer_vector(m.a) is not None
    D, n = key
    if D != 1:  # a plain loop is about 3x faster per call than any() over a generator
        for x in n[:len(n) >> 1]:
            if x % D:
                return False
    return True


def _is_integral(m: Monomial) -> bool:
    key = m._key
    if key is None:
        return integer_vector(m.a) is not None and integer_vector(m.b) is not None
    return key[0] == 1


def ergodic_mean(x: Element) -> Element:
    """Projection onto the translation-invariant part: keep the a = 0 terms."""
    kept = {m: c for m, c in x.terms.items() if _a_is_zero(m)}
    return Element(x.frame, kept, threshold=0.0)


def ergodic_mean_lattice(x: Element) -> Element:
    """Projection onto the lattice-invariant part: keep terms with a integral."""
    kept = {m: c for m, c in x.terms.items() if _a_is_integral(m)}
    return Element(x.frame, kept, threshold=0.0)


def ergodic_mean_zak(x: Element) -> Element:
    """Keep the terms with both a and b integral (invariant under both lattices)."""
    kept = {m: c for m, c in x.terms.items() if _is_integral(m)}
    return Element(x.frame, kept, threshold=0.0)


def numeric_box_average(x: Element, L: float, samples_per_dim: int) -> Element:
    """Midpoint-rule approximation of the translation average over [-L, L]^d.

    Each coefficient is multiplied by the product over coordinates of the
    midpoint mean of e^{-i alpha lambda}; terms with a = 0 are reproduced exactly.
    """
    if not 0 < L < inf:  # NaN fails too
        raise InvalidParameter("box size must be positive and finite")
    n = samples_per_dim
    if not isinstance(n, int) or n < 2:  # 2.5, inf and NaN fail too
        raise InvalidParameter("need an int count of at least two samples per dimension")
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
