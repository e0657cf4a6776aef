"""Differential tests of the exact scalar core against sympy and mpmath.

Field arithmetic and canonical forms are checked against sympy's
``QQ.frac_field(tau)``; phase conversions of large angles against mpmath
evaluated with enough digits to resolve the fractional part of the turn count.
"""

import cmath
import math
import operator
import pickle
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from sympy import QQ, symbols

from weylccr import Element, ExactScalar, Frame, Monomial, PhaseAngle, TAU, scalar
from weylccr.errors import DimensionMismatch, PhasePrecisionError, WeylError
from weylccr.lattice import vdot
from weylccr import scalars
from weylccr.scalars import (
    MAX_PHASE_BITS,
    _canonical,
    _tau_floor,
    _zadd,
    _zgcd,
    _zgcd_prs,
    _zmul,
)

K = QQ.frac_field(symbols("tau"))
T = K.gens[0]

# the fractions in [-20, 20] with denominator at most 9, drawn as n/q: the
# values of st.fractions(-20, 20, max_denominator=9) at a fraction of its
# generation cost
coeffs = st.integers(1, 9).flatmap(
    lambda q: st.integers(-20 * q, 20 * q).map(lambda n: Fraction(n, q)))
nonzero_coeffs = st.integers(1, 9).flatmap(
    lambda q: st.integers(-20 * q, 20 * q - 1).map(lambda n: Fraction(n + (n >= 0), q)))
polys = st.lists(coeffs, min_size=0, max_size=4)
# the nonzero lists of at most 4 coefficients, without rejection: a nonzero
# coefficient put at any position of a list of at most 3
nonzero_polys = st.tuples(st.lists(coeffs, max_size=3), nonzero_coeffs, st.integers(0, 3)).map(
    lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:])


def poly_to_sympy(cs):
    ring = K.field.ring
    return K.field(ring.from_list([QQ(c.numerator, c.denominator) for c in reversed(cs)]))


def sympy_canonical(x) -> tuple:
    """(num, monic den) of a sympy field element, as Fraction tuples."""
    num = [Fraction(int(c.numerator), int(c.denominator)) for c in x.numer.to_dense()]
    den = [Fraction(int(c.numerator), int(c.denominator)) for c in x.denom.to_dense()]
    lead = den[0]
    return (tuple(c / lead for c in reversed(num)),
            tuple(c / lead for c in reversed(den)))


def pmul(p, q) -> list:
    """Product of two coefficient lists, lowest degree first."""
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def padd(p, q) -> list:
    """Sum of two coefficient lists, lowest degree first."""
    if len(p) < len(q):
        p, q = q, p
    return [c + (q[i] if i < len(q) else 0) for i, c in enumerate(p)]


def trimmed(p) -> list:
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


@st.composite
def operands(draw):
    """A scalar num*g / (den*g) and its sympy twin num / den: the denominator
    may have positive degree and is neither reduced nor monic."""
    num, den, g = draw(polys), trimmed(draw(nonzero_polys)), trimmed(draw(nonzero_polys))
    x = ExactScalar(tuple(pmul(num, g)), tuple(pmul(den, g)))
    return x, poly_to_sympy(num) / poly_to_sympy(den)


def canonical(x: ExactScalar) -> tuple:
    return x.num, x.den


@settings(max_examples=100, deadline=None)
@given(operands(), operands())
def test_field_operations_match_sympy(xa, yb):
    (x, a), (y, b) = xa, yb
    assert canonical(x) == sympy_canonical(a)
    assert canonical(y) == sympy_canonical(b)
    assert canonical(x + y) == sympy_canonical(a + b)
    assert canonical(x - y) == sympy_canonical(a - b)
    assert canonical(x * y) == sympy_canonical(a * b)
    if not y.is_zero():
        assert canonical(x / y) == sympy_canonical(a / b)
    assert canonical(-x) == sympy_canonical(-a)


@settings(max_examples=100, deadline=None)
@given(polys, nonzero_polys, st.integers(min_value=1, max_value=6),
       st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool))
def test_equality_and_hash_do_not_depend_on_construction(num, den, k, s):
    """Ints, Fractions, a non-monic or unreduced den: one value, one hash."""
    den = trimmed(den)
    base = ExactScalar(tuple(num), tuple(den))
    lead = den[-1]
    monic = ExactScalar(tuple(c / lead for c in num), tuple(c / lead for c in den))
    scaled = ExactScalar(tuple(c * s for c in num), tuple(c * s for c in den))
    factor = [Fraction(1, k), Fraction(1)]  # tau + 1/k cancels
    unreduced = ExactScalar(tuple(pmul(num, factor)), tuple(pmul(den, factor)))
    as_ints = ExactScalar(tuple(int(c * 2520) for c in num),
                          tuple(int(c * 2520) for c in den))
    for other in (monic, scaled, unreduced, as_ints):
        assert other == base
        assert hash(other) == hash(base)
    assert canonical(base) == sympy_canonical(poly_to_sympy(num) / poly_to_sympy(den))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=6),
                min_size=4, max_size=4),
       st.integers(min_value=1, max_value=5))
def test_equal_monomials_merge_as_element_keys(coords, k):
    frame = Frame.standard(2)
    a, b = coords[:2], coords[2:]
    from_fractions = Monomial(a, b)
    from_scalars = Monomial(
        tuple(ExactScalar((c * k,), (k,)) for c in a),
        tuple(ExactScalar((c.numerator * k,), (c.denominator * k,)) for c in b))
    assert from_fractions == from_scalars
    assert hash(from_fractions) == hash(from_scalars)
    total = Element(frame, {from_fractions: 1.0}) + Element(frame, {from_scalars: 2.0})
    assert len(total) == 1
    assert total.coefficient(from_fractions) == 3.0


def test_values_survive_pickling():
    x = (TAU + 1) / (3 * TAU + Fraction(1, 2))
    r = ExactScalar.rational(3, 4)
    values = (x, r, PhaseAngle(TAU / 3), PhaseAngle(x), Monomial([1, r], [x, 2]))
    for v in values:
        back = pickle.loads(pickle.dumps(v))
        assert back == v and hash(back) == hash(v)
    back = pickle.loads(pickle.dumps(r))
    assert back.is_rational() and back + 1 == r + 1


# -- gcd-splitting on operands with common factors ---------------------------


small_ints = st.integers(-9, 9)
nonzero_ints = st.integers(-9, 8).map(lambda n: n + (n >= 0))


def poly_of_degree(k):
    """Degree k exactly, coefficients over one denominator in 1..6."""
    return st.tuples(st.integers(1, 6), *[small_ints] * k, nonzero_ints).map(
        lambda t: [Fraction(n, t[0]) for n in t[1:]])


factors = st.one_of(poly_of_degree(1), poly_of_degree(2))  # nonconstant
cofactors = st.one_of(poly_of_degree(0), factors)  # any nonzero


def product(*ps) -> list:
    out = [Fraction(1)]
    for p in ps:
        out = pmul(out, p)
    return out


def twin(num, den):
    """An ExactScalar num / den, not reduced on input, and its sympy twin."""
    return ExactScalar(tuple(num), tuple(den)), poly_to_sympy(num) / poly_to_sympy(den)


@st.composite
def related_pairs(draw):
    """Operands x = a1 s k / (h r b1) and y = a2 r k / (h s b2): the
    denominators share the nonconstant factor h, each numerator shares a
    factor with the other denominator, and the numerators share k.  In the
    second form y = m / (r b1 e) - x, so that x + y cancels h."""
    h, r, s, k, a1, b1 = (draw(f) for f in (factors,) + (cofactors,) * 5)
    num1 = product(a1, s, k)
    x = twin(num1, product(h, r, b1))
    if draw(st.booleans()):
        a2, b2 = draw(cofactors), draw(cofactors)
        y = twin(product(a2, r, k), product(h, s, b2))
    else:
        m, e = draw(cofactors), draw(cofactors)
        minus = [-c for c in product(num1, e)]
        y = twin(trimmed(padd(product(m, h), minus)), product(h, r, b1, e))
    return x, y


def full_gcd_reference(op, x, y) -> ExactScalar:
    """op(x, y) as N / D with the gcd of the whole of N and D taken."""
    def pair(v):
        lead = v._q[-1]
        return tuple(lead * c for c in v._p), tuple(v._c * c for c in v._q)

    (n1, d1), (n2, d2) = pair(x), pair(y)
    if op is operator.mul:
        return _canonical(_zmul(n1, n2), _zmul(d1, d2))
    if op is operator.truediv:
        return _canonical(_zmul(n1, d2), _zmul(d1, n2))
    if op is operator.sub:
        n2 = tuple(-c for c in n2)
    return _canonical(_zadd(_zmul(n1, d2), _zmul(n2, d1)), _zmul(d1, d2))


def check_field_operations(x, y, a, b):
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        if op is operator.truediv and y.is_zero():
            continue
        got = op(x, y)
        assert canonical(got) == sympy_canonical(op(a, b)), op.__name__
        want = full_gcd_reference(op, x, y)
        assert (got._p, got._c, got._q) == (want._p, want._c, want._q), op.__name__


@settings(max_examples=60, deadline=None)
@given(related_pairs())
def test_gcd_splitting_on_shared_factors_matches_sympy(xy):
    (x, a), (y, b) = xy
    check_field_operations(x, y, a, b)
    check_field_operations(y, x, b, a)
    assert (x - x).is_zero() and (0 / x).is_zero()


@st.composite
def mixed_pairs(draw):
    """A general operand x = a s / (h r) and a plain rational or polynomial
    y, which may share the factor h or r with the denominator of x."""
    h, r, s, a = draw(factors), draw(cofactors), draw(cofactors), draw(cofactors)
    x = twin(product(a, s), product(h, r))
    kind = draw(st.sampled_from(["rational", "shares h", "shares r", "other"]))
    c = Fraction(draw(nonzero_ints), draw(st.integers(1, 6)))
    if kind == "rational":
        y = [c]
    else:
        y = product([c], {"shares h": h, "shares r": r}.get(kind) or draw(factors),
                    draw(cofactors))
    return x, twin(y, [1])


@settings(max_examples=40, deadline=None)
@given(mixed_pairs())
def test_rational_and_polynomial_operands_match_sympy(xy):
    (x, a), (y, b) = xy
    check_field_operations(x, y, a, b)
    check_field_operations(y, x, b, a)


def tau_power(k) -> list:
    return [Fraction(0)] * k + [Fraction(1)]


@st.composite
def tau_power_pairs(draw):
    """x = tau^i a s / (tau^j h r) and a polynomial y = tau^l c b, with h
    prime to tau: numerators and denominators share powers of tau, and y may
    share the factor h or r with the denominator of x."""
    i, j, l = (draw(st.integers(0, 3)) for _ in range(3))
    h = draw(factors.filter(lambda p: p[0] != 0))
    r, s, a, b = (draw(cofactors) for _ in range(4))
    x = twin(product(tau_power(i), a, s), product(tau_power(j), h, r))
    shared = draw(st.sampled_from([[Fraction(1)], h, r]))
    y = twin(product(tau_power(l), [Fraction(draw(nonzero_ints), draw(st.integers(1, 6)))],
                     shared, b), [1])
    return x, y


@settings(max_examples=40, deadline=None)
@given(tau_power_pairs())
def test_squares_and_polynomial_sums_match_sympy(xy):
    """x * x takes no gcd and x + y, y a polynomial, no polynomial gcd: both
    match sympy and the full-gcd canonical form."""
    (x, a), (y, b) = xy
    check_field_operations(x, y, a, b)
    check_field_operations(y, x, b, a)
    for v, w in ((x, a), (y, b), (x + y, a + b), (x * y, a * b)):
        sq = v * v
        assert canonical(sq) == sympy_canonical(w * w)
        want = full_gcd_reference(operator.mul, v, v)
        assert (sq._p, sq._c, sq._q) == (want._p, want._c, want._q)


def int_poly(draw, k) -> tuple:
    """tau^k times an integer polynomial with a nonzero constant term."""
    coeffs = [draw(nonzero_ints)] + draw(st.lists(st.integers(-6, 6), max_size=3))
    while not coeffs[-1]:
        coeffs.pop()
    return (0,) * k + tuple(coeffs)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gcd_splits_off_shared_tau_powers(data):
    """_zgcd equals the primitive gcd of sympy and of the pseudo-remainder
    sequence on the whole operands, with c * tau^k operands and common
    factors; a scalar built from such operands is reduced as sympy reduces."""
    draw = data.draw
    common = int_poly(draw, draw(st.integers(0, 2)))
    p = _zmul(int_poly(draw, draw(st.integers(0, 3))), common)
    q = _zmul(int_poly(draw, draw(st.integers(0, 3))), common)
    if draw(st.booleans()):  # an operand c * tau^k
        q = (0,) * draw(st.integers(0, 4)) + (draw(nonzero_ints),)
    g = _zgcd(p, q)
    ring = K.field.ring
    want = ring.from_list(list(reversed(p))).gcd(ring.from_list(list(reversed(q))))
    want = [Fraction(int(c.numerator), int(c.denominator)) for c in reversed(want.to_dense())]
    assert [Fraction(c, g[-1]) for c in g] == [c / want[-1] for c in want]
    assert g == _zgcd_prs(p, q) and g == _zgcd(q, p)
    assert math.gcd(*g) == 1 and g[-1] > 0
    x = _canonical(p, q)
    assert canonical(x) == sympy_canonical(poly_to_sympy(list(p)) / poly_to_sympy(list(q)))


# -- integer-turn angles and the pairing kernel ------------------------------


def unit_of_turns(r: Fraction) -> complex:
    """The complex value of an angle of r turns, r in [0, 1), as a
    tau-rational angle has always been converted."""
    return cmath.exp(2j * math.pi * (r.numerator / r.denominator)) if r else 1.0 + 0.0j


big_rationals = st.builds(Fraction, st.integers(-10**60, 10**60), st.integers(1, 7))
plain_coords = st.one_of(st.just(0), st.integers(-50, 50), coeffs, big_rationals)
tau_coords = st.one_of(
    st.builds(lambda c, k: TAU * c + k, nonzero_coeffs, coeffs),
    operands().map(lambda xa: xa[0]))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(
           lambda d: st.tuples(*[st.tuples(plain_coords, plain_coords)] * d)),
       st.sampled_from([1, -1]))
def test_pairing_kernel_on_rational_coordinates(pairs, sign):
    a = tuple(scalar(x) for x, _ in pairs)
    b = tuple(scalar(y) for _, y in pairs)
    got = PhaseAngle.from_dot(a, b, sign)
    assert got == PhaseAngle.from_turns(sign * vdot(a, b))
    turns = (sign * sum(Fraction(x) * Fraction(y) for x, y in pairs)) % 1
    assert got.value == TAU * turns
    assert got.to_complex() == unit_of_turns(turns)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(
           lambda d: st.tuples(*[st.tuples(st.one_of(plain_coords, tau_coords),
                                           st.one_of(coeffs, tau_coords))] * d)),
       st.sampled_from([1, -1]))
def test_pairing_kernel_falls_back_on_tau_coordinates(pairs, sign):
    a = tuple(scalar(x) for x, _ in pairs)
    b = tuple(scalar(y) for _, y in pairs)
    got = PhaseAngle.from_dot(a, b, sign)
    want = PhaseAngle.from_turns(sign * vdot(a, b))
    assert got == want
    assert got.to_complex() == want.to_complex()


def test_pairing_kernel_rejects_mismatched_dimensions():
    with pytest.raises(DimensionMismatch):
        PhaseAngle.from_dot((scalar(1),), ())


turn_values = st.one_of(st.fractions(min_value=-5, max_value=5, max_denominator=60),
                        big_rationals)


@settings(max_examples=100, deadline=None)
@given(turn_values, turn_values)
def test_integer_turn_angles_match_fraction_reference(r, s):
    a, b = PhaseAngle.from_turns(r), PhaseAngle.from_turns(s)
    for angle, turns in ((a, r % 1), (b, s % 1), (a + b, (r + s) % 1),
                         (a - b, (r - s) % 1), (-a, -r % 1)):
        assert angle.value == TAU * turns
        assert angle.to_complex() == unit_of_turns(turns)
        assert angle == PhaseAngle(TAU * turns)
        assert hash(angle) == hash(PhaseAngle(TAU * turns))
    same = r % 1 == s % 1
    assert (a == b) == same
    assert a.is_same_rotation(b) == same
    if same:
        assert hash(a) == hash(b)
    general = PhaseAngle(TAU * r + 1)
    assert not a.is_same_rotation(general) and a != general
    for angle in (a, -b, a + b, general):
        back = pickle.loads(pickle.dumps(angle))
        assert back == angle and hash(back) == hash(angle)
        assert back.to_complex() == angle.to_complex()


# turn counts with tau: a numerator over a denominator with and without a
# factor tau^k, and the monomials c * tau^k for k from -3 to 3
tau_turn_values = st.one_of(
    st.builds(lambda num, den, k: ExactScalar(tuple(num), (0,) * k + tuple(den)),
              nonzero_polys, nonzero_polys, st.integers(0, 2)),
    st.builds(lambda c, k: c * TAU ** k if k >= 0 else c / TAU ** -k,
              nonzero_coeffs, st.integers(-3, 3)))


@settings(max_examples=200, deadline=None)
@given(tau_turn_values)
def test_turns_with_tau_give_the_angle_of_tau_times_turns(r):
    got, want = PhaseAngle.from_turns(r), PhaseAngle(TAU * r)
    assert got == want and hash(got) == hash(want)
    assert got.value == want.value
    z, w = got.to_complex(), want.to_complex()
    assert (z.real.hex(), z.imag.hex()) == (w.real.hex(), w.imag.hex())


# -- phases of large angles -------------------------------------------------


def mp_unit(tau_sq_coeff: Fraction) -> complex:
    """e^{i c tau^2} with mpmath, digits enough for the whole turn count."""
    digits = len(str(abs(tau_sq_coeff.numerator))) + 40
    with mpmath.workdps(digits):
        c = mpmath.mpf(tau_sq_coeff.numerator) / tau_sq_coeff.denominator
        z = mpmath.expj(c * (2 * mpmath.pi) ** 2)
        return complex(z)


@pytest.mark.parametrize("exponent", [45, 50, 60, 300])
def test_large_tau_squared_angles_match_mpmath(exponent):
    c = Fraction(10**exponent, 7)
    z = PhaseAngle(TAU * TAU * c).to_complex()
    assert abs(z - mp_unit(c)) < 1e-14


def test_large_rational_function_angle_matches_mpmath():
    # (10^40 tau^3 + 1) / (tau + 1/3)
    x = (TAU ** 3 * 10**40 + 1) / (TAU + Fraction(1, 3))
    with mpmath.workdps(90):
        t = 2 * mpmath.pi
        want = complex(mpmath.expj((mpmath.mpf(10) ** 40 * t**3 + 1) / (t + mpmath.mpf(1) / 3)))
    assert abs(PhaseAngle(x).to_complex() - want) < 1e-14


def test_whole_turns_of_a_large_angle_are_exact():
    c = Fraction(10**50, 7)
    a = PhaseAngle(TAU * TAU * c + TAU * Fraction(1, 3))
    b = PhaseAngle(TAU * TAU * c + TAU * (Fraction(1, 3) + 10**40))
    assert a.is_same_rotation(b)
    assert a.to_complex() == b.to_complex()


def test_tau_bracket_depends_on_bits_alone(monkeypatch):
    """T < tau * 2**bits < T + 10, and T is the same with a fresh pi cache
    and after a more precise request."""
    monkeypatch.setattr(scalars, "_pi_cache", {})
    bits = range(60, 3001)
    fresh = [_tau_floor(n) for n in bits]
    _tau_floor(9000)
    assert [_tau_floor(n) for n in reversed(bits)] == fresh[::-1]
    top = 3100
    with mpmath.workprec(top + 64):
        exact = int(mpmath.floor(2 * mpmath.pi * mpmath.mpf(2) ** top))
    for n, t in zip(bits, fresh):
        floor = exact >> (top - n)  # floor(tau * 2**n), tau being irrational
        assert t <= floor < t + 10


def test_angle_past_the_precision_bound_raises_typed_error():
    huge = PhaseAngle(TAU * TAU * 10**(MAX_PHASE_BITS // 3))
    with pytest.raises(PhasePrecisionError):
        huge.to_complex()
    assert issubclass(PhasePrecisionError, WeylError)
