"""Differential tests of the exact scalar core against sympy and mpmath.

Field arithmetic and canonical forms are checked against sympy's
``QQ.frac_field(tau)``; phase conversions of large angles against mpmath
evaluated with enough digits to resolve the fractional part of the turn count.
"""

import pickle
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from sympy import QQ, symbols

from weylccr import Element, ExactScalar, Frame, Monomial, PhaseAngle, TAU
from weylccr.errors import PhasePrecisionError, WeylError
from weylccr.scalars import MAX_PHASE_BITS

K = QQ.frac_field(symbols("tau"))
T = K.gens[0]

coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=9)
polys = st.lists(coeffs, min_size=0, max_size=4)
nonzero_polys = polys.filter(any)


def poly_to_sympy(cs):
    out = K(0)
    for k, c in enumerate(cs):
        out += K(QQ(c.numerator, c.denominator)) * T**k
    return out


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


def test_angle_past_the_precision_bound_raises_typed_error():
    huge = PhaseAngle(TAU * TAU * 10**(MAX_PHASE_BITS // 3))
    with pytest.raises(PhasePrecisionError):
        huge.to_complex()
    assert issubclass(PhasePrecisionError, WeylError)
