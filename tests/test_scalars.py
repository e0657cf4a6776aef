import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from weylccr import Element, ExactScalar, Frame, Monomial, PhaseAngle, PlaneWave, TAU, scalar
from weylccr.errors import NotAScalar, NotDecomposable, WeylError

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)


def poly_scalars(max_deg=2):
    return st.lists(rationals, min_size=1, max_size=max_deg + 1).map(
        lambda cs: ExactScalar(tuple(cs)))


@given(poly_scalars(), poly_scalars(), poly_scalars())
def test_field_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ExactScalar(()) == x
    assert x * 1 == x


@given(poly_scalars())
def test_subtraction_and_division_invert(x):
    assert x - x == ExactScalar(())
    if not x.is_zero():
        assert x / x == ExactScalar((Fraction(1),))
        assert (1 / x) * x == ExactScalar((Fraction(1),))


def test_canonical_form_reduction():
    assert TAU / TAU == scalar(1)
    assert (TAU * TAU) / TAU == TAU
    # denominator made monic: (2 tau) / (2) reduces to tau
    x = ExactScalar((Fraction(0), Fraction(2)), (Fraction(2),))
    assert x == TAU
    # common polynomial factor cancelled
    y = (TAU + 1) * (TAU - 1) / (TAU - 1)
    assert y == TAU + 1


def test_rational_detection_and_conversion():
    assert scalar(Fraction(3, 4)).is_rational()
    assert scalar(Fraction(3, 4)).as_fraction() == Fraction(3, 4)
    assert not TAU.is_rational()
    with pytest.raises(NotDecomposable):
        TAU.as_fraction()
    assert (TAU / TAU).as_fraction() == 1


@given(st.integers(-10**30, 10**30),
       st.one_of(st.integers(-12, 12), st.integers(-10**6, 10**6)).filter(bool))
def test_rational_on_ints_is_the_fraction_scalar(p, q):
    # one gcd on the two ints gives the canonical scalar of Fraction(p, q):
    # the same value, fields and hash, with a negative q normalised
    got, want = ExactScalar.rational(p, q), scalar(Fraction(p, q))
    assert got == want and hash(got) == hash(want)
    assert got.num == want.num and got.den == want.den
    assert got.as_fraction() == Fraction(p, q)
    assert ExactScalar.rational(p) == scalar(p)


def test_rational_on_ints_by_hand():
    assert ExactScalar.rational(6, -4) == scalar(Fraction(-3, 2))
    assert ExactScalar.rational(5, -1) == scalar(-5)
    assert ExactScalar.rational(-6, -4) == scalar(Fraction(3, 2))
    assert ExactScalar.rational(0, -7) == scalar(0)
    assert ExactScalar.rational(Fraction(1, 2), 3) == scalar(Fraction(1, 6))
    for p in (0, 1, -5):
        with pytest.raises(ZeroDivisionError):
            ExactScalar.rational(p, 0)


def test_evaluate_substitutes_two_pi():
    assert TAU.evaluate() == 2.0 * math.pi
    x = TAU * Fraction(1, 2) + 3
    assert abs(x.evaluate() - (math.pi + 3)) < 1e-15
    assert abs((1 / TAU).evaluate() - 1 / (2 * math.pi)) < 1e-17


def test_evaluate_past_the_float_range_raises_a_weyl_error():
    big = scalar(10**400)
    # the last one has a finite value, but its coefficients overflow a double
    for x in (big, -big, big * TAU ** 3 / (big + 3 * TAU)):
        with pytest.raises(WeylError, match="float range"):
            x.evaluate()
    assert (1 / big).evaluate() == 0.0
    assert (big * TAU / (big + 1)).evaluate() == 2.0 * math.pi


def test_evaluate_with_a_denominator_root_at_two_pi_raises_a_weyl_error():
    # q * tau - p with p / q the double 2*pi
    p, q = (2.0 * math.pi).as_integer_ratio()
    with pytest.raises(WeylError, match="denominator is 0"):
        (1 / (q * TAU - p)).evaluate()


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        ExactScalar((Fraction(1),), ())
    with pytest.raises(ZeroDivisionError):
        scalar(1) / ExactScalar(())


class TestPhaseAngle:
    def test_linear_coefficient_canonicalized(self):
        a = PhaseAngle(-TAU * Fraction(1, 4))
        assert a.value == TAU * Fraction(3, 4)
        b = PhaseAngle(TAU * Fraction(9, 4))
        assert b.value == TAU * Fraction(1, 4)

    def test_constant_and_quadratic_parts_kept(self):
        v = TAU * TAU * Fraction(1, 3) + TAU * Fraction(5, 4) - 2
        a = PhaseAngle(v)
        assert a.value == TAU * TAU * Fraction(1, 3) + TAU * Fraction(1, 4) - 2

    @given(st.fractions(min_value=-40, max_value=40, max_denominator=12),
           st.integers(min_value=-5, max_value=5))
    def test_full_turns_are_invisible(self, c, k):
        a = PhaseAngle(TAU * c)
        b = PhaseAngle(TAU * (c + k))
        assert a == b
        assert a.is_same_rotation(b)
        assert abs(a.to_complex() - b.to_complex()) == 0.0

    def test_same_rotation_is_exact(self):
        a = PhaseAngle(TAU * Fraction(1, 3))
        b = PhaseAngle(TAU * Fraction(1, 3) + 1)  # differs by 1 radian
        assert not a.is_same_rotation(b)
        c = PhaseAngle(scalar(1))
        d = PhaseAngle(scalar(1) + TAU * 7)
        assert c.is_same_rotation(d)

    def test_to_complex_quarter_turns(self):
        assert PhaseAngle(TAU * 0).to_complex() == 1.0 + 0.0j
        assert abs(PhaseAngle(TAU * Fraction(1, 4)).to_complex() - 1j) < 1e-15
        assert abs(PhaseAngle(TAU * Fraction(1, 2)).to_complex() + 1) < 1e-15
        assert abs(PhaseAngle(-TAU * Fraction(1, 4)).to_complex() + 1j) < 1e-15

    def test_to_complex_large_angle_precision(self):
        # tau-quadratic angles reach thousands of radians; whole turns are
        # removed exactly before conversion so precision stays ~1e-15
        v = TAU * TAU * Fraction(144 * 6)  # about 34k radians
        z = PhaseAngle(v).to_complex()
        frac = Fraction(144 * 6) * 2 * Fraction(
            31415926535897932384626433832795028841971693993751, 10**49) % 1
        import cmath

        assert abs(z - cmath.exp(2j * math.pi * float(frac))) < 1e-14
        assert abs(abs(z) - 1.0) < 1e-15

    def test_angle_arithmetic(self):
        a = PhaseAngle(TAU * Fraction(1, 3))
        b = PhaseAngle(TAU * Fraction(2, 3))
        assert (a + b).is_same_rotation(PhaseAngle(TAU * 0))
        assert (-a).is_same_rotation(b)
        assert (a - a).value.is_zero()


@pytest.mark.parametrize("build", [
    lambda: PlaneWave(["1/3"]),
    lambda: PlaneWave([float("nan")]),
    lambda: Monomial(["1/3"], [0]),
    lambda: Element.u(Frame.standard(1), [float("nan")]),
], ids=["plane_wave_string", "plane_wave_nan", "monomial_string", "generator_nan"])
def test_a_coordinate_that_is_not_a_number_raises_a_typed_error(build):
    with pytest.raises(NotAScalar, match="cannot interpret"):
        build()
    assert issubclass(NotAScalar, WeylError) and issubclass(NotAScalar, TypeError)
