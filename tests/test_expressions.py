from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weylccr import Element, Frame, Monomial, parse_element
from weylccr.errors import ExpressionError
from weylccr.expressions import MAX_NESTING
from weylccr.lattice import vector

F1 = Frame.standard(1)
F2 = Frame.standard(2)


def mono(a, b):
    return Monomial(vector(a), vector(b))


def test_single_generator():
    got = parse_element("u(1/2)*v(1/2)", F1)
    assert set(got.terms) == {mono([Fraction(1, 2)], [Fraction(1, 2)])}
    assert got.coefficient(mono([Fraction(1, 2)], [Fraction(1, 2)])) == 1.0


def test_reordering_phase():
    got = parse_element("v(1/2)*u(1/2)", F1)
    c = got.coefficient(mono([Fraction(1, 2)], [Fraction(1, 2)]))
    assert abs(c + 1j) < 1e-15


def test_unit_minus_one_is_zero():
    assert parse_element("u(0)*v(0) - 1", F1).is_zero()


def test_imaginary_coefficient():
    got = parse_element("u(1/2)*v(1/3) + 2i*v(1)", F1)
    assert got.coefficient(mono([0], [1])) == 2j
    assert got.coefficient(mono([Fraction(1, 2)], [Fraction(1, 3)])) == 1.0


def test_negative_coordinates_and_signs():
    got = parse_element("-u(-1/2) + -3*v(-2)", F1)
    assert got.coefficient(mono([Fraction(-1, 2)], [0])) == -1.0
    assert got.coefficient(mono([0], [-2])) == -3.0


def test_parentheses_grouping():
    got = parse_element("(u(1) + v(1)) * (u(1) - v(1))", F1)
    want = ((Element.u(F1, [1]) + Element.v(F1, [1]))
            * (Element.u(F1, [1]) - Element.v(F1, [1])))
    assert got == want


def test_multidimensional_coordinates():
    got = parse_element("u(1/2, -1)*v(0, 3)", F2)
    m = mono([Fraction(1, 2), -1], [0, 3])
    assert set(got.terms) == {m}


def test_fraction_coefficient():
    got = parse_element("3/4*v(1)", F1)
    assert got.coefficient(mono([0], [1])) == 0.75


def test_parse_errors_carry_position():
    with pytest.raises(ExpressionError) as exc:
        parse_element("u(1/2", F1)
    assert exc.value.position == 5
    with pytest.raises(ExpressionError):
        parse_element("u(1/2) $ v(1)", F1)
    with pytest.raises(ExpressionError):
        parse_element("w(1)", F1)
    with pytest.raises(ExpressionError):
        parse_element("u(1/0)", F1)


def test_dimension_checked():
    with pytest.raises(ExpressionError):
        parse_element("u(1,2)", F1)
    with pytest.raises(ExpressionError):
        parse_element("u(1)", F2)


@pytest.mark.parametrize("text, position", [
    ("(" * 3000 + "1" + ")" * 3000, MAX_NESTING),
    ("u(1) + " + "(" * (MAX_NESTING + 1) + "1" + ")" * (MAX_NESTING + 1), 7 + MAX_NESTING),
    ("2*" + "1" * 5000, 2),
    ("1" + "0" * 400 + "i*v(1)", 0),
    ("v(1) - " + "7" * 400, 7),
], ids=["deep-parentheses", "one-too-deep", "long-integer", "huge-coefficient", "huge-constant"])
def test_input_limits_raise_expression_errors(text, position):
    with pytest.raises(ExpressionError) as exc:
        parse_element(text, F1)
    assert exc.value.position == position


def test_nesting_up_to_the_limit_parses():  # the parenthesis of u(...) counts too
    text = "(" * (MAX_NESTING - 1) + "u(1/2)" + ")" * (MAX_NESTING - 1)
    assert parse_element(text, F1) == Element.u(F1, [Fraction(1, 2)])


ALPHABET = "uvi0123456789()*+,/- "


@settings(max_examples=150, deadline=None)
@given(st.text(ALPHABET, max_size=24))
def test_any_text_over_the_alphabet_parses_or_raises_expression_error(text):
    try:
        parse_element(text, F1)
    except ExpressionError:
        pass
