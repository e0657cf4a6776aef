"""Bad input to the public API raises a typed ``WeylError``.  Where a builtin
exception was raised before, the typed class also inherits it, so existing
``except`` clauses keep working; ``tests/test_imports.py`` pins that ``src/``
raises no builtin exception class.  A bool is not a number."""

from fractions import Fraction

import pytest

from weylccr import (
    Bloch,
    Element,
    ExactScalar,
    FourierWindow,
    Frame,
    FreeDynamics,
    ImmutableObject,
    InvalidParameter,
    Monomial,
    NotAScalar,
    NotAState,
    NotRational,
    OutOfSubalgebra,
    PlaneWave,
    StateModel,
    TAU,
    Unsupported,
    WeylError,
    ZeroDenominator,
    Zak,
    numeric_box_average,
    path_sample,
    scalar,
    vector,
)

F1 = Frame.standard(1)
U = Element.u(F1, [1])

#: (call, typed class, the builtin class it replaced)
CALLS = {
    "free_dynamics_time_with_tau": (lambda: FreeDynamics(TAU), NotRational, TypeError),
    "free_dynamics_float_time": (lambda: FreeDynamics(0.5), NotRational, TypeError),
    "box_average_size": (lambda: numeric_box_average(U, 0.0, 4), InvalidParameter, ValueError),
    "box_average_samples": (lambda: numeric_box_average(U, 1.0, 1), InvalidParameter,
                            ValueError),
    "scalar_zero_denominator": (lambda: ExactScalar((1,), (0,)), ZeroDenominator,
                                ZeroDivisionError),
    "rational_zero_denominator": (lambda: ExactScalar.rational(1, 0), ZeroDenominator,
                                  ZeroDivisionError),
    "divide_by_zero": (lambda: ExactScalar.rational(1) / 0, ZeroDenominator,
                       ZeroDivisionError),
    "negative_power": (lambda: ExactScalar.rational(2) ** -1, InvalidParameter, ValueError),
    "path_kind": (lambda: path_sample("spiral", (Zak([0], [0]), Zak([0], [0])), [0]),
                  InvalidParameter, ValueError),
    "path_grid": (lambda: path_sample("zak_line", (Zak([0], [0]), Zak([0], [0])), [2]),
                  InvalidParameter, ValueError),
    "element_immutable": (lambda: setattr(U, "frame", F1), ImmutableObject, AttributeError),
    "state_without_closed_form": (lambda: StateModel().monomial_value(F1, next(iter(U.terms))),
                                  Unsupported, NotImplementedError),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_a_bad_call_raises_a_typed_error_that_is_also_the_old_builtin(name):
    call, typed, builtin = CALLS[name]
    assert issubclass(typed, WeylError) and issubclass(typed, builtin)
    with pytest.raises(typed):
        call()


@pytest.mark.parametrize("call, error", [
    (lambda: PlaneWave([True]), NotAScalar),
    (lambda: scalar(False), NotAScalar),
    (lambda: vector([1, True]), NotAScalar),
    (lambda: Monomial(vector([0]), [True]), NotAScalar),
    (lambda: Bloch([True], {(0,): 1.0}), NotAState),
    (lambda: Bloch([Fraction(1, 3)], {(True,): 1.0}), NotAState),
    (lambda: Zak([0], [False]), NotAState),
    (lambda: FourierWindow((False,), (1,)), OutOfSubalgebra),
], ids=["plane_wave", "scalar", "vector", "monomial", "bloch_kappa", "bloch_index",
        "zak_nu", "window"])
def test_a_bool_is_not_a_number(call, error):
    with pytest.raises(error):
        call()


def test_the_same_numbers_as_ints_are_accepted():
    assert PlaneWave([1]).p == vector([1])
    assert Zak([0], [0]).nu == (Fraction(0),)
    assert FourierWindow((0,), (1,)).lo == (0,)


@pytest.mark.parametrize("call, error", [
    (lambda: ExactScalar.rational(1, True), NotAScalar),
    (lambda: ExactScalar.rational(True), NotAScalar),
    (lambda: ExactScalar((True,)), NotAScalar),
    (lambda: ExactScalar((1,), (True,)), NotAScalar),
    (lambda: FreeDynamics(True), NotRational),
], ids=["rational_denominator", "rational_numerator", "numerator_coefficient",
        "denominator_coefficient", "free_dynamics_time"])
def test_a_bool_is_not_a_number_for_the_constructors(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("other", [True, False, "1"])
def test_the_operators_decline_a_bool_as_they_decline_a_str(other):
    x = ExactScalar.rational(3)
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__"):
        assert getattr(x, op)(other) is NotImplemented, op
    with pytest.raises(TypeError):
        x + other
    with pytest.raises(TypeError):
        other - x
    with pytest.raises(TypeError):
        other * x


def test_ints_and_fractions_are_still_numbers_for_the_constructors():
    assert ExactScalar.rational(1, 2) == ExactScalar.rational(Fraction(1, 2)) == scalar(
        Fraction(1, 2))
    assert ExactScalar((1,), (2,)) == ExactScalar.rational(1, 2)
    assert ExactScalar.rational(1) + 1 == ExactScalar.rational(2) == 2 * ExactScalar.rational(1)
    assert FreeDynamics(2).t == 2
