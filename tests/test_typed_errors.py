"""Bad input to the public API raises a typed ``WeylError``.  Where a builtin
exception was raised before, the typed class also inherits it, so existing
``except`` clauses keep working; ``tests/test_imports.py`` pins that ``src/``
raises no builtin exception class.  A bool is not a number."""

from fractions import Fraction

import pytest

from weylccr import (
    Bloch,
    ContinuousCharacter,
    DimensionMismatch,
    Element,
    ExactScalar,
    Fock,
    FourierWindow,
    Frame,
    FreeDynamics,
    ImmutableObject,
    InvalidObject,
    InvalidParameter,
    Mixture,
    Monomial,
    NotACharacter,
    NotAScalar,
    NotAState,
    NotRational,
    OutOfSubalgebra,
    PhaseAngle,
    PlaneWave,
    ProductCharacter,
    StateModel,
    TAU,
    Tracial,
    Unsupported,
    WeylError,
    ZeroDenominator,
    SpaceTranslation,
    Zak,
    apply_automorphism,
    automorphism_action,
    bloch_monomial_value,
    character_eval,
    enumerate_trs_fixed_points,
    ergodic_mean,
    gram_psd_check,
    invariance_check,
    monomial_adjoint,
    monomial_product,
    numeric_box_average,
    path_sample,
    scalar,
    tracial_inner_product,
    vector,
    weak_star_distance,
)
from weylccr.gns import MAX_WINDOW_POINTS
from weylccr.scalars import MAX_POWER
from weylccr.serialization import element_from_json, element_to_json, state_from_json

F1 = Frame.standard(1)
U = Element.u(F1, [1])
M = Monomial([0], [0])
ZAKS = (Zak([0], [0]), Zak([0], [0]))

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
    "box_average_size_str": (lambda: numeric_box_average(U, "a", 10), NotAScalar, TypeError),
    "box_average_size_none": (lambda: numeric_box_average(U, None, 10), NotAScalar, TypeError),
    "path_grid_str": (lambda: path_sample("zak_line", ZAKS, ["x"]), NotAScalar, ValueError),
    "path_grid_none": (lambda: path_sample("zak_line", ZAKS, [None]), NotAScalar, TypeError),
    "path_grid_nan": (lambda: path_sample("zak_line", ZAKS, [float("nan")]), NotAScalar,
                      ValueError),
    "coefficient_str": (lambda: Element(F1, {M: "a"}), NotAScalar, ValueError),
    "frame_dimension_str": (lambda: Frame.standard("a"), NotAScalar, TypeError),
    "frame_basis_none": (lambda: Frame.from_basis(None), NotAScalar, TypeError),
    "product_character_empty": (lambda: ProductCharacter(()), NotACharacter, IndexError),
    "product_character_number": (lambda: ProductCharacter(5), NotACharacter, TypeError),
    "element_terms_str": (lambda: Element(F1, "abc"), InvalidObject, AttributeError),
    "element_terms_int": (lambda: Element(F1, 5), InvalidObject, AttributeError),
    "gram_probes": (lambda: gram_psd_check(Fock(), F1, [1, 2]), InvalidObject, AttributeError),
    "weak_star_probes": (lambda: weak_star_distance(Fock(), Tracial(), "ab"), InvalidObject,
                         AttributeError),
    "path_three_endpoints": (lambda: path_sample("zak_line", ZAKS + ZAKS[:1], [0]),
                             InvalidObject, ValueError),
    "path_endpoints_int": (lambda: path_sample("zak_line", 5, [0]), InvalidObject, TypeError),
    "from_dot_lists": (lambda: PhaseAngle.from_dot([1], [1]), InvalidObject, AttributeError),
    "evaluate_str": (lambda: Fock().evaluate("a"), InvalidObject, AttributeError),
    "invariance_samples": (lambda: invariance_check(Tracial(), SpaceTranslation([1]), ["a"]),
                           InvalidObject, AttributeError),
    "invariance_spec": (lambda: invariance_check(Tracial(), "x", [U]), InvalidObject,
                        AttributeError),
    "automorphism_element": (lambda: apply_automorphism(SpaceTranslation([1]), "x"),
                             InvalidObject, AttributeError),
    "ergodic_mean_str": (lambda: ergodic_mean("x"), InvalidObject, AttributeError),
    "tracial_inner_product_str": (lambda: tracial_inner_product(U, "x"), InvalidObject,
                                  AttributeError),
    "box_average_element": (lambda: numeric_box_average("x", 1.0, 4), InvalidObject,
                            AttributeError),
    "monomial_product_str": (lambda: monomial_product("x", M), InvalidObject, AttributeError),
    "monomial_adjoint_str": (lambda: monomial_adjoint("x"), InvalidObject, AttributeError),
    "automorphism_action_monomial": (lambda: automorphism_action(SpaceTranslation([1]), F1, "x"),
                                     InvalidObject, AttributeError),
    "automorphism_action_frame": (lambda: automorphism_action(FreeDynamics(1), "x", M),
                                  InvalidObject, AttributeError),
    "automorphism_action_spec": (lambda: automorphism_action("x", F1, M), InvalidObject,
                                 AttributeError),
    "character_eval_str": (lambda: character_eval("x", [1]), InvalidObject, AttributeError),
    "bloch_monomial_str": (lambda: bloch_monomial_value([0], {(0,): 1.0}, "x"), InvalidObject,
                           AttributeError),
    "trs_fixed_points_str": (lambda: enumerate_trs_fixed_points("x"), InvalidObject,
                             AttributeError),
    "max_coeff_diff_str": (lambda: U.max_coeff_diff("x"), InvalidObject, AttributeError),
    "same_rotation_int": (lambda: PhaseAngle(0).is_same_rotation(1), InvalidObject,
                          AttributeError),
}


@pytest.mark.parametrize("terms", ["", 0, [], ()])
def test_empty_terms_that_are_not_a_mapping_are_not_the_zero_element(terms):
    with pytest.raises(InvalidObject):
        Element(F1, terms)
    assert Element(F1, {}) == Element(F1) == Element.zero(F1)


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
    (lambda: U * True, TypeError),
    (lambda: True * U, TypeError),
    (lambda: U + True, TypeError),
    (lambda: U - False, TypeError),
    (lambda: Element(F1, {M: True}), NotAScalar),
    (lambda: Element(F1, {M: "1"}), NotAScalar),
    (lambda: Mixture([(True, Tracial())]), NotAState),
    (lambda: Mixture([("1", Tracial())]), NotAState),
    (lambda: Bloch([0], {(0,): True}), NotAState),
    (lambda: Bloch([0], {(0,): "1"}), NotAState),
    (lambda: numeric_box_average(U, True, 10), NotAScalar),
    (lambda: ExactScalar.rational(3) ** True, InvalidParameter),
    (lambda: Frame.standard(True), NotAScalar),
], ids=["plane_wave", "scalar", "vector", "monomial", "bloch_kappa", "bloch_index",
        "zak_nu", "window", "element_times", "times_element", "element_plus",
        "element_minus", "coefficient", "coefficient_str", "mixture_weight",
        "mixture_weight_str", "bloch_value", "bloch_value_str", "box_size", "power",
        "frame_dimension"])
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


@pytest.mark.parametrize("other", [True, False, "1"])
def test_the_element_operators_decline_a_bool_and_a_str(other):
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        assert getattr(U, op)(other) is NotImplemented, op


@pytest.mark.parametrize("other", [1, "1", None], ids=["int", "str", "None"])
def test_the_phase_angle_operators_decline_what_is_not_an_angle(other):
    x = PhaseAngle(0)
    for op in ("__add__", "__sub__"):
        assert getattr(x, op)(other) is NotImplemented, op
    with pytest.raises(TypeError):
        x + other
    with pytest.raises(TypeError):
        x - other


def test_a_coefficient_is_read_at_a_monomial_only():
    """A key that is not a monomial raised nothing: it read 0j."""
    with pytest.raises(InvalidObject):
        U.coefficient("x")
    assert U.coefficient(M) == 0j


def test_a_declined_subtraction_names_minus():
    with pytest.raises(TypeError, match="unsupported operand type.*-"):
        "x" - U
    assert 2 - U == Element.one(F1) * 2 + (-U)


def test_a_product_character_has_factors_of_one_dimension():
    with pytest.raises(DimensionMismatch):
        ProductCharacter((ContinuousCharacter([1]), ContinuousCharacter([1, 2])))
    with pytest.raises(NotACharacter):
        ProductCharacter(("a",))


def test_a_fourier_value_that_is_not_finite_is_not_a_state():
    with pytest.raises(NotAState, match="not finite"):
        bloch_monomial_value([0], {(0,): float("nan")}, M)


@pytest.mark.parametrize("obj", [
    {"family": "mixture", "components": [{"weight": True, "state": {"family": "fock"}}]},
    {"family": "mixture", "components": [{"weight": "1", "state": {"family": "fock"}}]},
    {"family": "bloch", "kappa": ["0"], "fhat": [{"idx": [0], "re": True}]},
    {"family": "bloch", "kappa": ["0"], "fhat": [{"idx": [0], "re": "1"}]},
], ids=["weight", "weight_str", "fourier_value", "fourier_value_str"])
def test_a_bool_or_a_string_in_state_json_is_not_a_number(obj):
    with pytest.raises(WeylError, match="not a number"):
        state_from_json(obj)


def test_a_bool_coefficient_in_element_json_is_not_a_number():
    obj = element_to_json(U)
    obj["terms"][0]["re"] = True
    with pytest.raises(WeylError, match="not a number"):
        element_from_json(obj)


def test_sizes_past_their_bounds_are_refused_before_any_work():
    assert ExactScalar.rational(2) ** MAX_POWER == ExactScalar.rational(2**MAX_POWER)
    with pytest.raises(InvalidParameter):
        ExactScalar.rational(2) ** (MAX_POWER + 1)
    assert len(FourierWindow((1,), (MAX_WINDOW_POINTS,))) == MAX_WINDOW_POINTS
    with pytest.raises(InvalidParameter):
        FourierWindow((0,), (MAX_WINDOW_POINTS,))
    with pytest.raises(DimensionMismatch):
        Frame.standard(65)
