"""Every public name that takes user data returns or raises a ``WeylError``,
quickly, on bad values.

``ROWS`` gives one row to each name exported from ``weylccr`` whose
arguments carry user data: numbers, coordinates, labels, Fourier data,
matrices, grids, names and expression text.  The object slots (frames,
states, monomials, windows, term mappings, probe lists, path endpoints and
the vectors of ``PhaseAngle.from_dot``) have rows of their own; elsewhere
such arguments are fixed valid values.  Each slot of a row is filled either
with its valid value or with a draw from ``BAD``, one shared strategy of bad
values.  Operators are called as methods, since a Python operator raises a
bare ``TypeError`` after both sides return ``NotImplemented``; for a method
that return is an answer.
"""

from __future__ import annotations

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import weylccr
from weylccr import (
    Bloch,
    BohrState,
    ContinuousCharacter,
    Element,
    ExactScalar,
    Fock,
    FourierWindow,
    Frame,
    FreeDynamics,
    Mixture,
    Monomial,
    MomentumTranslation,
    PadicCharacter,
    PhaseAngle,
    PlaneWave,
    ProductCharacter,
    SpaceTranslation,
    TAU,
    Tracial,
    WeylError,
    Zak,
    apply_automorphism,
    automorphism_action,
    bloch_monomial_value,
    bloch_vector_state,
    character_eval,
    covariance_check,
    decompose,
    dual_frame,
    enumerate_trs_fixed_points,
    ergodic_mean,
    gram_psd_check,
    invariance_check,
    monomial_adjoint,
    monomial_product,
    multiplicativity_check,
    numeric_box_average,
    op_F,
    op_S,
    padic_fraction,
    pairing,
    parse_element,
    path_sample,
    plane_wave_vector_state,
    rep_rho_kappa,
    scalar,
    symplectic,
    time_reversal_classify,
    tracial_inner_product,
    vector,
    weak_star_distance,
    weyl_generator,
    weyl_generator_parts,
    weyl_relation_residual,
)

F1 = Frame.standard(1)
M0, M1 = Monomial([0], [0]), Monomial([1], [Fraction(1, 2)])
U = Element.u(F1, [1])
X = ExactScalar.rational(3)
PHI = PhaseAngle.from_turns(Fraction(1, 3))
W = FourierWindow((-2,), (2,))
ZAKS = (Zak([0], [0]), Zak([Fraction(1, 2)], [0]))
CHAR = ContinuousCharacter([1])
FHAT = {(0,): 1.0}

#: the bad values: not numbers (str, bool, None), not finite, past the float
#: range or the digit bound, of the wrong length, tau where a rational is
#: required, empty, and Fourier data that is not normalised
BAD_VALUES = (
    "a", "1", "", True, False, None, float("nan"), float("inf"), -float("inf"),
    10**400, Fraction(1, 10**400), "1e1000000", [1, 2], [1, 2, 3], [[1, 2]], [],
    (), {}, TAU, [TAU], [[TAU]], {(0,): 2.0}, {(0,): 0.5, (1,): 0.5}, [True], [None],
    [float("nan")], ["1e1000000"], [10**400], {(0,): True}, {(0,): "1"},
    {(0,): float("nan")},
)
BAD = st.one_of(st.sampled_from(BAD_VALUES), st.text(max_size=4),
                st.integers(-3, 3).map(lambda n: [n] * (n + 3)))

#: name -> (call, the valid value of each slot)
ROWS = {
    "Frame": (Frame, [[1]]),
    "Frame.from_basis": (Frame.from_basis, [[2]]),
    "Frame.standard": (Frame.standard, 1),
    "dual_frame": (dual_frame, [[1]]),
    "vector": (vector, [1]),
    "scalar": (scalar, 1),
    "ExactScalar": (ExactScalar, (1,), (2,)),
    "ExactScalar.rational": (ExactScalar.rational, 1, 2),
    "ExactScalar.__pow__": (X.__pow__, 2),
    "ExactScalar.__add__": (X.__add__, 1),
    "ExactScalar.__rsub__": (X.__rsub__, 1),
    "ExactScalar.__mul__": (X.__mul__, 1),
    "ExactScalar.__truediv__": (X.__truediv__, 2),
    "PhaseAngle": (PhaseAngle, TAU),
    "PhaseAngle.from_turns": (PhaseAngle.from_turns, Fraction(1, 3)),
    "pairing": (pairing, [1], [Fraction(1, 2)]),
    "decompose": (decompose, [Fraction(3, 2)]),
    "Monomial": (Monomial, [1], [0]),
    "Element": (lambda c: Element(F1, {M1: c}), 1.0),
    "Element.from_monomial": (lambda c: Element.from_monomial(F1, M1, c), 2.0),
    "Element.u": (lambda a: Element.u(F1, a), [1]),
    "Element.v": (lambda b: Element.v(F1, b), [1]),
    "Element.__add__": (U.__add__, 1),
    "Element.__radd__": (U.__radd__, 1),
    "Element.__sub__": (U.__sub__, 1),
    "Element.__rsub__": (U.__rsub__, 1),
    "Element.__mul__": (U.__mul__, 2),
    "Element.__rmul__": (U.__rmul__, 2),
    "SpaceTranslation": (SpaceTranslation, [1]),
    "MomentumTranslation": (MomentumTranslation, [1]),
    "FreeDynamics": (FreeDynamics, Fraction(1, 2)),
    "numeric_box_average": (lambda L, n: numeric_box_average(U, L, n), 1.0, 4),
    "ContinuousCharacter": (ContinuousCharacter, [1]),
    "PadicCharacter": (PadicCharacter, (3,)),
    "ProductCharacter": (ProductCharacter, (CHAR,)),
    "character_eval": (lambda beta: character_eval(CHAR, beta), [1]),
    "padic_fraction": (padic_fraction, Fraction(1, 3), 3),
    "parse_element": (lambda text: parse_element(text, F1), "u(1)*v(1/2)"),
    "FourierWindow": (FourierWindow, (-1,), (1,)),
    "op_S": (lambda b: op_S(b, W), [Fraction(1, 2)]),
    "op_F": (lambda gp: op_F(gp, W), [1]),
    "rep_rho_kappa": (lambda kappa: rep_rho_kappa(kappa, M1, W), [0]),
    "bloch_vector_state": (lambda kappa, fhat: bloch_vector_state(kappa, fhat, M1, W),
                           [0], FHAT),
    "plane_wave_vector_state": (lambda p, momenta: plane_wave_vector_state(p, M1, momenta),
                                [0], [[0], [1]]),
    "weyl_relation_residual": (lambda gp, b: weyl_relation_residual(gp, b, W),
                               [1], [Fraction(1, 2)]),
    "Bloch": (Bloch, [0], FHAT),
    "BohrState": (BohrState, CHAR),
    "PlaneWave": (PlaneWave, [1]),
    "Zak": (Zak, [0], [Fraction(1, 2)]),
    "Mixture": (lambda w1, w2: Mixture([(w1, Fock()), (w2, Tracial())]), 0.5, 0.5),
    "bloch_monomial_value": (lambda kappa, fhat: bloch_monomial_value(kappa, fhat, M1),
                             [0], FHAT),
    "covariance_check": (lambda kappa, fhat, gp: covariance_check(kappa, fhat, gp, [M0, M1]),
                         [0], FHAT, [1]),
    "invariance_check": (lambda tol: invariance_check(Tracial(), SpaceTranslation([1]), [U],
                                                      tol), 1e-10),
    "path_sample": (lambda kind, grid: path_sample(kind, ZAKS, grid), "zak_line",
                    [Fraction(1, 2)]),
    # the object slots
    "Element.__init__": (Element, F1, {M1: 1.0}),
    "gram_psd_check": (gram_psd_check, Fock(), F1, [M0, M1]),
    "multiplicativity_check": (multiplicativity_check, Tracial(), F1, [M0, Monomial([0], [1])]),
    "weak_star_distance": (weak_star_distance, Fock(), Tracial(), [U]),
    "path_sample.endpoints": (lambda ends: path_sample("zak_line", ends, [Fraction(1, 2)]),
                              ZAKS),
    "PhaseAngle.from_dot": (PhaseAngle.from_dot, M1.a, M1.b),
    "Fock.evaluate": (Fock().evaluate, U),
    "invariance_check.samples": (lambda samples: invariance_check(
        Tracial(), SpaceTranslation([1]), samples), [U]),
    "invariance_check.specs": (lambda specs: invariance_check(Tracial(), specs, [U]),
                               SpaceTranslation([1])),
    "apply_automorphism": (apply_automorphism, SpaceTranslation([1]), U),
    "ergodic_mean": (ergodic_mean, U),
    "tracial_inner_product": (tracial_inner_product, U, U),
    "numeric_box_average.x": (lambda x: numeric_box_average(x, 1.0, 4), U),
    "symplectic": (symplectic, M0, M1),
    "weyl_generator_parts": (weyl_generator_parts, M1),
    "weyl_generator": (weyl_generator, F1, M1),
    "covariance_check.probes": (lambda probes: covariance_check([0], FHAT, [1], probes),
                                [M0, M1]),
    "time_reversal_classify": (time_reversal_classify, ZAKS[1]),
    "op_S.window": (lambda w: op_S([Fraction(1, 2)], w), W),
    "op_F.window": (lambda w: op_F([1], w), W),
    "rep_rho_kappa.objects": (lambda m, w: rep_rho_kappa([0], m, w), M1, W),
    "bloch_vector_state.objects": (lambda m, w: bloch_vector_state([0], FHAT, m, w), M1, W),
    "plane_wave_vector_state.m": (lambda m: plane_wave_vector_state([0], m, [[0], [1]]), M1),
    "weyl_relation_residual.window": (lambda w: weyl_relation_residual([1], [0], w), W),
    "monomial_product": (monomial_product, M0, M1),
    "monomial_adjoint": (monomial_adjoint, M1),
    "automorphism_action": (automorphism_action, FreeDynamics(1), F1, M1),
    "character_eval.char": (lambda char: character_eval(char, [1]), CHAR),
    "bloch_monomial_value.m": (lambda m: bloch_monomial_value([0], FHAT, m), M1),
    "enumerate_trs_fixed_points": (enumerate_trs_fixed_points, F1),
    "Element.max_coeff_diff": (U.max_coeff_diff, U),
    "Element.coefficient": (U.coefficient, M1),
    "PhaseAngle.is_same_rotation": (PHI.is_same_rotation, PHI),
    "PhaseAngle.__add__": (PHI.__add__, PHI),
    "PhaseAngle.__sub__": (PHI.__sub__, PHI),
}

#: the longest a call may take on any input, in seconds
TIME_BOUND = 1.0


def call_row(name: str, values: tuple) -> float:
    """Call the row with the slot values; its time in seconds.  A return or a
    ``WeylError`` passes; any other exception propagates."""
    call = ROWS[name][0]
    start = time.perf_counter()
    try:
        call(*values)
    except WeylError:
        pass
    return time.perf_counter() - start


def test_every_row_names_an_export():
    assert {name.split(".")[0] for name in ROWS} <= set(dir(weylccr))


@pytest.mark.parametrize("name", sorted(ROWS))
def test_the_valid_values_are_accepted(name):
    call, *valid = ROWS[name]
    call(*valid)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(ROWS)), st.data())
def test_a_bad_value_in_any_slot_returns_or_raises_a_weyl_error(name, data):
    valid = ROWS[name][1:]
    values = tuple(data.draw(st.one_of(st.just(v), BAD)) for v in valid)
    assert call_row(name, values) < TIME_BOUND, (name, values)


def test_each_bad_value_alone_in_each_slot():
    """Each listed bad value in each slot, the other slots valid: no draw
    decides which of them are tried."""
    for name, (_, *valid) in sorted(ROWS.items()):
        for i in range(len(valid)):
            for bad in BAD_VALUES:
                values = tuple(valid[:i]) + (bad,) + tuple(valid[i + 1:])
                assert call_row(name, values) < TIME_BOUND, (name, values)
