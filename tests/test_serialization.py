import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weylccr import (
    Bloch,
    BohrState,
    ContinuousCharacter,
    Element,
    Fock,
    Frame,
    FreeDynamics,
    Mixture,
    Monomial,
    PadicCharacter,
    PlaneWave,
    ProductCharacter,
    TAU,
    Tracial,
    Zak,
    apply_automorphism,
    scalar,
)
from weylccr.errors import NotAState, WeylError
from weylccr.lattice import vector
from weylccr.serialization import (
    MAX_JSON_DEGREE,
    MAX_JSON_EXPONENT,
    character_from_json,
    character_to_json,
    dumps,
    element_from_json,
    element_to_json,
    endpoints_from_json,
    fraction_from_str,
    fraction_to_str,
    frame_from_json,
    frame_to_json,
    scalar_from_json,
    scalar_to_json,
    state_from_json,
    state_to_json,
)
from conftest import malformed_states

F1 = Frame.standard(1)


def test_scalar_round_trip():
    values = [scalar(0), scalar(Fraction(1, 2)), TAU,
              TAU * TAU * Fraction(3, 4) + Fraction(1, 2),
              (scalar(1) + TAU) / (TAU * 2)]
    for v in values:
        assert scalar_from_json(scalar_to_json(v)) == v


def test_scalar_json_shape():
    obj = scalar_to_json(TAU * 3 + Fraction(1, 2))
    assert obj == {"num": {"0": "1/2", "1": "3"}, "den": {"0": "1"}}
    assert scalar_to_json(scalar(Fraction(1, 2))) == "1/2"


def test_scalar_accepts_plain_strings():
    assert scalar_from_json("3/4") == scalar(Fraction(3, 4))
    assert scalar_from_json(2) == scalar(2)


def test_frame_round_trip():
    for f in (F1, Frame.standard(2), Frame.from_basis([[TAU]]),
              Frame.from_basis([[1, 0], [Fraction(1, 2), 2]])):
        assert frame_from_json(frame_to_json(f)) == f


def test_element_round_trip_rational_coords():
    x = Element(F1, {Monomial(vector([Fraction(1, 2)]), vector([0])): 1 + 2j,
                     Monomial(vector([0]), vector([1])): -0.25})
    assert element_from_json(element_to_json(x)) == x


def test_element_terms_use_fraction_strings():
    x = Element(F1, {Monomial(vector([Fraction(1, 2)]), vector([0])): 1.0})
    obj = element_to_json(x)
    assert obj["terms"][0]["a"] == ["1/2"]
    assert obj["terms"][0]["b"] == ["0"]
    assert obj["terms"][0]["re"] == 1.0


def test_element_round_trip_tau_coords():
    x = apply_automorphism(FreeDynamics(Fraction(1)), Element.u(F1, [1]))
    assert element_from_json(element_to_json(x)) == x


def test_state_round_trips():
    states = [
        PlaneWave(vector([Fraction(1, 2), -2])),
        BohrState(PadicCharacter((3, 5))),
        BohrState(ProductCharacter((PadicCharacter((3,)),
                                    ContinuousCharacter(vector([1]))))),
        Bloch([Fraction(1, 3)], {(0,): 0.8, (2,): 0.6}),
        Zak([Fraction(1, 2)], [Fraction(1, 3)]),
        Fock(),
        Tracial(),
        Mixture([(0.25, Fock()), (0.75, Tracial())]),
    ]
    for s in states:
        back = state_from_json(state_to_json(s))
        assert type(back) is type(s)
        assert state_to_json(back) == state_to_json(s)


def test_padic_state_shorthand():
    s = state_from_json({"family": "padic", "primes": [3]})
    assert isinstance(s, BohrState)
    assert isinstance(s.char, PadicCharacter)
    assert s.char.primes == (3,)


def test_bloch_state_json_shape():
    s = Bloch([Fraction(1, 3)], {(0,): 0.8, (1,): 0.6})
    obj = state_to_json(s)
    assert obj["family"] == "bloch"
    assert obj["kappa"] == ["1/3"]
    assert {"idx": [0], "re": 0.8, "im": 0.0} in obj["fhat"]


def test_dumps_deterministic():
    s = Mixture([(0.5, Fock()), (0.5, Zak([Fraction(0)], [Fraction(0)]))])
    a = dumps(state_to_json(s))
    b = dumps(state_to_json(state_from_json(json.loads(a))))
    assert a == b


MALFORMED = [
    (state_from_json, {"family": "plane_wave", "p": 5}),
    (state_from_json, [1, 2]),
    (state_from_json, {"family": "bloch", "kappa": ["0"], "fhat": [{"idx": 0, "re": 1.0}]}),
    (state_from_json, {"family": "mixture", "components": [[1.0, {"family": "fock"}]]}),
    (state_from_json, {"family": "zak", "kappa": ["1/0"], "nu": ["0"]}),
    (state_from_json, {"family": "padic", "primes": [float("inf")]}),
    (state_from_json, {"family": "bloch", "kappa": ["0"], "fhat": [{"idx": [0], "re": "1"}]}),
    (state_from_json, {}),
    (frame_from_json, {"d": 1, "E": 5}),
    (frame_from_json, {"d": "x", "E": [["1"]]}),
    (frame_from_json, "E"),
    (character_from_json, {"kind": "continuous", "p": 5}),
    (character_from_json, {"kind": "product", "factors": [3]}),
    (character_from_json, None),
    (element_from_json, [1, 2]),
    (element_from_json, {"frame": frame_to_json(F1), "terms": [{"a": 5, "b": [], "re": 1}]}),
    (element_from_json, {"frame": frame_to_json(F1), "terms": [{"a": ["x"], "b": ["0"],
                                                                 "re": 1, "im": 0}]}),
    (scalar_from_json, {"num": {"-1": "1", "2": "5"}}),
    (scalar_from_json, {"num": {"1": "1"}, "den": {"-1": "1", "1": "1"}}),
    (scalar_from_json, {"num": {"1": "2", "01": "3"}}),
    (scalar_from_json, {"num": ["1"]}),
    (scalar_from_json, {"num": {str(MAX_JSON_DEGREE + 1): "1"}}),
    (state_from_json, {"family": "plane_wave", "p": [{"num": ["1"]}]}),
    (frame_from_json, {"d": 0, "E": []}),
    (endpoints_from_json, [1, 2]),
    (endpoints_from_json, {"start": {"family": "fock"}}),
    (endpoints_from_json, {"start": {"family": "fock"}, "end": {"family": "bogus"}}),
    (scalar_from_json, "1e1000000"),
    (state_from_json, {"family": "padic", "primes": [2.5]}),
    (state_from_json, {"family": "padic", "primes": [4]}),
    (state_from_json, {"family": "padic", "primes": [10**30]}),
]


@pytest.mark.parametrize("decode, obj", MALFORMED,
                         ids=[f"{d.__name__}-{i}" for i, (d, _) in enumerate(MALFORMED)])
def test_malformed_json_raises_weyl_error(decode, obj):
    with pytest.raises(WeylError) as info:
        decode(obj)
    assert "\n" not in str(info.value)


def test_scalar_degree_is_bounded():
    assert scalar_from_json({"num": {str(MAX_JSON_DEGREE): "1"}}) == TAU ** MAX_JSON_DEGREE
    with pytest.raises(WeylError, match="tau-power"):
        scalar_from_json({"num": {str(10**9): "1"}})


def test_decimal_exponent_is_bounded():
    assert fraction_from_str(f"1e-{MAX_JSON_EXPONENT}") == Fraction(1, 10**MAX_JSON_EXPONENT)
    assert fraction_from_str("25e-1") == fraction_from_str(2.5) == Fraction(5, 2)
    with pytest.raises(WeylError, match="exponent"):
        fraction_from_str(f"1e{MAX_JSON_EXPONENT + 1}")
    with pytest.raises(WeylError, match="exponent"):
        fraction_from_str("1e0_000_100_000_000")


@given(st.fractions())
def test_every_written_fraction_decodes(f):
    assert fraction_from_str(fraction_to_str(f)) == f


def test_state_nested_past_the_recursion_limit_raises_weyl_error():
    obj = {"family": "fock"}
    for _ in range(sys.getrecursionlimit()):
        obj = {"family": "mixture", "components": [{"weight": 1, "state": obj}]}
    with pytest.raises(WeylError, match="RecursionError"):
        state_from_json(obj)


def test_encoding_goes_by_exact_class():
    class Subclass(Fock):
        pass
    with pytest.raises(WeylError, match="cannot encode"):
        state_to_json(Subclass())
    with pytest.raises(WeylError, match="cannot encode"):
        character_to_json(object())


def test_nan_mixture_weight_is_not_a_state():
    with pytest.raises(NotAState):
        state_from_json({"family": "mixture",
                         "components": [{"weight": "nan", "state": {"family": "fock"}}]})


@settings(deadline=None)
@given(malformed_states)
def test_state_from_json_raises_only_weyl_errors(obj):
    try:
        state_from_json(obj)
    except WeylError:
        pass
