"""JSON encodings for scalars, frames, elements, states and reports.

Rationals travel as "p/q" strings; an exact scalar maps tau-powers to such
strings for the numerator and denominator; monomial coordinates are plain
rational strings whenever possible and fall back to the scalar object form
for tau-dependent values (these arise e.g. after the free dynamics).
States and characters are tagged objects, one table row per family or kind
holding its class, encoder and decoder.  This module is the one place that
knows the input formats: ``load_json`` and every decoder raise a WeylError
on malformed input.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction

from .algebra import Element, Monomial, _finite
from .characters import (
    BohrCharacter,
    ContinuousCharacter,
    PadicCharacter,
    ProductCharacter,
)
from .errors import WeylError
from .lattice import MAX_DECIMAL_EXPONENT, Frame, decimal_fraction, vector
from .scalars import ExactScalar, scalar
from .states import (
    Bloch,
    BohrState,
    Fock,
    Mixture,
    PlaneWave,
    StateModel,
    Tracial,
    Zak,
)

#: the largest tau-power a decoded scalar may carry; (2*pi)^64 is about 1.6e51,
#: so products of a few such scalars still evaluate within the float range
MAX_JSON_DEGREE = 64

#: the largest decimal exponent of a decoded rational
MAX_JSON_EXPONENT = MAX_DECIMAL_EXPONENT


def _decoder(decode):
    """``decode``, with the errors Python raises on malformed input (a wrong
    type, a missing key, a bad number, nesting too deep) turned into a WeylError."""
    @functools.wraps(decode)
    def checked(*args, **kwargs):
        try:
            return decode(*args, **kwargs)
        except (TypeError, ValueError, LookupError, ArithmeticError, AttributeError,
                RecursionError) as exc:
            kind = decode.__name__.removesuffix("_from_json")
            raise WeylError(f"malformed {kind} JSON: {exc!r}") from exc
    return checked


def load_json(path):
    """The JSON value in the file at ``path``; a WeylError naming the file if
    the text is not UTF-8 JSON or nests past the interpreter's recursion limit."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise WeylError(f"malformed JSON in {path}: {exc}") from exc


def fraction_to_str(f) -> str:
    return str(Fraction(f))


def fraction_from_str(s) -> Fraction:
    """The rational written as "p/q" or as a decimal, whose exponent, if any,
    is at most MAX_JSON_EXPONENT in size (``lattice.decimal_fraction``)."""
    return decimal_fraction(str(s), WeylError)


def scalar_to_json(x: ExactScalar):
    x = scalar(x)
    if x.is_rational():
        return fraction_to_str(x.as_fraction())
    return {
        "num": {str(k): fraction_to_str(c) for k, c in enumerate(x.num) if c},
        "den": {str(k): fraction_to_str(c) for k, c in enumerate(x.den) if c},
    }


@_decoder
def scalar_from_json(obj) -> ExactScalar:
    if isinstance(obj, (int, str)):
        return ExactScalar((fraction_from_str(obj),))
    if isinstance(obj, dict):
        num = _poly_from_map(obj.get("num", {}))
        den = _poly_from_map(obj.get("den", {"0": "1"}))
        return ExactScalar(num, den)
    raise WeylError(f"cannot decode scalar from {obj!r}")


def _poly_from_map(m) -> tuple:
    """Coefficients from a map whose keys are tau-powers in [0, MAX_JSON_DEGREE]."""
    coeffs = {}
    for k, v in m.items():
        deg = int(k)
        if str(deg) != str(k) or not 0 <= deg <= MAX_JSON_DEGREE:
            raise WeylError(f"tau-power {k!r} is not an integer in [0, {MAX_JSON_DEGREE}]")
        coeffs[deg] = fraction_from_str(v)
    return tuple(coeffs.get(k, Fraction(0)) for k in range(max(coeffs, default=-1) + 1))


def frame_to_json(frame: Frame) -> dict:
    return {"d": frame.d, "E": [[scalar_to_json(e) for e in row] for row in frame.E]}


@_decoder
def frame_from_json(obj) -> Frame:
    rows = [[scalar_from_json(e) for e in row] for row in obj["E"]]
    frame = Frame.from_basis(rows)
    if "d" in obj and int(obj["d"]) != frame.d:
        raise WeylError("frame dimension field disagrees with the matrix")
    return frame


def _complex(re, im) -> complex:
    """re + i im from JSON numbers; a bool or a string is not a number here."""
    return complex(_finite(re, float), _finite(im, float))


def element_to_json(x: Element) -> dict:
    terms = []
    for m, c in sorted(x.terms.items(), key=lambda kv: str(kv[0])):
        terms.append({
            "a": [scalar_to_json(v) for v in m.a],
            "b": [scalar_to_json(v) for v in m.b],
            "re": c.real,
            "im": c.imag,
        })
    return {"frame": frame_to_json(x.frame), "terms": terms}


@_decoder
def element_from_json(obj, frame: Frame | None = None) -> Element:
    if frame is None:
        frame = frame_from_json(obj["frame"])
    terms = {}
    for t in obj["terms"]:
        m = Monomial(vector([scalar_from_json(v) for v in t["a"]]),
                     vector([scalar_from_json(v) for v in t["b"]]))
        terms[m] = terms.get(m, 0j) + _complex(t["re"], t["im"])
    return Element(frame, terms)


def _tagged(table, key, obj) -> dict:
    """``obj`` encoded by the row of ``table`` for its exact class, tagged under ``key``."""
    for tag, (cls, encode, _) in table.items():
        if cls is type(obj) and encode:
            return {key: tag, **encode(obj)}
    raise WeylError(f"cannot encode {obj!r}")


#: character kind -> (class, encoder of the fields besides the tag, decoder)
_CHARACTERS = {
    "continuous": (ContinuousCharacter, lambda c: {"p": [scalar_to_json(x) for x in c.p]},
                   lambda o: ContinuousCharacter(vector([scalar_from_json(x) for x in o["p"]]))),
    "padic": (PadicCharacter, lambda c: {"primes": list(c.primes)},
              lambda o: PadicCharacter(tuple(o["primes"]))),
    "product": (ProductCharacter, lambda c: {"factors": [character_to_json(f) for f in c.factors]},
                lambda o: ProductCharacter(tuple(character_from_json(f) for f in o["factors"]))),
}


def character_to_json(char: BohrCharacter) -> dict:
    return _tagged(_CHARACTERS, "kind", char)


@_decoder
def character_from_json(obj) -> BohrCharacter:
    return _CHARACTERS[obj["kind"]][2](obj)


#: state family -> (class, encoder of the fields besides the tag, decoder); the
#: "padic" row is a decode-only shorthand for the Bohr state of a p-adic character
_STATES = {
    "plane_wave": (PlaneWave, lambda s: {"p": [scalar_to_json(x) for x in s.p]},
                   lambda o: PlaneWave(vector([scalar_from_json(x) for x in o["p"]]))),
    "bohr": (BohrState, lambda s: {"char": character_to_json(s.char)},
             lambda o: BohrState(character_from_json(o["char"]))),
    "padic": (BohrState, None, lambda o: BohrState(_CHARACTERS["padic"][2](o))),
    "bloch": (Bloch, lambda s: {"kappa": [fraction_to_str(k) for k in s.kappa],
                                "fhat": [{"idx": list(idx), "re": val.real, "im": val.imag}
                                         for idx, val in s.fhat]},
              lambda o: Bloch([fraction_from_str(k) for k in o["kappa"]],
                              {tuple(t["idx"]): _complex(t["re"], t.get("im", 0.0))
                               for t in o["fhat"]})),
    "zak": (Zak, lambda s: {"kappa": [fraction_to_str(k) for k in s.kappa],
                            "nu": [fraction_to_str(n) for n in s.nu]},
            lambda o: Zak([fraction_from_str(k) for k in o["kappa"]],
                          [fraction_from_str(n) for n in o["nu"]])),
    "fock": (Fock, lambda s: {}, lambda o: Fock()),
    "tracial": (Tracial, lambda s: {}, lambda o: Tracial()),
    "mixture": (Mixture, lambda s: {"components": [{"weight": w, "state": state_to_json(c)}
                                                   for w, c in s.components]},
                lambda o: Mixture([(c["weight"], state_from_json(c["state"]))
                                   for c in o["components"]])),
}


def state_to_json(state: StateModel) -> dict:
    return _tagged(_STATES, "family", state)


@_decoder
def state_from_json(obj) -> StateModel:
    return _STATES[obj["family"]][2](obj)


@_decoder
def endpoints_from_json(obj) -> tuple:
    """The (start, end) states of a path's endpoints object."""
    return state_from_json(obj["start"]), state_from_json(obj["end"])


def dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, no whitespace variation."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
