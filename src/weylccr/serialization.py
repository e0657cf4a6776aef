"""JSON encodings for scalars, frames, elements, states and reports.

Rationals travel as "p/q" strings; an exact scalar maps tau-powers to such
strings for the numerator and denominator; monomial coordinates are plain
rational strings whenever possible and fall back to the scalar object form
for tau-dependent values (these arise e.g. after the free dynamics).
Every decoder raises a WeylError on malformed input.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction

from .algebra import Element, Monomial
from .characters import (
    BohrCharacter,
    ContinuousCharacter,
    PadicCharacter,
    ProductCharacter,
)
from .errors import WeylError
from .lattice import Frame, vector
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


def _decoder(decode):
    """``decode``, with the errors Python raises on malformed input (a wrong
    type, a missing key, a bad number) turned into a WeylError."""
    @functools.wraps(decode)
    def checked(*args, **kwargs):
        try:
            return decode(*args, **kwargs)
        except (TypeError, ValueError, LookupError, ArithmeticError) as exc:
            kind = decode.__name__.removesuffix("_from_json")
            raise WeylError(f"malformed {kind} JSON: {exc!r}") from exc
    return checked


def fraction_to_str(f) -> str:
    f = Fraction(f)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def fraction_from_str(s) -> Fraction:
    return Fraction(str(s))


def scalar_to_json(x: ExactScalar):
    x = scalar(x)
    if x.is_rational():
        return fraction_to_str(x.as_fraction())
    return {
        "num": {str(k): fraction_to_str(c) for k, c in enumerate(x.num) if c},
        "den": {str(k): fraction_to_str(c) for k, c in enumerate(x.den) if c},
    }


def scalar_from_json(obj) -> ExactScalar:
    if isinstance(obj, (int, str)):
        return ExactScalar((fraction_from_str(obj),))
    if isinstance(obj, dict):
        num = _poly_from_map(obj.get("num", {}))
        den = _poly_from_map(obj.get("den", {"0": "1"}))
        return ExactScalar(num, den)
    raise WeylError(f"cannot decode scalar from {obj!r}")


def _poly_from_map(m) -> tuple:
    if not m:
        return ()
    deg = max(int(k) for k in m)
    out = [Fraction(0)] * (deg + 1)
    for k, v in m.items():
        out[int(k)] = fraction_from_str(v)
    return tuple(out)


def frame_to_json(frame: Frame) -> dict:
    return {"d": frame.d, "E": [[scalar_to_json(e) for e in row] for row in frame.E]}


@_decoder
def frame_from_json(obj) -> Frame:
    rows = [[scalar_from_json(e) for e in row] for row in obj["E"]]
    frame = Frame.from_basis(rows)
    if "d" in obj and int(obj["d"]) != frame.d:
        raise WeylError("frame dimension field disagrees with the matrix")
    return frame


def _coord_to_json(c: ExactScalar):
    return fraction_to_str(c.as_fraction()) if c.is_rational() else scalar_to_json(c)


def element_to_json(x: Element) -> dict:
    terms = []
    for m, c in sorted(x.terms.items(), key=lambda kv: str(kv[0])):
        terms.append({
            "a": [_coord_to_json(v) for v in m.a],
            "b": [_coord_to_json(v) for v in m.b],
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
        terms[m] = terms.get(m, 0j) + complex(t["re"], t["im"])
    return Element(frame, terms)


def character_to_json(char: BohrCharacter) -> dict:
    if isinstance(char, ContinuousCharacter):
        return {"kind": "continuous", "p": [scalar_to_json(c) for c in char.p]}
    if isinstance(char, PadicCharacter):
        return {"kind": "padic", "primes": list(char.primes)}
    if isinstance(char, ProductCharacter):
        return {"kind": "product",
                "factors": [character_to_json(f) for f in char.factors]}
    raise WeylError(f"cannot encode character {char!r}")


@_decoder
def character_from_json(obj) -> BohrCharacter:
    kind = obj["kind"]
    if kind == "continuous":
        return ContinuousCharacter(vector([scalar_from_json(c) for c in obj["p"]]))
    if kind == "padic":
        return PadicCharacter(tuple(obj["primes"]))
    if kind == "product":
        return ProductCharacter(tuple(character_from_json(f) for f in obj["factors"]))
    raise WeylError(f"unknown character kind {kind!r}")


def state_to_json(state: StateModel) -> dict:
    if isinstance(state, PlaneWave):
        return {"family": "plane_wave", "p": [scalar_to_json(c) for c in state.p]}
    if isinstance(state, BohrState):
        return {"family": "bohr", "char": character_to_json(state.char)}
    if isinstance(state, Bloch):
        return {
            "family": "bloch",
            "kappa": [fraction_to_str(k) for k in state.kappa],
            "fhat": [{"idx": list(idx), "re": val.real, "im": val.imag}
                     for idx, val in state.fhat],
        }
    if isinstance(state, Zak):
        return {"family": "zak",
                "kappa": [fraction_to_str(k) for k in state.kappa],
                "nu": [fraction_to_str(n) for n in state.nu]}
    if isinstance(state, Fock):
        return {"family": "fock"}
    if isinstance(state, Tracial):
        return {"family": "tracial"}
    if isinstance(state, Mixture):
        return {"family": "mixture",
                "components": [{"weight": w, "state": state_to_json(s)}
                               for w, s in state.components]}
    raise WeylError(f"cannot encode state {state!r}")


@_decoder
def state_from_json(obj) -> StateModel:
    family = obj["family"]
    if family == "plane_wave":
        return PlaneWave(vector([scalar_from_json(c) for c in obj["p"]]))
    if family == "bohr":
        return BohrState(character_from_json(obj["char"]))
    if family == "padic":
        return BohrState(PadicCharacter(tuple(obj["primes"])))
    if family == "bloch":
        kappa = [fraction_from_str(k) for k in obj["kappa"]]
        fhat = {tuple(t["idx"]): complex(t["re"], t.get("im", 0.0))
                for t in obj["fhat"]}
        return Bloch(kappa, fhat)
    if family == "zak":
        return Zak([fraction_from_str(k) for k in obj["kappa"]],
                   [fraction_from_str(n) for n in obj["nu"]])
    if family == "fock":
        return Fock()
    if family == "tracial":
        return Tracial()
    if family == "mixture":
        return Mixture([(c["weight"], state_from_json(c["state"]))
                        for c in obj["components"]])
    raise WeylError(f"unknown state family {family!r}")


def dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, no whitespace variation."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
