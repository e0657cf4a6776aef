"""Bit-exact pin on results over frames whose basis contains tau.

On the 2*pi frame E = tau*I (d = 1) and the mixed frame
[[1 + tau, 1/3], [0, tau]] (d = 2), a seeded set of 40 monomials is moved by
one free dynamics, which turns positions into rational functions of tau.  For
every moved monomial the test records its coordinates, the values of five
state families and the two frame norms, and per frame the smallest Gram
eigenvalue of two states; ``tests/data/skew_frame_values.json`` holds the
result and must be reproduced byte for byte.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from weylccr import algebra, characters, serialization, states

DATA = Path(__file__).parent / "data" / "skew_frame_values.json"

SKEW_FRAMES = (
    {"d": 1, "E": [[{"num": {"1": "1"}}]]},
    {"d": 2, "E": [[{"num": {"0": "1", "1": "1"}}, "1/3"], ["0", {"num": {"1": "1"}}]]},
)
MONOMIALS = 40
GRAM_PROBES = 12


def _wide(rng) -> Fraction:
    return Fraction(rng.randint(-97, 97), rng.randint(1, 89))


def _monomials(rng, d) -> list:
    """Distinct monomials; a quarter each with a = 0 and b integral, a = 0,
    a integral and a generic."""
    out = []
    while len(out) < MONOMIALS:
        kind = len(out) % 4
        if kind < 2:
            a = (0,) * d
        elif kind == 2:
            a = tuple(rng.randint(-2, 2) for _ in range(d))
        else:
            a = tuple(_wide(rng) for _ in range(d))
        if kind == 0:
            b = tuple(rng.randint(-60, 60) for _ in range(d))
        else:
            b = tuple(_wide(rng) for _ in range(d))
        m = algebra.Monomial(a, b)
        if m not in out:
            out.append(m)
    return out


def skew_frame_values() -> list:
    rng = random.Random("skew-frame-golden")
    out = []
    for spec in SKEW_FRAMES:
        frame = serialization.frame_from_json(spec)
        d = frame.d
        monomials = _monomials(rng, d)
        x = algebra.Element(frame, {m: 1.0 for m in monomials})
        t = Fraction(rng.randint(1, 29), rng.randint(2, 31))
        y = algebra.apply_automorphism(algebra.FreeDynamics(t), x)
        kappa = tuple(Fraction(rng.randint(0, 58), 59) for _ in range(d))
        family = {
            "fock": states.Fock(),
            "plane_wave": states.PlaneWave([_wide(rng) for _ in range(d)]),
            "bloch": states.Bloch(kappa, {(0,) * d: 0.6, (1,) + (0,) * (d - 1): 0.8}),
            "zak": states.Zak(kappa, tuple(Fraction(rng.randint(0, 46), 47)
                                           for _ in range(d))),
            "bohr": states.BohrState(characters.ContinuousCharacter(
                [_wide(rng) for _ in range(d)])),
        }
        rows = []
        for m, c in y.terms.items():
            row = {"a": [str(v) for v in m.a], "b": [str(v) for v in m.b],
                   "coefficient": repr(c)}
            for name, state in family.items():
                row[name] = repr(state.monomial_value(frame, m))
            row["position_norm_sq"] = str(frame.position_norm_sq(m.b))
            row["momentum_norm_sq"] = str(frame.momentum_norm_sq(m.a))
            rows.append(row)
        probes = list(y.terms)[:GRAM_PROBES]
        gram = {name: repr(states.gram_psd_check(family[name], frame, probes).min_eigenvalue)
                for name in ("fock", "bloch")}
        out.append({"frame": str(frame), "t": str(t), "monomials": rows,
                    "gram_min_eigenvalue": gram})
    return out


def render() -> str:
    return json.dumps(skew_frame_values(), indent=1) + "\n"


def test_skew_frame_values_match_golden():
    assert render() == DATA.read_text()
