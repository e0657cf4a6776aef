"""The seeded draws of ``weylccr.verify`` against their Fraction versions.

The draws build drawn coordinates as exact scalars and drawn monomials on
their integer keys straight from the drawn ints; the reference functions
below are the versions that went through ``Fraction`` and ``Monomial``.
Both must give the same values, keys and strings, and leave the generator
in the same state after every call.
"""

import random
from fractions import Fraction

import pytest

from weylccr import Monomial
from weylccr.lattice import vector
from weylccr.verify import rand_coords, rand_fraction, rand_lattice_monomial, rand_monomial


def reference_fraction(rng, max_num=12, max_den=12, nonzero=False):
    while True:
        f = Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
        if f or not nonzero:
            return f


def reference_coords(rng, d, **kw):
    return vector([reference_fraction(rng, **kw) for _ in range(d)])


def reference_monomial(rng, d):
    return Monomial(reference_coords(rng, d), reference_coords(rng, d))


def reference_lattice_monomial(rng, d, span=3):
    return Monomial(vector([rng.randint(-span, span) for _ in range(d)]),
                    vector([rng.randint(-span, span) for _ in range(d)]))


RATIO_KWARGS = [{}, {"max_num": 2, "max_den": 3}, {"max_num": 30, "max_den": 1000},
                {"nonzero": True}, {"max_num": 1, "max_den": 1, "nonzero": True},
                {"max_num": 0, "max_den": 5}]

CASES = (
    [(f"fraction{kw}", lambda rng, d, kw=kw: rand_fraction(rng, **kw),
      lambda rng, d, kw=kw: reference_fraction(rng, **kw)) for kw in RATIO_KWARGS]
    + [(f"coords{kw}", lambda rng, d, kw=kw: rand_coords(rng, d, **kw),
        lambda rng, d, kw=kw: reference_coords(rng, d, **kw)) for kw in RATIO_KWARGS]
    + [("monomial", rand_monomial, reference_monomial)]
    + [(f"lattice_monomial(span={span})",
        lambda rng, d, span=span: rand_lattice_monomial(rng, d, span),
        lambda rng, d, span=span: reference_lattice_monomial(rng, d, span))
       for span in (0, 2, 3)]
)


@pytest.mark.parametrize("draw, reference", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_draws_match_their_fraction_versions(draw, reference, d):
    for seed in range(40):
        rng, ref_rng = random.Random(f"draws:{seed}"), random.Random(f"draws:{seed}")
        for _ in range(5):
            got, want = draw(rng, d), reference(ref_rng, d)
            assert got.__class__ is want.__class__
            if isinstance(want, Monomial):
                assert got._a is None  # built on the key, no coordinate scalar
                assert got._key == want._key
                assert (got.a, got.b) == (want.a, want.b)
            assert got == want and str(got) == str(want) and hash(got) == hash(want)
            assert rng.getstate() == ref_rng.getstate()
