"""The families' symmetry declarations against the automorphisms they come
from, the rule for subclasses, and the conventions that tie the translation
phases to the product.

A declaration's kept set must be the set of monomials that every generator
of the family's symmetry group fixes, which is read here from
``automorphism_action`` alone: the image is the monomial itself and the
phase is a whole number of turns.
"""

import random
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
    MomentumTranslation,
    PhaseAngle,
    PlaneWave,
    SpaceTranslation,
    StateModel,
    TAU,
    Tracial,
    Zak,
    algebra,
    apply_automorphism,
    automorphism_action,
    ergodic_mean,
    ergodic_mean_lattice,
    ergodic_mean_zak,
    gram_psd_check,
    serialization,
    states,
)
from weylccr.algebra import Symmetry
from weylccr.lattice import vector
from weylccr.scalars import unit_from_turns

FRAMES = {
    "standard_d1": Frame.standard(1),
    "standard_d2": Frame.standard(2),
    "tau_d1": Frame.from_basis([[TAU]]),
    "skew_d2": serialization.frame_from_json(
        {"d": 2, "E": [[{"num": {"0": "1", "1": "1"}}, "1/3"], ["0", {"num": {"1": "1"}}]]}),
}


def _unit(d, i, r):
    return tuple(r if k == i else 0 for k in range(d))


def _space(d, reals):
    """Space translations by e_i * r, for each i and each r of ``reals``."""
    return [SpaceTranslation(vector(_unit(d, i, r))) for i in range(d) for r in reals]


def _momentum(d, reals):
    return [MomentumTranslation(vector(_unit(d, i, r))) for i in range(d) for r in reals]


#: r = tau / 7 leaves no drawn coordinate x with x * r a whole number unless
#: x = 0, and r = 1/11 catches the rest: together they stand for all of R
ALL = (TAU / 7, Fraction(1, 11))
LATTICE = (1,)

#: family -> (its declaration, the generators of its symmetry group in dimension d)
GROUPS = {
    "bohr": (algebra.BOHR_SYMMETRY, lambda d: _space(d, ALL)),
    "plane_wave": (PlaneWave.symmetry, lambda d: _space(d, ALL)),
    "bloch": (algebra.BLOCH_SYMMETRY, lambda d: _space(d, LATTICE)),
    "zak": (Zak.symmetry, lambda d: _space(d, LATTICE) + _momentum(d, LATTICE)),
    "tracial": (Tracial.symmetry, lambda d: _space(d, ALL) + _momentum(d, ALL)),
}


def _fixed(spec, frame, m) -> bool:
    phase, image, conj = automorphism_action(spec, frame, m)
    return image == m and not conj and phase.is_same_rotation(PhaseAngle.zero())


_COORDS = st.one_of(
    st.just(Fraction(0)), st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-7, 7), st.integers(1, 6)))


@st.composite
def _monomials(draw, frame):
    """Keyed monomials with many zero and integer coordinates, ones with a
    tau coordinate, and on frames with tau free-dynamics images, whose
    positions are polynomials in tau."""
    d = frame.d
    a = [draw(_COORDS) for _ in range(d)]
    b = [draw(_COORDS) for _ in range(d)]
    kind = draw(st.sampled_from(["keyed", "tau_a", "tau_b", "moved"]))
    if kind == "tau_a":
        a[draw(st.integers(0, d - 1))] += TAU * draw(st.sampled_from([1, Fraction(1, 3)]))
    elif kind == "tau_b":
        b[-1] += TAU * draw(st.sampled_from([1, Fraction(-2, 5)]))
    m = Monomial(vector(a), vector(b))
    if kind == "moved" and frame.shear_over_tau is not None and any(a):
        (m,) = apply_automorphism(FreeDynamics(Fraction(1, 3)),
                                  Element.from_monomial(frame, m)).terms
    return m


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(sorted(FRAMES)))
def test_each_kept_set_is_what_the_symmetry_group_fixes(data, frame_name):
    frame = FRAMES[frame_name]
    ms = data.draw(st.lists(_monomials(frame), min_size=4, max_size=8))
    x = Element(frame, {m: 1.0 + k for k, m in enumerate(ms)})
    fixed = {}
    for family, (symmetry, generators) in GROUPS.items():
        fixed[family] = {m for m in x.terms
                         if all(_fixed(g, frame, m) for g in generators(frame.d))}
        assert {m for m in x.terms if symmetry.keeps(m)} == fixed[family], family
    assert set(ergodic_mean(x).terms) == fixed["bohr"]
    assert set(ergodic_mean_lattice(x).terms) == fixed["bloch"]
    assert set(ergodic_mean_zak(x).terms) == fixed["zak"]


def _declarations(d) -> list:
    """The families' declarations in dimension d, two Bloch filters and a
    join of joins."""
    zero = (0,) * d
    blochs = [Bloch([Fraction(1, 3)] * d, {zero: 0.6, (k,) + zero[1:]: 0.8}).symmetry
              for k in (2, -3)]
    return [algebra.BOHR_SYMMETRY, algebra.BLOCH_SYMMETRY, algebra.ZAK_SYMMETRY,
            algebra.TRACIAL_SYMMETRY, *blochs,
            Symmetry.join([Symmetry.join(blochs), algebra.TRACIAL_SYMMETRY])]


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(sorted(FRAMES)))
def test_a_join_keeps_what_any_part_keeps(data, frame_name):
    """On keyed monomials and ones with tau: a join keeps every monomial that
    some part keeps, and the join of one part keeps exactly what it keeps."""
    frame = FRAMES[frame_name]
    declarations = _declarations(frame.d)
    parts = data.draw(st.lists(st.sampled_from(declarations), min_size=1, max_size=4))
    joined = Symmetry.join(parts)
    for m in data.draw(st.lists(_monomials(frame), min_size=4, max_size=8)):
        assert joined.keeps(m) or not any(p.keeps(m) for p in parts), (m, parts)
        for p in declarations:
            assert Symmetry.join([p]).keeps(m) == p.keeps(m), (m, p)
    assert Symmetry.join(parts + [None]) is None


def test_the_families_read_one_declaration_each():
    bloch = Bloch([Fraction(1, 3)], {(0,): 0.6, (2,): 0.8})
    assert BohrState(ContinuousCharacter([0])).symmetry is algebra.BOHR_SYMMETRY
    assert PlaneWave([0]).symmetry is algebra.BOHR_SYMMETRY
    assert Zak([0], [0]).symmetry is algebra.ZAK_SYMMETRY
    assert Tracial().symmetry is algebra.TRACIAL_SYMMETRY
    assert (bloch.symmetry.momentum, bloch.symmetry.position) == (algebra.LATTICE, algebra.ANYWHERE)
    assert Fock().symmetry is None
    joined = Mixture([(1.0, Tracial())]).symmetry
    assert (joined.momentum, joined.position, joined.filter) == (algebra.ZERO, algebra.ZERO, None)
    kept = [n for n in range(-4, 5)
            if bloch.symmetry.keeps(Monomial(vector([n]), vector([Fraction(1, 3)])))]
    assert kept == [n for n in range(-4, 5) if bloch.symmetry.filter((n,))] == [-2, 0, 2]
    assert not bloch.symmetry.keeps(Monomial(vector([TAU]), vector([0])))


# -- the rule for subclasses ---------------------------------------------------------


def test_a_subclass_with_its_own_closed_form_and_no_declaration_has_no_support():
    class Shifted(Tracial):
        def monomial_value(self, frame, m):
            return 1.0 + 0j

    class Wider(Bloch):
        def monomial_value(self, frame, m):
            return 0.5 * super().monomial_value(frame, m)

    class Slower(Fock):
        def monomial_value(self, frame, m):
            return super().monomial_value(frame, m)

    class Declared(Tracial):
        symmetry = algebra.ZAK_SYMMETRY

        def monomial_value(self, frame, m):
            return 1.0 + 0j if self.symmetry.keeps(m) else 0j

    class Inherits(Zak):
        pass

    wider = Wider([Fraction(1, 3)], {(0,): 0.6, (2,): 0.8})
    assert Shifted().symmetry is None and wider.symmetry is None and Slower().symmetry is None
    assert Declared().symmetry is algebra.ZAK_SYMMETRY
    assert Inherits([0], [0]).symmetry is algebra.ZAK_SYMMETRY
    assert StateModel.symmetry is None and Tracial.symmetry is algebra.TRACIAL_SYMMETRY
    # the Gram check then forms every entry, so it sees the nonzero values
    probes = [Monomial(vector([k]), vector([0])) for k in range(3)]
    frame = FRAMES["standard_d1"]
    assert gram_psd_check(Tracial(), frame, probes).min_eigenvalue == 1.0
    assert gram_psd_check(Shifted(), frame, probes).min_eigenvalue == pytest.approx(0.0, abs=1e-12)


# -- the Gram check skips off the position group ------------------------------------


@pytest.mark.parametrize("state", [Zak([Fraction(1, 3)], [Fraction(1, 5)]), Tracial()],
                         ids=["zak", "tracial"])
def test_gram_forms_no_product_off_the_position_group(state, monkeypatch):
    frame = FRAMES["standard_d1"]
    probes = [Monomial(vector([0]), vector([b])) for b in (0, Fraction(1, 2), 1, Fraction(3, 2))]
    formed = []
    product = states.monomial_product
    monkeypatch.setattr(states, "monomial_product",
                        lambda m1, m2: formed.append((m1, m2)) or product(m1, m2))
    report = gram_psd_check(state, frame, probes)
    assert report.passed
    # Zak: b_j - b_i must be integral, 8 of 16 pairs; Tracial: b_i = b_j, the diagonal
    assert len(formed) == (8 if type(state) is Zak else 4)


# -- conventions ----------------------------------------------------------------


def _elements(frame, seed):
    """Keyed elements, and on frames with tau their free-dynamics images."""
    rng = random.Random(seed)
    d = frame.d
    out = []
    for _ in range(4):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            a = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d)]
            b = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d)]
            terms[Monomial(vector(a), vector(b))] = complex(rng.uniform(-2, 2),
                                                            rng.uniform(-2, 2))
        x = Element(frame, terms)
        out.append(x)
        if frame.shear_over_tau is not None:
            out.append(apply_automorphism(FreeDynamics(Fraction(rng.randint(1, 5), 3)), x))
    return out


def _shifts(d, seed):
    rng = random.Random(seed)
    keyed = [vector([Fraction(rng.randint(-7, 7), rng.randint(1, 5)) for _ in range(d)])
             for _ in range(3)]
    return keyed + [vector([TAU / 3] + [Fraction(1, 2)] * (d - 1))]


def _same(x, y) -> bool:
    return set(x.terms) == set(y.terms) and x.max_coeff_diff(y) == 0


@pytest.mark.parametrize("frame_name", sorted(FRAMES))
def test_a_space_translation_is_conjugation_by_v(frame_name):
    frame = FRAMES[frame_name]
    for lam in _shifts(frame.d, f"space:{frame_name}"):
        V = Element.v(frame, lam)
        for x in _elements(frame, f"space:{frame_name}"):
            assert _same(apply_automorphism(SpaceTranslation(lam), x), V * x * V.adjoint()), lam


@pytest.mark.parametrize("frame_name", sorted(FRAMES))
def test_a_momentum_translation_is_conjugation_by_u(frame_name):
    frame = FRAMES[frame_name]
    for mu in _shifts(frame.d, f"momentum:{frame_name}"):
        U = Element.u(frame, mu)
        for x in _elements(frame, f"momentum:{frame_name}"):
            assert _same(apply_automorphism(MomentumTranslation(mu), x), U * x * U.adjoint()), mu


@pytest.mark.parametrize("d", [1, 2, 3])
def test_zak_values_on_the_lattice_generators(d):
    """omega(v_gamma) = e^{-2 pi i kappa . gamma} and omega(u_gamma') =
    e^{-2 pi i nu . gamma'}, with the turns counted in Fraction."""
    rng = random.Random(f"zak-labels:{d}")
    for _ in range(30):
        kappa = [Fraction(rng.randrange(12), 12) for _ in range(d)]
        nu = [Fraction(rng.randrange(35), 35) for _ in range(d)]
        zak = Zak(kappa, nu)
        gamma = [rng.randint(-9, 9) for _ in range(d)]
        for label, a, b in ((kappa, [0] * d, gamma), (nu, gamma, [0] * d)):
            turns = -sum(k * g for k, g in zip(label, gamma)) % 1
            want = unit_from_turns(turns.numerator, turns.denominator)
            got = zak.monomial_value(Frame.standard(d), Monomial(vector(a), vector(b)))
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
