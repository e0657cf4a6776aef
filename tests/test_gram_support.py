"""The support-first Gram check against the plain all-pairs loop, the
soundness of every family's ``support`` and the keyed Zak phases.

``gram_psd_check`` leaves an entry 0j, with no product formed, where the
state's ``support`` says the value vanishes, or where a Fock entry's width
estimated in doubles is past ``Fock.vanishing_width``; ``reference_gram``
forms every entry.  Both must give the same report bit for bit.
"""

import math
import random
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weylccr import (
    Bloch,
    BohrState,
    ContinuousCharacter,
    Fock,
    Frame,
    Mixture,
    Monomial,
    PhaseAngle,
    PlaneWave,
    StateModel,
    TAU,
    Tracial,
    WeylError,
    Zak,
    algebra,
    gram_psd_check,
    serialization,
    states,
)
from weylccr.errors import DimensionMismatch
from weylccr.algebra import FreeDynamics, apply_automorphism, monomial_adjoint, monomial_product
from weylccr.lattice import vector
from weylccr.states import GramReport
from weylccr.verify import _family_zoo, rand_kappa, rand_normalized_fhat

SKEW = serialization.frame_from_json(
    {"d": 2, "E": [[{"num": {"0": "1", "1": "1"}}, "1/3"], ["0", {"num": {"1": "1"}}]]})
FRAMES = {
    "standard_d1": Frame.standard(1),
    "standard_d2": Frame.standard(2),
    "tau_d1": Frame.from_basis([[TAU]]),
    "skew_d2": SKEW,
}


def reference_gram(state, frame, probes) -> GramReport:
    """The Gram check with every entry formed: adjoint, product, phase and
    value for each of the n^2 probe pairs."""
    n = len(probes)
    H = np.zeros((n, n), dtype=complex)
    for i, mi in enumerate(probes):
        phase_i, mi_star = monomial_adjoint(mi)
        for j, mj in enumerate(probes):
            phase_ij, mij = monomial_product(mi_star, mj)
            H[i, j] = (phase_i + phase_ij).to_complex() * state.monomial_value(frame, mij)
    residual = float(np.max(np.abs(H - H.conj().T)))
    min_eig = float(np.min(np.linalg.eigvalsh((H + H.conj().T) / 2.0)))
    return GramReport(min_eig, residual, min_eig >= -1e-10)


def report_bits(r: GramReport) -> tuple:
    return r.min_eigenvalue.hex(), r.hermitian_residual.hex(), r.passed


#: momenta whose fractional parts repeat across integer shifts, so that many
#: pairs differ by a lattice vector, in or out of a support
MOMENTA = (0, 1, -1, 2, Fraction(1, 2), Fraction(3, 2), Fraction(-1, 2),
           Fraction(1, 3), Fraction(4, 3), Fraction(-5, 3))
#: position denominators: the key's D is the lcm over a and b, so probes with
#: one momentum get keys of different D
DENOMINATORS = (1, 2, 3, 5, 7)


def _probes(rng, frame, count=16) -> list:
    """Distinct probes: keyed ones, ones with tau in b but a rational, a few
    with tau in a, and on frames with tau the images of a free dynamics."""
    d = frame.d
    rational = frame is FRAMES["standard_d1"] or frame is FRAMES["standard_d2"]
    out = {}
    while len(out) < count:
        a = [rng.choice(MOMENTA) for _ in range(d)]
        b = [Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS)) for _ in range(d)]
        kind = rng.randrange(6)
        if kind == 0:
            a[0] = TAU / 3 + Fraction(1, 5) * rng.randint(-2, 2)
        elif kind == 1 and not rational:
            b[-1] = TAU * Fraction(rng.randint(1, 4), 3) + b[-1]
        m = Monomial(vector(a), vector(b))
        if kind == 2 and not rational:
            (m,) = apply_automorphism(FreeDynamics(Fraction(1, 3)),
                                      algebra.Element.from_monomial(frame, m)).terms
        out[m] = None
    return list(out)


def _states(rng, frame) -> list:
    d = frame.d
    zoo = _family_zoo(rng, frame)
    bloch = Bloch(rand_kappa(rng, d), rand_normalized_fhat(rng, d, radius=1))
    zak = Zak(rand_kappa(rng, d), rand_kappa(rng, d))
    plane = PlaneWave(vector([Fraction(1, 3)] * d))
    return zoo + [
        ("bloch_radius_1", bloch),
        ("mixture_with_fock", Mixture([(0.5, Fock()), (0.5, bloch)])),
        ("mixture_supported", Mixture([(0.4, bloch), (0.3, zak), (0.3, plane)])),
    ]


@pytest.mark.parametrize("frame_name", sorted(FRAMES))
@pytest.mark.parametrize("seed", [0, 1])
def test_gram_equals_the_all_pairs_loop_bit_for_bit(frame_name, seed):
    frame = FRAMES[frame_name]
    rng = random.Random(f"gram-support:{frame_name}:{seed}")
    probes = _probes(rng, frame)
    assert len({m._key[0] for m in probes if m._key is not None}) > 1
    for name, state in _states(rng, frame):
        with patch.object(states, "monomial_product", wraps=monomial_product) as product:
            got = gram_psd_check(state, frame, probes)
        assert report_bits(got) == report_bits(reference_gram(state, frame, probes)), name
        n = len(probes)
        if type(state) is Fock:  # entries past its vanishing width are not formed
            avoided = n * n - product.call_count
            zeros = [state.monomial_value(frame, monomial_product(monomial_adjoint(mi)[1], mj)[1])
                     for mi in probes for mj in probes].count(0j)
            assert avoided <= zeros, name
            assert avoided > 0 or frame_name not in ("tau_d1", "skew_d2"), name
        elif state.support is None:
            assert product.call_count == n * n, name
        else:
            assert product.call_count < n * n, name


@pytest.mark.parametrize("frame_name", ["standard_d1", "tau_d1"])
def test_gram_with_underflowed_fock_values_equals_the_all_pairs_loop(frame_name):
    """Fock values far from the origin underflow to zero; those entries are
    left 0j with no phase, and the report is still that of the full loop."""
    frame = FRAMES[frame_name]
    probes = [Monomial(vector([Fraction(a, 3)]), vector([b])) for a in (-1, 0, 2)
              for b in (-50, -3, 0, 1, 47)]
    values = [Fock().monomial_value(frame, monomial_product(monomial_adjoint(mi)[1], mj)[1])
              for mi in probes for mj in probes]
    assert 0 < values.count(0j) < len(values)
    got = gram_psd_check(Fock(), frame, probes)
    assert report_bits(got) == report_bits(reference_gram(Fock(), frame, probes))


def test_support_is_none_only_without_a_symmetry():
    bloch = Bloch([Fraction(1, 3)], {(0,): 0.6, (2,): 0.8})
    assert Fock().support is None and states.StateModel.support is None
    assert Mixture([(0.5, Fock()), (0.5, bloch)]).support is None
    assert PlaneWave([Fraction(1, 2)]).support((0,)) and not PlaneWave([1]).support((1,))
    assert Tracial().support((0,)) and not Tracial().support((-1,))
    assert Zak([0], [0]).support((5,))
    assert [n for n in range(-4, 5) if bloch.support((n,))] == [-2, 0, 2]
    mixture = Mixture([(0.5, bloch), (0.5, Tracial())])
    assert [n for n in range(-4, 5) if mixture.support((n,))] == [-2, 0, 2]
    assert bloch.support((0, 0))  # another dimension: the closed form raises


def test_a_state_of_another_dimension_still_raises():
    bloch = Bloch([Fraction(1, 3)] * 2, {(0, 0): 0.6, (1, 0): 0.8})
    probes = [Monomial(vector([k]), vector([0])) for k in range(3)]
    with pytest.raises(DimensionMismatch):
        gram_psd_check(bloch, FRAMES["standard_d1"], probes)


# -- support soundness ----------------------------------------------------------------


def _supported_family(kind, rng, d):
    kappa = rand_kappa(rng, d)
    fhat = rand_normalized_fhat(rng, d, radius=2, npts=3)
    return {
        "plane_wave": lambda: PlaneWave(vector([Fraction(rng.randint(-9, 9), 7)] * d)),
        "bohr": lambda: BohrState(ContinuousCharacter([Fraction(1, 3)] * d)),
        "tracial": Tracial,
        "bloch": lambda: Bloch(kappa, fhat),
        "zak": lambda: Zak(kappa, rand_kappa(rng, d)),
        "mixture": lambda: Mixture([(0.5, Bloch(kappa, fhat)), (0.5, Zak(kappa, kappa))]),
    }[kind]()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["plane_wave", "bohr", "tracial", "bloch", "zak", "mixture"]),
       st.sampled_from(["standard_d1", "standard_d2", "tau_d1"]),
       st.integers(0, 10**6), st.booleans(), st.booleans())
def test_values_off_the_support_are_exactly_zero(kind, frame_name, seed, fractional, tau_b):
    """A monomial whose a is not integral, or is an integer point off the
    support, has the value 0j, on keyed monomials and on ones with tau."""
    frame = FRAMES[frame_name]
    d = frame.d
    rng = random.Random(seed)
    state = _supported_family(kind, rng, d)
    if fractional or kind in ("zak", "mixture"):  # supports with every integer point
        a = [Fraction(rng.randint(-9, 9), 6) for _ in range(d)]
        if rng.random() < 0.3:
            a[0] = TAU / 5 + a[0]
        elif all(x.denominator == 1 for x in a):
            a[0] += Fraction(1, 2)
    else:
        a = next(n for n in ([rng.randint(-5, 5) for _ in range(d)] for _ in range(1000))
                 if not state.support(tuple(n)))
    b = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(d)]
    if tau_b:
        b[-1] = TAU * b[-1] + 1
    value = state.monomial_value(frame, Monomial(vector(a), vector(b)))
    assert (value.real.hex(), value.imag.hex()) == ((0.0).hex(), (0.0).hex())


# -- keyed Zak phases -------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3])
def test_keyed_zak_phases_equal_from_dot(d):
    rng = random.Random(f"keyed-zak:{d}")
    for i in range(60):
        den = 10**6 if i % 3 == 0 else 47
        zak = Zak(tuple(Fraction(rng.randrange(den), den) for _ in range(d)),
                  tuple(Fraction(rng.randrange(59), 59) for _ in range(d)))
        a = [rng.randint(-40, 40) for _ in range(d)]
        b = [rng.randint(-40, 40) for _ in range(d)]
        keyed = algebra._ratio_monomial([(x, 1) for x in a + b])
        m = Monomial(vector(a), vector(b))
        want = PhaseAngle.from_dot(vector(zak.kappa + zak.nu), m.b + m.a, -1).to_complex()
        with patch.object(PhaseAngle, "from_dot", wraps=PhaseAngle.from_dot) as from_dot:
            got = zak.monomial_value(Frame.standard(d), keyed)
        assert not from_dot.called and keyed._a is None
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
        off = algebra._ratio_monomial([(x, 1) for x in a] + [(2 * x + 1, 2) for x in b])
        assert zak.monomial_value(Frame.standard(d), off) == 0j


# -- the Fock Gram check past the vanishing width -------------------------------------


def test_the_declared_width_over_its_safety_factor_still_underflows():
    underflow = 4 * 745.1332191019412  # exp(-w / 4) is 0.0 from here on
    assert math.exp(-underflow / 4.0) == 0.0 < math.exp(-math.nextafter(underflow, 0) / 4.0)
    assert math.exp(-(Fock.vanishing_width / 1.5) / 4.0) == 0.0
    assert StateModel.vanishing_width is None and Mixture([(1.0, Fock())]).vanishing_width is None


def _wide_probes(rng, frame, count) -> list:
    """Distinct probes whose own widths |F a|^2 + |E b|^2 lie in [2000, 8000],
    so the widths of the pairs m_i* m_j fall on both sides of the vanishing
    width: drawn coordinates scaled by a rational, on frames with tau some
    with tau in b and some free-dynamics images."""
    d = frame.d
    rational = frame is FRAMES["standard_d1"] or frame is FRAMES["standard_d2"]
    out = {}
    while len(out) < count:
        a = [Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS)) for _ in range(d)]
        b = [Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS)) for _ in range(d)]
        kind = rng.randrange(3)
        if kind == 1 and not rational:
            b[-1] += TAU * Fraction(rng.randint(1, 4), 3)
        m = Monomial(vector(a), vector(b))
        if kind == 2 and not rational:
            (m,) = apply_automorphism(FreeDynamics(Fraction(rng.randint(1, 5), 7)),
                                      algebra.Element.from_monomial(frame, m)).terms
        if not _width(frame, m):
            continue
        s = Fraction(math.sqrt(rng.uniform(2000, 8000) / _width(frame, m))).limit_denominator(97)
        m = Monomial(tuple(s * x for x in m.a), tuple(s * x for x in m.b))
        if 2000 <= _width(frame, m) <= 8000:
            out[m] = None
    return list(out)


def _width(frame, m) -> float:
    return (frame.momentum_norm_sq(m.a) + frame.position_norm_sq(m.b)).evaluate()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["standard_d1", "standard_d2", "tau_d1", "skew_d2"]),
       st.integers(0, 10**6), st.integers(2, 7))
def test_fock_gram_around_the_vanishing_width_equals_the_all_pairs_loop(frame_name, seed, count):
    frame = FRAMES[frame_name]
    probes = _wide_probes(random.Random(seed), frame, count)
    got = gram_psd_check(Fock(), frame, probes)
    assert report_bits(got) == report_bits(reference_gram(Fock(), frame, probes))


def test_a_probe_without_doubles_is_always_formed():
    """A coordinate past the float range gives its probe no ambient point,
    so its entries are formed and the value raises, as without the skip;
    probes of different dimensions get no points either."""
    frame = FRAMES["standard_d1"]
    far = Monomial(vector([0]), vector([10**400]))
    probes = [Monomial(vector([0]), vector([b])) for b in (0, 300)] + [far]
    assert [p is None for p in states._ambient_points(frame, probes)] == [False, False, True]
    with pytest.raises(WeylError):
        gram_psd_check(Fock(), frame, probes)
    mixed = [Monomial(vector([0]), vector([0])), Monomial(vector([0, 0]), vector([0, 900]))]
    assert states._ambient_points(frame, mixed) == [None, None]
    with pytest.raises(DimensionMismatch):
        gram_psd_check(Fock(), frame, mixed)


def test_gram_report_as_dict():
    probes = [Monomial(vector([a]), vector([b])) for a in (0, 1) for b in (0, 1)]
    report = gram_psd_check(Fock(), FRAMES["standard_d1"], probes)
    assert report.as_dict() == {"min_eigenvalue": report.min_eigenvalue,
                                "hermitian_residual": report.hermitian_residual,
                                "pass": True}
    assert report.min_eigenvalue == pytest.approx(0.22110721168447284, rel=1e-12)
    assert 0.0 <= report.hermitian_residual < 1e-18
