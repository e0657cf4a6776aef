import cmath
import math
import pickle
import random
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from weylccr import (
    ZERO_THRESHOLD,
    Element,
    Frame,
    FreeDynamics,
    Monomial,
    MomentumTranslation,
    PhaseAngle,
    ExactScalar,
    SpaceTranslation,
    TAU,
    TimeReversal,
    apply_automorphism,
    automorphism_action,
    ergodic_mean,
    ergodic_mean_lattice,
    ergodic_mean_zak,
    monomial_adjoint,
    monomial_product,
    numeric_box_average,
    scalar,
    symplectic,
    tracial_inner_product,
    weyl_generator,
    weyl_generator_parts,
)
from weylccr import algebra
from weylccr.errors import DimensionMismatch, FrameMismatch, NotAScalar, WeylError
from weylccr.lattice import (
    integer_vector,
    is_zero_vector,
    mat_vec,
    vadd,
    vector,
    vneg,
    vscale,
    vsub,
)
from weylccr.verify import (
    rand_complex,
    rand_coords,
    rand_element,
)

F1 = Frame.standard(1)
FTAU = Frame.from_basis([[TAU]])

# the fractions in [-12, 12] with denominator at most 12, drawn as n/q; this
# covers the same values as st.fractions(-12, 12, max_denominator=12) at a
# fraction of its generation cost
small_fractions = st.integers(1, 12).flatmap(
    lambda q: st.integers(-12 * q, 12 * q).map(lambda n: Fraction(n, q)))


def monomials(d=1):
    coords = st.tuples(*([small_fractions] * d))
    return st.tuples(coords, coords).map(
        lambda ab: Monomial(vector(ab[0]), vector(ab[1])))


class TestMonomialProduct:
    def test_unit_is_neutral(self):
        one = Monomial.identity(1)
        phase, m = monomial_product(one, one)
        assert phase.value.is_zero()
        assert m == one

    def test_v_then_u_reorders_with_phase(self):
        # v_{1/2} * u_{1/2} picks up e^{-i tau/4} = -i
        m1 = Monomial(vector([0]), vector([Fraction(1, 2)]))
        m2 = Monomial(vector([Fraction(1, 2)]), vector([0]))
        phase, m = monomial_product(m1, m2)
        assert phase.is_same_rotation(PhaseAngle(-TAU * Fraction(1, 4)))
        assert m == Monomial(vector([Fraction(1, 2)]), vector([Fraction(1, 2)]))
        assert abs(phase.to_complex() + 1j) < 1e-15

    def test_u_then_v_needs_no_phase(self):
        m1 = Monomial(vector([Fraction(1, 2)]), vector([0]))
        m2 = Monomial(vector([0]), vector([Fraction(1, 2)]))
        phase, m = monomial_product(m1, m2)
        assert phase.value.is_zero()
        assert m == Monomial(vector([Fraction(1, 2)]), vector([Fraction(1, 2)]))

    @settings(max_examples=200)
    @given(monomials(2), monomials(2), monomials(2))
    def test_associativity_exact(self, m1, m2, m3):
        ph12, m12 = monomial_product(m1, m2)
        ph_l, ml = monomial_product(m12, m3)
        ph23, m23 = monomial_product(m2, m3)
        ph_r, mr = monomial_product(m1, m23)
        assert ml == mr
        assert (ph12 + ph_l).is_same_rotation(ph23 + ph_r)


# -- keyed monomial kernels ---------------------------------------------------

# zero, small rationals, and numerators up to 10^30 over denominators up to 10^6
wide_rationals = st.one_of(
    st.just(Fraction(0)),
    small_fractions,
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**6)))


def coords(d):
    return st.one_of(st.just((Fraction(0),) * d), st.tuples(*[wide_rationals] * d))


def coord_pairs(d):
    return st.tuples(coords(d), coords(d))


tau_coords = st.builds(lambda c, k: TAU * c + k, small_fractions.filter(bool), small_fractions)


def expected_key(a, b) -> tuple:
    """(D, n) with D the lcm of the reduced denominators, from Fractions."""
    fs = [Fraction(x) for x in a + b]
    D = math.lcm(*(f.denominator for f in fs))
    return D, tuple(int(f * D) for f in fs)


def bits(z: complex) -> tuple:
    return z.real.hex(), z.imag.hex()


def assert_same_kernel_result(got, want_phase, want_a, want_b):
    """``got`` = (phase, monomial) equals the ExactScalar reference."""
    phase, m = got
    assert (phase._n, phase._d) == (want_phase._n, want_phase._d)
    assert phase == want_phase
    assert bits(phase.to_complex()) == bits(want_phase.to_complex())
    assert m.a == want_a and m.b == want_b
    want = Monomial(want_a, want_b)
    assert m == want and hash(m) == hash(want) and m._key == want._key


def reference_product(m1, m2):
    return (PhaseAngle.from_dot(m2.a, m1.b, -1),
            vadd(m1.a, m2.a), vadd(m1.b, m2.b))


def reference_adjoint(m):
    return PhaseAngle.from_dot(m.a, m.b, -1), vneg(m.a), vneg(m.b)


class TestKeyedMonomials:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.tuples(coord_pairs(d), coord_pairs(d))))
    def test_kernels_match_exact_scalar_reference(self, pairs):
        (a1, b1), (a2, b2) = pairs
        m1, m2 = Monomial(a1, b1), Monomial(a2, b2)
        assert m1._key == expected_key(a1, b1) and m2._key == expected_key(a2, b2)
        assert_same_kernel_result(monomial_product(m1, m2), *reference_product(m1, m2))
        assert_same_kernel_result(monomial_product(m2, m1), *reference_product(m2, m1))
        assert_same_kernel_result(monomial_adjoint(m1), *reference_adjoint(m1))
        _, m12 = monomial_product(m1, m2)
        D, n = m12._key
        assert math.gcd(D, *n) == 1
        assert m12._key == expected_key(
            [x + y for x, y in zip(a1, a2)], [x + y for x, y in zip(b1, b2)])
        # keyed outputs as operands: their coordinates are made on demand
        _, m1s = monomial_adjoint(m1)
        assert_same_kernel_result(monomial_product(m12, m1s),
                                  *reference_product(m12, m1s))
        assert_same_kernel_result(monomial_adjoint(m12), *reference_adjoint(m12))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.tuples(coord_pairs(d), coord_pairs(d))),
           st.integers(1, 6))
    def test_one_key_and_one_hash_whatever_the_route(self, pairs, k):
        (a, b), (c, e) = pairs
        d = len(a)
        m = Monomial(a, b)
        one = Monomial.identity(d)
        unreduced = Monomial(
            tuple(ExactScalar((x.numerator * k,), (x.denominator * k,)) for x in a),
            tuple(ExactScalar((x.numerator * k,), (x.denominator * k,)) for x in b))
        # m as the product of (a - c, b - e) and (c, e): the sum may reduce
        split = monomial_product(Monomial([x - y for x, y in zip(a, c)],
                                          [x - y for x, y in zip(b, e)]),
                                 Monomial(c, e))[1]
        routes = [
            unreduced,
            Monomial(vector(a), vector(b)),
            monomial_product(m, one)[1],
            monomial_product(one, m)[1],
            split,
            monomial_adjoint(monomial_adjoint(m)[1])[1],
            pickle.loads(pickle.dumps(m)),
            pickle.loads(pickle.dumps(split)),
            algebra._ratio_monomial([(x.numerator * k, x.denominator * k) for x in a + b]),
            algebra._ratio_monomial([(-x.numerator, -x.denominator) for x in a + b]),
        ]
        for r in routes:
            assert r == m and m == r
            assert r._key == m._key == expected_key(a, b)
            assert hash(r) == hash(m)
            assert r.a == m.a and r.b == m.b and str(r) == str(m)
        ints = tuple(x.numerator for x in a), tuple(x.numerator for x in b)
        from_ints = Monomial(*ints)
        from_fractions = Monomial(*(tuple(map(Fraction, v)) for v in ints))
        integral = monomial_product(from_fractions, one)[1]
        assert from_ints._key == from_fractions._key == integral._key == (1, ints[0] + ints[1])
        assert hash(from_ints) == hash(from_fractions) == hash(integral)
        assert from_ints == from_fractions == integral

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(
               lambda d: st.tuples(coord_pairs(d), coord_pairs(d), st.integers(0, 2 * d - 1))),
           tau_coords)
    def test_tau_monomials_keep_the_exact_path(self, drawn, t):
        (a1, b1), (a2, b2), i = drawn
        d = len(a1)
        coords1 = list(a1 + b1)
        coords1[i] = t
        mt = Monomial(coords1[:d], coords1[d:])
        mk = Monomial(a2, b2)
        assert mt._key is None and mk._key is not None
        assert hash(mt) == hash((mt.a, mt.b))
        assert mt != Monomial(a1, b1) and Monomial(a1, b1) != mt
        assert len(Element(Frame.standard(d), {mt: 1.0, Monomial(a1, b1): 1.0})) == 2
        for x, y in ((mt, mk), (mk, mt), (mt, mt)):
            assert_same_kernel_result(monomial_product(x, y), *reference_product(x, y))
        assert_same_kernel_result(monomial_adjoint(mt), *reference_adjoint(mt))
        # a coordinate whose tau part cancels is a plain rational: keyed
        cancelled = Monomial([(TAU + x) - TAU for x in a2], b2)
        assert cancelled._key == mk._key and cancelled == mk

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.tuples(coord_pairs(d), st.integers(0, d - 1))),
           tau_coords, st.integers(2, 6))
    def test_tau_monomial_has_one_hash_whatever_the_route(self, drawn, t, k):
        """A tau monomial is hashed on first use, to the same value from every
        route that builds it."""
        (a, b), i = drawn
        d = len(a)
        b = b[:i] + (t,) + b[i + 1:]
        m = Monomial(a, b)
        assert m._key is None and m._hash is None
        unreduced_t = ExactScalar(tuple(c * k for c in t.num), (k,))
        one = Monomial.identity(d)
        routes = [
            Monomial(vector(a), b[:i] + (unreduced_t,) + b[i + 1:]),
            monomial_product(m, one)[1],
            monomial_product(one, m)[1],
            monomial_adjoint(monomial_adjoint(m)[1])[1],
            pickle.loads(pickle.dumps(m)),
        ]
        h = hash(m)
        assert h == hash((m.a, m.b)) == hash(m)
        routes.append(pickle.loads(pickle.dumps(m)))  # pickled after hashing
        for r in routes:
            assert r == m and m == r
            assert hash(r) == h

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(coord_pairs(2), coord_pairs(2)), min_size=1, max_size=4),
           tau_coords)
    def test_identity_and_ergodic_means_read_the_key(self, pairs, t):
        frame = Frame.standard(2)
        terms = {}
        for (a1, b1), (a2, b2) in pairs:
            for m in (monomial_product(Monomial(a1, b1), Monomial(a2, b2))[1],
                      monomial_adjoint(Monomial(a1, b1))[1],
                      Monomial(a1, (b1[0] + t, b1[1])), Monomial(a1, b1)):
                terms[m] = 1.0
        x = Element(frame, terms, threshold=0.0)
        for m in x.terms:
            assert m.is_identity() == (is_zero_vector(m.a) and is_zero_vector(m.b))
        assert set(ergodic_mean(x).terms) == {m for m in terms if is_zero_vector(m.a)}
        assert set(ergodic_mean_lattice(x).terms) == {
            m for m in terms if integer_vector(m.a) is not None}
        assert set(ergodic_mean_zak(x).terms) == {
            m for m in terms
            if integer_vector(m.a) is not None and integer_vector(m.b) is not None}

    def test_monomials_are_immutable(self):
        m = Monomial([Fraction(1, 2)], [3])
        made = monomial_product(m, m)[1]
        tau = Monomial([TAU], [0])
        for x in (m, made, tau, Monomial.identity(2)):
            for attr in ("a", "b", "d", "extra"):
                with pytest.raises(AttributeError):
                    setattr(x, attr, (1,))
        assert made.a == (scalar(1),) and made.b == (scalar(6),)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(DimensionMismatch):
            Monomial([1], [1, 2])
        m1, m2 = Monomial([1], [Fraction(1, 2)]), Monomial([1, 0], [0, 2])
        for x, y in ((m1, m2), (m2, m1), (Monomial([TAU], [0]), m2)):
            with pytest.raises(DimensionMismatch):
                monomial_product(x, y)


# -- Element kernels against the pairwise composition -------------------------


def pairwise_product(x, y):
    """x * y term pair by term pair through ``monomial_product``."""
    out = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            phase, m = monomial_product(m1, m2)
            out[m] = out.get(m, 0j) + c1 * c2 * phase.to_complex()
    return {m: c for m, c in out.items() if abs(c) > ZERO_THRESHOLD}


def pairwise_adjoint(x):
    out = {}
    for m, c in x.terms.items():
        phase, ms = monomial_adjoint(m)
        out[ms] = out.get(ms, 0j) + c.conjugate() * phase.to_complex()
    return {m: c for m, c in out.items() if abs(c) > ZERO_THRESHOLD}


def pairwise_tracial(x, y):
    total = 0j
    for m1, c1 in x.terms.items():
        phase1, m1_star = monomial_adjoint(m1)
        for m2, c2 in y.terms.items():
            phase12, m12 = monomial_product(m1_star, m2)
            if m12.is_identity():
                total += c1.conjugate() * c2 * (phase1 + phase12).to_complex()
    return total


def assert_same_terms(got, want: dict):
    """Same monomials in the same order, every coefficient bit for bit."""
    assert [(m, m._key, m.a, m.b, bits(c)) for m, c in got.terms.items()] == [
        (m, m._key, m.a, m.b, bits(c)) for m, c in want.items()]


# few coordinates with mixed denominators, so that term pairs often meet the
# same monomial, integral ones commute and equal and opposite terms cancel
kernel_coords = st.sampled_from(
    (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(-1, 3),
     Fraction(2, 3), Fraction(5, 4), Fraction(-7, 6), Fraction(10**20 + 1, 10**6)))
kernel_coeffs = st.one_of(
    st.sampled_from((1.0, -1.0, 0.5j, -2 + 0j, ZERO_THRESHOLD, -ZERO_THRESHOLD,
                     complex(ZERO_THRESHOLD, 0.0), 1e-8, 3e14, complex(-1.0, -0.0))),
    st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False))


def kernel_elements(d, tau=False):
    """Elements over the standard frame of dimension d, kept with threshold 0
    so coefficients at ``ZERO_THRESHOLD`` reach the kernels; with ``tau`` one
    term has a tau coordinate."""
    monomial = st.tuples(st.tuples(*[kernel_coords] * d), st.tuples(*[kernel_coords] * d))
    term = st.tuples(monomial, kernel_coeffs)
    # one-term operands as often as longer ones
    terms = st.one_of(st.lists(term, min_size=1, max_size=1), st.lists(term, max_size=6))
    if tau:
        terms = st.tuples(terms, tau_coords, st.sampled_from((1.0, -0.5j))).map(
            lambda t: t[0] + [(((t[1],) + (Fraction(0),) * (d - 1), (Fraction(1),) * d),
                               t[2])])
    return terms.map(lambda ts: Element(
        Frame.standard(d), {Monomial(a, b): c for (a, b), c in ts}, threshold=0.0))


def kernel_pairs(tau=False):
    return st.integers(1, 3).flatmap(lambda d: st.tuples(
        kernel_elements(d, tau), kernel_elements(d), st.booleans()))


class TestElementKernels:
    @settings(max_examples=150, deadline=None)
    @given(kernel_pairs())
    def test_keyed_kernels_match_the_pairwise_loop(self, drawn):
        x, y, cancel = drawn
        if cancel:  # (x + y)(x - y) = x^2 - y^2 + (yx - xy): commuting pairs cancel exactly
            x, y = x + y, x - y
        assert all(m._key is not None for m in list(x.terms) + list(y.terms))
        for a, b in ((x, y), (y, x), (x, x)):
            with patch.object(algebra, "monomial_product", wraps=monomial_product) as pairwise:
                got = a * b
            assert not pairwise.called
            assert_same_terms(got, pairwise_product(a, b))
            assert bits(tracial_inner_product(a, b)) == bits(pairwise_tracial(a, b))
        for a in (x, y, x * y):
            assert_same_terms(a.adjoint(), pairwise_adjoint(a))

    @settings(max_examples=40, deadline=None)
    @given(kernel_pairs(tau=True))
    def test_an_operand_with_tau_takes_the_generic_path(self, drawn):
        x, y, _ = drawn
        assert any(m._key is None for m in x.terms)
        for a, b in ((x, y), (y, x), (x, x)):
            with patch.object(algebra, "monomial_product", wraps=monomial_product) as pairwise:
                got = a * b
            assert pairwise.call_count == len(a) * len(b)
            assert_same_terms(got, pairwise_product(a, b))
            assert bits(tracial_inner_product(a, b)) == bits(pairwise_tracial(a, b))
        assert_same_terms(x.adjoint(), pairwise_adjoint(x))

    def test_one_term_operands_match_the_pairwise_loop(self):
        x = Element(Frame.standard(2), {Monomial([Fraction(1, 2), 0], [1, Fraction(2, 3)]): 1.0,
                                        Monomial([1, 1], [0, Fraction(1, 5)]): -2j})
        y = Element(Frame.standard(2), {Monomial([Fraction(1, 3), 2], [Fraction(1, 7), 0]): 0.5})
        # -1 - 0j times 1 keeps a -0.0 imaginary part that a sum from 0j turns into 0.0
        z = Element(Frame.standard(2), {Monomial([1, 0], [0, 2]): complex(-1.0, -0.0)})
        for a, b in ((x, y), (y, x), (y, y), (x, z), (z, x), (z, z)):
            assert_same_terms(a * b, pairwise_product(a, b))

    def test_exact_cancellation_and_the_threshold(self):
        u = Element.u(F1, [1])
        v = Element.v(F1, [2])
        assert ((u + v) * (u - v)).terms.keys() == {
            Monomial([2], [0]), Monomial([0], [4])}
        tiny = Element(F1, {Monomial([Fraction(1, 2)], [0]): ZERO_THRESHOLD}, threshold=0.0)
        assert (tiny * Element.one(F1)).is_zero()
        assert tiny.adjoint().is_zero()
        assert tracial_inner_product(tiny, tiny) == ZERO_THRESHOLD ** 2


# -- automorphisms on keys against the ExactScalar actions --------------------


def reference_act(spec, frame, m):
    """The action of ``spec`` on m through Q(tau) vectors and ``from_dot``,
    the one path of every kind before keyed monomials had their own."""
    if isinstance(spec, SpaceTranslation):
        return PhaseAngle.from_dot(m.a, spec.lam, -1), m, False
    if isinstance(spec, MomentumTranslation):
        return PhaseAngle.from_dot(spec.mu, m.b), m, False
    if isinstance(spec, TimeReversal):
        return PhaseAngle.zero(), Monomial(vneg(m.a), m.b), True
    t = spec.t
    norm_sq = frame.momentum_norm_sq(m.a)
    phase = PhaseAngle(ExactScalar.rational(t.numerator, 2 * t.denominator) * norm_sq)
    shift = vscale(t, mat_vec(frame.shear, m.a))
    return phase, Monomial(m.a, vsub(m.b, shift)), False


def reference_apply(spec, x):
    out = {}
    for m, c in x.terms.items():
        phase, image, conj = reference_act(spec, x.frame, m)
        if conj:
            c = c.conjugate()
        out[image] = out.get(image, 0j) + c * phase.to_complex()
    return {m: c for m, c in out.items() if abs(c) > ZERO_THRESHOLD}


def fields(x: ExactScalar) -> tuple:
    return x._p, x._c, x._q


def assert_same_action(got, want):
    """Same angle fields, value and complex bits, same image coordinates
    field for field, same key, hash and conjugation flag."""
    (phase, image, conj), (want_phase, want_image, want_conj) = got, want
    assert (phase._n, phase._d) == (want_phase._n, want_phase._d)
    assert fields(phase.value) == fields(want_phase.value)
    assert bits(phase.to_complex()) == bits(want_phase.to_complex())
    assert image == want_image and image._key == want_image._key
    assert hash(image) == hash(want_image)
    assert [fields(x) for x in image.a + image.b] == [
        fields(x) for x in want_image.a + want_image.b]
    assert conj == want_conj


SKEW = Frame.from_basis([[2, Fraction(1, 3)], [0, Fraction(5, 7)]])
TAU2 = Frame.from_basis([[1 + TAU, Fraction(1, 3)], [0, TAU]])
#: frames by dimension: standard, rational non-identity, and with tau
ACTION_FRAMES = {1: [F1, FTAU], 2: [Frame.standard(2), SKEW, TAU2], 3: [Frame.standard(3)]}


def shifts(d):
    """Translation vectors: rational, or with one coordinate containing tau."""
    return st.one_of(coords(d), st.tuples(coords(d), tau_coords, st.integers(0, d - 1)).map(
        lambda t: t[0][:t[2]] + (t[1],) + t[0][t[2] + 1:]))


def action_cases(d):
    """A frame of dimension d, a spec of each kind and 1 to 4 coordinate pairs."""
    specs = st.tuples(shifts(d), shifts(d), wide_rationals).map(
        lambda t: (SpaceTranslation(t[0]), MomentumTranslation(t[1]), FreeDynamics(t[2]),
                   TimeReversal()))
    return st.tuples(st.sampled_from(ACTION_FRAMES[d]), specs,
                     st.lists(coord_pairs(d), min_size=1, max_size=4), st.booleans())


class TestKeyedAutomorphisms:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 3).flatmap(action_cases))
    def test_keyed_actions_match_the_exact_scalar_reference(self, drawn):
        frame, specs, pairs, from_keys = drawn
        ms = [Monomial(a, b) for a, b in pairs]
        if from_keys:  # keyed outputs: their coordinates are made on demand
            ms = [monomial_adjoint(monomial_adjoint(m)[1])[1] for m in ms]
        x = Element(frame, {m: complex(1 + i, -i) for i, m in enumerate(ms)})
        for spec in specs:
            for m in ms:
                assert_same_action(automorphism_action(spec, frame, m),
                                   reference_act(spec, frame, m))
            assert_same_terms(apply_automorphism(spec, x), reference_apply(spec, x))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(action_cases))
    def test_only_keyed_inputs_skip_the_exact_scalar_path(self, drawn):
        frame, specs, pairs, _ = drawn
        m = Monomial(*pairs[0])
        tau_m = Monomial((TAU,) + m.a[1:], m.b)
        with patch.object(PhaseAngle, "from_dot", wraps=PhaseAngle.from_dot) as from_dot, \
                patch.object(algebra, "mat_vec", wraps=mat_vec) as exact:
            for spec in specs[:2]:
                from_dot.reset_mock()
                automorphism_action(spec, frame, m)
                shift = spec.lam if isinstance(spec, SpaceTranslation) else spec.mu
                assert from_dot.called == any(not c.is_rational() for c in shift)
                from_dot.reset_mock()
                assert_same_action(automorphism_action(spec, frame, tau_m),
                                   reference_act(spec, frame, tau_m))
                assert from_dot.called
            automorphism_action(specs[2], frame, m)
            assert exact.called == (frame.shear_over_tau is None)
            exact.reset_mock()
            assert_same_action(automorphism_action(specs[2], frame, tau_m),
                               reference_act(specs[2], frame, tau_m))
            assert exact.called
            assert_same_action(automorphism_action(specs[3], frame, tau_m),
                               reference_act(specs[3], frame, tau_m))

    def test_the_dual_gram_matrix_is_cached_for_rational_bases(self):
        assert F1.shear_over_tau == (1, ((1,),))
        # E^-1 E^-T for E = [[2, 1/3], [0, 5/7]]
        assert SKEW.shear_over_tau == (450, ((137, -147), (-147, 882)))
        assert FTAU.shear_over_tau is None and TAU2.shear_over_tau is None
        assert SKEW == Frame.from_basis([[2, Fraction(1, 3)], [0, Fraction(5, 7)]])
        assert pickle.loads(pickle.dumps(SKEW)).shear_over_tau == SKEW.shear_over_tau

    def test_keyed_free_dynamics_values(self):
        # on E = I: Phi_{1/3}(u_{1/2} v_{1}) = e^{i tau^2 / 24} u_{1/2} v_{1 - tau / 6}
        m = Monomial([Fraction(1, 2)], [1])
        phase, image, _ = automorphism_action(FreeDynamics(Fraction(1, 3)), F1, m)
        assert phase.value == TAU * TAU * Fraction(1, 24)
        assert image.a == m.a and image.b == (1 - TAU * Fraction(1, 6),)
        # t = 0 and a = 0 leave the monomial as it is, with no phase
        for t, mono in ((0, m), (Fraction(2), Monomial([0], [Fraction(1, 3)]))):
            phase, image, _ = automorphism_action(FreeDynamics(t), F1, mono)
            assert phase.value.is_zero() and image is mono


class TestElementArithmetic:
    def test_unit_neutral(self):
        rng = random.Random("elem-unit")
        for _ in range(20):
            x = rand_element(rng, F1)
            assert (Element.one(F1) * x) == x
            assert (x * Element.one(F1)) == x

    def test_zero_annihilates(self):
        rng = random.Random("elem-zero")
        x = rand_element(rng, F1)
        assert (Element.zero(F1) * x).is_zero()
        assert (x * Element.zero(F1)).is_zero()

    def test_four_term_expansion(self):
        # (u + v)(u - v) with u = u_{1/2}, v = v_{1/3}, expanded by hand:
        # u_1 - u_{1/2} v_{1/3} + e^{-i tau/6} u_{1/2} v_{1/3} - v_{2/3}
        u = Element.u(F1, [Fraction(1, 2)])
        v = Element.v(F1, [Fraction(1, 3)])
        got = (u + v) * (u - v)
        cross = -1.0 + cmath.exp(-1j * 2 * math.pi / 6)
        want = Element(F1, {
            Monomial(vector([1]), vector([0])): 1.0,
            Monomial(vector([0]), vector([Fraction(2, 3)])): -1.0,
            Monomial(vector([Fraction(1, 2)]), vector([Fraction(1, 3)])): cross,
        })
        assert got.max_coeff_diff(want) < 1e-15

    def test_frame_mismatch_rejected(self):
        with pytest.raises(FrameMismatch):
            Element.one(F1) * Element.one(FTAU)

    def test_small_coefficients_dropped(self):
        x = Element(F1, {Monomial.identity(1): 1e-15})
        assert x.is_zero()
        y = Element(F1, {Monomial.identity(1): 1e-15}, threshold=0.0)
        assert not y.is_zero()

    @pytest.mark.parametrize("build", [
        (lambda x: Element(F1, {Monomial([1], [0]): float("nan")}),
         lambda x: Element(F1, {Monomial.identity(1): complex(1.0, float("inf"))},
                           threshold=0.0)),
        (lambda x: x * float("nan"), lambda x: float("nan") * x),
        (lambda x: x + float("nan"), lambda x: float("nan") + x,
         lambda x: x - float("nan"), lambda x: float("nan") - x),
        (lambda x: x * float("inf"), lambda x: complex(0.0, float("-inf")) * x),
    ], ids=["coefficient", "times_nan", "plus_nan", "times_inf"])
    def test_non_finite_numbers_are_refused(self, build):
        x = Element.u(F1, [Fraction(1, 2)]) + Element.v(F1, [1])
        for make in build:
            with pytest.raises(WeylError, match="not finite"):
                make(x)

    @pytest.mark.parametrize("build", [
        lambda x, m: x * 10**400,
        lambda x, m: 10**400 * x,
        lambda x, m: x + 10**400,
        lambda x, m: Element(F1, {m: Fraction(10**400, 3)}),
        lambda x, m: Element(F1, {m: complex(1.5e308, 1.5e308)}),
    ], ids=["times", "times_left", "plus", "coefficient", "modulus"])
    def test_numbers_past_the_float_range_are_refused(self, build):
        x = Element.u(F1, [Fraction(1, 2)])
        with pytest.raises(WeylError, match="too large"):
            build(x, Monomial([1], [0]))

    @pytest.mark.parametrize("build", [
        lambda big, tau: big * big,  # (inf+nanj) at u(0)v(0)
        lambda big, tau: tau * tau,  # the product path of monomials with tau
        lambda big, tau: big * 1e200,
        lambda big, tau: 1e200 * big,
        lambda big, tau: big * 1e108 + big * 1e108,
        lambda big, tau: big * 1e108 - big * -1e108,
        lambda big, tau: Element(F1, {Monomial([0], [0]): complex(1.2e308, 1.2e308)}) * 1.2,
        # |c| is a double, but c times the phase e^{2 pi i 3/5} rounds past the range
        lambda big, tau: apply_automorphism(MomentumTranslation([Fraction(3, 5)]), Element(
            F1, {Monomial([0], [1]): complex(-1.4543642967747879e308, 1.0566575128194929e308)})),
    ], ids=["product", "product_tau", "times", "times_left", "sum", "difference", "modulus",
            "automorphism"])
    def test_results_past_the_float_range_raise(self, build):
        """Arithmetic whose result leaves the float range raises NotAScalar,
        where it used to keep an inf coefficient or drop a NaN one."""
        big = Element(F1, {Monomial([0], [0]): 1e200, Monomial([1], [0]): 1.0})
        tau = Element(F1, {Monomial([TAU], [0]): 1e200, Monomial([0], [1]): 1.0})
        with pytest.raises(NotAScalar, match="not finite|too large"):
            build(big, tau)

    def test_scalar_operands_are_multiples_of_the_unit(self):
        rng = random.Random("elem-scalars")
        one = Element.one(F1)
        for _ in range(20):
            x = rand_element(rng, F1, 6) + Element.one(F1) * rand_complex(rng)
            pairs = [
                (x + 2, x + 2 * one),
                (2 + x, 2 * one + x),
                (x - 1j, x - 1j * one),
                (1 - x, 1 * one - x),
                (Fraction(1, 3) * x, (Fraction(1, 3) * one) * x),
            ]
            for got, want in pairs:
                assert got.frame == want.frame and dict(got.terms) == dict(want.terms)


class TestAdjoint:
    def test_unit_self_adjoint(self):
        assert Element.one(F1).adjoint() == Element.one(F1)

    def test_monomial_adjoint_value(self):
        # (u_{1/2} v_{1/2})* = e^{-i tau/4} u_{-1/2} v_{-1/2} = -i u v
        x = Element.from_monomial(
            F1, Monomial(vector([Fraction(1, 2)]), vector([Fraction(1, 2)])))
        got = x.adjoint()
        m = Monomial(vector([Fraction(-1, 2)]), vector([Fraction(-1, 2)]))
        assert set(got.terms) == {m}
        assert abs(got.coefficient(m) + 1j) < 1e-15


def phase_points(d):
    """Monomials of dimension d as phase-space points: each coordinate a small
    rational or one with tau, so keyed and tau monomials both occur."""
    part = st.tuples(*[st.one_of(small_fractions, tau_coords)] * d)
    return st.tuples(part, part).map(lambda ab: Monomial(*ab))


class TestSymplectic:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.tuples(phase_points(d), phase_points(d))))
    def test_twice_the_form_is_the_commutation_phase(self, pair):
        # w_z w_z' = e^{2 i sigma(z, z')} w_z' w_z, read off the normal-ordered products
        z, zp = pair
        sigma = symplectic(z, zp)
        ph_zzp, m_zzp = monomial_product(z, zp)
        ph_zpz, m_zpz = monomial_product(zp, z)
        assert m_zzp == m_zpz
        assert (sigma + sigma).is_same_rotation(ph_zzp - ph_zpz)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.tuples(phase_points(d), phase_points(d))))
    def test_antisymmetry(self, pair):
        z, zp = pair
        assert symplectic(z, zp).is_same_rotation(-symplectic(zp, z))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3).flatmap(phase_points))
    def test_diagonal_vanishes(self, z):
        assert symplectic(z, z).value.is_zero()

    def test_off_diagonal_value(self):
        z, zp = Monomial([1], [0]), Monomial([0], [1])
        assert symplectic(z, zp).is_same_rotation(
            # tau/2 by direct substitution into the definition
            PhaseAngle.from_dot(vector([Fraction(1, 2)]), vector([1])))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            symplectic(Monomial([1], [0]), Monomial([0, 0], [1, 0]))


class TestWeylGenerators:
    def test_zero_point_gives_unit(self):
        assert weyl_generator(F1, Monomial.identity(1)) == Element.one(F1)

    def test_adjoint_is_negated_point(self):
        rng = random.Random("weyl-adj")
        for _ in range(50):
            a, b = rand_coords(rng, 1), rand_coords(rng, 1)
            assert weyl_generator(F1, Monomial(a, b)).adjoint().max_coeff_diff(
                weyl_generator(F1, Monomial(vneg(a), vneg(b)))) < 1e-12

    def test_parts_keep_the_point(self):
        # w_z = e^{-(i/2) alpha.beta} u_alpha v_beta: -(1/2)(1/2)(1/3) of a turn
        z = Monomial([Fraction(1, 2)], [Fraction(1, 3)])
        phase, m = weyl_generator_parts(z)
        assert m == z
        assert phase.is_same_rotation(PhaseAngle.from_turns(Fraction(-1, 12)))

    def test_frame_dimension_is_checked(self):
        with pytest.raises(DimensionMismatch):
            weyl_generator(Frame.standard(2), Monomial([1], [0]))


class TestAutomorphisms:
    def test_space_translation_fixes_v(self):
        rng = random.Random("auto-v")
        for _ in range(20):
            lam = rand_coords(rng, 1)
            x = Element.v(F1, rand_coords(rng, 1))
            assert apply_automorphism(SpaceTranslation(lam), x) == x

    def test_space_translation_phase(self):
        lam = vector([Fraction(1, 2)])
        x = Element.u(F1, [Fraction(1, 2)])
        got = apply_automorphism(SpaceTranslation(lam), x)
        m = Monomial(vector([Fraction(1, 2)]), vector([0]))
        assert abs(got.coefficient(m) + 1j) < 1e-15  # e^{-i tau/4}

    def test_momentum_translation_phase(self):
        mu = vector([Fraction(1, 2)])
        x = Element.v(F1, [Fraction(1, 2)])
        got = apply_automorphism(MomentumTranslation(mu), x)
        m = Monomial(vector([0]), vector([Fraction(1, 2)]))
        assert abs(got.coefficient(m) - 1j) < 1e-15  # e^{+i tau/4}

    def test_free_dynamics_identity_frame(self):
        # with E = I the ambient alpha is tau * a, so the phase is
        # (t/2) tau^2 a^2 and the position shifts by t tau a
        t = Fraction(1)
        phase, image, conj = automorphism_action(
            FreeDynamics(t), F1, Monomial(vector([1]), vector([0])))
        assert phase.value == TAU * TAU * Fraction(1, 2)
        assert image.b == (-TAU,)
        assert not conj

    def test_free_dynamics_two_pi_frame(self):
        # with E = [tau] the ambient alpha equals a; Phi_1(u_1 v_0) shifts the
        # position coordinate by -1/tau and the phase is 1/2
        phase, image, _ = automorphism_action(
            FreeDynamics(Fraction(1)), FTAU, Monomial(vector([1]), vector([0])))
        assert phase.value == scalar(Fraction(1, 2))
        assert image.b[0] * TAU == scalar(-1)

    def test_time_reversal_antilinear(self):
        x = 1j * Element.u(F1, [1])
        got = apply_automorphism(TimeReversal(), x)
        assert abs(got.coefficient(Monomial(vector([-1]), vector([0]))) + 1j) == 0.0


class TestErgodicMeans:
    def test_closed_forms(self):
        x = Element(F1, {
            Monomial(vector([Fraction(1, 2)]), vector([1])): 1.0,
            Monomial(vector([0]), vector([1])): 2.0,
            Monomial(vector([1]), vector([Fraction(1, 2)])): 3.0,
            Monomial(vector([1]), vector([1])): 4.0,
        })
        mean = ergodic_mean(x)
        assert set(mean.terms) == {Monomial(vector([0]), vector([1]))}
        lattice = ergodic_mean_lattice(x)
        assert set(lattice.terms) == {
            Monomial(vector([0]), vector([1])),
            Monomial(vector([1]), vector([Fraction(1, 2)])),
            Monomial(vector([1]), vector([1]))}
        zak = ergodic_mean_zak(x)
        assert set(zak.terms) == {
            Monomial(vector([0]), vector([1])),
            Monomial(vector([1]), vector([1]))}

    def test_unit_fixed(self):
        one = Element.one(F1)
        for mean in (ergodic_mean, ergodic_mean_lattice, ergodic_mean_zak):
            assert mean(one) == one


class TestBoxAverage:
    def test_invariant_part_exact(self):
        x = Element(FTAU, {Monomial(vector([0]), vector([Fraction(1, 3)])): 1.5 + 2j})
        got = numeric_box_average(x, 25.0, 64)
        assert got == x

    def test_matches_midpoint_closed_form(self):
        # independent oracle: the midpoint sum of e^{-i alpha lambda} over
        # [-L, L] is a geometric series with |sum| = |sin(alpha L) / (N sin(alpha L / N))|
        x = Element(FTAU, {Monomial(vector([1]), vector([0])): 1.0})
        for L, n in ((10.0, 201), (100.0, 801)):
            got = abs(numeric_box_average(x, L, n)
                      .coefficient(Monomial(vector([1]), vector([0]))))
            want = abs(math.sin(L) / (n * math.sin(L / n)))
            assert got == pytest.approx(want, rel=1e-10)

    @staticmethod
    def _loop_average(x, L, n):
        """The n-step midpoint loop the closed form replaced, as the reference."""
        out = {}
        step = 2.0 * L / n
        for m, c in x.terms.items():
            mult = 1.0 + 0.0j
            for comp in (a.evaluate() for a in x.frame.to_ambient_momentum(m.a)):
                if comp == 0.0:
                    continue
                acc = 0.0j
                for k in range(n):
                    acc += cmath.exp(-1j * comp * (-L + (k + 0.5) * step))
                mult *= acc / n
            out[m] = c * mult
        return out

    @pytest.mark.parametrize("alpha", [1, 2])
    @pytest.mark.parametrize("L, n", [(10.0, 80), (100.0, 800), (1000.0, 8000),
                                      (10.0, 201), (100.0, 801)])
    def test_closed_form_matches_midpoint_loop(self, alpha, L, n):
        x = Element(FTAU, {Monomial(vector([alpha]), vector([0])): 1.0 - 0.5j,
                           Monomial(vector([0]), vector([Fraction(1, 3)])): 2.0})
        got = numeric_box_average(x, L, n)
        for m, want in self._loop_average(x, L, n).items():
            assert abs(got.coefficient(m) - want) <= 1e-12

    @pytest.mark.parametrize("alpha, n, L", [
        (1, 4, 4 * math.pi), (2, 4, 2 * math.pi), (1, 5, 5 * math.pi),
        (1, 3, 6 * math.pi), (-1, 4, 8 * math.pi), (3, 7, 7 * math.pi / 3)])
    def test_closed_form_where_the_quotient_is_zero_over_zero(self, alpha, n, L):
        # alpha L / n is a multiple of pi: every sample is the same sign
        m = Monomial(vector([alpha]), vector([0]))
        x = Element(FTAU, {m: 1.0})
        got = numeric_box_average(x, L, n).coefficient(m)
        want = self._loop_average(x, L, n)[m]
        assert abs(abs(got) - 1.0) <= 1e-12
        assert abs(got - want) <= 1e-12

    def test_closed_form_multiplies_over_coordinates(self):
        frame = Frame.from_basis([[TAU, 0], [0, TAU]])
        x = Element(frame, {Monomial(vector([1, 2]), vector([0, 0])): 1.0,
                            Monomial(vector([0, -1]), vector([1, 0])): 1j})
        got = numeric_box_average(x, 10.0, 80)
        for m, want in self._loop_average(x, 10.0, 80).items():
            assert abs(got.coefficient(m) - want) <= 1e-12

    def test_decay_rate(self):
        x = Element(FTAU, {Monomial(vector([1]), vector([0])): 1.0})
        mags = []
        for L in (10.0, 100.0, 1000.0):
            n = int(8 * L)
            mags.append(abs(numeric_box_average(x, L, n)
                            .coefficient(Monomial(vector([1]), vector([0])))))
            assert mags[-1] <= 2.0 / L
        assert mags[0] > mags[1] > mags[2]

    def test_preconditions(self):
        for x in (Element.one(FTAU), Element.u(FTAU, [1])):
            for L in (-1.0, 0.0, math.inf, math.nan):
                with pytest.raises(ValueError, match="box size must be positive"):
                    numeric_box_average(x, L, 10)
            for n in (1, 2.5, 64.0, math.inf, math.nan):
                with pytest.raises(ValueError, match="at least two samples"):
                    numeric_box_average(x, 1.0, n)


class TestTrace:
    def test_coefficient_extraction(self):
        m = Monomial(vector([1]), vector([1]))
        x = Element(F1, {m: 3.0})
        assert x.coefficient(m) == 3.0
        assert Element.one(F1).coefficient(Monomial.identity(1)) == 1.0
        assert x.coefficient(Monomial.identity(1)) == 0j

    def test_l2_identity(self):
        # exact on 10-term elements; t(x* x) to 1e-12 is the verify row weyl.trace_l2
        rng = random.Random("trace-l2")
        for _ in range(100):
            x = rand_element(rng, F1, 10)
            assert tracial_inner_product(x, x) == sum(
                c.conjugate() * c for c in x.terms.values())
