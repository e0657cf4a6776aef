import cmath
import copy
import math
import pickle
import random
from decimal import Decimal
from fractions import Fraction
from unittest.mock import patch

import pytest

from weylccr import (
    Bloch,
    BohrState,
    ContinuousCharacter,
    Element,
    Fock,
    FourierWindow,
    Frame,
    Mixture,
    Monomial,
    PadicCharacter,
    PhaseAngle,
    PlaneWave,
    ProductCharacter,
    SpaceTranslation,
    TAU,
    Tracial,
    Zak,
    bloch_vector_state,
    covariance_check,
    gram_psd_check,
    invariance_check,
    multiplicativity_check,
    path_sample,
    rep_rho_kappa,
    time_reversal_classify,
    weak_star_distance,
)
from weylccr import algebra, lattice
from weylccr.errors import (
    DimensionMismatch,
    FamilyMismatch,
    InvalidProbeSet,
    NotAState,
    OutOfSubalgebra,
    Unsupported,
)
from weylccr.lattice import integer_vector, vector
from weylccr.states import PATH_KINDS, PATHS, _bounded, _nan_max, bloch_monomial_value
from weylccr.verify import (
    rand_complex,
    rand_coords,
    rand_element,
    rand_lattice_monomial,
    rand_monomial,
    rand_normalized_fhat,
)

F1 = Frame.standard(1)
FTAU = Frame.from_basis([[TAU]])


def mono(a, b):
    return Monomial(vector(a), vector(b))


class TestEvaluation:
    def test_tracial(self):
        tr = Tracial()
        assert tr.monomial_value(F1, mono([1], [1])) == 0j
        assert tr.monomial_value(F1, mono([0], [0])) == 1.0

    def test_fock_two_pi_frame(self):
        # E = [tau] makes the ambient momentum equal to the coordinate, so
        # omega_F(u_1 v_0) = e^{-1/4}
        val = Fock().monomial_value(FTAU, mono([1], [0]))
        assert val == pytest.approx(0.778800783071405, abs=1e-12)

    def test_fock_phase_factor(self):
        # omega_F(u_a v_b) carries e^{(i/2) alpha.beta}
        val = Fock().monomial_value(FTAU, mono([1], [Fraction(1, 2)]))
        width = math.exp(-(1.0 + math.pi**2) / 4.0)
        assert val == pytest.approx(width * cmath.exp(0.25j * 2 * math.pi), abs=1e-12)

    def test_plane_wave(self):
        pw = PlaneWave(vector([Fraction(1, 2)]))
        assert pw.monomial_value(F1, mono([Fraction(1, 2)], [1])) == 0j
        got = pw.monomial_value(F1, mono([0], [1]))
        assert abs(got - cmath.exp(-0.5j)) < 1e-15

    def test_bohr_continuous_equals_plane_wave(self):
        rng = random.Random("bohr-pw")
        p = rand_coords(rng, 1)
        pw = PlaneWave(p)
        bs = BohrState(ContinuousCharacter(p))
        for _ in range(30):
            m = rand_monomial(rng, 1)
            assert pw.monomial_value(F1, m) == bs.monomial_value(F1, m)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("family, a, b", [
        ("bohr", Fraction(1), Fraction(1, 3)),
        ("plane_wave", Fraction(-2), Fraction(0)),
        ("bloch", Fraction(1, 2), Fraction(1)),
        ("zak", Fraction(1), Fraction(1, 3)),
    ], ids=["bohr", "plane_wave", "bloch", "zak"])
    def test_vanishing_is_read_off_the_key(self, d, family, a, b):
        """A fresh product term off the family's invariant range evaluates to
        0, and its coordinates are never built."""
        frame = Frame.standard(d)
        state = {
            "bohr": lambda: BohrState(PadicCharacter((3,) * d)),
            "plane_wave": lambda: PlaneWave(vector([Fraction(1, 2)] * d)),
            "bloch": lambda: Bloch([Fraction(1, 3)] * d, {(0,) * d: 0.6, (1,) * d: 0.8}),
            "zak": lambda: Zak([Fraction(1, 2)] * d, [Fraction(1, 3)] * d),
        }[family]()
        x = Element.u(frame, [a] * d) * Element.v(frame, [b] * d)
        (m,) = x.terms
        assert m._a is None
        assert state.monomial_value(frame, m) == 0j and state.evaluate(x) == 0j
        assert m._a is None and m._b is None

    def test_bloch_delta_is_plane_wave_at_kappa(self):
        kappa = Fraction(1, 3)
        bl = Bloch([kappa], {(0,): 1.0})
        pw = PlaneWave((TAU * kappa,))  # ambient kappa for E = I
        rng = random.Random("bloch-delta")
        for _ in range(30):
            m = rand_monomial(rng, 1)
            assert abs(bl.monomial_value(F1, m) - pw.monomial_value(F1, m)) < 1e-15

    def test_bloch_fourier_sum(self):
        inv = 1.0 / math.sqrt(2.0)
        bl = Bloch([Fraction(0)], {(0,): inv, (1,): inv})
        # a = 1: single overlap conj(f(1)) f(0) e^{0} = 1/2 at b = 0
        assert bl.monomial_value(F1, mono([1], [0])) == pytest.approx(0.5)
        got = bl.monomial_value(F1, mono([0], [Fraction(1, 2)]))
        want = 0.5 + 0.5 * cmath.exp(-1j * math.pi)
        assert got == pytest.approx(want, abs=1e-12)

    def test_bloch_inputs_built_once_give_the_same_values(self):
        """The state's prebuilt kappa and fhat give the closed form bit for
        bit."""
        rng = random.Random("bloch-prebuilt")
        for d, frame in ((1, FTAU), (2, Frame.from_basis([[TAU + 1, Fraction(1, 3)],
                                                          [0, TAU]]))):
            kappa = tuple(Fraction(rng.randint(0, 10), 11) for _ in range(d))
            fhat = rand_normalized_fhat(rng, d)
            bl = Bloch(kappa, fhat)
            probes = [rand_monomial(rng, d) for _ in range(20)]
            probes += [Monomial(vector([rng.randint(-2, 2) for _ in range(d)]),
                                vector([TAU * Fraction(1, 7)] + [Fraction(1, 3)] * (d - 1)))
                       for _ in range(10)]
            before = [bl.monomial_value(frame, m) for m in probes]
            for m, got in zip(probes, before):
                want = bloch_monomial_value(bl.kappa, dict(bl.fhat), m)
                assert (got.real, got.imag) == (want.real, want.imag)

    def test_zak_lattice_values(self):
        zk = Zak([Fraction(0)], [Fraction(0)])
        assert zk.monomial_value(F1, mono([1], [1])) == 1.0 + 0j
        assert zk.monomial_value(F1, mono([2], [-3])) == 1.0 + 0j
        assert zk.monomial_value(F1, mono([1], [Fraction(1, 2)])) == 0j
        zk = Zak([Fraction(1, 3)], [Fraction(1, 4)])
        got = zk.monomial_value(F1, mono([1], [1]))
        want = cmath.exp(-2j * math.pi * (1 / 3 + 1 / 4))
        assert abs(got - want) < 1e-15

    def test_unit_normalization_across_families(self):
        rng = random.Random("units")
        one = Element.one(F1)
        states = [PlaneWave(rand_coords(rng, 1)),
                  BohrState(PadicCharacter((5,))),
                  Bloch([Fraction(1, 4)], rand_normalized_fhat(rng, 1)),
                  Zak([Fraction(1, 3)], [Fraction(2, 3)]),
                  Fock(), Tracial(),
                  Mixture([(0.5, Fock()), (0.5, Tracial())])]
        for s in states:
            assert abs(s.evaluate(one) - 1.0) <= 1e-12

    def test_evaluation_linear(self):
        rng = random.Random("linear")
        s = Zak([Fraction(1, 5)], [Fraction(2, 5)])
        x, y = rand_element(rng, F1), rand_element(rng, F1)
        c = rand_complex(rng)
        lhs = s.evaluate(x + c * y)
        rhs = s.evaluate(x) + c * s.evaluate(y)
        assert abs(lhs - rhs) < 1e-12


class TestValidation:
    def test_bloch_requires_normalized_fhat(self):
        with pytest.raises(NotAState):
            Bloch([Fraction(0)], {(0,): 0.9})

    def test_bloch_kappa_range(self):
        with pytest.raises(NotAState):
            Bloch([Fraction(3, 2)], {(0,): 1.0})

    def test_zak_label_range(self):
        with pytest.raises(NotAState):
            Zak([Fraction(1, 2)], [Fraction(-1, 4)])

    def test_mixture_weights(self):
        with pytest.raises(NotAState):
            Mixture([(0.5, Tracial()), (0.6, Fock())])
        with pytest.raises(NotAState):
            Mixture([(-0.5, Tracial()), (1.5, Fock())])

    def test_nan_weights_and_fourier_data_are_rejected(self):
        with pytest.raises(NotAState):
            Mixture([(float("nan"), Fock())])
        with pytest.raises(NotAState):
            Mixture([(0.5, Fock()), (float("nan"), Tracial())])
        with pytest.raises(NotAState):
            Bloch([Fraction(0)], {(0,): complex("nan")})

    @pytest.mark.parametrize("build", [
        lambda: Zak([float("nan")], [0]),
        lambda: Zak([float("inf")], [0]),
        lambda: Zak([0], [float("nan")]),
        lambda: Bloch(["x"], {(0,): 1.0}),
        lambda: Bloch([0], {(0,): "x"}),
        lambda: Mixture([("a", Fock())]),
        lambda: covariance_check([float("nan")], {(0,): 1.0}, [1], [mono([0], [1])]),
        lambda: rep_rho_kappa([float("nan")], mono([0], [1]), FourierWindow((-1,), (1,))),
    ], ids=["zak_nan_kappa", "zak_inf_kappa", "zak_nan_nu", "bloch_string_kappa",
            "bloch_string_value", "mixture_string_weight", "covariance_nan_kappa",
            "rho_nan_kappa"])
    def test_malformed_labels_weights_and_values_are_not_states(self, build):
        with pytest.raises(NotAState):
            build()

    @pytest.mark.parametrize("call", [
        lambda m: bloch_monomial_value([0], {(0,): "x"}, m),
        lambda m: covariance_check([0], {(0,): "x"}, [1], [m]),
        lambda m: bloch_vector_state([0], {(0,): "x"}, m, FourierWindow((-3,), (3,))),
        lambda m: bloch_monomial_value([float("nan")], {(0,): 1.0}, m),
    ], ids=["closed_form_string_value", "covariance_string_value",
            "vector_state_string_value", "closed_form_nan_kappa"])
    def test_raw_bloch_data_is_checked_where_it_enters(self, call):
        with pytest.raises(NotAState):
            call(Monomial([0], [Fraction(1, 3)]))

    @pytest.mark.parametrize("label", ["1e1000000", "1e-1000000", Decimal("1e-1000000")],
                             ids=["huge_string", "tiny_string", "tiny_decimal"])
    def test_a_label_exponent_is_bounded_before_the_number_is_built(self, label):
        with patch.object(lattice, "Fraction", wraps=Fraction) as fraction:
            with pytest.raises(NotAState, match="exponent"):
                Bloch([label], {(0,): 1.0})
        assert not fraction.called

    @pytest.mark.parametrize("index", [0.5, float("nan"), float("inf"), "0"])
    def test_fourier_indices_are_integers(self, index):
        with pytest.raises(NotAState):
            Bloch([Fraction(0)], {(index,): 1.0})

    @pytest.mark.parametrize("state", [
        PlaneWave(vector([Fraction(1, 3), 0])),
        Zak([Fraction(1, 3), 0], [0, 0]),
        Bloch([Fraction(1, 3), 0], {(0, 0): 1.0}),
    ], ids=lambda s: type(s).__name__)
    def test_state_of_another_dimension_is_rejected(self, state):
        with pytest.raises(DimensionMismatch):
            state.evaluate(Element.v(F1, [1]))


def _round_trips(value):
    return (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value))


class TestCopying:
    STATES = [PlaneWave(vector([Fraction(1, 2), TAU])),
              BohrState(ProductCharacter((PadicCharacter((3,)),
                                          ContinuousCharacter((TAU * Fraction(1, 3),))))),
              Bloch([Fraction(1, 3), 0], {(0, 0): 0.6, (1, -1): 0.8j}),
              Zak([Fraction(1, 2)], [Fraction(1, 3)]),
              Fock(), Tracial()]

    @pytest.mark.parametrize("state", STATES, ids=lambda s: type(s).__name__)
    def test_value_families_round_trip_equal_with_equal_hash(self, state):
        for back in _round_trips(state):
            assert type(back) is type(state)
            assert back == state
            assert hash(back) == hash(state)

    def test_bloch_hash_is_that_of_its_labels(self):
        s = Bloch([Fraction(1, 3)], {(2,): 0.8, (0,): -0.6})
        assert s.fhat == (((0,), -0.6 + 0j), ((2,), 0.8 + 0j))
        assert hash(s) == hash((s.kappa, s.fhat))
        back = pickle.loads(pickle.dumps(s))
        assert hash(back) == hash((s.kappa, s.fhat))
        probe = Monomial(vector([2]), vector([Fraction(1, 5)]))
        assert back.monomial_value(F1, probe) == s.monomial_value(F1, probe)

    def test_mixture_round_trips_with_identity_equality(self):
        rng = random.Random("mixture-copy")
        zak = Zak([Fraction(1, 2), 0], [Fraction(1, 3), 0])  # the dimension of the Bloch state
        mix = Mixture([(0.25, self.STATES[2]), (0.75, zak)])
        F2 = Frame.standard(2)
        samples = [rand_element(rng, F2, 3) + Element(F2, {rand_lattice_monomial(rng, 2): 1.0})
                   for _ in range(10)]
        for back in _round_trips(mix):
            assert type(back) is Mixture
            assert back.components == mix.components
            assert back != mix and hash(back) != hash(mix)
            assert [back.evaluate(x) for x in samples] == [mix.evaluate(x) for x in samples]
        assert mix == mix and Mixture(mix.components) != mix

    @pytest.mark.parametrize("state", STATES[2:3] + [Mixture([(1.0, Fock())])],
                             ids=lambda s: type(s).__name__)
    def test_states_stay_immutable(self, state):
        with pytest.raises(AttributeError):
            state.kappa = (Fraction(0),)
        with pytest.raises(AttributeError):
            state.components = ()


class TestGram:
    def test_tracial_gram_is_identity(self):
        # off-diagonal products never hit the identity monomial, by hand
        probes = [mono([0], [0]), mono([1], [0]), mono([0], [Fraction(1, 2)]),
                  mono([Fraction(1, 2)], [Fraction(1, 3)])]
        rep = gram_psd_check(Tracial(), F1, probes)
        assert rep.min_eigenvalue == pytest.approx(1.0, abs=1e-12)
        assert rep.hermitian_residual == 0.0
        assert rep.passed

    def test_single_probe_plane_wave(self):
        rep = gram_psd_check(PlaneWave(vector([0])), F1, [mono([0], [0])])
        assert rep.min_eigenvalue == pytest.approx(1.0)

    def test_duplicate_probes_rejected(self):
        with pytest.raises(InvalidProbeSet):
            gram_psd_check(Tracial(), F1, [mono([0], [0]), mono([0], [0])])


class TestInvariance:
    def test_bloch_under_lattice_translations(self):
        # invariance under lattice translations is the verify row
        # states.bloch_lattice_invariance; non-lattice translations break it:
        # omega(u(a)) sums conj(fhat(n + a)) fhat(n) over support pairs at
        # distance a, and for three support points the largest a with 3 not
        # dividing it is the distance of one pair only, so omega(u(a)) != 0 and
        # a translation by 1/3 turns it by the phase of a/3 turns
        s = Bloch([Fraction(2, 7)], rand_normalized_fhat(random.Random("inv-bloch"), 1))
        support = [n for (n,), _ in s.fhat]
        a = max(q - p for p in support for q in support if (q - p) % 3)
        probe = Element.from_monomial(F1, mono([a], [0]))
        rep = invariance_check(s, SpaceTranslation(vector([Fraction(1, 3)])),
                               [probe], tol=1e-12)
        assert not rep.passed


class TestMultiplicativity:
    def test_noncommuting_probes_rejected(self):
        with pytest.raises(InvalidProbeSet):
            multiplicativity_check(Tracial(), F1,
                                   [mono([Fraction(1, 2)], [0]),
                                    mono([0], [Fraction(1, 2)])])


class TestTimeReversal:
    def test_plane_wave(self):
        assert time_reversal_classify(PlaneWave(vector([0, 0]))).is_tri
        assert not time_reversal_classify(PlaneWave(vector([Fraction(1, 7), 0]))).is_tri
        assert not time_reversal_classify(PlaneWave((TAU,))).is_tri

    def test_zak_criterion(self):
        assert time_reversal_classify(Zak([Fraction(1, 2)], [Fraction(1, 3)])).is_tri
        assert time_reversal_classify(Zak([Fraction(0), Fraction(1, 2)],
                                          [Fraction(1, 5), Fraction(3, 4)])).is_tri
        assert not time_reversal_classify(Zak([Fraction(1, 3)], [Fraction(0)])).is_tri

    def test_bohr_characters(self):
        assert time_reversal_classify(BohrState(ContinuousCharacter(vector([0])))).is_tri
        assert not time_reversal_classify(BohrState(PadicCharacter((3,)))).is_tri

    def test_bloch_symmetric_cases(self):
        assert time_reversal_classify(Bloch([Fraction(0)], {(0,): 1.0})).is_tri
        inv = 1.0 / math.sqrt(2.0)
        assert time_reversal_classify(
            Bloch([Fraction(1, 2)], {(-1,): inv, (0,): inv})).is_tri
        # unit global phase is allowed
        assert time_reversal_classify(
            Bloch([Fraction(0)], {(-1,): 0.6j, (0,): math.sqrt(0.28) * 1j,
                                  (1,): 0.6j})).is_tri

    def test_bloch_negative_cases(self):
        assert not time_reversal_classify(
            Bloch([Fraction(1, 3)], {(0,): 1.0})).is_tri
        assert not time_reversal_classify(
            Bloch([Fraction(1, 2)], {(-1,): 0.6, (0,): 0.8j})).is_tri

    def test_unsupported_families(self):
        for s in (Fock(), Tracial(), Mixture([(1.0, Fock())])):
            with pytest.raises(Unsupported):
                time_reversal_classify(s)


class TestCovariance:
    def test_a_fractional_shift_is_out_of_the_subalgebra(self):
        with pytest.raises(OutOfSubalgebra):
            covariance_check([Fraction(1, 3)], {(0,): 1.0}, [0.5], [mono([0], [1])])

    @pytest.mark.parametrize("fhat", [{(0.5,): 0.6, (1.5,): 0.8}, {(0, 0): 1.0}],
                             ids=["fractional", "wrong_dimension"])
    def test_raw_fourier_indices_are_checked(self, fhat):
        probes = [mono([1], [Fraction(1, 2)])]
        with pytest.raises(NotAState):
            covariance_check([0], fhat, [1], probes)
        with pytest.raises(NotAState):
            covariance_check([0], fhat, [1], [])
        with pytest.raises(NotAState):
            bloch_monomial_value((0,), fhat, probes[0])

    @pytest.mark.parametrize("gamma", [[1, 7], []], ids=["longer", "empty"])
    def test_a_shift_of_another_dimension_is_refused(self, gamma):
        fhat = {(0,): 0.6, (1,): 0.8}
        for probes in ([mono([0], [Fraction(1, 2)])], []):
            with pytest.raises(DimensionMismatch):
                covariance_check([Fraction(1, 3)], fhat, gamma, probes)

    def test_delta_case_by_hand(self):
        # fhat = delta_0, gamma' = 1: both sides give e^{-i(kappa+1) beta} on v_b
        kappa = Fraction(1, 3)
        fhat = {(0,): 1.0}
        for b in (Fraction(1, 2), Fraction(2, 3), Fraction(-5, 4)):
            m = mono([0], [b])
            lhs = bloch_monomial_value((kappa + 1,), fhat, m)
            want = PhaseAngle(-TAU * (kappa + 1) * b).to_complex()
            assert abs(lhs - want) < 1e-15
            rhs = bloch_monomial_value((kappa,), {(1,): 1.0}, m)
            assert abs(lhs - rhs) < 1e-15


def reference_bloch(kappa, fhat, m):
    """The Bloch closed form with every phase through ``from_dot``."""
    a_int = integer_vector(m.a)
    if a_int is None:
        return 0j
    kappa = vector(kappa)
    total = 0j
    for n, fn in fhat.items():
        gn = fhat.get(tuple(ni + ai for ni, ai in zip(n, a_int)))
        if gn is not None:
            angle = PhaseAngle.from_dot(tuple(k + ni for k, ni in zip(kappa, n)), m.b, -1)
            total += gn.conjugate() * fn * angle.to_complex()
    return total


def bits(z: complex) -> tuple:
    return z.real.hex(), z.imag.hex()


class TestKeyedBloch:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_keyed_phases_are_bit_identical_to_from_dot(self, d):
        # kappa is not range-reduced: negative, past 1, denominators up to 10^6
        rng = random.Random(f"keyed-bloch:{d}")
        for i in range(40):
            den = 10**6 if i % 2 else 12
            kappa = tuple(Fraction(rng.randint(-3 * den, 3 * den), rng.randint(1, den))
                          for _ in range(d))
            fhat = rand_normalized_fhat(rng, d, radius=1, npts=min(3 ** d, 4))
            a = [rng.randint(-1, 1) for _ in range(d)]
            b = [Fraction(rng.randint(-den, den), rng.randint(1, den)) for _ in range(d)]
            m = Monomial(vector(a), vector(b))
            keyed = algebra._ratio_monomial(
                [(x, 1) for x in a] + [(x.numerator, x.denominator) for x in b])
            want = reference_bloch(kappa, fhat, m)
            with patch.object(PhaseAngle, "from_dot", wraps=PhaseAngle.from_dot) as from_dot:
                assert bits(bloch_monomial_value(kappa, fhat, m)) == bits(want)
                assert bits(bloch_monomial_value(kappa, fhat, keyed)) == bits(want)
                assert keyed._a is None  # its coordinates were never built
            assert not from_dot.called

    def test_a_monomial_with_tau_takes_from_dot(self):
        kappa, fhat = (Fraction(-7, 3), Fraction(5, 4)), {(0, 0): 0.6, (1, 0): 0.8j}
        for a in ([0, 0], [1, 0], [-1, 0]):
            m = Monomial(vector(a), vector([TAU / 3 + Fraction(1, 5), Fraction(2, 7)]))
            with patch.object(PhaseAngle, "from_dot", wraps=PhaseAngle.from_dot) as from_dot:
                got = bloch_monomial_value(kappa, fhat, m)
            assert from_dot.called
            assert bits(got) == bits(reference_bloch(kappa, fhat, m))


class TestWeakStar:
    def test_self_distance_zero(self):
        rng = random.Random("ws-self")
        s = Fock()
        probes = [rand_element(rng, F1, 4) for _ in range(5)]
        assert weak_star_distance(s, s, probes) == 0.0

    def test_half_turn_gap(self):
        # p . beta = pi on the probe gives |e^{-i pi} - 1| = 2
        s1 = PlaneWave((TAU * Fraction(1, 2),))
        s2 = PlaneWave(vector([0]))
        assert weak_star_distance(s1, s2, [Element.v(F1, [1])]) == pytest.approx(2.0)

    @pytest.mark.parametrize("nan_at", [0, 1])
    def test_nan_gap_is_kept_in_any_probe_order(self, nan_at):
        probes = [Element.v(F1, [Fraction(1, 2)]), Element.v(F1, [Fraction(1, 3)])]

        class Broken(Tracial):
            def evaluate(self, x):
                return complex("nan") if x == probes[nan_at] else super().evaluate(x)
        assert math.isnan(weak_star_distance(Broken(), Tracial(), probes))


class TestBounded:
    def test_worst_value_and_last_probe_win(self):
        rep = _bounded("x", [(0.5, "a"), (1.0, "b"), (1.0, "c"), (0.0, "d")], 1.0)
        assert rep.passed and rep.worst_value == 1.0 and rep.worst_probe == "c"

    def test_nan_fails_and_names_its_probe(self):
        rep = _bounded("x", [(float("nan"), "p")], 1e-12)
        assert not rep.passed and math.isnan(rep.worst_value) and rep.worst_probe == "p"

    @pytest.mark.parametrize("pairs", [
        [(0.0, "a"), (float("nan"), "p"), (2.0, "b")],
        [(2.0, "b"), (float("nan"), "p"), (0.0, "a")],
        [(float("inf"), "b"), (float("nan"), "p")],
    ])
    def test_nan_outranks_every_number_in_a_mixed_list(self, pairs):
        rep = _bounded("x", pairs, float("inf"))
        assert not rep.passed and math.isnan(rep.worst_value) and rep.worst_probe == "p"

    @pytest.mark.parametrize("values", [
        [0.0, float("nan")], [float("nan"), 0.0], [1.0, float("nan"), 2.0]])
    def test_nan_max_keeps_a_nan_in_any_place(self, values):
        assert math.isnan(_nan_max(values))

    def test_nan_max_of_numbers(self):
        assert _nan_max([0.5, 2.0, 1.0]) == 2.0 and _nan_max(iter([])) == 0.0

    def test_nan_fails_a_check(self):
        class Broken(Tracial):
            def evaluate(self, x):
                return complex("nan+0j")
        samples = [Element.v(F1, [Fraction(1, 2)])]
        rep = invariance_check(Broken(), SpaceTranslation(vector([1])), samples)
        assert not rep.passed and math.isnan(rep.worst_value)
        assert rep.worst_probe == str(samples[0])


class TestPaths:
    def test_endpoints_returned_identically(self):
        p = PlaneWave(vector([Fraction(3, 2)]))
        q = PlaneWave(vector([0]))
        path = path_sample("plane_wave_line", (p, q),
                           [Fraction(0), Fraction(1, 2), Fraction(1)])
        assert path[0] is p and path[-1] is q
        assert path[1].p == (TAU * 0 + Fraction(3, 4),)

    def test_plane_wave_line_reaches_zero(self):
        p = PlaneWave(vector([Fraction(5, 4)]))
        path = path_sample("plane_wave_line", (p, PlaneWave(vector([0]))),
                           [Fraction(k, 10) for k in range(11)])
        assert all(c.is_zero() for c in path[-1].p)

    def test_zak_line_interpolates_labels(self):
        s0 = Zak([Fraction(0)], [Fraction(0)])
        s1 = Zak([Fraction(1, 2)], [Fraction(3, 4)])
        path = path_sample("zak_line", (s0, s1), [Fraction(1, 2)])
        assert path[0].kappa == (Fraction(1, 4),)
        assert path[0].nu == (Fraction(3, 8),)

    def test_bloch_slerp_stays_normalized(self):
        rng = random.Random("slerp")
        s0 = Bloch([Fraction(0)], rand_normalized_fhat(rng, 1))
        s1 = Bloch([Fraction(1, 2)], rand_normalized_fhat(rng, 1))
        path = path_sample("bloch_slerp", (s0, s1),
                           [Fraction(k, 8) for k in range(9)])
        for s in path:
            norm = sum(abs(v) ** 2 for _, v in s.fhat)
            assert norm == pytest.approx(1.0, abs=1e-12)

    def test_bloch_slerp_parallel_endpoints_constant(self):
        fhat = {(0,): 0.6, (1,): 0.8}
        s0 = Bloch([Fraction(0)], fhat)
        s1 = Bloch([Fraction(0)], {k: 1j * v for k, v in fhat.items()})
        path = path_sample("bloch_slerp", (s0, s1), [Fraction(1, 3)])
        probes = [Element.from_monomial(F1, mono([1], [Fraction(1, 5)]))]
        assert weak_star_distance(path[0], s0, probes) < 1e-12

    def test_family_mismatch(self):
        with pytest.raises(FamilyMismatch):
            path_sample("plane_wave_line", (PlaneWave(vector([0])), Fock()),
                        [Fraction(0)])

    ENDPOINTS = {
        "plane_wave_line": (PlaneWave(vector([Fraction(1, 2)])), PlaneWave(vector([TAU]))),
        "bloch_slerp": (Bloch([0], {(0,): 1.0}), Bloch([Fraction(1, 2)], {(1,): 1j})),
        "zak_line": (Zak([0], [Fraction(1, 3)]), Zak([Fraction(3, 4)], [0])),
    }

    @pytest.mark.parametrize("grid", [[0, Fraction(1, 2), 1], [0, 1], []],
                             ids=["inner", "endpoints", "empty"])
    @pytest.mark.parametrize("kind", PATH_KINDS)
    def test_endpoints_of_two_dimensions_are_refused_whatever_the_grid(self, kind, grid):
        s0, _ = self.ENDPOINTS[kind]
        wide = {"plane_wave_line": PlaneWave([0, 0]), "zak_line": Zak([0, 0], [0, 0]),
                "bloch_slerp": Bloch([0, 0], {(0, 0): 1.0})}[kind]
        for endpoints in ((s0, wide), (wide, s0)):
            with pytest.raises(DimensionMismatch):
                path_sample(kind, endpoints, grid)

    def test_path_table_names_every_kind_once(self):
        assert PATH_KINDS == tuple(PATHS) == ("plane_wave_line", "bloch_slerp", "zak_line")
        assert set(self.ENDPOINTS) == set(PATHS)

    @pytest.mark.parametrize("kind", PATH_KINDS)
    def test_every_kind_shares_the_grid_family_and_endpoint_rules(self, kind):
        family, _ = PATHS[kind]
        s0, s1 = self.ENDPOINTS[kind]
        path = path_sample(kind, (s0, s1), [0, Fraction(1, 3), 1, 0])
        assert path[0] is s0 and path[2] is s1 and path[3] is s0
        assert type(path[1]) is family and path[1] != s0 and path[1] != s1
        for other in PATH_KINDS:
            if other != kind:
                with pytest.raises(FamilyMismatch):
                    path_sample(kind, (s0, self.ENDPOINTS[other][1]), [Fraction(1, 2)])
        with pytest.raises(ValueError):
            path_sample(kind, (s0, s1), [Fraction(3, 2)])
        with pytest.raises(ValueError):
            path_sample(kind + "_bogus", (s0, s1), [0])
