import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from weylccr import (
    Frame,
    TAU,
    decompose,
    dual_frame,
    enumerate_trs_fixed_points,
    pairing,
    scalar,
)
from weylccr.errors import (
    DimensionMismatch,
    NotDecomposable,
    SingularFrame,
)
from weylccr.lattice import (
    _unit_cell,
    integer_vector,
    mat_identity,
    mat_mul,
    mat_scale,
    mat_transpose,
    mat_vec,
    matrix,
    vdot,
    vector,
)
from weylccr.scalars import ExactScalar
from weylccr.verify import rand_coords, rand_fraction


class TestDualFrame:
    def test_identity_frame(self):
        f = Frame.standard(1)
        assert f.F == ((TAU,),)

    def test_two_pi_spacing(self):
        f = Frame.from_basis([[TAU]])
        assert f.F == ((scalar(1),),)

    def test_diag_1_2(self):
        # oracle: E^-1 = diag(1, 1/2) by hand, so F = tau (E^-1)^T
        f = Frame.from_basis([[1, 0], [0, 2]])
        assert f.F == matrix([[TAU, 0], [0, TAU * Fraction(1, 2)]])

    def test_duality_relation_exact(self):
        rng = random.Random("dual-frames")
        for _ in range(10):
            d = rng.randint(1, 3)
            rows = [[rand_fraction(rng, max_num=3, max_den=3) for _ in range(d)]
                    for _ in range(d)]
            try:
                f = Frame.from_basis(rows)
            except SingularFrame:
                continue
            lhs = mat_mul(mat_transpose(f.F), f.E)
            assert lhs == mat_scale(TAU, mat_identity(d))

    def test_double_dual_returns_basis(self):
        # F = tau (E^-1)^T, so dual_frame(F) = tau (F^-1)^T = E exactly
        rng = random.Random("double-dual")
        for _ in range(10):
            d = rng.randint(1, 3)
            rows = [[rand_fraction(rng, max_num=3, max_den=3) for _ in range(d)]
                    for _ in range(d)]
            try:
                f = Frame.from_basis(rows)
            except SingularFrame:
                continue
            assert dual_frame(f.F) == f.E

    def test_singular_matrix_rejected(self):
        with pytest.raises(SingularFrame):
            dual_frame(matrix([[1, 1], [1, 1]]))

    @pytest.mark.parametrize("rows", [[], [[1, 0]], [[1], [0, 1]]])
    def test_empty_and_non_square_matrices_rejected(self, rows):
        with pytest.raises(DimensionMismatch):
            Frame.from_basis(rows)


class TestPairing:
    def test_unit_pair_is_full_turn(self):
        assert pairing(vector([1]), vector([1])).is_same_rotation(
            pairing(vector([0]), vector([0])))
        assert pairing(vector([1]), vector([1])).to_complex() == 1.0 + 0j

    def test_half_half_gives_quarter_turn(self):
        angle = pairing(vector([Fraction(1, 2)]), vector([Fraction(1, 2)]))
        assert angle.value == TAU * Fraction(1, 4)
        assert abs(angle.to_complex() - 1j) < 1e-15

    def test_zero_momentum(self):
        rng = random.Random("pairing-zero")
        b = rand_coords(rng, 3)
        assert pairing(vector([0, 0, 0]), b).value.is_zero()

    def test_numeric_matches_two_pi_dot(self):
        # the canonical angle equals 2 pi (a . b) up to whole turns, so the
        # comparison is made mod 2 pi and on the unit circle
        rng = random.Random("pairing-numeric")
        for _ in range(200):
            d = rng.randint(1, 3)
            a, b = rand_coords(rng, d), rand_coords(rng, d)
            dot = sum((x.as_fraction() * y.as_fraction() for x, y in zip(a, b)),
                      Fraction(0))
            angle = pairing(a, b)
            turns = angle.value.evaluate() / (2.0 * math.pi) - float(dot)
            assert turns == pytest.approx(round(turns), abs=1e-12)
            want = cmath.exp(2j * math.pi * float(dot))
            assert abs(angle.to_complex() - want) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pairing(vector([1]), vector([1, 2]))


class TestCellDecomposition:
    def test_spec_values(self):
        dec = decompose(vector([Fraction(7, 3)]))
        assert dec.fractional == (Fraction(1, 3),)
        assert dec.integral == (2,)
        dec = decompose(vector([0]))
        assert dec.fractional == (Fraction(0),) and dec.integral == (0,)
        dec = decompose(vector([Fraction(-1, 4)]))
        assert dec.fractional == (Fraction(3, 4),) and dec.integral == (-1,)

    def test_momentum_decomposition(self):
        dec = decompose(vector([Fraction(3, 2)]))
        assert dec.fractional == (Fraction(1, 2),) and dec.integral == (1,)
        dec = decompose(vector([Fraction(-1, 2)]))
        assert dec.fractional == (Fraction(1, 2),) and dec.integral == (-1,)

    def test_reassembly_for_random_rationals(self):
        rng = random.Random("cells")
        for _ in range(1000):
            x = rand_fraction(rng, max_num=50, max_den=12)
            dec = decompose(vector([x]))
            frac = dec.fractional[0]
            assert 0 <= frac < 1
            assert frac + dec.integral[0] == x

    def test_tau_dependent_coordinate_rejected(self):
        with pytest.raises(NotDecomposable):
            decompose((TAU,))
        with pytest.raises(NotDecomposable):
            decompose(vector([Fraction(1, 2), TAU + 1]))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 60), st.lists(st.integers(-200, 200), min_size=1, max_size=4))
    def test_unit_cell_of_any_key(self, D, n):
        """Reduced or not, the key (D, n) gives the canonical key of x - floor(x)
        and the ints floor(x), x = n / D, which ``decompose`` reads too."""
        (Dr, r), ints = _unit_cell(D, tuple(n))
        x = [Fraction(v, D) for v in n]
        assert ints == tuple(math.floor(v) for v in x)
        assert all(type(v) is int for v in ints + r)
        assert [Fraction(v, Dr) for v in r] == [v - math.floor(v) for v in x]
        assert all(0 <= v < Dr for v in r) and math.gcd(Dr, *r) == 1
        dec = decompose(vector(x))
        assert dec.fractional == tuple(Fraction(v, Dr) for v in r) and dec.integral == ints


class TestIntegerVector:
    def test_ints_and_zeros(self):
        assert integer_vector(vector([3, 0, -7, 10**40])) == (3, 0, -7, 10**40)
        assert integer_vector(vector([Fraction(6, 3), 0])) == (2, 0)
        assert integer_vector(()) == ()
        assert all(type(v) is int for v in integer_vector(vector([0, -1])))

    def test_non_integral_rationals(self):
        assert integer_vector(vector([1, Fraction(1, 2)])) is None
        assert integer_vector(vector([Fraction(-7, 3)])) is None

    def test_tau_and_rational_function_entries(self):
        assert integer_vector((TAU,)) is None
        assert integer_vector(vector([1, TAU * 2 + 1])) is None
        assert integer_vector(vector([(TAU + 1) / (TAU + 2), 0])) is None
        assert integer_vector(vector([2 / (TAU + 1)])) is None

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.just(0), st.integers(-10, 10), st.integers(-2**200, 2**200),
        st.fractions(-10, 10, max_denominator=12),
        st.tuples(st.integers(-3, 3), st.integers(-3, 3).filter(bool)).map(
            lambda t: t[0] + TAU * t[1])), max_size=5))
    def test_matches_a_fraction_reference(self, entries):
        """ints exactly when every entry is an integral int or Fraction; an
        entry c + t tau (an ExactScalar here) is never integral."""
        xs = tuple(scalar(e) for e in entries)
        want = None
        if all(isinstance(e, (int, Fraction)) and Fraction(e).denominator == 1
               for e in entries):
            want = tuple(int(e) for e in entries)
        got = integer_vector(xs)
        assert got == want
        assert got is None or all(type(v) is int for v in got)


small = st.integers(-4, 4)
# c0 + c1 tau, tau with a nonzero coefficient, over a denominator in 1..3
tau_linear = st.tuples(small, small.filter(bool), st.integers(1, 3)).map(
    lambda t: ExactScalar((Fraction(t[0], t[2]), Fraction(t[1], t[2]))))
frame_entries = st.one_of(small.map(scalar), tau_linear)
# a rational, a polynomial or a rational function of tau
qtau = st.one_of(
    st.fractions(-6, 6, max_denominator=5).map(scalar),
    tau_linear,
    st.tuples(tau_linear, tau_linear).map(lambda t: t[0] / t[1]),
    st.tuples(small, tau_linear).map(lambda t: t[0] / (t[1] * t[1])))


@st.composite
def tau_frames_and_vectors(draw):
    """A frame with at least one tau entry (d = 1..3) and two Q(tau) vectors."""
    d = draw(st.integers(1, 3))
    rows = [list(draw(st.lists(frame_entries, min_size=d, max_size=d))) for _ in range(d)]
    i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
    rows[i][j] = draw(tau_linear)
    try:
        frame = Frame.from_basis(rows)
    except SingularFrame:
        assume(False)
    vec = st.lists(qtau, min_size=d, max_size=d).map(tuple)
    return frame, draw(vec), draw(vec)


def fields(x):
    return x._p, x._c, x._q


class TestFrameNorms:
    @settings(max_examples=30, deadline=None)
    @given(tau_frames_and_vectors())
    def test_ambient_norms_equal_gram_forms(self, drawn):
        """|E b|^2 and |F a|^2 are b . (E^T E) b and a . (F^T F) a, field for
        field, on frames with tau entries and Q(tau) coordinates."""
        frame, a, b = drawn
        E, F = frame.E, frame.F
        pos = vdot(b, mat_vec(mat_mul(mat_transpose(E), E), b))
        mom = vdot(a, mat_vec(mat_mul(mat_transpose(F), F), a))
        assert fields(frame.position_norm_sq(b)) == fields(pos)
        assert fields(frame.momentum_norm_sq(a)) == fields(mom)

    def test_norms_reject_mismatched_dimensions(self):
        frame = Frame.from_basis([[TAU, 0], [1, TAU]])
        with pytest.raises(DimensionMismatch):
            frame.position_norm_sq(vector([1]))
        with pytest.raises(DimensionMismatch):
            frame.momentum_norm_sq(vector([1, 2, 3]))


class TestDualLattice:
    def test_membership(self):
        assert integer_vector(vector([2, -3])) is not None
        assert integer_vector(vector([Fraction(1, 2), 0])) is None
        assert integer_vector((TAU / TAU, scalar(1))) is not None


class TestReflectionFixedPoints:
    def test_d1(self):
        pts = enumerate_trs_fixed_points(Frame.standard(1))
        assert set(pts) == {(Fraction(0),), (Fraction(1, 2),)}

    def test_d2_cardinality(self):
        pts = enumerate_trs_fixed_points(Frame.standard(2))
        assert len(pts) == 4
        assert len(set(pts)) == 4
        assert set(pts) == {
            (Fraction(0), Fraction(0)),
            (Fraction(1, 2), Fraction(0)),
            (Fraction(0), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(1, 2)),
        }

    def test_fixed_under_negation_mod_one(self):
        for d in (1, 2, 3):
            pts = enumerate_trs_fixed_points(Frame.standard(d))
            assert len(pts) == 2**d
            for kappa in pts:
                assert all((-k) % 1 == k for k in kappa)
                assert all((2 * k).denominator == 1 for k in kappa)
