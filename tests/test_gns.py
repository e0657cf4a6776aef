import cmath
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest

from weylccr import (
    FourierWindow,
    Frame,
    Monomial,
    PhaseAngle,
    PlaneWave,
    TAU,
    bloch_vector_state,
    op_F,
    op_S,
    plane_wave_vector_state,
    rep_rho_kappa,
    weyl_relation_residual,
)
from weylccr.errors import (
    DimensionMismatch,
    NotAState,
    OutOfSubalgebra,
    WindowTooSmall,
)
from weylccr.lattice import vector
from weylccr.states import bloch_monomial_value
from weylccr.verify import (
    rand_coords,
    rand_fraction,
    rand_monomial,
    rand_normalized_fhat,
)

F1 = Frame.standard(1)
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def mono(a, b):
    return Monomial(vector(a), vector(b))


class TestWindow:
    def test_lexicographic_enumeration(self):
        w = FourierWindow((-1, 0), (0, 1))
        assert w.points == ((-1, 0), (-1, 1), (0, 0), (0, 1))
        assert w.index[(0, 1)] == 3

    def test_empty_window_rejected(self):
        with pytest.raises(WindowTooSmall):
            FourierWindow((1,), (0,))

    @pytest.mark.parametrize("call", [
        lambda w: FourierWindow((-2.7,), (2.9,)),
        lambda w: op_F((0.5,), w),
        lambda w: weyl_relation_residual((0.5,), [Fraction(1, 3)], w),
    ], ids=["FourierWindow", "op_F", "weyl_relation_residual"])
    def test_a_fractional_bound_or_shift_is_out_of_the_subalgebra(self, call):
        with pytest.raises(OutOfSubalgebra):
            call(FourierWindow((-3,), (3,)))


class TestOperators:
    def test_s_zero_is_identity(self):
        w = FourierWindow((-2,), (2,))
        assert np.array_equal(op_S([0], w), np.eye(5))

    def test_s_half_diagonal(self):
        w = FourierWindow((-1,), (1,))
        got = np.diag(op_S([Fraction(1, 2)], w))
        assert got == pytest.approx([-1.0, 1.0, -1.0], abs=1e-15)

    def test_s_additivity_exact_angles(self):
        w = FourierWindow((-3,), (3,))
        rng = random.Random("op-s")
        for _ in range(20):
            b1, b2 = rand_fraction(rng), rand_fraction(rng)
            lhs = op_S([b1], w) @ op_S([b2], w)
            rhs = op_S([b1 + b2], w)
            assert np.max(np.abs(lhs - rhs)) < 1e-14

    def test_s_entries_are_exact_angle_conversions(self):
        # each entry is bit-identical to the PhaseAngle conversion of
        # -tau (n . b), for rational b and for b containing tau
        w = FourierWindow((-3, -2), (3, 2))
        rng = random.Random("op-s-entries")
        for b in ([rand_fraction(rng), rand_fraction(rng)],
                  [Fraction(7, 12), -3],
                  [TAU / 3 + Fraction(1, 5), 1 / (TAU + 1)]):
            b = vector(b)
            got = np.diag(op_S(b, w))
            for i, n in enumerate(w.points):
                dot = n[0] * b[0] + n[1] * b[1]
                assert got[i] == PhaseAngle(-(TAU * dot)).to_complex()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_keyed_shift_is_bit_identical_to_from_dot(self, d):
        # a rational b takes its turns on ints and never builds an angle; a
        # b with tau takes from_dot, one call per window point
        rng = random.Random(f"op-s-keyed:{d}")
        w = FourierWindow((-3,) * d, (3,) * d)
        with_tau = vector([TAU / 3 + Fraction(1, 5)] + [Fraction(2, 7)] * (d - 1))
        for i in range(12):
            den = 10**6 if i % 2 else 12
            rational = vector([Fraction(rng.randint(-den, den), rng.randint(1, den))
                               for _ in range(d)])
            for b, keyed in ((rational, True), (with_tau, False)):
                want = np.array([PhaseAngle.from_dot(vector(n), b, -1).to_complex()
                                 for n in w.points])
                with patch.object(PhaseAngle, "from_dot", wraps=PhaseAngle.from_dot) as from_dot:
                    got = op_S(b, w)
                assert from_dot.call_count == (0 if keyed else len(w))
                assert np.diag(got).tobytes() == want.tobytes()
                assert np.array_equal(got, np.diag(want))
                gp = tuple(rng.randint(-2, 2) for _ in range(d))
                m = Monomial(vector(gp), b)
                kappa = (Fraction(rng.randint(0, 11), 12),) * d
                phase = PhaseAngle.from_dot(vector(kappa), b, -1).to_complex()
                # kept out of the assert, which would hold on to the temporary
                # and so change numpy's rounding (see TestDiagonalScaling)
                rho = phase * (op_F(gp, w) * want)
                assert rep_rho_kappa(kappa, m, w).tobytes() == rho.tobytes()

    def test_s_unitary(self):
        w = FourierWindow((-3,), (3,))
        s = op_S([Fraction(2, 7)], w)
        assert np.max(np.abs(s @ s.conj().T - np.eye(7))) < 1e-15

    def test_f_zero_is_identity(self):
        w = FourierWindow((-2,), (2,))
        assert np.array_equal(op_F((0,), w), np.eye(5))

    def test_f_boundary_truncation(self):
        w = FourierWindow((0,), (1,))
        f = op_F((1,), w)
        assert f[1, 0] == 1.0 and np.sum(np.abs(f)) == 1.0

    def test_f_partial_isometry(self):
        w = FourierWindow((-3,), (3,))
        f = op_F((2,), w)
        proj = f.conj().T @ f
        assert np.max(np.abs(proj @ proj - proj)) == 0.0


class TestWeylRelation:
    def test_zero_shift(self):
        w = FourierWindow((-4,), (4,))
        assert weyl_relation_residual((0,), [Fraction(1, 3)], w) == 0.0

    def test_interior_residual_tiny(self):
        w = FourierWindow((-4,), (4,))
        assert weyl_relation_residual((1,), [Fraction(1, 3)], w) <= 1e-12

    def test_boundary_truncation_artifact(self):
        # the commutation relation itself survives truncation (both sides
        # share the zeroed boundary columns), but shift composition does not:
        # F_1 F_{-1} loses the lowest basis vector
        w = FourierWindow((-2,), (2,))
        gp, b = (1,), [Fraction(1, 3)]
        f = op_F(gp, w)
        s = op_S(b, w)
        phase = PhaseAngle(TAU * Fraction(1, 3)).to_complex()
        full = np.max(np.abs(f @ s - phase * (s @ f)))
        assert full < 1e-12
        composed = op_F((1,), w) @ op_F((-1,), w)
        assert np.max(np.abs(composed - np.eye(5))) == 1.0


class TestRho:
    def test_identity_monomial(self):
        w = FourierWindow((-2,), (2,))
        got = rep_rho_kappa([Fraction(1, 3)], mono([0], [0]), w)
        assert np.array_equal(got, np.eye(5))

    def test_lattice_v_is_scalar_exactly(self):
        w = FourierWindow((-3,), (3,))
        rng = random.Random("rho-scalar")
        for _ in range(20):
            kappa = Fraction(rng.randint(0, 11), 12)
            gamma = rng.randint(-4, 4)
            got = rep_rho_kappa([kappa], mono([0], [gamma]), w)
            phase = PhaseAngle.from_turns(-kappa * gamma).to_complex()
            assert np.array_equal(got, phase * np.eye(7))
            assert abs(phase - cmath.exp(-2j * math.pi * float(kappa * gamma))) < 1e-12

    def test_weyl_relation_through_rho(self):
        w = FourierWindow((-5,), (5,))
        kappa = [Fraction(1, 4)]
        u = rep_rho_kappa(kappa, mono([1], [0]), w)
        b = Fraction(1, 3)
        v = rep_rho_kappa(kappa, mono([0], [b]), w)
        phase = PhaseAngle(TAU * b).to_complex()  # e^{i gamma'.beta}
        interior = [j for j, pt in enumerate(w.points) if -5 <= pt[0] + 1 <= 5 - 1]
        lhs = (u @ v)[:, interior]
        rhs = (phase * (v @ u))[:, interior]
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_non_integral_momentum_rejected(self):
        w = FourierWindow((-2,), (2,))
        with pytest.raises(OutOfSubalgebra):
            rep_rho_kappa([Fraction(0)], mono([Fraction(1, 2)], [0]), w)


class TestDiagonalScaling:
    def test_scaled_shift_products_equal_dense_products(self):
        # rep_rho_kappa and weyl_relation_residual scale the columns (or the
        # rows) of F by the diagonal of S; the results must equal those of
        # the dense products F S and S F entry for entry
        rng = random.Random("gns-diagonal")
        for d in (1, 2):
            w = FourierWindow((-6,) * d, (6,) * d)
            with_tau = vector([TAU / 3 + Fraction(1, 5)] + [Fraction(2, 7)] * (d - 1))
            for b in (rand_coords(rng, d), with_tau):
                gp = tuple(rng.randint(-2, 2) for _ in range(d))
                kappa = tuple(Fraction(rng.randint(0, 11), 12) for _ in range(d))
                f = op_F(gp, w)
                s = op_S(b, w)
                assert np.array_equal(f * s.diagonal(), f @ s)
                assert np.array_equal(s.diagonal()[:, None] * f, s @ f)
                phase = PhaseAngle.from_dot(vector(kappa), b, -1).to_complex()
                # numpy can round a complex scalar times a large temporary
                # array differently in the last bit from the same product
                # with a named array, so the reference keeps the library's
                # form (scalar times a temporary) and stays out of the assert
                want = phase * (f @ s)
                got = rep_rho_kappa(kappa, Monomial(vector(gp), b), w)
                assert np.array_equal(got, want)
                phase = PhaseAngle.from_dot(vector(gp), b).to_complex()
                interior = [j for j, pt in enumerate(w.points)
                            if tuple(c + g for c, g in zip(pt, gp)) in w.index]
                dense = np.abs(f @ s - phase * (s @ f))[:, interior]
                want = float(np.max(dense)) if interior else 0.0
                assert weyl_relation_residual(gp, b, w) == want


class TestBlochReconstruction:
    def test_matches_closed_form(self):
        rng = random.Random("gns-oracle")
        for d in (1, 2):
            window = FourierWindow((-6,) * d, (6,) * d)
            for _ in range(15):
                kappa = tuple(Fraction(rng.randint(0, 11), 12) for _ in range(d))
                fhat = rand_normalized_fhat(rng, d, radius=2)
                for _ in range(3):
                    m = Monomial(
                        vector([rng.randint(-3, 3) for _ in range(d)]),
                        rand_coords(rng, d))
                    lhs = bloch_vector_state(kappa, fhat, m, window)
                    rhs = bloch_monomial_value(kappa, fhat, m)
                    assert abs(lhs - rhs) <= 1e-10

    def test_delta_reproduces_plane_wave(self):
        window = FourierWindow((-4,), (4,))
        kappa = (Fraction(1, 3),)
        for gamma in (-2, 0, 1):
            for b in (Fraction(0), Fraction(1, 2), Fraction(-2, 3)):
                got = bloch_vector_state(kappa, {(0,): 1.0}, mono([gamma], [b]),
                                         window)
                want = (PhaseAngle(-TAU * kappa[0] * b).to_complex()
                        if gamma == 0 else 0j)
                assert abs(got - want) < 1e-12

    def test_normalization_at_identity(self):
        rng = random.Random("gns-norm")
        window = FourierWindow((-4,), (4,))
        fhat = rand_normalized_fhat(rng, 1)
        val = bloch_vector_state((Fraction(1, 5),), fhat, mono([0], [0]), window)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_window_stability(self):
        rng = random.Random("gns-stab")
        fhat = rand_normalized_fhat(rng, 1, radius=1)
        m = mono([1], [Fraction(2, 5)])
        kappa = (Fraction(3, 7),)
        small = bloch_vector_state(kappa, fhat, m, FourierWindow((-3,), (3,)))
        large = bloch_vector_state(kappa, fhat, m, FourierWindow((-9,), (9,)))
        assert small == pytest.approx(large, abs=1e-14)

    def test_margin_enforced(self):
        window = FourierWindow((-3,), (3,))
        fhat = {(2,): 1.0}
        with pytest.raises(WindowTooSmall):
            bloch_vector_state((Fraction(0),), fhat, mono([2], [0]), window)

    def test_normalization_enforced(self):
        window = FourierWindow((-3,), (3,))
        with pytest.raises(NotAState):
            bloch_vector_state((Fraction(0),), {(0,): 0.5}, mono([0], [0]), window)
        with pytest.raises(NotAState):
            bloch_vector_state((Fraction(0),), {(0.5,): 1.0}, mono([0], [0]), window)


class TestPlaneWaveVectorState:
    def test_closed_form(self):
        p = vector([Fraction(1, 2)])
        pts = [p, vector([Fraction(3, 4)]), vector([1])]
        got = plane_wave_vector_state(p, mono([0], [Fraction(1, 3)]), pts)
        want = PhaseAngle(-TAU * Fraction(1, 6)).to_complex()
        assert abs(got - want) < 1e-15

    def test_vanishing_off_diagonal(self):
        p = vector([Fraction(1, 2)])
        pts = [p, vector([Fraction(3, 4)])]
        got = plane_wave_vector_state(p, mono([Fraction(1, 4)], [0]), pts)
        assert got == 0j

    def test_identity(self):
        p = vector([Fraction(2, 3)])
        assert plane_wave_vector_state(p, mono([0], [0]), [p]) == 1.0 + 0j

    def test_missing_points_rejected(self):
        p = vector([Fraction(1, 2)])
        with pytest.raises(WindowTooSmall):
            plane_wave_vector_state(p, mono([1], [0]), [p])
        with pytest.raises(WindowTooSmall):
            plane_wave_vector_state(p, mono([0], [0]), [vector([0])])

    @pytest.mark.parametrize("p, m, pts", [
        ([0, 0], mono([0], [0]), [[0, 0]]),
        ([0], mono([0], [0]), [[0, 0]]),
        ([0], mono([0, 0], [0, 0]), [[0]]),
        ([0], mono([0], [0]), [[0], [0, 1]]),
    ], ids=["base_point", "momentum_set", "monomial", "one_momentum"])
    def test_dimensions_must_agree(self, p, m, pts):
        with pytest.raises(DimensionMismatch):
            plane_wave_vector_state(p, m, pts)

    def test_matches_state_family(self):
        rng = random.Random("pwvs")
        for _ in range(20):
            d = rng.randint(1, 2)
            frame = Frame.standard(d)
            p = rand_coords(rng, d)
            m = rand_monomial(rng, d)
            pts = [p, vector([pi + ai for pi, ai in zip(p, m.a)])]
            pts = list({q: q for q in pts}.values())
            got = plane_wave_vector_state(p, m, pts)
            state = PlaneWave(frame.to_ambient_momentum(p))
            assert got == state.monomial_value(frame, m)


class TestOracleOnTheSupport:
    """The oracle applies S_b and F_a to f's support; the dense matrix route
    it replaced stays here as its reference."""

    @staticmethod
    def dense(kappa, fhat, m, window):
        vec = np.zeros(len(window), dtype=complex)
        for n, val in fhat.items():
            vec[window.index[n]] = val
        return complex(np.vdot(vec, rep_rho_kappa(kappa, m, window) @ vec))

    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_the_dense_matrix_route(self, d):
        rng = random.Random(f"gns-sparse:{d}")
        cases = set()
        for radius in range(3, 10):
            window = FourierWindow((-radius,) * d, (radius,) * d)
            for _ in range(6):
                kappa = tuple(Fraction(rng.randint(0, 58), 59) for _ in range(d))
                fhat = rand_normalized_fhat(rng, d, radius=1)
                for with_tau in (False, True):
                    b = list(rand_coords(rng, d))
                    if with_tau:
                        b[0] = TAU * b[0] / 3 + 1
                    a = [rng.randint(-2, 2) for _ in range(d)] if rng.random() < 0.6 else [0] * d
                    m = mono(a, b)
                    got = bloch_vector_state(kappa, fhat, m, window)
                    assert abs(got - self.dense(kappa, fhat, m, window)) <= 4.5e-16
                    cases.add((with_tau, any(a)))
        assert len(cases) == 4

    @pytest.mark.parametrize("with_tau", [False, True])
    def test_forms_one_diagonal_entry_per_support_point(self, with_tau):
        from weylccr import gns

        rng = random.Random("gns-sparse-count")
        window = FourierWindow((-6, -6), (6, 6))
        for _ in range(10):
            fhat = rand_normalized_fhat(rng, 2, radius=2)
            b = list(rand_coords(rng, 2))
            if with_tau:
                b[1] = TAU * b[1] + Fraction(1, 3)
            m = mono([rng.randint(-2, 2), 0], b)
            formed = []

            def diagonal(*args, inner=gns._shift_diagonal):
                entries = inner(*args)
                formed.append(len(entries))
                return entries

            with patch.object(gns, "_shift_diagonal", diagonal):
                bloch_vector_state((Fraction(1, 5), Fraction(2, 7)), fhat, m, window)
            assert formed == [len(fhat)]

    def test_bad_input_still_raises(self):
        window = FourierWindow((-3,), (3,))
        with pytest.raises(WindowTooSmall):
            bloch_vector_state((Fraction(0),), {(1,): 1.0}, mono([3], [0]), window)
        with pytest.raises(NotAState):
            bloch_vector_state((Fraction(0),), {(0,): 0.6}, mono([0], [0]), window)
        with pytest.raises(NotAState):
            bloch_vector_state((Fraction(0),), {(0,): float("nan")}, mono([0], [0]), window)
        with pytest.raises(OutOfSubalgebra):
            bloch_vector_state((Fraction(0),), {(0,): 1.0}, mono([Fraction(1, 2)], [0]), window)
        with pytest.raises(DimensionMismatch):
            bloch_vector_state((Fraction(0),), {(0,): 1.0}, mono([0, 0], [0, 0]), window)

    def test_loads_no_numpy(self):
        script = (
            "import sys\n"
            "from fractions import Fraction\n"
            "from weylccr import FourierWindow, Monomial, TAU, bloch_vector_state\n"
            "from weylccr.lattice import vector\n"
            "m = Monomial(vector([1, 0]), vector([Fraction(1, 3), TAU]))\n"
            "f = {(0, 0): 0.6, (1, 0): 0.8j}\n"
            "w = FourierWindow((-4, -4), (4, 4))\n"
            "print(bloch_vector_state((Fraction(1, 2), 0), f, m, w) != 0)\n"
            "print('numpy' in sys.modules)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.stdout == "True\nFalse\n", proc.stderr
