"""Acceptance battery: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
Tolerances are pinned here and nowhere else.
"""

import cmath
import math
from fractions import Fraction

import numpy as np

from weylccr import (
    Bloch,
    BohrState,
    Element,
    Fock,
    FourierWindow,
    Frame,
    FreeDynamics,
    Mixture,
    Monomial,
    MomentumTranslation,
    PadicCharacter,
    PhaseAngle,
    PhasePoint,
    PlaneWave,
    SpaceTranslation,
    TAU,
    TimeReversal,
    Tracial,
    Zak,
    apply_automorphism,
    bloch_vector_state,
    covariance_check,
    enumerate_trs_fixed_points,
    ergodic_mean,
    ergodic_mean_lattice,
    ergodic_mean_zak,
    evaluate,
    gram_psd_check,
    invariance_check,
    monomial_adjoint,
    monomial_product,
    multiplicativity_check,
    numeric_box_average,
    padic_fraction,
    path_sample,
    rep_rho_kappa,
    symplectic,
    time_reversal_classify,
    tracial_inner_product,
    weak_star_distance,
    weyl_generator_parts,
)
from weylccr.lattice import in_dual_lattice, integer_vector, is_zero_vector, vector
from weylccr.states import bloch_monomial_value
from weylccr.verify import (
    draw_distinct,
    rand_complex,
    rand_coords,
    rand_element,
    rand_lattice_monomial,
    rand_monomial,
    rand_normalized_fhat,
)
from conftest import seeded

F1 = Frame.standard(1)
F2 = Frame.standard(2)
FTAU = Frame.from_basis([[TAU]])


def report(number, description, ok, detail=""):
    flag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{flag}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description} {suffix}"


def mono(a, b):
    return Monomial(vector(a), vector(b))


def test_criterion_01_weyl_laws():
    rng = seeded("acceptance-1")
    exact_failures = 0
    for i in range(1000):
        d = 1 + i % 3
        m1, m2, m3 = (rand_monomial(rng, d) for _ in range(3))
        ph12, m12 = monomial_product(m1, m2)
        ph_l, ml = monomial_product(m12, m3)
        ph23, m23 = monomial_product(m2, m3)
        ph_r, mr = monomial_product(m1, m23)
        if ml != mr or not (ph12 + ph_l).is_same_rotation(ph23 + ph_r):
            exact_failures += 1
        adj_ph, adj_m = monomial_adjoint(m12)
        a2, s2 = monomial_adjoint(m2)
        a1, s1 = monomial_adjoint(m1)
        pr, m_star = monomial_product(s2, s1)
        if adj_m != m_star or not (adj_ph - ph12).is_same_rotation(a2 + a1 + pr):
            exact_failures += 1
    coeff_worst = 0.0
    for _ in range(100):
        x, y = rand_element(rng, F1, 4), rand_element(rng, F1, 4)
        coeff_worst = max(coeff_worst, (x * y).adjoint().max_coeff_diff(
            y.adjoint() * x.adjoint()))
        coeff_worst = max(coeff_worst, x.adjoint().adjoint().max_coeff_diff(x))
    report(1, "Weyl laws: associativity and *-law over 1000 random triples",
           exact_failures == 0 and coeff_worst <= 1e-12,
           f"exact failures {exact_failures}, coefficient residual {coeff_worst:.3g}")


def test_criterion_02_symplectic_presentation():
    rng = seeded("acceptance-2")
    failures = 0
    for i in range(500):
        d = 1 + i % 3
        frame = Frame.standard(d)
        z = PhasePoint(frame, rand_coords(rng, d), rand_coords(rng, d))
        zp = PhasePoint(frame, rand_coords(rng, d), rand_coords(rng, d))
        ph_z, m_z = weyl_generator_parts(z)
        ph_zp, m_zp = weyl_generator_parts(zp)
        ph_prod, m_prod = monomial_product(m_z, m_zp)
        ph_sum, m_sum = weyl_generator_parts(z + zp)
        if m_prod != m_sum or not (ph_z + ph_zp + ph_prod).is_same_rotation(
                symplectic(z, zp) + ph_sum):
            failures += 1
    report(2, "symplectic presentation w_z w_z' = e^{i sigma} w_{z+z'} on 500 pairs",
           failures == 0, f"exact failures {failures}")


def test_criterion_03_tracial_l2_identity():
    rng = seeded("acceptance-3")
    tracial = Tracial()
    worst = 0.0
    for _ in range(200):
        x = rand_element(rng, F1, 10)
        got = tracial.evaluate(x.adjoint() * x)
        want = sum(abs(c) ** 2 for c in x.terms.values())
        worst = max(worst, abs(got - want))
    exact_failures = 0
    for _ in range(100):
        m1, m2 = rand_monomial(rng, 1), rand_monomial(rng, 1)
        if m1 == m2:
            continue
        lam, lamp = rand_complex(rng), rand_complex(rng)
        x = Element(F1, {m1: lam, m2: -lamp}, threshold=0.0)
        if tracial_inner_product(x, x) != (lam.conjugate() * lam
                                           + lamp.conjugate() * lamp):
            exact_failures += 1
    report(3, "tracial l2 identity within 1e-12; two-monomial bound exact",
           worst <= 1e-12 and exact_failures == 0,
           f"worst {worst:.3g}, exact failures {exact_failures}")


def test_criterion_04_ergodic_means():
    rng = seeded("acceptance-4")
    closed_ok = True
    for _ in range(200):
        m = rng.choice([rand_monomial(rng, 1), rand_lattice_monomial(rng, 1)])
        x = Element.from_monomial(F1, m, rand_complex(rng))
        zero = Element.zero(F1)
        closed_ok &= ergodic_mean(x) == (x if is_zero_vector(m.a) else zero)
        closed_ok &= ergodic_mean_lattice(x) == (x if in_dual_lattice(m.a) else zero)
        closed_ok &= ergodic_mean_zak(x) == (
            x if integer_vector(m.a) is not None
            and integer_vector(m.b) is not None else zero)

    x = Element(FTAU, {
        mono([0], [Fraction(1, 3)]): 1.5 + 0.5j,
        mono([1], [0]): 1.0,
        mono([2], [Fraction(1, 2)]): 1.0,
    })
    sizes = (10.0, 100.0, 1000.0)
    mags = {1: [], 2: []}
    zero_dev = 0.0
    for L in sizes:
        avg = numeric_box_average(x, L, int(8 * L))
        for m, c in x.terms.items():
            alpha = int(m.a[0].as_fraction())
            if alpha == 0:
                zero_dev = max(zero_dev, abs(avg.coefficient(m) - c))
            else:
                mags[alpha].append(abs(avg.coefficient(m)))
    bound_ok = all(mag <= 2.0 / (L * alpha)
                   for alpha, ms in mags.items() for mag, L in zip(ms, sizes))
    slopes = []
    for alpha, ms in mags.items():
        xs = [math.log10(L) for L in sizes]
        ys = [math.log10(v) for v in ms]
        n = len(xs)
        slopes.append((n * sum(a * b for a, b in zip(xs, ys)) - sum(xs) * sum(ys))
                      / (n * sum(a * a for a in xs) - sum(xs) ** 2))
    slope_ok = all(-1.2 <= s <= -0.8 for s in slopes)
    report(4, "ergodic means: closed forms exact, box average decays like 1/L",
           closed_ok and zero_dev == 0.0 and bound_ok and slope_ok,
           f"slopes {[f'{s:.3f}' for s in slopes]}, zero-mode dev {zero_dev:.3g}")


def test_criterion_05_invariance():
    rng = seeded("acceptance-5")
    samples = [rand_element(rng, F1, 5) for _ in range(100)]
    exact_worst = 0.0
    for state in (PlaneWave(rand_coords(rng, 1)), BohrState(PadicCharacter((3,)))):
        for spec in (SpaceTranslation(rand_coords(rng, 1)),
                     FreeDynamics(Fraction(rng.randint(-12, 12),
                                           rng.randint(1, 12)))):
            rep = invariance_check(state, spec, samples, tol=0.0)
            exact_worst = max(exact_worst, rep.worst_value)

    bloch = Bloch([Fraction(2, 7)], rand_normalized_fhat(rng, 1))
    rep_b = invariance_check(bloch, SpaceTranslation(vector([3])), samples,
                             tol=1e-12)
    zak = Zak([Fraction(1, 3)], [Fraction(3, 4)])
    rep_z = invariance_check(
        zak, (SpaceTranslation(vector([-2])), MomentumTranslation(vector([1]))),
        samples, tol=1e-12)

    probe = Element.from_monomial(FTAU, mono([1], [0]))
    rep_f = invariance_check(Fock(), FreeDynamics(Fraction(1)), [probe], tol=1e-10)
    fock_gap = abs(rep_f.worst_value - abs(math.exp(-0.5) - math.exp(-0.25)))

    ok = (exact_worst == 0.0 and rep_b.passed and rep_z.passed
          and not rep_f.passed and fock_gap <= 1e-6)
    report(5, "invariance: exact for plane-wave/character states, 1e-12 for "
              "Bloch and Zak, Fock breaks free dynamics by 0.1723",
           ok, f"exact worst {exact_worst:.3g}, Fock deviation "
               f"{rep_f.worst_value:.6f}")


def test_criterion_06_positivity():
    rng = seeded("acceptance-6")
    families = [
        PlaneWave(rand_coords(rng, 1)),
        BohrState(PadicCharacter((3,))),
        Bloch([Fraction(5, 12)], rand_normalized_fhat(rng, 1)),
        Zak([Fraction(1, 6)], [Fraction(5, 6)]),
        Fock(),
        Tracial(),
    ]
    families.append(Mixture([(0.5, families[0]), (0.25, families[3]),
                             (0.25, Tracial())]))
    worst_eig = 0.0
    worst_herm = 0.0
    for state in families:
        probes = draw_distinct(20, lambda: (rand_lattice_monomial(rng, 1)
                                            if rng.random() < 0.5 else rand_monomial(rng, 1)))
        rep = gram_psd_check(state, F1, probes, tol=1e-10)
        worst_eig = min(worst_eig, rep.min_eigenvalue)
        worst_herm = max(worst_herm, rep.hermitian_residual)
    ok = worst_eig >= -1e-10 and worst_herm <= 1e-12
    report(6, "positivity: Gram matrices PSD for all families and a mixture",
           ok, f"min eigenvalue {worst_eig:.3g}, hermitian residual {worst_herm:.3g}")


def test_criterion_07_gns_oracle_equivalence():
    rng = seeded("acceptance-7")
    worst = 0.0
    for d in (1, 2):
        window = FourierWindow((-6,) * d, (6,) * d)
        for _ in range(25):
            kappa = tuple(Fraction(rng.randint(0, 11), 12) for _ in range(d))
            fhat = rand_normalized_fhat(rng, d, radius=2)
            m = Monomial(vector([rng.randint(-3, 3) for _ in range(d)]),
                         rand_coords(rng, d))
            got = bloch_vector_state(kappa, fhat, m, window)
            want = bloch_monomial_value(kappa, fhat, m)
            worst = max(worst, abs(got - want))
    scalar_failures = 0
    window = FourierWindow((-4,), (4,))
    for _ in range(20):
        kappa = Fraction(rng.randint(0, 11), 12)
        gamma = rng.randint(-4, 4)
        got = rep_rho_kappa([kappa], mono([0], [gamma]), window).matrix
        phase = PhaseAngle.from_turns(-kappa * gamma).to_complex()
        if not np.array_equal(got, phase * np.eye(len(window))):
            scalar_failures += 1
    report(7, "GNS reconstruction matches closed form within 1e-10; "
              "rho(v_gamma) is an exact scalar",
           worst <= 1e-10 and scalar_failures == 0,
           f"worst reconstruction gap {worst:.3g}")


def test_criterion_08_covariance():
    rng = seeded("acceptance-8")
    worst = 0.0
    for _ in range(20):
        kappa = (Fraction(rng.randint(0, 11), 12),)
        fhat = rand_normalized_fhat(rng, 1, radius=1)
        gp = [rng.randint(-2, 2)]
        probes = [rand_monomial(rng, 1) if rng.random() < 0.3
                  else rand_lattice_monomial(rng, 1) for _ in range(30)]
        rep = covariance_check(kappa, fhat, gp, probes, tol=1e-12)
        worst = max(worst, rep.worst_value)
    report(8, "covariance: kappa shift equals Fourier-data shift within 1e-12",
           worst <= 1e-12, f"worst {worst:.3g}")


def test_criterion_09_time_reversal():
    rng = seeded("acceptance-9")
    pw_ok = time_reversal_classify(PlaneWave(vector([0]))).is_tri
    for _ in range(20):
        p = rand_coords(rng, 1, nonzero=True)
        if rng.random() < 0.3:
            p = tuple(TAU * c for c in p)
        pw_ok &= not time_reversal_classify(PlaneWave(p)).is_tri

    fixed = enumerate_trs_fixed_points(F2)
    zak_ok = len(fixed) == 4
    for kappa in fixed:
        nu = tuple(Fraction(rng.randint(0, 11), 12) for _ in range(2))
        zak_ok &= time_reversal_classify(Zak(kappa, nu)).is_tri
    for _ in range(20):
        kappa = tuple(Fraction(rng.randint(0, 11), 12) for _ in range(2))
        if all(k in (Fraction(0), Fraction(1, 2)) for k in kappa):
            kappa = (Fraction(1, 3), kappa[1])
        zak_ok &= not time_reversal_classify(
            Zak(kappa, tuple(Fraction(rng.randint(0, 11), 12)
                             for _ in range(2)))).is_tri

    inv = 1.0 / math.sqrt(2.0)
    bloch_states = [Bloch([Fraction(0)], {(0,): 1.0}),
                    Bloch([Fraction(1, 2)], {(-1,): inv, (0,): inv}),
                    Bloch([Fraction(0)], {(-1,): 0.6, (0,): math.sqrt(0.28),
                                          (1,): 0.6}),
                    Bloch([Fraction(1, 4)], {(0,): 1.0})]
    for _ in range(6):
        bloch_states.append(Bloch([Fraction(rng.randint(0, 11), 12)],
                                  rand_normalized_fhat(rng, 1)))
    probes = [Element.from_monomial(
        F1, Monomial(vector([rng.randint(-2, 2)]), rand_coords(rng, 1)),
        rand_complex(rng)) for _ in range(50)]
    c = TimeReversal()
    bloch_ok = True
    for s in bloch_states:
        dev = max(abs(evaluate(s, apply_automorphism(c, x))
                      - evaluate(s, x).conjugate()) for x in probes)
        bloch_ok &= (dev <= 1e-10) == time_reversal_classify(s).is_tri

    report(9, "time reversal: plane wave iff p = 0, Zak iff kappa in {0, 1/2}^d, "
              "Bloch criterion matches the functional definition",
           pw_ok and zak_ok and bloch_ok,
           f"pw {pw_ok}, zak {zak_ok}, bloch {bloch_ok}")


def test_criterion_10_purity_witnesses():
    rng = seeded("acceptance-10")
    zak = Zak([Fraction(1, 3)], [Fraction(2, 5)])
    probes = draw_distinct(10, lambda: rand_lattice_monomial(rng, 1, span=2))
    rep_zak = multiplicativity_check(zak, F1, probes, tol=1e-12)

    pw = PlaneWave(rand_coords(rng, 1))
    v_probes = [mono([0], [Fraction(k, 4)]) for k in range(-4, 5)]
    rep_pw = multiplicativity_check(pw, F1, v_probes, tol=1e-12)

    rep_tr = multiplicativity_check(Tracial(), F1,
                                    [mono([0], [1]), mono([0], [-1])])
    ok = (rep_zak.passed and rep_pw.passed and not rep_tr.passed
          and rep_tr.worst_value == 1.0)
    report(10, "purity: Zak and plane-wave multiplicative within 1e-12, "
               "tracial fails with gap exactly 1",
           ok, f"zak {rep_zak.worst_value:.3g}, pw {rep_pw.worst_value:.3g}, "
               f"tracial gap {rep_tr.worst_value}")


def test_criterion_11_irregularity_witness():
    rng = seeded("acceptance-11")
    mult_failures = 0
    for _ in range(500):
        x = Fraction(rng.randint(-60, 60), rng.randint(1, 60))
        y = Fraction(rng.randint(-60, 60), rng.randint(1, 60))
        total = padic_fraction(x + y, 3) - padic_fraction(x, 3) - padic_fraction(y, 3)
        if total.denominator != 1:
            mult_failures += 1

    state = BohrState(PadicCharacter((3,)))
    target = cmath.exp(4j * math.pi / 3)
    worst = 0.0
    for n in range(51):
        b = Fraction(1, 3 * (3 * n + 2))
        value = evaluate(state, Element.v(F1, [-b]))
        worst = max(worst, abs(value - target))
    gap = abs(abs(target - 1.0) - math.sqrt(3.0))
    ok = mult_failures == 0 and worst <= 1e-12 and gap <= 1e-12
    report(11, "irregularity: 3-adic character exactly multiplicative, witness "
               "sequence pinned at e^{4 pi i/3} with gap sqrt(3)",
           ok, f"mult failures {mult_failures}, witness dev {worst:.3g}, "
               f"gap residual {gap:.3g}")


def test_criterion_12_path_demos():
    rng = seeded("acceptance-12")
    probes = [Element.from_monomial(F1, mono([a], [b]))
              for a, b in ((1, 0), (0, 1), (1, 1), (-1, 2))]
    drawn = draw_distinct(6, lambda: Monomial(vector([rng.randint(-1, 1)]),
                                              vector([Fraction(rng.randint(-2, 2), 3)])))
    probes += [Element.from_monomial(F1, m) for m in drawn]

    def grid(n):
        return [Fraction(k, n) for k in range(n + 1)]

    def max_step(kind, endpoints, n):
        path = path_sample(kind, endpoints, grid(n))
        return max(weak_star_distance(a, b, probes)
                   for a, b in zip(path, path[1:]))

    cases = [
        ("plane_wave_line", (PlaneWave(vector([Fraction(3, 2)])),
                             PlaneWave(vector([0])))),
        ("zak_line", (Zak([Fraction(1, 8)], [Fraction(1, 3)]),
                      Zak([Fraction(3, 4)], [Fraction(2, 3)]))),
        ("bloch_slerp", (Bloch([Fraction(0)], {(0,): 1.0}),
                         Bloch([Fraction(1, 2)], {(0,): 0.6, (1,): 0.8}))),
    ]
    ok = True
    details = []
    for kind, endpoints in cases:
        path = path_sample(kind, endpoints, grid(16))
        ok &= path[0] is endpoints[0] and path[-1] is endpoints[1]
        ratio = max_step(kind, endpoints, 32) / max_step(kind, endpoints, 16)
        details.append(f"{kind} ratio {ratio:.3f}")
        ok &= abs(ratio - 0.5) <= 0.1
    report(12, "paths: endpoints exact and halving the grid step halves the "
               "max weak-* step within 20%",
           ok, "; ".join(details))
