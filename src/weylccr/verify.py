"""Seeded verification suites driving every identity the library claims.

Each suite returns a list of ``CheckResult`` (shared with the state checks in
``states``) with a worst-case witness, so a failure is immediately
actionable.  Random data is drawn from a generator seeded per check name
(``RunConfig.rng``), which makes reports reproducible byte for byte.

The ``rand_*`` functions and ``draw_distinct`` below are the project's only
seeded generators; the tests import them from here.  ``path_probes`` is the
probe set of the path checks and of ``weylccr path-demo``.  Results are built
by ``_counted``, which passes when no probe failed, and by two helpers shared
with the state checks: ``_worst`` reduces (value, probe) pairs to the worst
one and ``_bounded`` passes when that value is within a bound.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .algebra import (
    Element,
    FreeDynamics,
    Monomial,
    MomentumTranslation,
    SpaceTranslation,
    TimeReversal,
    apply_automorphism,
    automorphism_action,
    ergodic_mean,
    ergodic_mean_lattice,
    ergodic_mean_zak,
    monomial_adjoint,
    monomial_product,
    numeric_box_average,
    trace_coefficient,
    tracial_inner_product,
    weyl_generator_parts,
)
from .characters import ContinuousCharacter, PadicCharacter, padic_fraction
from .gns import (
    FourierWindow,
    bloch_vector_state,
    op_F,
    op_S,
    plane_wave_vector_state,
    rep_rho_kappa,
    weyl_relation_residual,
)
from .lattice import (
    Frame,
    PhasePoint,
    enumerate_trs_fixed_points,
    in_dual_lattice,
    integer_vector,
    is_zero_vector,
    symplectic,
    vector,
)
from .scalars import PhaseAngle, TAU
from .states import (
    Bloch,
    BohrState,
    CheckResult,
    Fock,
    Mixture,
    PlaneWave,
    Tracial,
    Zak,
    _bounded,
    _worst,
    bloch_monomial_value,
    covariance_check,
    gram_psd_check,
    invariance_check,
    multiplicativity_check,
    path_sample,
    time_reversal_classify,
    weak_star_distance,
)


@dataclass
class RunConfig:
    frame: Frame
    tol: float = 1e-10
    seed: int = 0
    grid: int = 16

    def rng(self, check: str) -> random.Random:
        return random.Random(f"{self.seed}:{check}")


def rand_fraction(rng, max_num=12, max_den=12, nonzero=False) -> Fraction:
    while True:
        f = Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
        if f or not nonzero:
            return f


def rand_coords(rng, d, **kw):
    return vector([rand_fraction(rng, **kw) for _ in range(d)])


def rand_monomial(rng, d) -> Monomial:
    return Monomial(rand_coords(rng, d), rand_coords(rng, d))


def rand_lattice_monomial(rng, d, span=3) -> Monomial:
    return Monomial(vector([rng.randint(-span, span) for _ in range(d)]),
                    vector([rng.randint(-span, span) for _ in range(d)]))


def rand_complex(rng) -> complex:
    return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))


def rand_element(rng, frame, max_terms=5) -> Element:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):  # each coefficient before its monomial
        terms[rand_monomial(rng, frame.d)] = rand_complex(rng)
    return Element(frame, terms)


def rand_kappa(rng, d):
    return tuple(Fraction(rng.randint(0, 11), 12) for _ in range(d))


def rand_normalized_fhat(rng, d, radius=2, npts=3) -> dict:
    pts = set()
    while len(pts) < npts:
        pts.add(tuple(rng.randint(-radius, radius) for _ in range(d)))
    raw = {p: rand_complex(rng) for p in pts}
    norm = math.sqrt(sum(abs(v) ** 2 for v in raw.values()))
    return {p: v / norm for p, v in raw.items()}


def _counted(check: str, failures: list) -> CheckResult:
    """Passes when nothing failed.  ``failures`` holds one witness per failed
    probe, "" where the check names none; the worst value is their count and
    the worst probe the first witness that is not ""."""
    return CheckResult(check, not failures, float(len(failures)), next(filter(None, failures), ""))


def draw_distinct(n, draw) -> list:
    """The first n distinct values of ``draw()``, in the order drawn."""
    seen = {}
    while len(seen) < n:
        seen.setdefault(draw(), None)
    return list(seen)


def path_probes(rng, frame: Frame, fixed=()) -> list:
    """``fixed`` followed by distinct probes u(a)v(b), ten in all, with a in
    {-1, 0, 1}^d and b of numerator at most 2 and denominator at most 3.

    Small coordinates keep the per-step phase increments of the path families
    well inside a half-turn, so halving the grid step halves the distances.
    """
    d = frame.d
    drawn = draw_distinct(10 - len(fixed), lambda: Monomial(
        vector([rng.randint(-1, 1) for _ in range(d)]),
        rand_coords(rng, d, max_num=2, max_den=3)))
    return list(fixed) + [Element.from_monomial(frame, m) for m in drawn]


# ---------------------------------------------------------------- weyl suite


def suite_weyl(config: RunConfig) -> list:
    checks = []

    rng = config.rng("weyl.associativity")
    failures = []
    for i in range(1000):
        d = 1 + i % 3
        m1, m2, m3 = (rand_monomial(rng, d) for _ in range(3))
        ph12, m12 = monomial_product(m1, m2)
        ph_l, ml = monomial_product(m12, m3)
        ph23, m23 = monomial_product(m2, m3)
        ph_r, mr = monomial_product(m1, m23)
        if ml != mr or not (ph12 + ph_l).is_same_rotation(ph23 + ph_r):
            failures.append(f"{m1} | {m2} | {m3}")
    checks.append(_counted("weyl.associativity_1000_exact", failures))

    rng = config.rng("weyl.star_antihom")
    failures = []
    for i in range(500):
        d = 1 + i % 3
        m1, m2 = rand_monomial(rng, d), rand_monomial(rng, d)
        ph12, m12 = monomial_product(m1, m2)
        adj_ph, adj_m = monomial_adjoint(m12)
        lhs_angle = adj_ph - ph12           # conj(e^{i ph12}) carried along
        a2, s2 = monomial_adjoint(m2)
        a1, s1 = monomial_adjoint(m1)
        pr, mr = monomial_product(s2, s1)
        rhs_angle = a2 + a1 + pr
        if adj_m != mr or not lhs_angle.is_same_rotation(rhs_angle):
            failures.append(f"{m1} | {m2}")
    checks.append(_counted("weyl.star_antihomomorphism_exact", failures))

    rng = config.rng("weyl.star_elements")
    devs = []
    for _ in range(100):
        x = rand_element(rng, config.frame)
        y = rand_element(rng, config.frame)
        devs.append(((x * y).adjoint().max_coeff_diff(y.adjoint() * x.adjoint()),
                     f"{len(x)}x{len(y)} terms"))
        devs.append((x.adjoint().adjoint().max_coeff_diff(x), "involution"))
    checks.append(_bounded("weyl.star_laws_coefficients", devs, 1e-12))

    rng = config.rng("weyl.symplectic")
    failures = []
    for i in range(500):
        d = 1 + i % 3
        frame = Frame.standard(d)
        z = PhasePoint(frame, rand_coords(rng, d), rand_coords(rng, d))
        zp = PhasePoint(frame, rand_coords(rng, d), rand_coords(rng, d))
        ph_z, m_z = weyl_generator_parts(z)
        ph_zp, m_zp = weyl_generator_parts(zp)
        ph_prod, m_prod = monomial_product(m_z, m_zp)
        lhs = ph_z + ph_zp + ph_prod
        ph_sum, m_sum = weyl_generator_parts(z + zp)
        rhs = symplectic(z, zp) + ph_sum
        if m_prod != m_sum or not lhs.is_same_rotation(rhs):
            failures.append(f"z={z.a},{z.b} z'={zp.a},{zp.b}")
    checks.append(_counted("weyl.symplectic_presentation_500_exact", failures))

    rng = config.rng("weyl.generator_adjoint")
    failures = []
    for _ in range(100):
        frame = config.frame
        z = PhasePoint(frame, rand_coords(rng, frame.d), rand_coords(rng, frame.d))
        ph_z, m_z = weyl_generator_parts(z)
        adj_ph, adj_m = monomial_adjoint(m_z)
        ph_neg, m_neg = weyl_generator_parts(-z)
        if adj_m != m_neg or not (adj_ph - ph_z).is_same_rotation(ph_neg):
            failures.append("")
    checks.append(_counted("weyl.generator_adjoint_exact", failures))

    rng = config.rng("weyl.group_laws")
    frame = config.frame
    failures = []
    for _ in range(200):
        m = rand_monomial(rng, frame.d)
        lam, mu = rand_coords(rng, frame.d), rand_coords(rng, frame.d)
        t, s = rand_fraction(rng), rand_fraction(rng)
        for one, two, both in (
            (SpaceTranslation(lam), SpaceTranslation(mu),
             SpaceTranslation(vector([a + b for a, b in zip(lam, mu)]))),
            (MomentumTranslation(lam), MomentumTranslation(mu),
             MomentumTranslation(vector([a + b for a, b in zip(lam, mu)]))),
            (FreeDynamics(t), FreeDynamics(s), FreeDynamics(t + s)),
        ):
            ph1, im1, _ = automorphism_action(one, frame, m)
            ph2, im2, _ = automorphism_action(two, frame, im1)
            ph, im, _ = automorphism_action(both, frame, m)
            if im != im2 or not (ph1 + ph2).is_same_rotation(ph):
                failures.append("")
    checks.append(_counted("weyl.automorphism_group_laws_exact", failures))

    rng = config.rng("weyl.homomorphism")
    devs = []
    one = Element.one(frame)
    for _ in range(50):
        x, y = rand_element(rng, frame, 3), rand_element(rng, frame, 3)
        for spec in (SpaceTranslation(rand_coords(rng, frame.d)),
                     MomentumTranslation(rand_coords(rng, frame.d)),
                     FreeDynamics(rand_fraction(rng)),
                     TimeReversal()):
            lhs = apply_automorphism(spec, x * y)
            rhs = apply_automorphism(spec, x) * apply_automorphism(spec, y)
            devs.append((lhs.max_coeff_diff(rhs), type(spec).__name__))
            devs.append((apply_automorphism(spec, one).max_coeff_diff(one),
                         "unit " + type(spec).__name__))
    checks.append(_bounded("weyl.automorphisms_preserve_products", devs, 1e-12))

    rng = config.rng("weyl.time_reversal")
    devs = []
    for _ in range(100):
        x = rand_element(rng, frame, 4)
        c = rand_complex(rng)
        devs.append((apply_automorphism(TimeReversal(),
                                        apply_automorphism(TimeReversal(), x))
                     .max_coeff_diff(x), "c.c = id"))
        lhs = apply_automorphism(TimeReversal(), c * x)
        rhs = c.conjugate() * apply_automorphism(TimeReversal(), x)
        devs.append((lhs.max_coeff_diff(rhs), "antilinearity"))
    checks.append(_bounded("weyl.time_reversal_involution", devs, 0.0))

    rng = config.rng("weyl.trace_l2")
    tracial = Tracial()
    devs = []
    for _ in range(200):
        x = rand_element(rng, frame, 10)
        lhs = tracial.evaluate(x.adjoint() * x)
        rhs = sum(abs(c) ** 2 for c in x.terms.values())
        devs.append((abs(lhs - rhs), f"{len(x)} terms"))
    checks.append(_bounded("weyl.tracial_l2_identity", devs, 1e-12))

    rng = config.rng("weyl.norm_bound")
    failures = []
    for _ in range(100):
        m1, m2 = rand_monomial(rng, frame.d), rand_monomial(rng, frame.d)
        if m1 == m2:
            continue
        lam, lamp = rand_complex(rng), rand_complex(rng)
        x = Element(frame, {m1: lam}) - Element(frame, {m2: lamp})
        expected = lam.conjugate() * lam + lamp.conjugate() * lamp
        if tracial_inner_product(x, x) != expected:
            failures.append("")
        if abs(tracial.evaluate(x.adjoint() * x) - expected) > 1e-12:
            failures.append("")
    checks.append(_counted("weyl.tracial_norm_lower_bound_exact", failures))

    rng = config.rng("weyl.trace_pairing")
    devs = []
    for _ in range(50):
        x = rand_element(rng, frame, 6)
        m = rng.choice(list(x.terms)) if rng.random() < 0.8 else rand_monomial(rng, frame.d)
        paired = tracial.evaluate(Element.from_monomial(frame, m).adjoint() * x)
        devs.append((abs(paired - trace_coefficient(x, m)), str(m)))
    checks.append(_bounded("weyl.trace_coefficient_pairing", devs, 1e-12))
    return checks


# -------------------------------------------------------------- ergodic suite


def suite_ergodic(config: RunConfig) -> list:
    checks = []
    frame = config.frame

    rng = config.rng("ergodic.closed_forms")
    failures = []
    for _ in range(200):
        m = rng.choice([rand_monomial(rng, frame.d), rand_lattice_monomial(rng, frame.d)])
        x = Element.from_monomial(frame, m, rand_complex(rng))
        want_mean = x if is_zero_vector(m.a) else Element.zero(frame)
        want_gamma = x if in_dual_lattice(m.a) else Element.zero(frame)
        want_zak = (x if integer_vector(m.a) is not None
                    and integer_vector(m.b) is not None else Element.zero(frame))
        if (ergodic_mean(x) != want_mean or ergodic_mean_lattice(x) != want_gamma
                or ergodic_mean_zak(x) != want_zak):
            failures.append(str(m))
    checks.append(_counted("ergodic.closed_form_projections_exact", failures))

    rng = config.rng("ergodic.projections")
    failures = []
    for _ in range(100):
        x = rand_element(rng, frame, 6)
        y = rand_element(rng, frame, 6)
        c = rand_complex(rng)
        for mean in (ergodic_mean, ergodic_mean_lattice, ergodic_mean_zak):
            if mean(mean(x)) != mean(x):
                failures.append("")
            if mean(x + c * y).max_coeff_diff(mean(x) + c * mean(y)) > 1e-12:
                failures.append("")
    checks.append(_counted("ergodic.means_idempotent_linear", failures))

    rng = config.rng("ergodic.invariance")
    failures = []
    for _ in range(100):
        x = rand_element(rng, frame, 6)
        lam = rand_coords(rng, frame.d)
        gamma = vector([rng.randint(-3, 3) for _ in range(frame.d)])
        gp = vector([rng.randint(-3, 3) for _ in range(frame.d)])
        if ergodic_mean(apply_automorphism(SpaceTranslation(lam), x)) != ergodic_mean(x):
            failures.append("")
        moved = apply_automorphism(SpaceTranslation(gamma), x)
        if ergodic_mean_lattice(moved).max_coeff_diff(ergodic_mean_lattice(x)) > 1e-12:
            failures.append("")
        moved = apply_automorphism(MomentumTranslation(gp),
                                   apply_automorphism(SpaceTranslation(gamma), x))
        if ergodic_mean_zak(moved).max_coeff_diff(ergodic_mean_zak(x)) > 1e-12:
            failures.append("")
    checks.append(_counted("ergodic.means_translation_invariant", failures))

    # box-average decay on a frame with unit ambient momenta
    frame_tau = Frame.from_basis([[TAU]])
    x = Element(frame_tau, {
        Monomial(vector([0]), vector([Fraction(1, 3)])): 1.5 + 0.5j,
        Monomial(vector([1]), vector([0])): 1.0,
        Monomial(vector([2]), vector([Fraction(1, 2)])): 1.0,
    })
    sizes = (10.0, 100.0, 1000.0)
    mags = {1: [], 2: []}
    exact_zero_dev = 0.0
    for L in sizes:
        n = int(8 * L)
        avg = numeric_box_average(x, L, n)
        for m, c in x.terms.items():
            a = int(m.a[0].as_fraction()) if m.a[0].is_rational() else None
            if a == 0:
                exact_zero_dev = max(exact_zero_dev, abs(avg.coefficient(m) - c))
            else:
                mags[a].append(abs(avg.coefficient(m)))
    bound_ok = all(mag <= 2.0 / (L * a) for a, ms in mags.items()
                   for mag, L in zip(ms, sizes))
    slopes = {}
    for a, ms in mags.items():
        xs = [math.log10(L) for L in sizes]
        ys = [math.log10(m) for m in ms]
        n = len(xs)
        slope = ((n * sum(x * y for x, y in zip(xs, ys)) - sum(xs) * sum(ys))
                 / (n * sum(x * x for x in xs) - sum(xs) ** 2))
        slopes[a] = slope
    slope_ok = all(-1.2 <= s <= -0.8 for s in slopes.values())
    checks.append(CheckResult("ergodic.box_average_zero_mode_exact",
                              exact_zero_dev == 0.0, exact_zero_dev, "a = 0 term"))
    checks.append(CheckResult(
        "ergodic.box_average_decay_bound", bound_ok,
        max(mag * L * a for a, ms in mags.items() for mag, L in zip(ms, sizes)),
        "max of |coef| * L * alpha"))
    checks.append(CheckResult(
        "ergodic.box_average_loglog_slope", slope_ok,
        max(abs(s + 1.0) for s in slopes.values()),
        f"slopes {sorted(slopes.items())}"))
    return checks


# ---------------------------------------------------------------- state suite


def _rational_frame(frame) -> bool:
    """True when the basis is rational, so that rational coordinates have the
    rational ambient positions the p-adic character needs."""
    return all(e.is_rational() for row in frame.E for e in row)


def _bohr(frame):
    """The Bohr state of the state suite, with its zoo name: on a frame whose
    basis contains tau a fixed continuous character stands in for the p-adic
    one."""
    d = frame.d
    if _rational_frame(frame):
        return "bohr_padic", BohrState(PadicCharacter((3,) * d))
    return "bohr_continuous", BohrState(ContinuousCharacter((Fraction(1, 3),) * d))


def _family_zoo(rng, frame):
    """One instance per family, plus a three-component mixture."""
    d = frame.d
    zoo = [
        ("plane_wave", PlaneWave(rand_coords(rng, d))),
        _bohr(frame),
        ("bloch", Bloch(rand_kappa(rng, d), rand_normalized_fhat(rng, d))),
        ("zak", Zak(rand_kappa(rng, d), rand_kappa(rng, d))),
        ("fock", Fock()),
        ("tracial", Tracial()),
    ]
    mixture = Mixture([(0.5, zoo[0][1]), (0.25, zoo[3][1]), (0.25, Tracial())])
    return zoo + [("mixture", mixture)]


def suite_states(config: RunConfig) -> list:
    checks = []
    frame = config.frame
    d = frame.d

    rng = config.rng("states.unit")
    devs = []
    one = Element.one(frame)
    for name, s in _family_zoo(rng, frame):
        devs.append((abs(s.evaluate(one) - 1.0), name))
    checks.append(_bounded("states.unit_evaluates_to_one", devs, 1e-12))

    rng = config.rng("states.vanishing")
    failures = []
    _, bs = _bohr(frame)
    for _ in range(200):
        m = rand_monomial(rng, d)
        pw = PlaneWave(rand_coords(rng, d))
        bl = Bloch(rand_kappa(rng, d), rand_normalized_fhat(rng, d))
        zk = Zak(rand_kappa(rng, d), rand_kappa(rng, d))
        if not is_zero_vector(m.a):
            if pw.monomial_value(frame, m) != 0 or bs.monomial_value(frame, m) != 0:
                failures.append(str(m))
        if integer_vector(m.a) is None and bl.monomial_value(frame, m) != 0:
            failures.append(str(m))
        if ((integer_vector(m.a) is None or integer_vector(m.b) is None)
                and zk.monomial_value(frame, m) != 0):
            failures.append(str(m))
    checks.append(_counted("states.vanishing_structure_exact", failures))

    rng = config.rng("states.invariance")
    samples = [rand_element(rng, frame, 5) for _ in range(100)]
    pw = PlaneWave(rand_coords(rng, d))
    _, bs = _bohr(frame)
    worst = 0.0
    for s in (pw, bs):
        for spec in (SpaceTranslation(rand_coords(rng, d)), FreeDynamics(rand_fraction(rng))):
            rep = invariance_check(s, spec, samples, tol=0.0)
            worst = max(worst, rep.worst_value)
    checks.append(CheckResult("states.translation_invariance_exact",
                              worst == 0.0, worst, "plane-wave and character states"))

    gamma = vector([rng.randint(-3, 3) for _ in range(d)])
    gp = vector([rng.randint(-3, 3) for _ in range(d)])
    bl = Bloch(rand_kappa(rng, d), rand_normalized_fhat(rng, d))
    rep = invariance_check(bl, SpaceTranslation(gamma), samples, tol=1e-12)
    checks.append(replace(rep, check="states.bloch_lattice_invariance"))
    zk = Zak(rand_kappa(rng, d), rand_kappa(rng, d))
    rep = invariance_check(zk, (SpaceTranslation(gamma), MomentumTranslation(gp)),
                           samples, tol=1e-12)
    checks.append(replace(rep, check="states.zak_double_invariance"))

    frame_tau = Frame.from_basis([[TAU]] if d == 1 else
                                 [[TAU if i == j else 0 for j in range(d)]
                                  for i in range(d)])
    probe = Element.from_monomial(frame_tau,
                                  Monomial(vector([1] + [0] * (d - 1)),
                                           vector([0] * d)))
    rep = invariance_check(Fock(), FreeDynamics(Fraction(1)), [probe], tol=1e-10)
    gap = abs(rep.worst_value - abs(math.exp(-0.5) - math.exp(-0.25)))
    checks.append(CheckResult("states.fock_not_free_dynamics_invariant",
                              (not rep.passed) and gap <= 1e-6,
                              rep.worst_value, "u(1)v(0) over the 2*pi frame"))

    rng = config.rng("states.positivity")
    devs = []
    herm = []
    for name, s in _family_zoo(rng, frame):
        probes = draw_distinct(20, lambda: (rand_lattice_monomial(rng, d)
                                        if rng.random() < 0.5 else rand_monomial(rng, d)))
        rep = gram_psd_check(s, frame, probes, tol=config.tol)
        devs.append((-rep.min_eigenvalue, name))
        herm.append((rep.hermitian_residual, name))
    worst, probe = _worst(devs)
    checks.append(CheckResult("states.gram_psd_min_eigenvalue",
                              worst <= config.tol, -worst, probe))
    checks.append(_bounded("states.gram_hermitian_residual", herm, 1e-12))

    rng = config.rng("states.positive_squares")
    devs = []
    for name, s in _family_zoo(rng, frame):
        for _ in range(100):
            x = rand_element(rng, frame, 4)
            val = s.evaluate(x.adjoint() * x)
            devs.append((max(abs(val.imag), -min(val.real, 0.0)), name))
    checks.append(_bounded("states.squares_positive", devs, config.tol))

    rng = config.rng("states.quasimomentum")
    devs = []
    for _ in range(20):
        kappa = rand_kappa(rng, d)
        s = Bloch(kappa, rand_normalized_fhat(rng, d))
        gamma = [rng.randint(-3, 3) for _ in range(d)]
        c = PhaseAngle.from_turns(-sum((k * g for k, g in zip(kappa, gamma)),
                                       Fraction(0))).to_complex()
        x = Element.v(frame, gamma) - c * Element.one(frame)
        devs.append((abs(s.evaluate(x.adjoint() * x)), f"gamma={gamma}"))
    checks.append(_bounded("states.bloch_quasimomentum_identity", devs, 1e-12))

    rng = config.rng("states.mixture")
    failures = []
    parts = [PlaneWave(rand_coords(rng, d)), Zak(rand_kappa(rng, d), rand_kappa(rng, d)), Tracial()]
    mix = Mixture([(0.5, parts[0]), (0.25, parts[1]), (0.25, parts[2])])
    for _ in range(50):
        x = rand_element(rng, frame, 5)
        want = (0.5 * parts[0].evaluate(x) + 0.25 * parts[1].evaluate(x)
                + 0.25 * parts[2].evaluate(x))
        if mix.evaluate(x) != want:
            failures.append("")
    checks.append(_counted("states.mixture_affine_exact", failures))

    rng = config.rng("states.padic")
    failures = []
    for _ in range(500):
        xq = rand_fraction(rng)
        yq = rand_fraction(rng)
        total = padic_fraction(xq + yq, 3) - padic_fraction(xq, 3) - padic_fraction(yq, 3)
        if total.denominator != 1:
            failures.append("")
    checks.append(_counted("states.padic_character_multiplicative_exact", failures))

    s = BohrState(PadicCharacter((3,) * d))
    target = cmath.exp(2j * math.pi * Fraction(2, 3))
    devs = []
    padic_frame = frame if _rational_frame(frame) else Frame.standard(d)
    for n in range(51):
        b = Fraction(-1, 3 * (3 * n + 2))
        x = Element.v(padic_frame, [b] + [0] * (d - 1))
        devs.append((abs(s.evaluate(x) - target), f"n={n}"))
    worst, probe = _worst(devs)
    gap = abs(abs(target - 1.0) - math.sqrt(3.0))
    checks.append(CheckResult("states.padic_discontinuity_witness",
                              worst <= 1e-12 and gap <= 1e-12,
                              max(worst, gap), probe))

    rng = config.rng("states.weak_star")
    devs = []
    probes = [rand_element(rng, frame, 4) for _ in range(10)]
    zoo = [s for _, s in _family_zoo(rng, frame)]
    for s in zoo:
        devs.append((weak_star_distance(s, s, probes), "self distance"))
    for _ in range(20):
        s1, s2, s3 = rng.sample(zoo, 3)
        d12 = weak_star_distance(s1, s2, probes)
        d21 = weak_star_distance(s2, s1, probes)
        d13 = weak_star_distance(s1, s3, probes)
        d23 = weak_star_distance(s2, s3, probes)
        devs.append((abs(d12 - d21), "symmetry"))
        devs.append((max(0.0, d13 - d12 - d23), "triangle"))
    checks.append(_bounded("states.weak_star_pseudometric", devs, 1e-12))
    return checks


# ----------------------------------------------------------- covariance suite


def suite_covariance(config: RunConfig) -> list:
    checks = []
    d = config.frame.d
    rng = config.rng("covariance.random")
    devs = []
    for _ in range(20):
        kappa = rand_kappa(rng, d)
        fhat = rand_normalized_fhat(rng, d, radius=1)
        gp = [rng.randint(-2, 2) for _ in range(d)]
        probes = [rand_monomial(rng, d) if rng.random() < 0.3
                  else rand_lattice_monomial(rng, d) for _ in range(30)]
        rep = covariance_check(kappa, fhat, gp, probes, tol=1e-12)
        devs.append((rep.worst_value, f"gamma'={gp} {rep.worst_probe}"))
    checks.append(_bounded("covariance.dual_lattice_shift", devs, 1e-12))

    rng = config.rng("covariance.zero_shift")
    failures = []
    for _ in range(10):
        kappa = rand_kappa(rng, d)
        fhat = rand_normalized_fhat(rng, d, radius=1)
        probes = [rand_lattice_monomial(rng, d) for _ in range(10)]
        rep = covariance_check(kappa, fhat, [0] * d, probes, tol=0.0)
        if rep.worst_value != 0.0:
            failures.append("")
    checks.append(_counted("covariance.zero_shift_identity_exact", failures))
    return checks


# ------------------------------------------------------------------ tri suite


def suite_tri(config: RunConfig) -> list:
    checks = []
    rng = config.rng("tri.fixed_points")
    frame2 = Frame.standard(2)
    pts = enumerate_trs_fixed_points(frame2)
    ok = (len(pts) == 4 and len(set(pts)) == 4
          and all(all((-k) % 1 == k for k in kappa) for kappa in pts))
    checks.append(CheckResult("tri.fixed_point_count_d2", ok,
                              float(abs(len(pts) - 4)), f"{pts}"))

    failures = []
    if not time_reversal_classify(PlaneWave(vector([0, 0]))).is_tri:
        failures.append("")
    for _ in range(20):
        p = rand_coords(rng, 2, nonzero=False)
        if all(c.is_zero() for c in p):
            p = vector([Fraction(1, 2), 0])
        scalekind = rng.random()
        if scalekind < 0.3:
            p = tuple(TAU * c for c in p)
        if time_reversal_classify(PlaneWave(p)).is_tri:
            failures.append(f"p={p}")
    checks.append(_counted("tri.plane_wave_iff_zero_momentum", failures))

    failures = []
    for kappa in pts:
        nu = rand_kappa(rng, 2)
        if not time_reversal_classify(Zak(kappa, nu)).is_tri:
            failures.append("")
    for _ in range(20):
        kappa = rand_kappa(rng, 2)
        if all(k in (Fraction(0), Fraction(1, 2)) for k in kappa):
            kappa = (Fraction(1, 3), kappa[1])
        if time_reversal_classify(Zak(kappa, rand_kappa(rng, 2))).is_tri:
            failures.append("")
    checks.append(_counted("tri.zak_iff_fixed_point", failures))

    frame = config.frame
    d = frame.d
    rng = config.rng("tri.bloch")
    states = []
    inv = 1.0 / math.sqrt(2.0)
    states.append(Bloch([0] * d, {(0,) * d: 1.0}))
    states.append(Bloch([0] * d, {(-1,) * d: 0.6, (0,) * d: math.sqrt(0.28),
                                  (1,) * d: 0.6}))
    half = [Fraction(1, 2)] * d
    states.append(Bloch(half, {(-1,) * d: inv, (0,) * d: inv}))
    for _ in range(6):
        states.append(Bloch(rand_kappa(rng, d), rand_normalized_fhat(rng, d)))
        states.append(Bloch([0] * d, rand_normalized_fhat(rng, d)))
    probes = []
    for _ in range(50):
        probes.append(Element.from_monomial(
            frame, Monomial(vector([rng.randint(-2, 2) for _ in range(d)]),
                            rand_coords(rng, d)), rand_complex(rng)))
    mismatches = []
    worst_gap = 0.0
    for s in states:
        verdict = time_reversal_classify(s)
        dev = max(abs(s.evaluate(apply_automorphism(TimeReversal(), x))
                      - s.evaluate(x).conjugate()) for x in probes)
        functional = dev <= config.tol
        if functional != verdict.is_tri:
            mismatches.append(f"{s!r}: verdict={verdict.is_tri} dev={dev:.3g}")
        if verdict.is_tri:
            worst_gap = max(worst_gap, dev)
    rep = _counted("tri.bloch_criterion_matches_functional", mismatches)
    checks.append(replace(rep, worst_value=rep.worst_value or worst_gap))
    return checks


# ------------------------------------------------------------------ zak suite


def suite_zak(config: RunConfig) -> list:
    checks = []
    frame = config.frame
    d = frame.d

    rng = config.rng("zak.double_average")
    frame1 = Frame.standard(1)
    n = 8
    worst = 0.0
    witness = ""
    for _ in range(40):
        m = rng.choice([rand_monomial(rng, 1), rand_lattice_monomial(rng, 1)])
        kept = not ergodic_mean_zak(Element.from_monomial(frame1, m)).is_zero()
        total = 0j
        for g in range(-n, n + 1):
            for g2 in range(-n, n + 1):
                ph1, _, _ = automorphism_action(SpaceTranslation(vector([g])),
                                                frame1, m)
                ph2, _, _ = automorphism_action(MomentumTranslation(vector([g2])),
                                                frame1, m)
                total += (ph1 + ph2).to_complex()
        avg = abs(total) / (2 * n + 1) ** 2
        if kept and abs(avg - 1.0) > 1e-12:
            worst = max(worst, abs(avg - 1.0))
            witness = witness or f"kept {m} but average {avg:.3g}"
        if not kept and avg > 0.5:
            worst = max(worst, avg)
            witness = witness or f"dropped {m} but average {avg:.3g}"
    checks.append(CheckResult("zak.projection_matches_character_average",
                              worst == 0.0, worst, witness))

    rng = config.rng("zak.multiplicativity")
    zak = Zak(rand_kappa(rng, d), rand_kappa(rng, d))
    probes = draw_distinct(12, lambda: rand_lattice_monomial(rng, d, span=2))
    rep = multiplicativity_check(zak, frame, probes, tol=1e-12)
    checks.append(replace(rep, check="zak.multiplicative_on_lattice_probes"))

    pw = PlaneWave(rand_coords(rng, d))
    vprobes = draw_distinct(10, lambda: Monomial(vector([0] * d), rand_coords(rng, d)))
    rep = multiplicativity_check(pw, frame, vprobes, tol=1e-12)
    checks.append(replace(rep, check="zak.plane_wave_multiplicative"))

    e1 = [1] + [0] * (d - 1)
    tprobes = [Monomial(vector([0] * d), vector(e1)),
               Monomial(vector([0] * d), vector([-c for c in e1]))]
    rep = multiplicativity_check(Tracial(), frame, tprobes, tol=1e-12)
    checks.append(replace(rep, check="zak.tracial_multiplicativity_gap_is_one",
                          passed=(not rep.passed) and rep.worst_value == 1.0))

    rng = config.rng("zak.purity_line")
    zak0 = Zak([0] * d, [0] * d)
    failures = []
    for _ in range(50):
        m = rand_lattice_monomial(rng, d)
        if zak0.monomial_value(frame, m) != 1.0 + 0j:
            failures.append("")
    checks.append(_counted("zak.zero_state_is_one_on_lattice", failures))
    return checks


# ------------------------------------------------------------------ gns suite


def suite_gns(config: RunConfig) -> list:
    checks = []

    rng = config.rng("gns.oracle")
    devs = []
    for d in (1, 2):
        window = FourierWindow((-6,) * d, (6,) * d)
        for _ in range(25):
            kappa = rand_kappa(rng, d)
            fhat = rand_normalized_fhat(rng, d, radius=2)
            for _ in range(2):
                m = Monomial(vector([rng.randint(-3, 3) for _ in range(d)]),
                             rand_coords(rng, d))
                lhs = bloch_vector_state(kappa, fhat, m, window)
                rhs = bloch_monomial_value(kappa, fhat, m)
                devs.append((abs(lhs - rhs), f"d={d} {m}"))
    checks.append(_bounded("gns.bloch_reconstruction_oracle", devs, config.tol))

    rng = config.rng("gns.rho_scalar")
    failures = []
    window = FourierWindow((-4,), (4,))
    for _ in range(20):
        kappa = rand_kappa(rng, 1)
        gamma = rng.randint(-4, 4)
        m = Monomial(vector([0]), vector([gamma]))
        mat = rep_rho_kappa(kappa, m, window).matrix
        phase = PhaseAngle.from_turns(-kappa[0] * gamma).to_complex()
        if not np.array_equal(mat, phase * np.eye(len(window))):
            failures.append(f"kappa={kappa} gamma={gamma}")
        if abs(phase - cmath.exp(-2j * math.pi * float(kappa[0] * gamma))) > 1e-12:
            failures.append("")
    checks.append(_counted("gns.rho_of_lattice_v_is_exact_scalar", failures))

    rng = config.rng("gns.weyl_relation")
    devs = []
    window = FourierWindow((-5,), (5,))
    for _ in range(20):
        gp = (rng.randint(-2, 2),)
        b = [rand_fraction(rng)]
        devs.append((weyl_relation_residual(gp, b, window), f"gp={gp} b={b}"))
    checks.append(_bounded("gns.weyl_relation_interior_residual", devs, 1e-12))

    rng = config.rng("gns.operators")
    devs = []
    for _ in range(10):
        b1, b2 = [rand_fraction(rng)], [rand_fraction(rng)]
        s1 = op_S(b1, window).matrix
        s2 = op_S(b2, window).matrix
        s12 = op_S([b1[0] + b2[0]], window).matrix
        devs.append((float(np.max(np.abs(s1 @ s2 - s12))), "S additivity"))
        devs.append((float(np.max(np.abs(s1 @ s1.conj().T - np.eye(len(window))))),
                     "S unitary"))
        gp = (rng.randint(-2, 2),)
        f = op_F(gp, window).matrix
        proj = f.conj().T @ f
        devs.append((float(np.max(np.abs(proj @ proj - proj))), "F partial isometry"))
    checks.append(_bounded("gns.truncated_operator_structure", devs, 1e-12))

    rng = config.rng("gns.plane_wave")
    devs = []
    for _ in range(20):
        d = 1 + rng.randint(0, 1)
        p = rand_coords(rng, d)
        a = rand_coords(rng, d)
        b = rand_coords(rng, d)
        m = Monomial(a, b) if rng.random() < 0.6 else Monomial(vector([0] * d), b)
        momentum_set = [p, vector([pi + ai for pi, ai in zip(p, a)]),
                        vector([pi + ai for pi, ai in zip(p, m.a)])]
        momentum_set = list({tuple(q): q for q in momentum_set}.values())
        val = plane_wave_vector_state(p, m, momentum_set)
        state = PlaneWave(Frame.standard(d).to_ambient_momentum(p))
        want = state.monomial_value(Frame.standard(d), m)
        devs.append((abs(val - want), f"d={d} {m}"))
    checks.append(_bounded("gns.plane_wave_vector_state_oracle", devs, 1e-12))
    return checks


# ---------------------------------------------------------------- paths suite


def suite_paths(config: RunConfig) -> list:
    checks = []
    frame = config.frame
    d = frame.d
    rng = config.rng("paths.probes")
    # the fixed lattice monomials keep the Zak family visible on the probe set
    probes = path_probes(rng, frame, [Element.from_monomial(
        frame, Monomial(vector([a] + [0] * (d - 1)), vector([b] + [0] * (d - 1))))
        for a, b in ((1, 0), (0, 1), (1, 1), (-1, 2))])

    def grid(n):
        return [Fraction(k, n) for k in range(n + 1)]

    def max_consecutive(states):
        return max(weak_star_distance(s1, s2, probes)
                   for s1, s2 in zip(states, states[1:]))

    kinds = []
    p0 = PlaneWave(rand_coords(rng, d, max_num=2, max_den=3, nonzero=True))
    kinds.append(("plane_wave_line", (p0, PlaneWave(vector([0] * d)))))
    kinds.append(("zak_line", (Zak(rand_kappa(rng, d), rand_kappa(rng, d)),
                               Zak(rand_kappa(rng, d), rand_kappa(rng, d)))))
    kinds.append(("bloch_slerp", (Bloch(rand_kappa(rng, d), rand_normalized_fhat(rng, d)),
                                  Bloch(rand_kappa(rng, d), rand_normalized_fhat(rng, d)))))

    n = config.grid
    ratio_devs = []
    endpoint_fail = []
    for kind, endpoints in kinds:
        coarse = path_sample(kind, endpoints, grid(n))
        fine = path_sample(kind, endpoints, grid(2 * n))
        if coarse[0] is not endpoints[0] or coarse[-1] is not endpoints[1]:
            endpoint_fail.append("")
        ratio = max_consecutive(fine) / max_consecutive(coarse)
        ratio_devs.append((abs(ratio - 0.5), kind))
    checks.append(_counted("paths.endpoints_reproduced_exactly", endpoint_fail))
    checks.append(_bounded("paths.linear_refinement_rate", ratio_devs, 0.1))

    pw_path = path_sample("plane_wave_line",
                          (p0, PlaneWave(vector([0] * d))), grid(100))
    final = pw_path[-1]
    checks.append(CheckResult("paths.plane_wave_terminates_at_zero_momentum",
                              isinstance(final, PlaneWave)
                              and all(c.is_zero() for c in final.p),
                              0.0, "t = 1"))
    return checks


SUITES = {
    "weyl": suite_weyl,
    "ergodic": suite_ergodic,
    "states": suite_states,
    "covariance": suite_covariance,
    "tri": suite_tri,
    "zak": suite_zak,
    "gns": suite_gns,
    "paths": suite_paths,
}



def run_suite(name: str, config: RunConfig) -> list:
    """One suite by name, or every suite in ``SUITES`` order for "all"."""
    if name == "all":
        return [result for suite in SUITES.values() for result in suite(config)]
    return SUITES[name](config)
