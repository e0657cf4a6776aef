"""Seeded verification checks for every identity the library claims.

Every check is a row of one ordered table, ``CHECKS``, keyed by the name of
the generator it draws its random data from.  A run is a frame and a seed,
``RunConfig``, whose ``rng`` seeds one generator per name; that makes
reports reproducible byte for byte and lets any row run alone:
``CHECKS["states.unit"](config)`` is that row's list of ``CheckResult``
(shared with the state checks in ``states``), each with a worst-case
witness, so a failure is immediately actionable.  The suite of a
row is the prefix of its name; ``SUITES`` and ``run_suite`` are views of the
table, and ``suite_weyl`` ... ``suite_paths`` are the ``SUITES`` values.
Since the rows do not depend on each other, ``run_suite("all")`` runs them
on worker processes forked for the call, one per usable CPU, and puts the
results back in table order.

A row is a generator registered by ``check``.  It yields its results, or one
witness per failed probe, reduced by ``_counted`` (passes when no probe
failed), or (value, probe) pairs, reduced by ``_bounded`` (shared with the
state checks; passes when the worst value is within a bound).  Each row
states its bounds; ``TOL`` = 1e-10 is the one four rows share, which every
report records as its ``tol``.  Adding a check is adding a row.

The ``rand_*`` functions and ``draw_distinct`` below are the project's only
seeded generators; the tests import them from here.  ``path_probes`` is the
probe set of the path checks and of ``weylccr path-demo``.
"""

from __future__ import annotations

import cmath
import math
import os
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import sub

from .algebra import (
    Element,
    FreeDynamics,
    Monomial,
    MomentumTranslation,
    SpaceTranslation,
    TimeReversal,
    _ratio_monomial,
    apply_automorphism,
    automorphism_action,
    ergodic_mean,
    ergodic_mean_lattice,
    ergodic_mean_zak,
    monomial_adjoint,
    monomial_product,
    numeric_box_average,
    symplectic,
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
    enumerate_trs_fixed_points,
    integer_vector,
    is_zero_vector,
    vadd,
    vector,
    vneg,
)
from .scalars import ExactScalar, PhaseAngle, TAU
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
    _nan_max,
    _ordered_sum,
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


#: the bound shared by the Gram eigenvalue, the squares, the Bloch
#: time-reversal criterion and the GNS oracle; the ``tol`` of every report
TOL = 1e-10


@dataclass
class RunConfig:
    frame: Frame
    seed: int = 0

    def rng(self, check: str) -> random.Random:
        return random.Random(f"{self.seed}:{check}")


def _rand_ratio(rng, max_num=12, max_den=12, nonzero=False) -> tuple[int, int]:
    """(p, q) with p in [-max_num, max_num] and q in [1, max_den], drawn in
    that order with ``randrange``, the call ``randint`` makes; redrawn while
    p = 0 if ``nonzero``."""
    draw = rng.randrange
    while True:
        p = draw(-max_num, max_num + 1)
        q = draw(1, max_den + 1)
        if p or not nonzero:
            return p, q


def _rand_ratios(rng, d, **kw) -> list:
    return [_rand_ratio(rng, **kw) for _ in range(d)]


def _lattice_ratios(rng, d, span) -> list:
    """d pairs (n, 1) with n drawn from [-span, span]."""
    draw = rng.randrange
    return [(draw(-span, span + 1), 1) for _ in range(d)]


def rand_fraction(rng, max_num=12, max_den=12, nonzero=False) -> Fraction:
    return Fraction(*_rand_ratio(rng, max_num, max_den, nonzero))


def rand_coords(rng, d, **kw):
    rational = ExactScalar.rational
    return tuple([rational(p, q) for p, q in _rand_ratios(rng, d, **kw)])


def rand_monomial(rng, d) -> Monomial:
    """u(a)v(b) with the 2d coordinates a then b drawn as ``rand_fraction``
    draws them, built on its integer key like every drawn monomial."""
    return _ratio_monomial(_rand_ratios(rng, 2 * d))


def rand_lattice_monomial(rng, d, span=3) -> Monomial:
    return _ratio_monomial(_lattice_ratios(rng, 2 * d, span))


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
    norm = math.sqrt(_ordered_sum(abs(v) ** 2 for v in raw.values()))
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
    drawn = draw_distinct(10 - len(fixed), lambda: _ratio_monomial(
        _lattice_ratios(rng, d, 1) + _rand_ratios(rng, d, max_num=2, max_den=3)))
    return list(fixed) + [Element.from_monomial(frame, m) for m in drawn]


CHECKS: dict = {}


def check(name: str, counted: str = "", bounded: tuple = ()):
    """Register the generator below as the row ``CHECKS[name]``, called as
    ``row(config, config.rng(name), config.frame, config.frame.d)``.

    The row yields its ``CheckResult``s.  Given ``counted``, it yields instead
    one witness per failed probe, reported by ``_counted`` under that name;
    given ``bounded`` = (name, bound), (value, probe) pairs, reported by
    ``_bounded``.
    """
    if name in CHECKS:
        raise ValueError(f"there is a row named {name} already")

    def register(row):
        def run(config: RunConfig) -> list:
            results = row(config, config.rng(name), config.frame, config.frame.d)
            if counted:
                return [_counted(counted, list(results))]
            if bounded:
                return [_bounded(bounded[0], results, bounded[1])]
            return list(results)
        CHECKS[name] = run
        return row
    return register


# ---------------------------------------------------------------- weyl suite


@check("weyl.associativity", counted="weyl.associativity_1000_exact")
def _weyl_associativity(config, rng, frame, d):
    for i in range(1000):
        dim = 1 + i % 3
        m1, m2, m3 = (rand_monomial(rng, dim) for _ in range(3))
        ph12, m12 = monomial_product(m1, m2)
        ph_l, ml = monomial_product(m12, m3)
        ph23, m23 = monomial_product(m2, m3)
        ph_r, mr = monomial_product(m1, m23)
        if ml != mr or not (ph12 + ph_l).is_same_rotation(ph23 + ph_r):
            yield f"{m1} | {m2} | {m3}"


@check("weyl.star_antihom", counted="weyl.star_antihomomorphism_exact")
def _weyl_star_antihom(config, rng, frame, d):
    for i in range(500):
        dim = 1 + i % 3
        m1, m2 = rand_monomial(rng, dim), rand_monomial(rng, dim)
        ph12, m12 = monomial_product(m1, m2)
        adj_ph, adj_m = monomial_adjoint(m12)
        lhs_angle = adj_ph - ph12           # conj(e^{i ph12}) carried along
        a2, s2 = monomial_adjoint(m2)
        a1, s1 = monomial_adjoint(m1)
        pr, mr = monomial_product(s2, s1)
        rhs_angle = a2 + a1 + pr
        if adj_m != mr or not lhs_angle.is_same_rotation(rhs_angle):
            yield f"{m1} | {m2}"


@check("weyl.star_elements", bounded=("weyl.star_laws_coefficients", 1e-12))
def _weyl_star_elements(config, rng, frame, d):
    for _ in range(100):
        x = rand_element(rng, frame)
        y = rand_element(rng, frame)
        yield ((x * y).adjoint().max_coeff_diff(y.adjoint() * x.adjoint()),
               f"{len(x)}x{len(y)} terms")
        yield x.adjoint().adjoint().max_coeff_diff(x), "involution"


@check("weyl.symplectic", counted="weyl.symplectic_presentation_500_exact")
def _weyl_symplectic(config, rng, frame, d):
    for i in range(500):
        dim = 1 + i % 3
        z = Monomial(rand_coords(rng, dim), rand_coords(rng, dim))
        zp = Monomial(rand_coords(rng, dim), rand_coords(rng, dim))
        ph_z, m_z = weyl_generator_parts(z)
        ph_zp, m_zp = weyl_generator_parts(zp)
        ph_prod, m_prod = monomial_product(m_z, m_zp)
        lhs = ph_z + ph_zp + ph_prod
        ph_sum, m_sum = weyl_generator_parts(Monomial(vadd(z.a, zp.a), vadd(z.b, zp.b)))
        rhs = symplectic(z, zp) + ph_sum
        if m_prod != m_sum or not lhs.is_same_rotation(rhs):
            yield f"z={z.a},{z.b} z'={zp.a},{zp.b}"


@check("weyl.generator_adjoint", counted="weyl.generator_adjoint_exact")
def _weyl_generator_adjoint(config, rng, frame, d):
    for _ in range(100):
        z = Monomial(rand_coords(rng, d), rand_coords(rng, d))
        ph_z, m_z = weyl_generator_parts(z)
        adj_ph, adj_m = monomial_adjoint(m_z)
        ph_neg, m_neg = weyl_generator_parts(Monomial(vneg(z.a), vneg(z.b)))
        if adj_m != m_neg or not (adj_ph - ph_z).is_same_rotation(ph_neg):
            yield ""


@check("weyl.group_laws", counted="weyl.automorphism_group_laws_exact")
def _weyl_group_laws(config, rng, frame, d):
    for _ in range(200):
        m = rand_monomial(rng, d)
        lam, mu = rand_coords(rng, d), rand_coords(rng, d)
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
                yield ""


@check("weyl.homomorphism", bounded=("weyl.automorphisms_preserve_products", 1e-12))
def _weyl_homomorphism(config, rng, frame, d):
    one = Element.one(frame)
    for _ in range(50):
        x, y = rand_element(rng, frame, 3), rand_element(rng, frame, 3)
        for spec in (SpaceTranslation(rand_coords(rng, d)),
                     MomentumTranslation(rand_coords(rng, d)),
                     FreeDynamics(rand_fraction(rng)),
                     TimeReversal()):
            lhs = apply_automorphism(spec, x * y)
            rhs = apply_automorphism(spec, x) * apply_automorphism(spec, y)
            yield lhs.max_coeff_diff(rhs), type(spec).__name__
            yield (apply_automorphism(spec, one).max_coeff_diff(one),
                   "unit " + type(spec).__name__)


@check("weyl.time_reversal", bounded=("weyl.time_reversal_involution", 0.0))
def _weyl_time_reversal(config, rng, frame, d):
    for _ in range(100):
        x = rand_element(rng, frame, 4)
        c = rand_complex(rng)
        yield (apply_automorphism(TimeReversal(),
                                  apply_automorphism(TimeReversal(), x))
               .max_coeff_diff(x), "c.c = id")
        lhs = apply_automorphism(TimeReversal(), c * x)
        rhs = c.conjugate() * apply_automorphism(TimeReversal(), x)
        yield lhs.max_coeff_diff(rhs), "antilinearity"


@check("weyl.trace_l2", bounded=("weyl.tracial_l2_identity", 1e-12))
def _weyl_trace_l2(config, rng, frame, d):
    tracial = Tracial()
    for _ in range(200):
        x = rand_element(rng, frame, 10)
        lhs = tracial.evaluate(x.adjoint() * x)
        rhs = _ordered_sum(abs(c) ** 2 for c in x.terms.values())
        yield abs(lhs - rhs), f"{len(x)} terms"


@check("weyl.norm_bound", counted="weyl.tracial_norm_lower_bound_exact")
def _weyl_norm_bound(config, rng, frame, d):
    tracial = Tracial()
    for _ in range(100):
        m1, m2 = rand_monomial(rng, d), rand_monomial(rng, d)
        if m1 == m2:
            continue
        lam, lamp = rand_complex(rng), rand_complex(rng)
        x = Element(frame, {m1: lam}) - Element(frame, {m2: lamp})
        expected = lam.conjugate() * lam + lamp.conjugate() * lamp
        if tracial_inner_product(x, x) != expected:
            yield ""
        if abs(tracial.evaluate(x.adjoint() * x) - expected) > 1e-12:
            yield ""


@check("weyl.trace_pairing", bounded=("weyl.trace_coefficient_pairing", 1e-12))
def _weyl_trace_pairing(config, rng, frame, d):
    tracial = Tracial()
    for _ in range(50):
        x = rand_element(rng, frame, 6)
        m = rng.choice(list(x.terms)) if rng.random() < 0.8 else rand_monomial(rng, d)
        paired = tracial.evaluate(Element.from_monomial(frame, m).adjoint() * x)
        yield abs(paired - x.coefficient(m)), str(m)


# -------------------------------------------------------------- ergodic suite


@check("ergodic.closed_forms", counted="ergodic.closed_form_projections_exact")
def _ergodic_closed_forms(config, rng, frame, d):
    for _ in range(200):
        m = rng.choice([rand_monomial(rng, d), rand_lattice_monomial(rng, d)])
        x = Element.from_monomial(frame, m, rand_complex(rng))
        want_mean = x if is_zero_vector(m.a) else Element.zero(frame)
        want_gamma = x if integer_vector(m.a) is not None else Element.zero(frame)
        want_zak = (x if integer_vector(m.a) is not None
                    and integer_vector(m.b) is not None else Element.zero(frame))
        if (ergodic_mean(x) != want_mean or ergodic_mean_lattice(x) != want_gamma
                or ergodic_mean_zak(x) != want_zak):
            yield str(m)


@check("ergodic.projections", counted="ergodic.means_idempotent_linear")
def _ergodic_projections(config, rng, frame, d):
    for _ in range(100):
        x = rand_element(rng, frame, 6)
        y = rand_element(rng, frame, 6)
        c = rand_complex(rng)
        for mean in (ergodic_mean, ergodic_mean_lattice, ergodic_mean_zak):
            if mean(mean(x)) != mean(x):
                yield ""
            if mean(x + c * y).max_coeff_diff(mean(x) + c * mean(y)) > 1e-12:
                yield ""


@check("ergodic.invariance", counted="ergodic.means_translation_invariant")
def _ergodic_invariance(config, rng, frame, d):
    for _ in range(100):
        x = rand_element(rng, frame, 6)
        lam = rand_coords(rng, d)
        gamma = vector([rng.randint(-3, 3) for _ in range(d)])
        gp = vector([rng.randint(-3, 3) for _ in range(d)])
        if ergodic_mean(apply_automorphism(SpaceTranslation(lam), x)) != ergodic_mean(x):
            yield ""
        moved = apply_automorphism(SpaceTranslation(gamma), x)
        if ergodic_mean_lattice(moved).max_coeff_diff(ergodic_mean_lattice(x)) > 1e-12:
            yield ""
        moved = apply_automorphism(MomentumTranslation(gp),
                                   apply_automorphism(SpaceTranslation(gamma), x))
        if ergodic_mean_zak(moved).max_coeff_diff(ergodic_mean_zak(x)) > 1e-12:
            yield ""


@check("ergodic.box_average")
def _ergodic_box_average(config, rng, frame, d):
    """Box-average decay on a frame with unit ambient momenta."""
    frame_tau = Frame.from_basis([[TAU]])
    x = Element(frame_tau, {
        Monomial(vector([0]), vector([Fraction(1, 3)])): 1.5 + 0.5j,
        Monomial(vector([1]), vector([0])): 1.0,
        Monomial(vector([2]), vector([Fraction(1, 2)])): 1.0,
    })
    sizes = (10.0, 100.0, 1000.0)
    mags = {1: [], 2: []}
    zero_devs = []
    for L in sizes:
        n = int(8 * L)
        avg = numeric_box_average(x, L, n)
        for m, c in x.terms.items():
            a = int(m.a[0].as_fraction()) if m.a[0].is_rational() else None
            if a == 0:
                zero_devs.append(abs(avg.coefficient(m) - c))
            else:
                mags[a].append(abs(avg.coefficient(m)))
    exact_zero_dev = _nan_max(zero_devs)
    bound_ok = all(mag <= 2.0 / (L * a) for a, ms in mags.items()
                   for mag, L in zip(ms, sizes))
    slopes = {}
    for a, ms in mags.items():
        xs = [math.log10(L) for L in sizes]
        ys = [math.log10(m) for m in ms]
        n = len(xs)
        sx, sy = _ordered_sum(xs), _ordered_sum(ys)
        sxy = _ordered_sum(x * y for x, y in zip(xs, ys))
        slope = (n * sxy - sx * sy) / (n * _ordered_sum(x * x for x in xs) - sx ** 2)
        slopes[a] = slope
    slope_ok = all(-1.2 <= s <= -0.8 for s in slopes.values())
    yield CheckResult("ergodic.box_average_zero_mode_exact",
                      exact_zero_dev == 0.0, exact_zero_dev, "a = 0 term")
    yield CheckResult(
        "ergodic.box_average_decay_bound", bound_ok,
        _nan_max(mag * L * a for a, ms in mags.items() for mag, L in zip(ms, sizes)),
        "max of |coef| * L * alpha")
    yield CheckResult(
        "ergodic.box_average_loglog_slope", slope_ok,
        _nan_max(abs(s + 1.0) for s in slopes.values()),
        f"slopes {sorted(slopes.items())}")


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


@check("states.unit", bounded=("states.unit_evaluates_to_one", 1e-12))
def _states_unit(config, rng, frame, d):
    one = Element.one(frame)
    for name, s in _family_zoo(rng, frame):
        yield abs(s.evaluate(one) - 1.0), name


@check("states.vanishing", counted="states.vanishing_structure_exact")
def _states_vanishing(config, rng, frame, d):
    _, bs = _bohr(frame)
    for _ in range(200):
        m = rand_monomial(rng, d)
        pw = PlaneWave(rand_coords(rng, d))
        bl = Bloch(rand_kappa(rng, d), rand_normalized_fhat(rng, d))
        zk = Zak(rand_kappa(rng, d), rand_kappa(rng, d))
        if not is_zero_vector(m.a):
            if pw.monomial_value(frame, m) != 0 or bs.monomial_value(frame, m) != 0:
                yield str(m)
        if integer_vector(m.a) is None and bl.monomial_value(frame, m) != 0:
            yield str(m)
        if ((integer_vector(m.a) is None or integer_vector(m.b) is None)
                and zk.monomial_value(frame, m) != 0):
            yield str(m)


@check("states.invariance")
def _states_invariance(config, rng, frame, d):
    samples = [rand_element(rng, frame, 5) for _ in range(100)]
    pw = PlaneWave(rand_coords(rng, d))
    _, bs = _bohr(frame)
    worst = _nan_max(invariance_check(s, spec, samples, tol=0.0).worst_value
                     for s in (pw, bs)
                     for spec in (SpaceTranslation(rand_coords(rng, d)),
                                  FreeDynamics(rand_fraction(rng))))
    yield CheckResult("states.translation_invariance_exact",
                      worst == 0.0, worst, "plane-wave and character states")

    gamma = vector([rng.randint(-3, 3) for _ in range(d)])
    gp = vector([rng.randint(-3, 3) for _ in range(d)])
    bl = Bloch(rand_kappa(rng, d), rand_normalized_fhat(rng, d))
    rep = invariance_check(bl, SpaceTranslation(gamma), samples, tol=1e-12)
    yield replace(rep, check="states.bloch_lattice_invariance")
    zk = Zak(rand_kappa(rng, d), rand_kappa(rng, d))
    rep = invariance_check(zk, (SpaceTranslation(gamma), MomentumTranslation(gp)),
                           samples, tol=1e-12)
    yield replace(rep, check="states.zak_double_invariance")


@check("states.fock_dynamics")
def _states_fock_dynamics(config, rng, frame, d):
    frame_tau = Frame.from_basis([[TAU]] if d == 1 else
                                 [[TAU if i == j else 0 for j in range(d)]
                                  for i in range(d)])
    probe = Element.from_monomial(frame_tau,
                                  Monomial(vector([1] + [0] * (d - 1)),
                                           vector([0] * d)))
    rep = invariance_check(Fock(), FreeDynamics(Fraction(1)), [probe], tol=1e-10)
    gap = abs(rep.worst_value - abs(math.exp(-0.5) - math.exp(-0.25)))
    yield CheckResult("states.fock_not_free_dynamics_invariant",
                      (not rep.passed) and gap <= 1e-6,
                      rep.worst_value, "u(1)v(0) over the 2*pi frame")


@check("states.positivity")
def _states_positivity(config, rng, frame, d):
    devs = []
    herm = []
    for name, s in _family_zoo(rng, frame):
        probes = draw_distinct(20, lambda: (rand_lattice_monomial(rng, d)
                                        if rng.random() < 0.5 else rand_monomial(rng, d)))
        rep = gram_psd_check(s, frame, probes)
        devs.append((-rep.min_eigenvalue, name))
        herm.append((rep.hermitian_residual, name))
    worst, probe = _worst(devs)
    yield CheckResult("states.gram_psd_min_eigenvalue",
                      worst <= TOL, -worst, probe)
    yield _bounded("states.gram_hermitian_residual", herm, 1e-12)


@check("states.positive_squares", bounded=("states.squares_positive", TOL))
def _states_positive_squares(config, rng, frame, d):
    for name, s in _family_zoo(rng, frame):
        for _ in range(100):
            x = rand_element(rng, frame, 4)
            val = s.evaluate(x.adjoint() * x)
            yield _nan_max((abs(val.imag), 0.0 - min(val.real, 0.0))), name


@check("states.quasimomentum", bounded=("states.bloch_quasimomentum_identity", 1e-12))
def _states_quasimomentum(config, rng, frame, d):
    for _ in range(20):
        kappa = rand_kappa(rng, d)
        s = Bloch(kappa, rand_normalized_fhat(rng, d))
        gamma = [rng.randint(-3, 3) for _ in range(d)]
        c = PhaseAngle.from_turns(-sum((k * g for k, g in zip(kappa, gamma)),
                                       Fraction(0))).to_complex()
        x = Element.v(frame, gamma) - c * Element.one(frame)
        yield abs(s.evaluate(x.adjoint() * x)), f"gamma={gamma}"


@check("states.mixture", counted="states.mixture_affine_exact")
def _states_mixture(config, rng, frame, d):
    parts = [PlaneWave(rand_coords(rng, d)), Zak(rand_kappa(rng, d), rand_kappa(rng, d)), Tracial()]
    mix = Mixture([(0.5, parts[0]), (0.25, parts[1]), (0.25, parts[2])])
    for _ in range(50):
        x = rand_element(rng, frame, 5)
        want = (0.5 * parts[0].evaluate(x) + 0.25 * parts[1].evaluate(x)
                + 0.25 * parts[2].evaluate(x))
        if mix.evaluate(x) != want:
            yield ""


@check("states.padic", counted="states.padic_character_multiplicative_exact")
def _states_padic(config, rng, frame, d):
    for _ in range(500):
        xq = rand_fraction(rng)
        yq = rand_fraction(rng)
        total = padic_fraction(xq + yq, 3) - padic_fraction(xq, 3) - padic_fraction(yq, 3)
        if total.denominator != 1:
            yield ""


@check("states.padic_witness")
def _states_padic_witness(config, rng, frame, d):
    s = BohrState(PadicCharacter((3,) * d))
    target = cmath.exp(2j * math.pi * Fraction(2, 3))
    padic_frame = frame if _rational_frame(frame) else Frame.standard(d)

    def dev(n):
        b = Fraction(-1, 3 * (3 * n + 2))
        x = Element.v(padic_frame, [b] + [0] * (d - 1))
        return abs(s.evaluate(x) - target), f"n={n}"
    worst, probe = _worst(dev(n) for n in range(51))
    gap = abs(abs(target - 1.0) - math.sqrt(3.0))
    yield CheckResult("states.padic_discontinuity_witness",
                      worst <= 1e-12 and gap <= 1e-12,
                      _nan_max((worst, gap)), probe)


@check("states.weak_star", bounded=("states.weak_star_pseudometric", 1e-12))
def _states_weak_star(config, rng, frame, d):
    probes = [rand_element(rng, frame, 4) for _ in range(10)]
    zoo = [s for _, s in _family_zoo(rng, frame)]
    for s in zoo:
        yield weak_star_distance(s, s, probes), "self distance"
    for _ in range(20):
        s1, s2, s3 = rng.sample(zoo, 3)
        d12 = weak_star_distance(s1, s2, probes)
        d21 = weak_star_distance(s2, s1, probes)
        d13 = weak_star_distance(s1, s3, probes)
        d23 = weak_star_distance(s2, s3, probes)
        yield abs(d12 - d21), "symmetry"
        yield _nan_max((0.0, d13 - d12 - d23)), "triangle"


# ----------------------------------------------------------- covariance suite


@check("covariance.random", bounded=("covariance.dual_lattice_shift", 1e-12))
def _covariance_random(config, rng, frame, d):
    for _ in range(20):
        kappa = rand_kappa(rng, d)
        fhat = rand_normalized_fhat(rng, d, radius=1)
        gp = [rng.randint(-2, 2) for _ in range(d)]
        probes = [rand_monomial(rng, d) if rng.random() < 0.3
                  else rand_lattice_monomial(rng, d) for _ in range(30)]
        rep = covariance_check(kappa, fhat, gp, probes)
        yield rep.worst_value, f"gamma'={gp} {rep.worst_probe}"


@check("covariance.zero_shift", counted="covariance.zero_shift_identity_exact")
def _covariance_zero_shift(config, rng, frame, d):
    for _ in range(10):
        kappa = rand_kappa(rng, d)
        fhat = rand_normalized_fhat(rng, d, radius=1)
        probes = [rand_lattice_monomial(rng, d) for _ in range(10)]
        rep = covariance_check(kappa, fhat, [0] * d, probes)
        if rep.worst_value != 0.0:
            yield ""


# ------------------------------------------------------------------ tri suite


@check("tri.fixed_points")
def _tri_fixed_points(config, rng, frame, d):
    frame2 = Frame.standard(2)
    pts = enumerate_trs_fixed_points(frame2)
    ok = (len(pts) == 4 and len(set(pts)) == 4
          and all(all((-k) % 1 == k for k in kappa) for kappa in pts))
    yield CheckResult("tri.fixed_point_count_d2", ok,
                      float(abs(len(pts) - 4)), f"{pts}")

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
    yield _counted("tri.plane_wave_iff_zero_momentum", failures)

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
    yield _counted("tri.zak_iff_fixed_point", failures)


@check("tri.bloch")
def _tri_bloch(config, rng, frame, d):
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
            frame, _ratio_monomial(_lattice_ratios(rng, d, 2) + _rand_ratios(rng, d)),
            rand_complex(rng)))
    # omega(u_a v_b) vanishes unless a is a difference of two support points,
    # which may lie outside [-2, 2]^d: each state also gets one probe per
    # difference, drawn from a generator of its own so the probes above keep
    # their draws
    diff_rng = config.rng("tri.bloch.differences")
    mismatches = []
    tri_devs = []
    for s in states:
        verdict = time_reversal_classify(s)
        support = [n for n, _ in s.fhat]
        own = [Element.from_monomial(frame, Monomial(vector(a), rand_coords(diff_rng, d)),
                                     rand_complex(diff_rng))
               for a in sorted({tuple(map(sub, n, k)) for n in support for k in support
                                if n != k})]
        dev = _nan_max(abs(s.evaluate(apply_automorphism(TimeReversal(), x))
                           - s.evaluate(x).conjugate()) for x in probes + own)
        functional = dev <= TOL
        if functional != verdict.is_tri:
            mismatches.append(f"{s!r}: verdict={verdict.is_tri} dev={dev:.3g}")
        if verdict.is_tri:
            tri_devs.append(dev)
    rep = _counted("tri.bloch_criterion_matches_functional", mismatches)
    yield replace(rep, worst_value=rep.worst_value or _nan_max(tri_devs))


# ------------------------------------------------------------------ zak suite


@check("zak.double_average")
def _zak_double_average(config, rng, frame, d):
    frame1 = Frame.standard(1)
    n = 8
    shifts = [vector([g]) for g in range(-n, n + 1)]
    devs = []
    witness = ""
    for _ in range(40):
        m = rng.choice([rand_monomial(rng, 1), rand_lattice_monomial(rng, 1)])
        kept = not ergodic_mean_zak(Element.from_monomial(frame1, m)).is_zero()
        space = [automorphism_action(SpaceTranslation(g), frame1, m)[0] for g in shifts]
        momentum = [automorphism_action(MomentumTranslation(g), frame1, m)[0] for g in shifts]
        total = 0j
        for ph1 in space:
            for ph2 in momentum:
                total += (ph1 + ph2).to_complex()
        avg = abs(total) / (2 * n + 1) ** 2
        if kept and not abs(avg - 1.0) <= 1e-12:
            devs.append(abs(avg - 1.0))
            witness = witness or f"kept {m} but average {avg:.3g}"
        if not kept and not avg <= 0.5:
            devs.append(avg)
            witness = witness or f"dropped {m} but average {avg:.3g}"
    worst = _nan_max(devs)
    yield CheckResult("zak.projection_matches_character_average",
                      worst == 0.0, worst, witness)


@check("zak.multiplicativity")
def _zak_multiplicativity(config, rng, frame, d):
    zak = Zak(rand_kappa(rng, d), rand_kappa(rng, d))
    probes = draw_distinct(12, lambda: rand_lattice_monomial(rng, d, span=2))
    rep = multiplicativity_check(zak, frame, probes)
    yield replace(rep, check="zak.multiplicative_on_lattice_probes")

    pw = PlaneWave(rand_coords(rng, d))
    vprobes = draw_distinct(
        10, lambda: _ratio_monomial([(0, 1)] * d + _rand_ratios(rng, d)))
    rep = multiplicativity_check(pw, frame, vprobes)
    yield replace(rep, check="zak.plane_wave_multiplicative")

    e1 = [1] + [0] * (d - 1)
    tprobes = [Monomial(vector([0] * d), vector(e1)),
               Monomial(vector([0] * d), vector([-c for c in e1]))]
    rep = multiplicativity_check(Tracial(), frame, tprobes)
    yield replace(rep, check="zak.tracial_multiplicativity_gap_is_one",
                  passed=(not rep.passed) and rep.worst_value == 1.0)


@check("zak.purity_line", counted="zak.zero_state_is_one_on_lattice")
def _zak_purity_line(config, rng, frame, d):
    zak0 = Zak([0] * d, [0] * d)
    for _ in range(50):
        m = rand_lattice_monomial(rng, d)
        if zak0.monomial_value(frame, m) != 1.0 + 0j:
            yield ""


# ------------------------------------------------------------------ gns suite


@check("gns.oracle", bounded=("gns.bloch_reconstruction_oracle", TOL))
def _gns_oracle(config, rng, frame, d):
    for dim in (1, 2):
        window = FourierWindow((-6,) * dim, (6,) * dim)
        for _ in range(25):
            kappa = rand_kappa(rng, dim)
            fhat = rand_normalized_fhat(rng, dim, radius=2)
            for _ in range(2):
                m = _ratio_monomial(_lattice_ratios(rng, dim, 3) + _rand_ratios(rng, dim))
                lhs = bloch_vector_state(kappa, fhat, m, window)
                rhs = bloch_monomial_value(kappa, fhat, m)
                yield abs(lhs - rhs), f"d={dim} {m}"


@check("gns.rho_scalar", counted="gns.rho_of_lattice_v_is_exact_scalar")
def _gns_rho_scalar(config, rng, frame, d):
    import numpy as np

    window = FourierWindow((-4,), (4,))
    for _ in range(20):
        kappa = rand_kappa(rng, 1)
        gamma = rng.randint(-4, 4)
        m = Monomial(vector([0]), vector([gamma]))
        mat = rep_rho_kappa(kappa, m, window)
        phase = PhaseAngle.from_turns(-kappa[0] * gamma).to_complex()
        if not np.array_equal(mat, phase * np.eye(len(window))):
            yield f"kappa={kappa} gamma={gamma}"
        if abs(phase - cmath.exp(-2j * math.pi * float(kappa[0] * gamma))) > 1e-12:
            yield ""


@check("gns.weyl_relation", bounded=("gns.weyl_relation_interior_residual", 1e-12))
def _gns_weyl_relation(config, rng, frame, d):
    window = FourierWindow((-5,), (5,))
    for _ in range(20):
        gp = (rng.randint(-2, 2),)
        b = [rand_fraction(rng)]
        yield weyl_relation_residual(gp, b, window), f"gp={gp} b={b}"


@check("gns.operators", bounded=("gns.truncated_operator_structure", 1e-12))
def _gns_operators(config, rng, frame, d):
    import numpy as np

    window = FourierWindow((-5,), (5,))
    for _ in range(10):
        b1, b2 = [rand_fraction(rng)], [rand_fraction(rng)]
        s1 = op_S(b1, window)
        s2 = op_S(b2, window)
        s12 = op_S([b1[0] + b2[0]], window)
        yield float(np.max(np.abs(s1 @ s2 - s12))), "S additivity"
        yield (float(np.max(np.abs(s1 @ s1.conj().T - np.eye(len(window))))),
               "S unitary")
        gp = (rng.randint(-2, 2),)
        f = op_F(gp, window)
        proj = f.conj().T @ f
        yield float(np.max(np.abs(proj @ proj - proj))), "F partial isometry"


@check("gns.plane_wave", bounded=("gns.plane_wave_vector_state_oracle", 1e-12))
def _gns_plane_wave(config, rng, frame, d):
    standards = [Frame.standard(dim) for dim in (1, 2)]
    for _ in range(20):
        dim = 1 + rng.randint(0, 1)
        p = rand_coords(rng, dim)
        a = rand_coords(rng, dim)
        b = rand_coords(rng, dim)
        m = Monomial(a, b) if rng.random() < 0.6 else Monomial(vector([0] * dim), b)
        momentum_set = [p, vector([pi + ai for pi, ai in zip(p, a)]),
                        vector([pi + ai for pi, ai in zip(p, m.a)])]
        momentum_set = list({tuple(q): q for q in momentum_set}.values())
        val = plane_wave_vector_state(p, m, momentum_set)
        standard = standards[dim - 1]
        state = PlaneWave(standard.to_ambient_momentum(p))
        want = state.monomial_value(standard, m)
        yield abs(val - want), f"d={dim} {m}"


# ---------------------------------------------------------------- paths suite


#: the coarse grid of ``paths.probes``: steps of 1/16, refined to 1/32
PATH_GRID = 16


@check("paths.probes")
def _paths_probes(config, rng, frame, d):
    # the fixed lattice monomials keep the Zak family visible on the probe set
    probes = path_probes(rng, frame, [Element.from_monomial(
        frame, Monomial(vector([a] + [0] * (d - 1)), vector([b] + [0] * (d - 1))))
        for a, b in ((1, 0), (0, 1), (1, 1), (-1, 2))])

    def grid(n):
        return [Fraction(k, n) for k in range(n + 1)]

    def max_consecutive(states):
        return _nan_max(weak_star_distance(s1, s2, probes)
                        for s1, s2 in zip(states, states[1:]))

    kinds = []
    p0 = PlaneWave(rand_coords(rng, d, max_num=2, max_den=3, nonzero=True))
    kinds.append(("plane_wave_line", (p0, PlaneWave(vector([0] * d)))))
    kinds.append(("zak_line", (Zak(rand_kappa(rng, d), rand_kappa(rng, d)),
                               Zak(rand_kappa(rng, d), rand_kappa(rng, d)))))
    kinds.append(("bloch_slerp", (Bloch(rand_kappa(rng, d), rand_normalized_fhat(rng, d)),
                                  Bloch(rand_kappa(rng, d), rand_normalized_fhat(rng, d)))))

    ratio_devs = []
    endpoint_fail = []
    for kind, endpoints in kinds:
        coarse = path_sample(kind, endpoints, grid(PATH_GRID))
        fine = path_sample(kind, endpoints, grid(2 * PATH_GRID))
        if coarse[0] is not endpoints[0] or coarse[-1] is not endpoints[1]:
            endpoint_fail.append("")
        step = max_consecutive(coarse)
        if step:  # a path between equal endpoints stands still: it has no rate
            ratio_devs.append((abs(max_consecutive(fine) / step - 0.5), kind))
    yield _counted("paths.endpoints_reproduced_exactly", endpoint_fail)
    yield _bounded("paths.linear_refinement_rate", ratio_devs, 0.1)

    pw_path = path_sample("plane_wave_line",
                          (p0, PlaneWave(vector([0] * d))), grid(100))
    final = pw_path[-1]
    yield CheckResult("paths.plane_wave_terminates_at_zero_momentum",
                      isinstance(final, PlaneWave)
                      and all(c.is_zero() for c in final.p),
                      0.0, "t = 1")


def _suite(key: str):
    """The suite ``key``: every row named ``key.*``, in table order.  Given
    ``pending`` (row name -> future), a row's results are its future's
    result instead of a run in this process."""
    def suite(config: RunConfig, pending=None) -> list:
        return [result for name, run in CHECKS.items() if name.startswith(key + ".")
                for result in (run(config) if pending is None else pending[name].result())]
    return suite


SUITES = {key: _suite(key) for key in dict.fromkeys(name.split(".")[0] for name in CHECKS)}
(suite_weyl, suite_ergodic, suite_states, suite_covariance, suite_tri, suite_zak, suite_gns,
 suite_paths) = SUITES.values()


def _run_row(name: str, config: RunConfig) -> list:
    """A worker's task: the row ``name`` on ``config``."""
    return CHECKS[name](config)


def _workers(rows: int) -> int:
    """Worker processes for ``rows`` rows: one per usable CPU and never more
    than the rows; 1, which runs them in this process, where the platform
    has no ``fork``, this process is a daemonic worker itself, or another
    thread runs here (a fork copies the locks it holds, but not the thread)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    if min(cpus, rows) < 2:
        return 1
    import multiprocessing
    import threading

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon or threading.active_count() > 1):
        return 1
    return min(cpus, rows)


def run_suite(name: str, config: RunConfig) -> list:
    """One suite by name, or every suite in ``SUITES`` order for "all".

    For "all", the suites are called here in table order while their rows
    run on ``_workers`` processes forked for this call, all rows submitted
    at once; the results come back in table order, so the report does not
    depend on the number of workers.  The workers are joined before this
    returns or raises, and a row's exception is raised here.  A single suite
    runs in this process: its few rows gain less than a pool costs.
    """
    if name != "all":
        return SUITES[name](config)
    workers = _workers(len(CHECKS))
    if workers == 1:
        return [result for suite in SUITES.values() for result in suite(config)]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"))
    try:
        pending = {row: pool.submit(_run_row, row, config) for row in CHECKS}
        return [result for suite in SUITES.values() for result in suite(config, pending)]
    finally:
        pool.shutdown(cancel_futures=True)
