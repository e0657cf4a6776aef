"""Closed-form evaluation of the invariant-state families, plus the checks
(positivity, invariance, multiplicativity, time reversal, covariance,
weak-star probing, path sampling) that certify them.

Every family evaluates monomials through a closed form whose oscillatory
phases are exact angles; only Gaussian factors and coefficient merges use
floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub
from typing import Mapping, Sequence

from .algebra import (
    ANYWHERE,
    BLOCH_SYMMETRY,
    BOHR_SYMMETRY,
    TRACIAL_SYMMETRY,
    ZAK_SYMMETRY,
    ZERO,
    AutomorphismSpec,
    Element,
    Monomial,
    Symmetry,
    _finite,
    apply_automorphism,
    monomial_adjoint,
    monomial_product,
)
from .characters import BohrCharacter, ContinuousCharacter, character_eval, character_is_trivial
from .errors import (
    DimensionMismatch,
    FamilyMismatch,
    InvalidObject,
    InvalidParameter,
    InvalidProbeSet,
    NotAScalar,
    NotAState,
    OutOfSubalgebra,
    Unsupported,
    WeylError,
    _require,
)
from .lattice import (
    Frame,
    Vector,
    _unit_cell,
    integer_point,
    integer_vector,
    is_zero_vector,
    rational_label,
    vdot,
    vector,
)
from .scalars import ExactScalar, PhaseAngle, rational_key, unit_from_turns

NORMALIZATION_TOL = 1e-12
#: the bound of the Gram eigenvalue, of invariance and of Bloch time reversal
TOL = 1e-10


@dataclass(frozen=True)
class TimeReversalVerdict:
    is_tri: bool
    certificate: str


class StateModel:
    """Base class: a state evaluates elements linearly over their terms; a
    family with a closed-form time-reversal criterion overrides ``time_reversal``.

    Two declarations say where the values are exactly 0, and the closed
    forms and ``gram_psd_check`` rely on them.  ``symmetry`` is None or the
    one ``algebra.Symmetry`` with omega(u_a v_b) = 0j off its kept set; a
    ``Mixture`` declares the ``Symmetry.join`` of its components'.
    ``vanishing_width`` is None or a width past which |F a|^2 + |E b|^2
    makes every value 0.0, with a safety factor for its estimate in doubles.
    A subclass that defines its own ``monomial_value`` and no ``symmetry``
    gets None for it.
    """

    symmetry = None
    vanishing_width = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "monomial_value" in vars(cls) and "symmetry" not in vars(cls):
            cls.symmetry = None

    def monomial_value(self, frame: Frame, m: Monomial) -> complex:
        raise Unsupported(f"{type(self).__name__} has no closed form")

    def time_reversal(self) -> TimeReversalVerdict:
        raise Unsupported(f"no time-reversal criterion for {type(self).__name__}")

    def evaluate(self, x: Element) -> complex:
        _require((x, Element))
        total = 0j
        for m, c in x.terms.items():
            total += c * self.monomial_value(x.frame, m)
        return total


@dataclass(frozen=True)
class BohrState(StateModel):
    """Pure translation-invariant state attached to a character of R^d."""

    char: BohrCharacter

    symmetry = BOHR_SYMMETRY

    def __post_init__(self):
        _require((self.char, BohrCharacter))

    def monomial_value(self, frame, m):
        if m.d != self.char.dim:
            raise DimensionMismatch(f"a {self.char.dim}-d Bohr state on a {m.d}-d monomial")
        if not BOHR_SYMMETRY.keeps(m):
            return 0j
        beta = frame.to_ambient_position(m.b)
        return (-character_eval(self.char, beta)).to_complex()

    def time_reversal(self):
        tri = character_is_trivial(self.char)
        return TimeReversalVerdict(tri, "trivial character" if tri else "nontrivial character")


@dataclass(frozen=True)
class PlaneWave(StateModel):
    """Pure translation-invariant state with momentum p (ambient coordinates):
    the Bohr state of the continuous character e^{i p . beta}."""

    p: Vector

    def __post_init__(self):
        object.__setattr__(self, "p", vector(self.p))
        object.__setattr__(self, "char", ContinuousCharacter(self.p))

    symmetry = BOHR_SYMMETRY
    monomial_value = BohrState.monomial_value

    def time_reversal(self):
        tri = is_zero_vector(self.p)
        return TimeReversalVerdict(tri, "p = 0" if tri else "p != 0")


@dataclass(frozen=True)
class Bloch(StateModel):
    """Pure lattice-invariant position-regular state: a quasi-momentum
    ``kappa`` (rational coordinates in [0,1)) and the Fourier data ``fhat``
    of a unit vector on the torus, whose span is the rank-one projection of
    the abstract description, stored as the sorted (index, value) pairs of
    its support.  kappa as exact scalars and fhat as a dict are built once."""

    kappa: tuple
    fhat: tuple

    def __post_init__(self):
        kappa = rational_label(self.kappa, NotAState)
        if any(not (0 <= k < 1) for k in kappa):
            raise NotAState("quasi-momentum coordinates must lie in [0, 1)")
        fhat = _unit_fourier_data(self.fhat, len(kappa))
        fhat = tuple(sorted(((idx, val) for idx, val in fhat.items() if val != 0),
                            key=lambda kv: kv[0]))
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "fhat", fhat)
        object.__setattr__(self, "_kappa_exact", vector(kappa))
        object.__setattr__(self, "_fhat_dict", dict(fhat))

    @property
    def symmetry(self) -> Symmetry:
        """``BLOCH_SYMMETRY`` filtered by the difference set of supp fhat."""
        return Symmetry(BLOCH_SYMMETRY.momentum, BLOCH_SYMMETRY.position, self._in_differences)

    def _in_differences(self, n: tuple) -> bool:
        """p + n lies in supp fhat for some p in supp fhat, so the closed form's
        sum has a term; True in another dimension, where it raises."""
        if len(n) != len(self.kappa):
            return True
        f = self._fhat_dict
        for p in f:
            if tuple(map(add, p, n)) in f:
                return True
        return False

    def monomial_value(self, frame, m):
        return _bloch_closed_form(self._kappa_exact, self._fhat_dict, m)

    def time_reversal(self):
        two_kappa = [2 * k for k in self.kappa]
        if any(t.denominator != 1 for t in two_kappa):
            return TimeReversalVerdict(False, "2*kappa is not a dual-lattice point")
        shift = tuple(int(t) for t in two_kappa)
        f = self._fhat_dict
        support = set()
        for n in f:
            support.add(tuple(-c for c in n))                       # conj(f(-n))
            support.add(tuple(c + s for c, s in zip(n, shift)))     # f(n - 2k) support
        g1 = {n: f.get(tuple(-c for c in n), 0j).conjugate() for n in support}
        g2 = {n: f.get(tuple(c - s for c, s in zip(n, shift)), 0j) for n in support}
        inner = sum(g2[n].conjugate() * g1[n] for n in support)
        if abs(abs(inner) - 1.0) > TOL:
            return TimeReversalVerdict(
                False, "conjugated and shifted vectors are not parallel "
                f"(|<.,.>| = {abs(inner):.3g})")
        residual = max(abs(g1[n] - inner * g2[n]) for n in support)
        if residual > TOL:
            return TimeReversalVerdict(False, f"parallelism residual {residual:.3g}")
        return TimeReversalVerdict(
            True, "conj(fhat(-n)) is a unit multiple of fhat(n - 2 kappa)")

    def __repr__(self):
        return f"Bloch(kappa={self.kappa}, support={[i for i, _ in self.fhat]})"


def _fourier_data(fhat: Mapping, d: int) -> dict:
    """Raw Fourier data as a dict from tuples of d ints to finite complex
    numbers, in the order of ``fhat``, or NotAState."""
    if not isinstance(fhat, Mapping):
        raise NotAState(f"fhat {fhat!r:.40} is not a mapping from indices to values")
    out = {}
    for idx, val in fhat.items():
        idx = integer_point(idx, NotAState)
        if len(idx) != d:
            raise NotAState(f"fhat index {idx} is not {d}-dimensional")
        out[idx] = _finite(val, complex, NotAState)
    return out


def _unit_fourier_data(fhat: Mapping, d: int) -> dict:
    """``_fourier_data`` of a unit vector: its l2 norm squared, summed from
    left to right, within NORMALIZATION_TOL of 1, or NotAState."""
    fhat = _fourier_data(fhat, d)
    norm_sq = _ordered_sum(abs(val) ** 2 for val in fhat.values())
    if not abs(norm_sq - 1.0) <= NORMALIZATION_TOL:  # NaN fails too
        raise NotAState(f"fhat is not l2-normalized: |f|^2 = {norm_sq!r}")
    return fhat


def bloch_monomial_value(kappa, fhat: Mapping[tuple, complex], m: Monomial) -> complex:
    """Fourier closed form, valid for any rational kappa (not range-reduced).

    chi(a integral) * e^{-i kappa.beta} * sum_n conj(fhat(n+a)) fhat(n) e^{-i n.beta}
    with every oscillatory phase exact.  Raises NotAState on a kappa that is
    not rational, an index of ``fhat`` that is not a tuple of len(kappa)
    integers or a value that is not a finite number.
    """
    _require((m, Monomial))
    kappa = rational_label(kappa, NotAState)
    return _bloch_closed_form(kappa, _fourier_data(fhat, len(kappa)), m)


def _bloch_closed_form(kappa, fhat: Mapping[tuple, complex], m: Monomial) -> complex:
    """``bloch_monomial_value`` on a checked label and checked Fourier data."""
    if m.d != len(kappa):
        raise DimensionMismatch(f"a {len(kappa)}-d Bloch state on a {m.d}-d monomial")
    if not BLOCH_SYMMETRY.keeps(m):
        return 0j
    kappa = vector(kappa)
    key, kappa_key = m._key, rational_key(kappa)
    if key is not None and kappa_key is not None:
        return _keyed_bloch(kappa_key, fhat, key)
    a_int = integer_vector(m.a)
    total = 0j
    for n, fn in fhat.items():
        shifted = tuple(ni + ai for ni, ai in zip(n, a_int))
        gn = fhat.get(shifted)
        if gn is None:
            continue
        angle = PhaseAngle.from_dot(tuple(k + ni for k, ni in zip(kappa, n)), m.b, -1)
        total += gn.conjugate() * fn * angle.to_complex()
    return total


def _keyed_bloch(kappa_key: tuple, fhat: Mapping[tuple, complex], key: tuple) -> complex:
    """The closed form for kappa = n_kappa / D_kappa and the keyed monomial
    (D, n) with a integral: each phase -(kappa + n') . b is
    -((n_kappa + D_kappa n') . n_b) turns over D * D_kappa, on ints, in the
    order of the Q(tau) loop above, and no coordinate scalar is built."""
    (Dk, nk), (D, n) = kappa_key, key
    d = len(nk)
    a_int = [x // D for x in n[:d]]
    nb = n[d:]
    turns = D * Dk
    total = 0j
    for idx, fn in fhat.items():
        gn = fhat.get(tuple(map(add, idx, a_int)))
        if gn is None:
            continue
        k = -sum((x + Dk * i) * y for x, i, y in zip(nk, idx, nb)) % turns
        total += gn.conjugate() * fn * unit_from_turns(k, turns)
    return total


@dataclass(frozen=True)
class Zak(StateModel):
    """Pure state invariant under both lattice translations; a character of
    the doubled lattice labelled by (kappa, nu)."""

    kappa: tuple
    nu: tuple

    symmetry = ZAK_SYMMETRY

    def __post_init__(self):
        kappa = rational_label(self.kappa, NotAState)
        nu = rational_label(self.nu, NotAState)
        if len(kappa) != len(nu):
            raise NotAState("kappa and nu dimensions differ")
        if any(not (0 <= k < 1) for k in kappa + nu):
            raise NotAState("Zak labels must lie in [0, 1)")
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "_labels_key", rational_key(vector(kappa + nu)))

    def monomial_value(self, frame, m):
        d = len(self.kappa)
        if m.d != d:
            raise DimensionMismatch(f"a {d}-d Zak state on a {m.d}-d monomial")
        if not ZAK_SYMMETRY.keeps(m):
            return 0j
        # a and b are integral, so the key is (1, n): -(kappa . b + a . nu)
        # turns are -(n_kappa . n_b + n_nu . n_a) over D_labels
        n = m._key[1]
        turns, nl = self._labels_key
        k = -(sum(map(mul, nl[:d], n[d:])) + sum(map(mul, nl[d:], n[:d]))) % turns
        return unit_from_turns(k, turns)

    def time_reversal(self):
        tri = all(k in (Fraction(0), Fraction(1, 2)) for k in self.kappa)
        return TimeReversalVerdict(tri, "kappa is a reflection fixed point" if tri
                                   else f"kappa = {self.kappa} is not fixed by reflection")


_HALF = ExactScalar.rational(1, 2)


@dataclass(frozen=True)
class Fock(StateModel):
    """The regular Gaussian ground state."""

    #: exp(-x) is 0.0 from x = 745.1332191019412 on, so exp(-w / 4) is 0.0
    #: from w = 2980.53 on.  Past 1.5 times that, a width estimated in doubles
    #: may be 22% off in sqrt(w) and still underflow; the estimate's own
    #: rounding accounts for less than 1e-5 of it (``_AMBIENT_BOUND``), and the
    #: rest is room for the error of ``ExactScalar.evaluate`` in its inputs.
    vanishing_width = 1.5 * 2981

    def monomial_value(self, frame, m):
        phase = PhaseAngle.from_turns(_HALF * vdot(m.a, m.b))
        width = frame.momentum_norm_sq(m.a) + frame.position_norm_sq(m.b)
        return phase.to_complex() * math.exp(-width.evaluate() / 4.0)


@dataclass(frozen=True)
class Tracial(StateModel):
    """t(u_a v_b) = 1 iff (a, b) = (0, 0): the canonical tracial state."""

    symmetry = TRACIAL_SYMMETRY

    def monomial_value(self, frame, m):
        return 1.0 + 0j if TRACIAL_SYMMETRY.keeps(m) else 0j


@dataclass(frozen=True, eq=False)
class Mixture(StateModel):
    """Finite convex combination of states, given as (weight, state) pairs."""

    components: tuple

    def __post_init__(self):
        comps = []
        total = 0.0
        for w, s in self.components:
            w = _finite(w, float, NotAState)
            if not w > 0:  # NaN fails too
                raise NotAState("mixture weights must be positive")
            if not isinstance(s, StateModel):
                raise NotAState("mixture components must be states")
            comps.append((w, s))
            total += w
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise NotAState(f"mixture weights sum to {total!r}")
        object.__setattr__(self, "components", tuple(comps))

    @property
    def symmetry(self) -> Symmetry | None:
        """The join of the components' declarations."""
        return Symmetry.join(s.symmetry for _, s in self.components)

    def monomial_value(self, frame, m):
        return sum(w * s.monomial_value(frame, m) for w, s in self.components)

    def __repr__(self):
        return f"Mixture({[(w, type(s).__name__) for w, s in self.components]})"


# -- verification reports -----------------------------------------------------


def _as_dict(report) -> dict:
    """A report's fields by name in their order, ``passed`` as "pass"."""
    return {"pass" if k == "passed" else k: v for k, v in vars(report).items()}


@dataclass(frozen=True)
class GramReport:
    min_eigenvalue: float
    hermitian_residual: float
    passed: bool

    as_dict = _as_dict


@dataclass(frozen=True)
class CheckResult:
    """Verdict of one check: the pass flag, the worst value and its probe."""

    check: str
    passed: bool
    worst_value: float
    worst_probe: str

    as_dict = _as_dict


# -- checks --------------------------------------------------------------------


def _worst(pairs, fmt=str):
    """(value, fmt(probe)) for the largest value, the last of equal values
    winning; (0.0, "") when no value reaches 0.  NaN counts as larger than
    any number, so a NaN deviation fails its bound and names its probe.  Only
    the winner is formatted."""
    worst, probe = 0.0, None
    for value, candidate in pairs:
        if value >= worst or value != value:
            worst, probe = value, candidate
    return worst, ("" if probe is None else fmt(probe))


def _nan_max(values) -> float:
    """The largest of the non-negative ``values``, 0.0 for none, and NaN
    when one of them is NaN, wherever it falls (``max`` keeps a NaN only in
    first place)."""
    return _worst((value, None) for value in values)[0]


def _ordered_sum(values) -> float:
    """The sum of ``values`` from left to right.  The builtin ``sum``
    compensates float sums from Python 3.12 on, so a report summed with it
    would depend on the interpreter."""
    total = 0.0
    for value in values:
        total += value
    return total


def _bounded(check: str, pairs, bound: float, fmt=str) -> CheckResult:
    """Passes when the worst of the (value, probe) pairs is at most ``bound``."""
    worst, probe = _worst(pairs, fmt)
    return CheckResult(check, worst <= bound, worst, probe)


def gram_psd_check(state: StateModel, frame: Frame, probes: Sequence[Monomial]) -> GramReport:
    """Positivity witness: the Gram matrix H_ij = omega(m_i* m_j) must be PSD,
    its least eigenvalue at least -TOL.

    An entry that ``symmetry`` or ``vanishing_width`` says vanishes stays 0j,
    with no product, phase or value formed.  m_i* m_j has momentum a_j - a_i
    and position b_j - b_i: each probe gets one cell pair, the unit cells
    (``lattice._unit_cell``) of its a and b, and an entry vanishes where a
    half has both cells and they differ in fractional parts, or in integer
    parts in a ZERO half, or where floor(a_j) - floor(a_i) fails the filter
    (``_apart``).  An entry also vanishes whose width |F(a_j - a_i)|^2 +
    |E(b_j - b_i)|^2, estimated from the probes' ambient points in doubles,
    is past the ``vanishing_width``.  A formed entry whose value is zero (a
    Fock value that underflowed, say) gets no phase.
    """
    import numpy as np

    if not probes:
        raise InvalidProbeSet("need at least one probe")
    probes = _monomial_probes(probes, state, frame)
    if len(set(probes)) != len(probes):
        raise InvalidProbeSet("probes must be distinct")
    n = len(probes)
    symmetry, width = state.symmetry, state.vanishing_width
    cells = None  # a cell is None in a half the symmetry leaves ANYWHERE or that has tau
    if symmetry is not None:
        groups = symmetry.momentum, symmetry.position
        cells = [tuple(None if group is ANYWHERE or key is None else _unit_cell(*key)
                       for group, key in zip(groups, (rational_key(m.a), rational_key(m.b))))
                 for m in probes]
    points = _ambient_points(frame, probes) if width is not None else (None,) * n
    H = np.zeros((n, n), dtype=complex)
    for i, mi in enumerate(probes):
        phase_i, mi_star = monomial_adjoint(mi)
        point_i = points[i]
        for j, mj in enumerate(probes):
            if cells is not None and _apart(symmetry, cells[i], cells[j]):
                continue
            point_j = points[j]
            if point_i is not None and point_j is not None and sum(
                    (x - y) ** 2 for x, y in zip(point_i, point_j)) > width:
                continue
            phase_ij, mij = monomial_product(mi_star, mj)
            value = state.monomial_value(frame, mij)
            if value:  # a 0j entry, also one that underflowed, needs no phase
                H[i, j] = (phase_i + phase_ij).to_complex() * value
    residual = float(np.max(np.abs(H - H.conj().T)))
    min_eig = float(np.min(np.linalg.eigvalsh((H + H.conj().T) / 2.0)))
    return GramReport(min_eig, residual, min_eig >= -TOL)


def _apart(symmetry: Symmetry, cells_i: tuple, cells_j: tuple) -> bool:
    """Whether the cell pairs of m_i and m_j make omega(m_i* m_j) vanish by
    ``symmetry``, as ``gram_psd_check`` says."""
    (ai, bi), (aj, bj) = cells_i, cells_j
    return (ai is not None and aj is not None and (
                ai[0] != aj[0] or symmetry.momentum is ZERO and ai[1] != aj[1]
                or symmetry.filter is not None
                and not symmetry.filter(tuple(map(sub, aj[1], ai[1]))))
            or bi is not None and bj is not None and (
                bi[0] != bj[0] or symmetry.position is ZERO and bi[1] != bj[1]))


#: the largest sum of the terms |F_rk a_k| and |E_rk b_k| of an ambient point:
#: it keeps the rounding error of an estimated sqrt(width) below 1e-5, far
#: inside the factor in a declared ``vanishing_width``
_AMBIENT_BOUND = 2.0 ** 32


def _ambient_points(frame: Frame, probes: Sequence[Monomial]) -> list:
    """Per probe m = u_a v_b, its ambient point (F a, E b) in doubles, from
    ``frame.doubles`` and n / D for a keyed probe, ``ExactScalar.evaluate``
    otherwise; None where the doubles raise or leave ``_AMBIENT_BOUND``."""
    d, doubles = frame.d, frame.doubles
    if doubles is None:
        return [None] * len(probes)
    F, E = doubles
    points = []
    for m in probes:
        key = m._key
        try:
            if key is None:
                coords = [x.evaluate() for x in m.a + m.b]
            else:
                D, n = key
                coords = [x / D for x in n]
        except (OverflowError, WeylError):
            points.append(None)
            continue
        point, scale = [], 0.0
        for rows, x in ((F, coords[:d]), (E, coords[d:])):
            for row in rows:
                terms = [r * c for r, c in zip(row, x)]
                scale += sum(map(abs, terms))
                point.append(sum(terms))
        points.append(point if scale <= _AMBIENT_BOUND else None)  # inf and NaN fail too
    return points


def invariance_check(state: StateModel, specs, samples: Sequence[Element],
                     tol: float = TOL) -> CheckResult:
    """Max over samples of |omega(phi(x)) - omega(x)| for the automorphism phi;
    it passes at most ``tol``, a finite number.

    ``specs`` may be a single automorphism or a sequence applied in order.
    """
    tol = _finite(tol, float)
    chain = tuple(specs) if isinstance(specs, (list, tuple)) else (specs,)
    _require(*((spec, AutomorphismSpec) for spec in chain))
    samples = _objects(samples, Element, (state, StateModel))
    deviations = []
    for x in samples:
        y = x
        for spec in chain:
            y = apply_automorphism(spec, y)
        deviations.append((abs(state.evaluate(y) - state.evaluate(x)), x))
    return _bounded("invariance", deviations, tol)


def multiplicativity_check(state: StateModel, frame: Frame,
                           probes: Sequence[Monomial]) -> CheckResult:
    """Purity witness on a commuting probe set: omega(mn) = omega(m) omega(n),
    to within 1e-12."""
    probes = _monomial_probes(probes, state, frame)
    for i, mi in enumerate(probes):
        for mj in probes[i + 1:]:
            ph_ij, m_ij = monomial_product(mi, mj)
            ph_ji, m_ji = monomial_product(mj, mi)
            if m_ij != m_ji or not ph_ij.is_same_rotation(ph_ji):
                raise InvalidProbeSet(f"probes {mi} and {mj} do not commute")
    values = [state.monomial_value(frame, m) for m in probes]
    gaps = []
    for i, mi in enumerate(probes):
        for j, mj in enumerate(probes[i:], i):
            phase, mij = monomial_product(mi, mj)
            prod_val = phase.to_complex() * state.monomial_value(frame, mij)
            gaps.append((abs(prod_val - values[i] * values[j]), (mi, mj)))
    return _bounded("multiplicativity", gaps, 1e-12, fmt=lambda p: f"{p[0]} | {p[1]}")


def time_reversal_classify(state: StateModel) -> TimeReversalVerdict:
    """Decide time-reversal invariance from the family's closed-form criterion."""
    _require((state, StateModel))
    return state.time_reversal()


def covariance_check(kappa, fhat: Mapping[tuple, complex], gamma_prime,
                     probes: Sequence[Monomial]) -> CheckResult:
    """Shifting kappa by a dual-lattice vector equals shifting the Fourier data,
    to within 1e-12.

    Left side: the extended closed form at the unreduced label kappa + gamma'.
    Right side: kappa unchanged, fhat translated by gamma'.
    """
    kappa = rational_label(kappa, NotAState)
    gamma_prime = integer_point(gamma_prime, OutOfSubalgebra)
    if len(gamma_prime) != len(kappa):
        raise DimensionMismatch(f"a {len(gamma_prime)}-d shift of a {len(kappa)}-d kappa")
    fhat = _fourier_data(fhat, len(kappa))
    probes = _objects(probes, Monomial)
    shifted_kappa = tuple(k + g for k, g in zip(kappa, gamma_prime))
    shifted_fhat = {tuple(n + g for n, g in zip(idx, gamma_prime)): val
                    for idx, val in fhat.items()}
    deviations = []
    for m in probes:
        lhs = _bloch_closed_form(shifted_kappa, fhat, m)
        rhs = _bloch_closed_form(kappa, shifted_fhat, m)
        deviations.append((abs(lhs - rhs), m))
    return _bounded("covariance", deviations, 1e-12)


def weak_star_distance(s1: StateModel, s2: StateModel,
                       probes: Sequence[Element]) -> float:
    """Max over the probe set of |omega1(x) - omega2(x)|; NaN if any gap is
    NaN, wherever it falls in the probe order."""
    if not probes:
        raise InvalidProbeSet("need at least one probe")
    probes = _objects(probes, Element, (s1, StateModel), (s2, StateModel))
    return _nan_max(abs(s1.evaluate(x) - s2.evaluate(x)) for x in probes)


def _monomial_probes(probes, state: StateModel, frame: Frame) -> tuple:
    """``_objects`` for monomial probes of a state on ``frame``, each of the
    frame's dimension or DimensionMismatch."""
    probes = _objects(probes, Monomial, (state, StateModel), (frame, Frame))
    for m in probes:
        if m.d != frame.d:
            raise DimensionMismatch(f"a {m.d}-d probe {m} on a {frame.d}-d frame")
    return probes


def _objects(probes, kind: type, *slots) -> tuple:
    """The probes as a tuple, once ``_require(*slots)`` passes and each probe
    is a ``kind``; InvalidObject else."""
    _require(*slots)
    try:
        probes = tuple(probes)
    except TypeError:
        raise InvalidObject(f"probes must be a sequence of {kind.__name__}s") from None
    _require(*((m, kind) for m in probes))
    return probes


# -- path sampling ---------------------------------------------------------------


def path_sample(kind: str, endpoints, grid) -> list:
    """Sample a continuous path between two states of the same family.

    ``PATHS[kind]`` names the family and builds point(t) from the endpoints:
    plane_wave_line and zak_line interpolate the labels linearly; bloch_slerp
    moves kappa linearly and the Fourier vector along a normalized great
    circle.  Grid values 0 and 1 return the endpoint objects themselves.
    Endpoints of two dimensions raise DimensionMismatch, whatever the grid.
    """
    if kind not in PATH_KINDS:
        raise InvalidParameter(f"unknown path kind {kind!r}")
    family, path = PATHS[kind]
    try:
        s0, s1 = endpoints
    except (TypeError, ValueError):
        raise InvalidObject("path endpoints must be a pair of states") from None
    ts = rational_label(grid, NotAScalar)
    if any(not (0 <= t <= 1) for t in ts):
        raise InvalidParameter("grid values must lie in [0, 1]")
    if not (isinstance(s0, family) and isinstance(s1, family)):
        raise FamilyMismatch(f"{kind} needs {family.__name__} endpoints")
    point = path(s0, s1)
    return [s0 if t == 0 else s1 if t == 1 else point(t) for t in ts]


def _line(x0: tuple, x1: tuple):
    """t -> (1 - t) x0 + t x1, for labels of one dimension; DimensionMismatch else."""
    if len(x0) != len(x1):
        raise DimensionMismatch(f"endpoint labels of dimensions {len(x0)} and {len(x1)}")
    return lambda t: tuple((1 - t) * a + t * b for a, b in zip(x0, x1))


def _plane_wave_line(s0: PlaneWave, s1: PlaneWave):
    p = _line(s0.p, s1.p)
    return lambda t: PlaneWave(p(t))


def _zak_line(s0: Zak, s1: Zak):
    kappa, nu = _line(s0.kappa, s1.kappa), _line(s0.nu, s1.nu)
    return lambda t: Zak(kappa(t), nu(t))


def _bloch_slerp(s0: Bloch, s1: Bloch):
    import numpy as np

    kappa = _line(s0.kappa, s1.kappa)
    f0, f1 = s0._fhat_dict, s1._fhat_dict
    support = sorted(set(f0) | set(f1))
    u = np.array([f0.get(n, 0j) for n in support])
    w = np.array([f1.get(n, 0j) for n in support])
    c = complex(np.vdot(u, w))
    if abs(c) > 0:
        w = w * (c.conjugate() / abs(c))
    theta = math.acos(min(abs(c), 1.0))

    def point(t):
        tf = float(t)
        if theta < 1e-12:
            vec = u
        else:
            vec = (math.sin((1 - tf) * theta) * u + math.sin(tf * theta) * w) / math.sin(theta)
        return Bloch(kappa(t), {n: v for n, v in zip(support, vec) if v != 0})
    return point


#: path kind -> (family of both endpoints, endpoints -> point(t))
PATHS = {
    "plane_wave_line": (PlaneWave, _plane_wave_line),
    "bloch_slerp": (Bloch, _bloch_slerp),
    "zak_line": (Zak, _zak_line),
}
PATH_KINDS = tuple(PATHS)
