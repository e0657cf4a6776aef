"""Finite truncations of the representation behind lattice-invariant states,
used as a brute-force oracle for the closed-form state evaluations.

The Fourier basis of the torus diagonalizes the position shifts exactly, so a
finite index box loses information only at the boundary of the momentum
shifts; with enough margin the vector-state reconstruction agrees with the
closed form up to floating arithmetic.  The oracle ``bloch_vector_state``
applies the operators to the vector: S_b is diagonal and f vanishes off its
Fourier support, so it takes S_b's entries at that support alone and shifts
each point by a, with no matrix.  ``op_S``, ``op_F`` and ``rep_rho_kappa``
build the matrices themselves.

numpy is imported by the functions that build arrays, so importing this
module (and the package), or calling the oracle, does not load it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from operator import add, mul
from typing import TYPE_CHECKING

from .algebra import Monomial
from .errors import (DimensionMismatch, InvalidParameter, NotAState, OutOfSubalgebra,
                     WindowTooSmall, _require)
from .lattice import integer_point, integer_vector, matrix, rational_label, vector
from .scalars import PhaseAngle, rational_key, unit_from_turns
from .states import _unit_fourier_data

if TYPE_CHECKING:
    import numpy as np


#: the most points of a window, which lists them all
MAX_WINDOW_POINTS = 2**16


@dataclass(frozen=True)
class FourierWindow:
    """The integer box prod [lo_i, hi_i], enumerated lexicographically; a
    point lies in it when ``pt in window.index``."""

    lo: tuple
    hi: tuple
    points: tuple = field(init=False, compare=False, repr=False)
    index: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        lo = integer_point(self.lo, OutOfSubalgebra)
        hi = integer_point(self.hi, OutOfSubalgebra)
        if len(lo) != len(hi):
            raise DimensionMismatch("window bounds differ in dimension")
        if any(l > h for l, h in zip(lo, hi)):
            raise WindowTooSmall("window is empty")
        if math.prod(h - l + 1 for l, h in zip(lo, hi)) > MAX_WINDOW_POINTS:
            raise InvalidParameter(f"a window has at most {MAX_WINDOW_POINTS} points")
        pts = tuple(itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "index", {pt: i for i, pt in enumerate(pts)})

    @property
    def d(self) -> int:
        return len(self.lo)

    def __len__(self):
        return len(self.points)


def op_S(b, window: FourierWindow) -> np.ndarray:
    """Position shift, diagonal on the Fourier basis: entries e^{-i tau (n . b)}."""
    import numpy as np

    _require((window, FourierWindow))
    return np.diag(np.array(_shift_diagonal(b, window.d, window.points), dtype=complex))


def _shift_diagonal(b, d: int, points) -> list:
    """The entries of ``op_S(b, .)`` at the d-dimensional ``points``.  For a
    rational b = n_b / D the entry at n is -(n . n_b) turns over D, on ints;
    a b with tau takes ``PhaseAngle.from_dot``.  Both give the same double:
    ``int / int`` is correctly rounded."""
    b = vector(b)
    if len(b) != d:
        raise DimensionMismatch("coordinate dimension differs from window")
    key = rational_key(b)
    if key is None:
        return [PhaseAngle.from_dot(vector(n), b, -1).to_complex() for n in points]
    D, nb = key
    return [unit_from_turns(-sum(map(mul, n, nb)) % D, D) for n in points]


def op_F(gp, window: FourierWindow) -> np.ndarray:
    """Index shift by a dual-lattice vector: e_n -> e_{n+gp}, truncated at the
    boundary (columns leaving the window are zeroed)."""
    import numpy as np

    _require((window, FourierWindow))
    gp = integer_point(gp, OutOfSubalgebra)
    if len(gp) != window.d:
        raise DimensionMismatch("shift dimension differs from window")
    n = len(window)
    mat = np.zeros((n, n), dtype=complex)
    for j, pt in enumerate(window.points):
        target = tuple(c + g for c, g in zip(pt, gp))
        i = window.index.get(target)
        if i is not None:
            mat[i, j] = 1.0
    return mat


def rep_rho_kappa(kappa, m: Monomial, window: FourierWindow) -> np.ndarray:
    """Matrix image of u_a v_b under the quasi-momentum-kappa representation:
    e^{-i kappa . beta} F_a S_b, the scalar phase exact."""
    import numpy as np

    _require((m, Monomial), (window, FourierWindow))
    a_int = integer_vector(m.a)
    if a_int is None:
        raise OutOfSubalgebra(f"momentum part of {m} is not a dual-lattice point")
    kappa = vector(rational_label(kappa, NotAState))
    phase = PhaseAngle.from_dot(kappa, m.b, -1).to_complex()
    diag = np.array(_shift_diagonal(m.b, window.d, window.points), dtype=complex)
    return phase * (op_F(a_int, window) * diag)


def bloch_vector_state(kappa, fhat, m: Monomial, window: FourierWindow) -> complex:
    """<f, rho_kappa(u_a v_b) f>, with rho_kappa(u_a v_b) f = e^{-i kappa . beta}
    F_a (S_b f) applied to the vector.

    S_b is diagonal, so S_b f takes S_b's entries at supp f only, and F_a
    moves the point n to n + a.  The pairing with f sums over supp f in
    window order, which is lexicographic.  Requires the Fourier support of f
    to sit inside the window with margin at least |a_i| in every coordinate,
    so the index shift loses nothing.
    """
    _require((m, Monomial), (window, FourierWindow))
    a_int = integer_vector(m.a)
    if a_int is None:
        raise OutOfSubalgebra(f"momentum part of {m} is not a dual-lattice point")
    fhat = _unit_fourier_data(fhat, window.d)
    for n in fhat:
        for c, a, lo, hi in zip(n, a_int, window.lo, window.hi):
            if not (lo + abs(a) <= c <= hi - abs(a)):
                raise WindowTooSmall(
                    f"support point {n} lacks margin {tuple(abs(x) for x in a_int)}")
    kappa = vector(rational_label(kappa, NotAState))
    phase = PhaseAngle.from_dot(kappa, m.b, -1).to_complex()
    support = sorted(fhat)
    total = 0j
    for n, s in zip(support, _shift_diagonal(m.b, window.d, support)):
        g = fhat.get(tuple(map(add, n, a_int)))
        if g is not None:
            total += g.conjugate() * (phase * s * fhat[n])
    return total


def plane_wave_vector_state(p, m: Monomial, momentum_set) -> complex:
    """Vector state at delta_p in the finite-support momentum representation.

    The representation acts on the span of {delta_q : q in momentum_set} by
    u_a: delta_q -> delta_{q+a} and v_b: delta_q -> e^{-i tau (q . b)} delta_q.
    """
    _require((m, Monomial))
    points = matrix(momentum_set)
    index = {q: i for i, q in enumerate(points)}
    p = vector(p)
    if m.d != len(p) or any(len(q) != len(p) for q in points):
        raise DimensionMismatch("base point, monomial and momentum set differ in dimension")
    if p not in index:
        raise WindowTooSmall("momentum set does not contain the base point")
    target = tuple(q + a for q, a in zip(p, m.a))
    if target not in index:
        raise WindowTooSmall("momentum set does not contain the shifted point")
    # u sends each basis vector to one other and v is diagonal, so the (p, p)
    # entry of u v is v's entry at p when u fixes p, and zero otherwise
    if index[target] != index[p]:
        return 0j
    return PhaseAngle.from_dot(p, m.b, -1).to_complex()


def weyl_relation_residual(gp, b, window: FourierWindow) -> float:
    """Max-norm residual of F_gp S_b = e^{i gp . beta} S_b F_gp on the interior.

    The interior consists of the basis vectors whose shift by gp stays inside
    the window; on the full window the boundary truncation makes the residual
    nonzero, which is reported by passing an empty interior mask upstream.
    """
    import numpy as np

    _require((window, FourierWindow))
    gp = integer_point(gp, OutOfSubalgebra)
    b = vector(b)
    f_mat = op_F(gp, window)
    s_diag = np.array(_shift_diagonal(b, window.d, window.points), dtype=complex)
    phase = PhaseAngle.from_dot(vector(gp), b).to_complex()
    lhs = f_mat * s_diag
    rhs = phase * (s_diag[:, None] * f_mat)
    interior = [j for j, pt in enumerate(window.points)
                if tuple(map(add, pt, gp)) in window.index]
    if not interior:
        return 0.0
    return float(np.max(np.abs(lhs[:, interior] - rhs[:, interior])))
