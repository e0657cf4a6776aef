"""Finite matrix truncations reconstructing states as vector states.

The Fourier-box operators give an independent, brute-force route to the
Bloch-state closed form; with enough window margin the two agree to machine
precision.  Plane waves get the analogous finite momentum-set treatment.
"""

import math
import random
from fractions import Fraction

import numpy as np

from weylccr import (
    FourierWindow,
    Monomial,
    PhaseAngle,
    bloch_vector_state,
    op_F,
    op_S,
    plane_wave_vector_state,
    rep_rho_kappa,
    weyl_relation_residual,
)
from weylccr.lattice import vector
from weylccr.states import bloch_monomial_value


def mono(a, b):
    return Monomial(vector(a), vector(b))


print("== the truncated operators ==")
w = FourierWindow((-1,), (1,))
print(f"window {{-1..1}}: S(1/2) diagonal = {np.diag(op_S([Fraction(1, 2)], w)).real}")
w2 = FourierWindow((0,), (1,))
print(f"window {{0..1}}: F(1) matrix =\n{op_F((1,), w2).real}")

w = FourierWindow((-5,), (5,))
res = weyl_relation_residual((1,), [Fraction(1, 3)], w)
print(f"commutation residual on the interior: {res:.2e}")
comp = op_F((1,), w) @ op_F((-1,), w)
print(f"but F(1) F(-1) loses the boundary vector: max |F1 F-1 - I| = "
      f"{np.max(np.abs(comp - np.eye(len(w)))):.0f}")

print()
print("== rho with quasi-momentum kappa ==")
kappa = Fraction(1, 3)
m = mono([0], [2])
mat = rep_rho_kappa([kappa], m, w)
phase = PhaseAngle.from_turns(-kappa * 2).to_complex()
print(f"rho(v_2) equals e^(-i kappa . 2) I exactly: "
      f"{np.array_equal(mat, phase * np.eye(len(w)))}")

print()
print("== Bloch reconstruction vs closed form ==")
rng = random.Random("demo-04")
window = FourierWindow((-6,), (6,))
raw = {(-1,): 0.4 + 0.2j, (0,): 0.7, (2,): -0.3j}
norm = math.sqrt(sum(abs(v) ** 2 for v in raw.values()))
fhat = {k: v / norm for k, v in raw.items()}
kappa = (Fraction(2, 5),)
print(f"{'monomial':>16s} {'matrix route':>24s} {'closed form':>24s} {'gap':>9s}")
for _ in range(5):
    m = mono([rng.randint(-3, 3)], [Fraction(rng.randint(-9, 9), rng.randint(1, 9))])
    lhs = bloch_vector_state(kappa, fhat, m, window)
    rhs = bloch_monomial_value(kappa, fhat, m)
    print(f"{str(m):>16s} {lhs:24.6f} {rhs:24.6f} {abs(lhs - rhs):9.1e}")

small = bloch_vector_state(kappa, fhat, mono([1], [Fraction(1, 2)]),
                           FourierWindow((-4,), (4,)))
large = bloch_vector_state(kappa, fhat, mono([1], [Fraction(1, 2)]),
                           FourierWindow((-9,), (9,)))
print(f"window stability: {{-4..4}} vs {{-9..9}} gap = {abs(small - large):.1e}")

print()
print("== plane waves on a finite momentum set ==")
p = vector([Fraction(1, 2)])
pts = [p, vector([Fraction(3, 4)]), vector([1])]
val = plane_wave_vector_state(p, mono([0], [Fraction(1, 3)]), pts)
print(f"<delta_p, pi(v_(1/3)) delta_p> = {val:.6f} "
      f"(= e^(-2 pi i (1/2)(1/3)) = {complex(np.exp(-2j * np.pi / 6)):.6f})")
val = plane_wave_vector_state(p, mono([Fraction(1, 4)], [0]), pts)
print(f"<delta_p, pi(u_(1/4)) delta_p> = {val}  (off-diagonal shifts vanish)")
