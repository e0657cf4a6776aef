"""Exact scalars, frames and pairings.

Every coordinate in this library is a rational function of the symbol tau,
which stands for 2*pi.  This script walks through the consequences: dual
frames satisfy their defining relation exactly, pairings are exact angles,
and unit-cell decompositions are pure rational arithmetic.
"""

from fractions import Fraction

from weylccr import (
    Frame,
    Monomial,
    TAU,
    decompose,
    enumerate_trs_fixed_points,
    pairing,
    symplectic,
)
from weylccr.lattice import mat_identity, mat_mul, mat_scale, mat_transpose, vector

print("== scalars in Q(tau) ==")
x = TAU * Fraction(1, 2) + 3
print(f"tau/2 + 3            = {x}")
print(f"  evaluated at 2*pi  = {x.evaluate():.12f}")
print(f"tau/tau              = {TAU / TAU}   (canonical reduction)")
print(f"(tau^2-1)/(tau-1)    = {(TAU * TAU - 1) / (TAU - 1)}")

print()
print("== frames and dual frames ==")
for rows, label in [([[1]], "E = I"), ([[TAU]], "E = [tau]"),
                    ([[1, 0], [0, 2]], "E = diag(1, 2)")]:
    f = Frame.from_basis(rows)
    print(f"{label:14s} -> F = {f.F}")
    check = mat_mul(mat_transpose(f.F), f.E) == mat_scale(TAU, mat_identity(f.d))
    print(f"{'':14s}    F^T E = tau I exactly: {check}")

print()
print("== pairings are exact angles ==")
a, b = vector([Fraction(1, 2)]), vector([Fraction(1, 2)])
angle = pairing(a, b)
print(f"pairing(1/2, 1/2) = {angle}  ->  e^(i angle) = {angle.to_complex():.3f}")
full = pairing(vector([1]), vector([1]))
print(f"pairing(1, 1)     = {full}  (a full turn is exactly 1: "
      f"{full.to_complex() == 1.0 + 0j})")

z = Monomial([1], [0])
zp = Monomial([0], [1])
print(f"symplectic((1,0),(0,1)) = {symplectic(z, zp)}")

print()
print("== unit-cell decompositions ==")
for value in (Fraction(7, 3), Fraction(-1, 4), Fraction(0)):
    dec = decompose(vector([value]))
    print(f"position {str(value):5s} = {dec.integral[0]} + {dec.fractional[0]}")
dec = decompose(vector([Fraction(-1, 2)]))
print(f"momentum -1/2 has quasi-momentum representative {dec.fractional[0]}")

print()
print("== reflection-fixed quasi-momenta ==")
for d in (1, 2, 3):
    pts = enumerate_trs_fixed_points(Frame.standard(d))
    print(f"d = {d}: {len(pts)} points (= 2^{d})")
print(f"the d = 2 points: {enumerate_trs_fixed_points(Frame.standard(2))}")
