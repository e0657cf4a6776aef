"""Products, adjoints and automorphisms of the finitely supported Weyl algebra.

Commutation phases are tracked exactly; the script shows normal ordering, the
symplectic generator law, the four automorphism families and the three
ergodic means together with a numeric box-average convergence table.
"""

from fractions import Fraction

from weylccr import (
    Element,
    Frame,
    FreeDynamics,
    Monomial,
    MomentumTranslation,
    SpaceTranslation,
    TAU,
    TimeReversal,
    apply_automorphism,
    ergodic_mean,
    ergodic_mean_lattice,
    ergodic_mean_zak,
    monomial_product,
    numeric_box_average,
    symplectic,
    tracial_inner_product,
    weyl_generator,
    weyl_generator_parts,
)
from weylccr.lattice import vector

F1 = Frame.standard(1)

print("== normal ordering ==")
m_v = Monomial(vector([0]), vector([Fraction(1, 2)]))
m_u = Monomial(vector([Fraction(1, 2)]), vector([0]))
phase, combined = monomial_product(m_v, m_u)
print(f"v(1/2) u(1/2) = e^(i {phase.value}) {combined} "
      f"with e^(i angle) = {phase.to_complex():.3f}")

u = Element.u(F1, [Fraction(1, 2)])
v = Element.v(F1, [Fraction(1, 3)])
print(f"(u + v)(u - v) = {(u + v) * (u - v)}")
print(f"adjoint of u v = {(u * v).adjoint()}")

print()
print("== symplectic generators ==")
z = Monomial([Fraction(1, 2)], [Fraction(1, 3)])
zp = Monomial([Fraction(1, 4)], [Fraction(2, 3)])
w = weyl_generator(F1, z) * weyl_generator(F1, zp)
target = symplectic(z, zp).to_complex() * weyl_generator(F1, monomial_product(z, zp)[1])
print(f"w_z w_z' vs e^(i sigma) w_(z+z'): coefficient gap = "
      f"{w.max_coeff_diff(target):.2e}")
angle, _ = weyl_generator_parts(z)
print(f"phase of w_z is the exact angle {angle.value}")

print()
print("== automorphisms ==")
x = Element.u(F1, [1]) * Element.v(F1, [Fraction(1, 2)])
print(f"x                   = {x}")
print(f"space translate 1/3 = {apply_automorphism(SpaceTranslation(vector([Fraction(1, 3)])), x)}")
print(f"momentum shift 1/4  = {apply_automorphism(MomentumTranslation(vector([Fraction(1, 4)])), x)}")
print(f"free dynamics t=1   = {apply_automorphism(FreeDynamics(Fraction(1)), x)}")
print(f"time reversal       = {apply_automorphism(TimeReversal(), x)}")

print()
print("== ergodic means ==")
y = Element(F1, {
    Monomial(vector([Fraction(1, 2)]), vector([1])): 1.0,
    Monomial(vector([0]), vector([1])): 2.0,
    Monomial(vector([1]), vector([Fraction(1, 2)])): 3.0,
    Monomial(vector([1]), vector([1])): 4.0,
})
print(f"y                      = {y}")
print(f"continuous mean        = {ergodic_mean(y)}")
print(f"lattice mean           = {ergodic_mean_lattice(y)}")
print(f"doubled-lattice mean   = {ergodic_mean_zak(y)}")

print()
print("== box average convergence (frame E = [tau], ambient alpha = a) ==")
ftau = Frame.from_basis([[TAU]])
elem = Element(ftau, {Monomial(vector([1]), vector([0])): 1.0,
                      Monomial(vector([0]), vector([1])): 1.0})
print(f"{'L':>6s} {'|u-term coeff|':>16s} {'bound 2/L':>12s} {'v-term coeff':>14s}")
for L in (10.0, 100.0, 1000.0):
    avg = numeric_box_average(elem, L, int(8 * L))
    u_mag = abs(avg.coefficient(Monomial(vector([1]), vector([0]))))
    v_val = avg.coefficient(Monomial(vector([0]), vector([1])))
    print(f"{L:6.0f} {u_mag:16.3e} {2.0 / L:12.3e} {v_val.real:14.1f}")

print()
print("== tracial pairing ==")
x = Element(F1, {Monomial(vector([1]), vector([0])): 2.0,
                 Monomial(vector([0]), vector([Fraction(1, 3)])): 1j})
print(f"t(x* x) = {tracial_inner_product(x, x)}  (sum of |coefficients|^2)")
