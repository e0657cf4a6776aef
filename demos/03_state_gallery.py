"""A tour of the invariant-state families and their certification checks.

Each family evaluates monomials through a closed form; the script probes
values, positivity, invariance (including a deliberate failure for the Fock
state under the free dynamics), purity witnesses and the discontinuous
3-adic character.
"""

import math
from fractions import Fraction

from weylccr import (
    Bloch,
    BohrState,
    Element,
    Fock,
    Frame,
    FreeDynamics,
    Mixture,
    Monomial,
    PadicCharacter,
    PlaneWave,
    SpaceTranslation,
    TAU,
    Tracial,
    Zak,
    gram_psd_check,
    invariance_check,
    multiplicativity_check,
    weak_star_distance,
)
from weylccr.lattice import vector

F1 = Frame.standard(1)
FTAU = Frame.from_basis([[TAU]])


def mono(a, b):
    return Monomial(vector(a), vector(b))


print("== closed-form values ==")
print(f"tracial on u(1)v(1)        = {Tracial().monomial_value(F1, mono([1], [1]))}")
print(f"tracial on 1               = {Tracial().monomial_value(F1, mono([0], [0]))}")
print(f"Fock on u(1) (2*pi frame)  = {Fock().monomial_value(FTAU, mono([1], [0])):.9f}"
      f"  (e^-0.25 = {math.exp(-0.25):.9f})")
pw = PlaneWave(vector([Fraction(1, 2)]))
print(f"plane wave p=1/2 on v(1)   = {pw.monomial_value(F1, mono([0], [1])):.6f}")
print(f"plane wave p=1/2 on u(1/2) = {pw.monomial_value(F1, mono([Fraction(1, 2)], [0]))}")
bl = Bloch([Fraction(1, 3)], {(0,): 1.0})
print(f"Bloch delta_0, kappa=1/3, on v(1) = {bl.monomial_value(F1, mono([0], [1])):.6f}")
zk = Zak([Fraction(0)], [Fraction(0)])
print(f"Zak(0,0) on u(1)v(1)       = {zk.monomial_value(F1, mono([1], [1]))}")

print()
print("== positivity (Gram matrices on 12 probes) ==")
probes = [mono([k], [Fraction(j, 3)]) for k in (-1, 0, 1) for j in range(-1, 3)]
gallery = [("plane wave", pw), ("3-adic character", BohrState(PadicCharacter((3,)))),
           ("Bloch", Bloch([Fraction(1, 4)], {(0,): 0.8, (1,): 0.6})),
           ("Zak", Zak([Fraction(1, 6)], [Fraction(1, 5)])),
           ("Fock", Fock()), ("tracial", Tracial()),
           ("mixture", Mixture([(0.5, Fock()), (0.5, Tracial())]))]
for name, state in gallery:
    rep = gram_psd_check(state, F1, probes)
    print(f"{name:18s} min eigenvalue {rep.min_eigenvalue:+.2e}  "
          f"hermitian residual {rep.hermitian_residual:.1e}")

print()
print("== invariance ==")
samples = [Element.u(F1, [Fraction(1, 2)]) * Element.v(F1, [Fraction(k, 3)])
           for k in range(1, 5)]
samples += [Element.v(F1, [Fraction(2, 7)])]
rep = invariance_check(pw, SpaceTranslation(vector([Fraction(5, 7)])), samples)
print(f"plane wave under translations: max deviation {rep.worst_value}")
rep = invariance_check(pw, FreeDynamics(Fraction(3, 2)), samples)
print(f"plane wave under free dynamics: max deviation {rep.worst_value}")
probe = Element.from_monomial(FTAU, mono([1], [0]))
rep = invariance_check(Fock(), FreeDynamics(Fraction(1)), [probe])
print(f"Fock under free dynamics: deviation {rep.worst_value:.6f} "
      f"(= |e^-1/2 - e^-1/4| = {abs(math.exp(-0.5) - math.exp(-0.25)):.6f}, FAILS)")

print()
print("== purity witnesses (multiplicativity on commuting probes) ==")
lattice_probes = [mono([k], [j]) for k in (0, 1) for j in (-1, 0, 2)]
rep = multiplicativity_check(Zak([Fraction(1, 3)], [Fraction(1, 4)]), F1,
                             lattice_probes)
print(f"Zak state:     max gap {rep.worst_value:.2e}  (pure)")
rep = multiplicativity_check(Tracial(), F1, [mono([0], [1]), mono([0], [-1])])
print(f"tracial state: max gap {rep.worst_value}  on {rep.worst_probe}  (mixed)")

print()
print("== the 3-adic character is multiplicative but discontinuous ==")
state = BohrState(PadicCharacter((3,)))
print("b_n = 1/(3(3n+2)) -> 0, but the state sticks at e^(4 pi i/3):")
for n in (0, 1, 10, 50):
    b = Fraction(1, 3 * (3 * n + 2))
    val = state.evaluate(Element.v(F1, [-b]))
    print(f"  n = {n:2d}: b_n = {str(b):9s} value = {val:.6f}")
gap = weak_star_distance(state, PlaneWave(vector([0])),
                         [Element.v(F1, [-Fraction(1, 15)])])
print(f"weak-* gap from the zero-momentum state on that probe: {gap:.6f} "
      f"(sqrt(3) = {math.sqrt(3):.6f})")
