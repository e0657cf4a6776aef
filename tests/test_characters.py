import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from weylccr import (
    ContinuousCharacter,
    PadicCharacter,
    ProductCharacter,
    TAU,
    character_eval,
    padic_fraction,
)
from weylccr.characters import MAX_PRIME, character_is_trivial
from weylccr.errors import NotDecomposable, WeylError
from weylccr.lattice import vector

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=60)


class TestPadicFraction:
    def test_integer_part_invisible(self):
        assert padic_fraction(Fraction(7), 3) == 0
        assert padic_fraction(Fraction(2, 5), 3) == 0

    def test_crt_oracle_one_fifteenth(self):
        # solve 5c = 1 (mod 3) by brute force: c = 2
        c = next(c for c in range(3) if (5 * c) % 3 == 1)
        assert c == 2
        assert padic_fraction(Fraction(1, 15), 3) == Fraction(c, 3)

    def test_pure_power(self):
        assert padic_fraction(Fraction(1, 9), 3) == Fraction(1, 9)
        assert padic_fraction(Fraction(5, 9), 3) == Fraction(5, 9)

    @given(rationals, rationals, st.sampled_from([2, 3, 5, 7]))
    def test_homomorphism_mod_one(self, x, y, p):
        total = padic_fraction(x + y, p) - padic_fraction(x, p) - padic_fraction(y, p)
        assert total.denominator == 1

    @given(rationals, st.sampled_from([2, 3, 5]))
    def test_range(self, x, p):
        f = padic_fraction(x, p)
        assert 0 <= f < 1
        assert f.denominator & ~0 == f.denominator  # still a Fraction
        # denominator is a power of p
        den = f.denominator
        while den % p == 0:
            den //= p
        assert den == 1


class TestPadicPrimes:
    def test_small_primes_are_kept(self):
        assert PadicCharacter([2, 3, 65521]).primes == (2, 3, 65521)

    @pytest.mark.parametrize("p", [2.5, 3.0, "3", True, 1, 0, -3, 4, 91, 10**30,
                                   MAX_PRIME + 1])
    def test_anything_else_raises_weyl_error(self, p):
        with pytest.raises(WeylError, match="primes"):
            PadicCharacter((3, p))


    @pytest.mark.parametrize("x, p", [(Fraction(1, 3), 1), (Fraction(1, 3), -1),
                                      (Fraction(1, 3), 0), (Fraction(1, 8), 4),
                                      (Fraction(1, 3), -3), (Fraction(1, 3), 2.5)])
    def test_padic_fraction_refuses_what_the_character_refuses(self, x, p):
        with pytest.raises(WeylError, match="primes"):
            padic_fraction(x, p)


class TestCharacterEval:
    def test_identity_at_zero(self):
        chars = [ContinuousCharacter(vector([Fraction(1, 2)])),
                 PadicCharacter((3,)),
                 ProductCharacter((PadicCharacter((3,)),
                                   ContinuousCharacter(vector([1]))))]
        for char in chars:
            assert character_eval(char, vector([0])).to_complex() == 1.0 + 0j

    def test_continuous_matches_exponential(self):
        char = ContinuousCharacter(vector([Fraction(1, 3)]))
        got = character_eval(char, vector([Fraction(1, 2)])).to_complex()
        assert abs(got - cmath.exp(1j / 6)) < 1e-15

    def test_continuous_tau_momentum(self):
        # p = tau gives e^{i tau b}: full turn at b = 1
        char = ContinuousCharacter((TAU,))
        assert character_eval(char, vector([1])).to_complex() == 1.0 + 0j

    def test_padic_spec_value(self):
        char = PadicCharacter((3,))
        got = character_eval(char, vector([Fraction(1, 15)])).to_complex()
        assert abs(got - cmath.exp(2j * math.pi * 2 / 3)) < 1e-15

    def test_padic_discontinuity_witness(self):
        # b_n = 1/(3(3n+2)) tends to 0 while the character sticks at e^{4 pi i/3}
        char = PadicCharacter((3,))
        target = cmath.exp(4j * math.pi / 3)
        for n in range(51):
            b = Fraction(1, 3 * (3 * n + 2))
            assert abs(character_eval(char, vector([b])).to_complex() - target) < 1e-12
        assert abs(abs(target - 1.0) - math.sqrt(3)) < 1e-15

    def test_padic_rejects_tau(self):
        with pytest.raises(NotDecomposable):
            character_eval(PadicCharacter((3,)), (TAU,))

    @given(rationals, rationals)
    def test_character_property_exact_angles(self, x, y):
        char = ProductCharacter((PadicCharacter((3,)),
                                 ContinuousCharacter(vector([Fraction(2, 7)]))))
        lhs = character_eval(char, vector([x + y]))
        rhs = character_eval(char, vector([x])) + character_eval(char, vector([y]))
        assert lhs.is_same_rotation(rhs)

    def test_product_multiplies_pointwise(self):
        c1 = PadicCharacter((3,))
        c2 = ContinuousCharacter(vector([Fraction(1, 4)]))
        prod = ProductCharacter((c1, c2))
        b = vector([Fraction(2, 9)])
        want = character_eval(c1, b).to_complex() * character_eval(c2, b).to_complex()
        assert abs(character_eval(prod, b).to_complex() - want) < 1e-15

    def test_modulus_one(self):
        char = ProductCharacter((PadicCharacter((3,)),
                                 ContinuousCharacter(vector([Fraction(5, 3)]))))
        for x in (Fraction(1, 6), Fraction(-7, 9), Fraction(22, 15)):
            assert abs(abs(character_eval(char, vector([x])).to_complex()) - 1.0) < 1e-15


class TestTriviality:
    def test_zero_continuous_trivial(self):
        assert character_is_trivial(ContinuousCharacter(vector([0, 0])))

    def test_padic_never_trivial(self):
        assert not character_is_trivial(PadicCharacter((3,)))

    def test_cancelling_continuous_product(self):
        prod = ProductCharacter((ContinuousCharacter(vector([Fraction(1, 2)])),
                                 ContinuousCharacter(vector([Fraction(-1, 2)]))))
        assert character_is_trivial(prod)

    def test_mixed_product_not_trivial(self):
        prod = ProductCharacter((PadicCharacter((3,)),
                                 ContinuousCharacter((-TAU,))))
        assert not character_is_trivial(prod)
