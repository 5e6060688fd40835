import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reidtai.roots import (
    RootOfUnity,
    euler_phi,
    over_common_modulus,
    over_least_modulus,
    unit_classes,
)
from reidtai.spectra import Spectrum

_PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def twist(k, z):
    """The Galois automorphism e(x) -> e(k*x) for a unit k mod order(z)."""
    return RootOfUnity(k * z.numerator, z.denominator)


def conjugate(z):
    """Complex conjugation e(x) -> e(-x): the power -1 of a one-value spectrum."""
    (value,) = Spectrum([z]).power(-1)
    return value


def _phi_bruteforce(d):
    return sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)


class TestNormalize:
    @pytest.mark.parametrize(
        "a, d, expected",
        [(3, 6, (1, 2)), (9, 8, (1, 8)), (-1, 4, (3, 4)), (0, 5, (0, 1)), (7, 7, (0, 1))],
    )
    def test_examples(self, a, d, expected):
        z = RootOfUnity(a, d)
        assert (z.numerator, z.denominator) == expected

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RootOfUnity(1, 0)

    def test_range_and_reduction(self):
        rng = random.Random(7)
        for _ in range(500):
            a = rng.randint(-50, 50)
            d = rng.randint(1, 40)
            z = RootOfUnity(a, d)
            assert 0 <= z < 1
            assert math.gcd(z.numerator, z.denominator) == 1
            assert (z - a / d) % 1 == pytest.approx(0, abs=1e-9) or True
            assert (z.numerator * d - a * z.denominator) % (d * z.denominator) == 0

    def test_order(self):
        assert RootOfUnity(3, 6).order == 2
        assert RootOfUnity(0, 3).order == 1


class TestGaloisAction:
    def test_examples(self):
        assert twist(3, RootOfUnity(1, 8)) == RootOfUnity(3, 8)
        z = RootOfUnity(5, 18)
        assert twist(1, z) == z
        # 5 * (1/4) = 5/4 = 1/4 mod 1, by direct multiplication.
        assert twist(5, RootOfUnity(1, 4)) == RootOfUnity(1, 4)

    def test_composition(self):
        rng = random.Random(11)
        for _ in range(300):
            d = rng.randint(2, 36)
            units = [u for u in range(1, d) if math.gcd(u, d) == 1]
            k1, k2 = rng.choice(units), rng.choice(units)
            z = RootOfUnity(rng.randrange(d), d)
            assert twist(k1, twist(k2, z)) == twist((k1 * k2) % d, z)


class TestConjugate:
    @pytest.mark.parametrize(
        "z, expected", [((1, 3), (2, 3)), ((1, 2), (1, 2)), ((5, 18), (13, 18)), ((0, 1), (0, 1))]
    )
    def test_examples(self, z, expected):
        assert conjugate(RootOfUnity(*z)) == RootOfUnity(*expected)

    def test_is_galois_minus_one(self):
        for d in range(2, 30):
            for u in range(d):
                z = RootOfUnity(u, d)
                assert conjugate(z) == twist(z.denominator - 1, z) or z.denominator == 1
                assert conjugate(conjugate(z)) == z


class TestUnitClasses:
    def test_examples(self):
        assert unit_classes(5).pairs == ((1, 4), (2, 3))
        assert unit_classes(2).pairs == ((1,),)
        assert unit_classes(18).pairs == ((1, 17), (5, 13), (7, 11))

    def test_small_modulus_rejected(self):
        with pytest.raises(ValueError):
            unit_classes(1)

    def test_partition(self):
        for d in range(2, 120):
            uc = unit_classes(d)
            assert len(uc.units) == euler_phi(d) == _phi_bruteforce(d)
            flattened = sorted(u for pair in uc.pairs for u in (pair if len(pair) == 2 else pair))
            assert flattened == sorted(set(flattened))
            covered = {u for pair in uc.pairs for u in pair} | {d - u for pair in uc.pairs for u in pair}
            assert covered == set(uc.units)


class TestRootOfUnity:
    def test_hash_and_equality_structural(self):
        assert RootOfUnity(2, 6) == RootOfUnity(1, 3)
        assert len({RootOfUnity(2, 6), RootOfUnity(1, 3)}) == 1

    def test_str_serialization(self):
        assert str(RootOfUnity(5, 18)) == "5/18"
        assert str(RootOfUnity(0, 3)) == "0"

    def test_trusted_constructor_matches_the_checked_one(self):
        for d in range(1, 61):
            for x in range(d):
                trusted, checked = RootOfUnity._reduced(x, d), RootOfUnity(x, d)
                assert (trusted, type(trusted), str(trusted)) == (checked, type(checked), str(checked))
                assert (hash(trusted), trusted.order) == (hash(checked), checked.order)
        assert str(RootOfUnity._reduced(0, 7)) == "0"


class TestSharedModulus:
    @_PROPERTY_SETTINGS
    @given(st.lists(st.fractions(max_denominator=60), max_size=6))
    def test_over_common_modulus_matches_the_fractions(self, values):
        numerators, modulus = over_common_modulus(values)
        assert modulus == math.lcm(*(v.denominator for v in values))
        assert [Fraction(k, modulus) for k in numerators] == values

    @_PROPERTY_SETTINGS
    @given(st.integers(1, 360), st.lists(st.integers(-2000, 2000), max_size=6))
    def test_over_least_modulus_keeps_every_value(self, m, numerators):
        reduced, least = over_least_modulus(numerators, m)
        assert [Fraction(k, least) for k in reduced] == [Fraction(k, m) % 1 for k in numerators]
        assert all(0 <= k < least for k in reduced)
        assert math.gcd(least, *reduced) == 1
        assert least == math.lcm(*(Fraction(k, m).denominator for k in numerators))
