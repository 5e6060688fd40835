import math
import random
from fractions import Fraction

import pytest
from element_oracles import trace_magnitude

from reidtai.commands import _parse_spectrum
from reidtai.spectra import Spectrum, satisfies_rt


def S(*vals):
    return Spectrum(Fraction(v) for v in vals)


def _random_spectrum(rng, max_dim=8, max_den=24):
    dim = rng.randint(1, max_dim)
    return Spectrum(Fraction(rng.randrange(den := rng.randint(1, max_den)), den) for _ in range(dim))


class TestAge:
    def test_examples(self):
        assert S("1/2").age() == Fraction(1, 2)
        assert S("1/6", "1/3").age() == Fraction(1, 2)
        assert S("1/18", "5/18", "7/18").age() == Fraction(13, 18)

    def test_zero_age_iff_identity(self):
        assert S(0, 0).age() == 0
        rng = random.Random(3)
        for _ in range(300):
            s = _random_spectrum(rng)
            assert (s.age() == 0) == all(v == 0 for v in s.values)

    def test_conjugate_pairing(self):
        # age(s) + age(conj s) counts the non-unit eigenvalues.
        rng = random.Random(5)
        for _ in range(300):
            s = _random_spectrum(rng)
            nontrivial = sum(1 for v in s.values if v != 0)
            assert s.age() + s.power(-1).age() == nontrivial


class TestExceptional:
    def test_examples(self):
        assert S(0, 0, "1/2").is_exceptional()
        assert not S("1/2", "1/2").is_exceptional()
        assert S("1/10", "1/10", "3/10", "3/10").is_exceptional()
        assert S("1/10", "1/10", "3/10", "3/10").age() == Fraction(4, 5)

    def test_satisfies_rt(self):
        assert satisfies_rt([S("1/2", "1/2")])
        assert not satisfies_rt([S("1/2", 0)])
        # all non-identity powers of the order-7 element with eigenvalues 1/7, 2/7, 3/7
        base = S("1/7", "2/7", "3/7")
        powers = [base.power(k) for k in range(1, 7)]
        assert not satisfies_rt(powers)
        assert base.age() == Fraction(6, 7)
        assert all(p.age() >= 1 for p in powers[1:])


class TestPower:
    def test_examples(self):
        assert S("1/8", "5/8", 0).power(2) == S("1/4", "1/4", 0)
        s = S("1/6", "1/3")
        assert s.power(1) == s
        assert S("1/3", "2/3").power(3) == S(0, 0)

    def test_lcm_power_has_integer_age(self):
        rng = random.Random(9)
        for _ in range(200):
            s = _random_spectrum(rng, max_dim=5, max_den=12)
            lcm = math.lcm(*[v.denominator for v in s.values])
            assert s.power(lcm).age().denominator == 1


class TestArcWidth:
    def test_examples(self):
        assert S(0).arc_width() == 0
        # two points separated by a sixth of a turn
        assert S(0, "1/6").arc_width() == pytest.approx(math.pi / 3, abs=1e-12)
        assert S(0, "1/3", "2/3").arc_width() == pytest.approx(4 * math.pi / 3, abs=1e-12)

    def test_exact_turns(self):
        assert S(0, "1/6").arc_width_turns() == Fraction(1, 6)
        assert S("1/8", "3/8", "1/2").arc_width_turns() == Fraction(3, 8)


class TestTraceMagnitude:
    def test_examples(self):
        assert trace_magnitude(S(0, "1/8", "3/8")) == pytest.approx(math.sqrt(3), abs=1e-12)
        assert trace_magnitude(S(0, "1/12", "1/4", "5/12")) == pytest.approx(math.sqrt(5), abs=1e-12)
        assert trace_magnitude(S(0, 0, 0)) == pytest.approx(3, abs=1e-12)

    def test_against_complex_sum(self):
        rng = random.Random(13)
        for _ in range(200):
            s = _random_spectrum(rng)
            z = sum(complex(math.cos(2 * math.pi * float(v)), math.sin(2 * math.pi * float(v))) for v in s.values)
            assert trace_magnitude(s) == pytest.approx(abs(z), abs=1e-9)

    def test_precision_at_dimension_64(self):
        # exact cancellations and exact integers stay within 1e-12 at dim 64
        assert abs(trace_magnitude(S(*([0] * 64))) - 64) < 1e-12
        assert abs(trace_magnitude(S(*([0] * 32 + ["1/2"] * 32)))) < 1e-12
        full12 = [Fraction(k, 12) for k in range(12)] * 5 + [Fraction(0)] * 4
        assert abs(trace_magnitude(S(*full12)) - 4) < 1e-12


class TestSerialization:
    def test_round_trip(self):
        s = S("5/18", 0, "1/2", "1/2")
        assert s.to_json() == ["0", "5/18", "1/2", "1/2"]
        assert _parse_spectrum(",".join(s.to_json())) == s

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Spectrum([])
