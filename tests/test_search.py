import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reidtai.options import MODES
from reidtai.roots import RootOfUnity, euler_phi, unit_classes
from reidtai.search import (
    CONFIRMED_ORDERS,
    MODE_ORBIT_SETS,
    MODE_VALUE_UNION,
    REFERENCE_MULTISETS,
    REFERENCE_PAIRS,
    AvOrbitResult,
    OrbitClass,
    SigmaWitness,
    _galois_orbits,
    _halforbit_numerator,
    _multiplicity_variants,
    _orbit_total,
    _pair_candidates,
    _value_union_minimum,
    av_orbit_feasibility,
    classify_pairs,
    enumerate_exceptional_multisets,
    feasible_orders,
    min_age_same_order,
    min_halforbit_sum,
    table1,
)
from reidtai.witness import covers_conjugate_pairs
from search_oracles import classify_pairs_per_pair, pair_feasible, value_union_minimum
from search_oracles import subset_min_sum as _subset_min_sum


def R(a, d):
    return RootOfUnity(a, d)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def _value_union_min_oracle(alpha, beta):
    """Exhaustive minimum over all covering sections; no pruning, no ordering."""
    modulus = math.lcm(alpha.order, beta.order)
    pairs = unit_classes(modulus).pairs
    best = None
    for choice in itertools.product(*[pair if len(pair) == 2 else pair for pair in pairs]):
        values = set()
        for k in choice:
            values.add(RootOfUnity(k * alpha.numerator, alpha.denominator))
            values.add(RootOfUnity(k * beta.numerator, beta.denominator))
        total = sum(values, Fraction(0))
        if best is None or total < best:
            best = total
    return best


def _orbit_total_oracle(values):
    """Recompute the orbit-sets total with a flat dict of canonical class keys."""
    ms = tuple(sorted(RootOfUnity(Fraction(v)) for v in values))
    modulus = math.lcm(*[v.order for v in ms])
    ages = {}
    for k in range(1, modulus):
        if math.gcd(k, modulus) != 1:
            continue
        twist = tuple(sorted(RootOfUnity(k * v.numerator, v.denominator) for v in ms))
        conj = tuple(sorted(RootOfUnity(-v.numerator, v.denominator) for v in twist))
        key = min(twist, conj)
        age = sum(twist, Fraction(0))
        ages[key] = min(age, ages.get(key, age))
    return sum(ages.values(), Fraction(0))


def _same_order_min_oracle(n, dim):
    """Exhaustive minimum age over multisets of primitive n-th roots whose
    union with the conjugate multiset is a stack of full orbits."""
    primitives = [R(k, n) for k in unit_classes(n).units]
    best = None
    for combo in itertools.combinations_with_replacement(primitives, dim):
        counts = {v: 0 for v in primitives}
        for v in combo:
            counts[v] += 1
        paired = {counts[v] + counts[RootOfUnity(-v.numerator, v.denominator)] for v in primitives}
        if len(paired) != 1:
            continue
        age = sum(combo, Fraction(0))
        if best is None or age < best:
            best = age
    return best


# ---------------------------------------------------------------------------
# Fraction references for the integer search kernels
# ---------------------------------------------------------------------------
#
# The same algorithms carried out on Fraction values: same sorts, same
# prune, same tie-breaks.  The kernels must return equal results, witnesses
# included.


def _twist(k, v):
    return RootOfUnity(k * v.numerator, v.denominator)


def _value_union_minimum_reference(alpha, beta):
    modulus = math.lcm(alpha.order, beta.order)
    options = []
    for pair in unit_classes(modulus).pairs:
        sides = []
        for u in pair:
            vals = frozenset((_twist(u, alpha), _twist(u, beta)))
            sides.append((sum(vals, Fraction(0)), u, vals))
        if len(sides) == 1:
            sides.append(sides[0])
        sides.sort(key=lambda s: (s[0], s[1]))
        options.append(tuple(sides))
    options.sort(key=lambda sides: (-sides[0][0], sides[0][1]))

    best_sum = None
    best_units = ()
    best_values = frozenset()
    chosen = []

    def rec(i, acc, acc_sum):
        nonlocal best_sum, best_units, best_values
        if best_sum is not None and acc_sum >= best_sum:
            return
        if i == len(options):
            best_sum, best_units, best_values = acc_sum, tuple(chosen), acc
            return
        for _, u, vals in options[i]:
            new = vals - acc
            chosen.append(u)
            rec(i + 1, acc | new, acc_sum + sum(new, Fraction(0)))
            chosen.pop()

    rec(0, frozenset(), Fraction(0))
    witness = SigmaWitness(modulus, tuple(sorted(set(best_units))))
    return best_sum, witness, tuple(sorted(best_values))


def _av_orbit_feasibility_reference(values):
    ms = tuple(sorted(RootOfUnity(Fraction(v)) for v in values))
    modulus = math.lcm(*[v.order for v in ms])
    twists = {}
    for k in unit_classes(modulus).units:
        twists.setdefault(tuple(sorted(_twist(k, v) for v in ms)))
    classes = []
    seen = set()
    total = Fraction(0)
    for t in sorted(twists):
        if t in seen:
            continue
        tbar = tuple(sorted(RootOfUnity(-v.numerator, v.denominator) for v in t))
        seen.update((t, tbar))
        members = (t,) if tbar == t else (t, tbar)
        ages = [sum(m, Fraction(0)) for m in members]
        min_age = min(ages)
        chosen = members[ages.index(min_age)]
        classes.append(OrbitClass(members, min_age, chosen))
        total += min_age
    return AvOrbitResult(total, 0 < total < 1, tuple(classes), modulus)


def _multiplicity_variants_reference(values):
    out = []
    k = len(values)

    def rec(i, current, acc):
        if i == k:
            out.append(tuple(current))
            return
        v = values[i]
        rest = sum(values[i + 1:], Fraction(0))
        mult = 1
        while acc + mult * v + rest < 1:
            rec(i + 1, current + [v] * mult, acc + mult * v)
            mult += 1

    rec(0, [], Fraction(0))
    return out


@st.composite
def _nonzero_roots(draw, max_modulus, min_size, max_size):
    """Nonzero roots a/M over one drawn M <= max_modulus, so the lcm of their orders divides M.

    M has at most 8 conjugate pairs of units: the value-union tree has up to
    2^(pairs) leaves, and on a conjugate pair {a/M, -a/M} every branch ties,
    so nothing is pruned before the leaves.
    """
    modulus = draw(st.sampled_from([m for m in range(2, max_modulus + 1) if euler_phi(m) <= 16]))
    numerators = draw(st.lists(st.integers(1, modulus - 1), min_size=min_size, max_size=max_size))
    return [RootOfUnity(a, modulus) for a in numerators]


_PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def _pair_and_unit(draw, max_f):
    """A pair a/f < b/f of nonzero values and a unit k modulo the lcm of their orders."""
    f = draw(st.integers(3, max_f))
    a = draw(st.integers(1, f - 2))
    b = draw(st.integers(a + 1, f - 1))
    modulus = math.lcm(R(a, f).order, R(b, f).order)
    return a, b, f, draw(st.sampled_from(unit_classes(modulus).units))


class TestGaloisTwistInvariance:
    @_PROPERTY_SETTINGS
    @given(_pair_and_unit(60))
    def test_twisted_pair_gets_the_same_decision(self, case):
        a, b, f, k = case
        twisted = sorted((k * a % f, k * b % f))
        before = pair_feasible(a, b, f, MODE_VALUE_UNION)
        after = pair_feasible(*twisted, f, MODE_VALUE_UNION)
        assert (after.feasible, after.minimal_sum) == (before.feasible, before.minimal_sum)
        assert pair_feasible(*twisted, f, MODE_ORBIT_SETS).orbit == pair_feasible(a, b, f, MODE_ORBIT_SETS).orbit


class TestIntegerKernelsMatchFractionReferences:
    @_PROPERTY_SETTINGS
    @given(_nonzero_roots(60, 2, 2))
    def test_value_union_minimum(self, pair):
        # The unbounded oracle is the integer form of the Fraction
        # reference; the bounded kernel agrees with it below 1 and stops
        # without a leaf elsewhere.
        unbounded = value_union_minimum(*pair)
        assert unbounded == _value_union_minimum_reference(*pair)
        assert _value_union_minimum(*pair) == (unbounded if unbounded[0] < 1 else None)

    @_PROPERTY_SETTINGS
    @given(_nonzero_roots(60, 2, 4))
    def test_av_orbit_feasibility(self, values):
        assert av_orbit_feasibility(values) == _av_orbit_feasibility_reference(values)

    @_PROPERTY_SETTINGS
    @given(_nonzero_roots(60, 1, 4))
    def test_orbit_total(self, values):
        reference = _av_orbit_feasibility_reference(values)
        scaled = [v.numerator * (reference.modulus // v.denominator) for v in values]
        assert _orbit_total(scaled, reference.modulus) == reference.total * reference.modulus

    @_PROPERTY_SETTINGS
    @given(_nonzero_roots(24, 1, 3))
    def test_multiplicity_variants(self, values):
        values = tuple(sorted(set(values)))
        assert _multiplicity_variants(values) == _multiplicity_variants_reference(values)


# ---------------------------------------------------------------------------
# Half-orbit sums and the order scan
# ---------------------------------------------------------------------------


class TestMinHalforbitSum:
    @pytest.mark.parametrize(
        "d, total, reps",
        [(5, Fraction(3, 5), (1, 2)), (9, Fraction(7, 9), (1, 2, 4)), (2, Fraction(1, 2), (1,))],
    )
    def test_examples(self, d, total, reps):
        assert min_halforbit_sum(d) == (total, reps)

    def test_matches_subset_enumeration(self):
        for d in range(2, 61):
            assert min_halforbit_sum(d)[0] == _subset_min_sum(d)

    def test_closed_form_matches_the_listing(self):
        for d in range(2, 2000):
            assert Fraction(_halforbit_numerator(d), d) == min_halforbit_sum(d)[0], d

    def test_representatives_are_the_smaller_unit_of_each_pair(self):
        for d in range(2, 401):
            reps = tuple(min(pair) for pair in unit_classes(d).pairs)
            assert min_halforbit_sum(d) == (Fraction(sum(reps), d), reps)
        for d in (1, 0, -3):
            with pytest.raises(ValueError):
                min_halforbit_sum(d)


class TestTable1:
    EXPECTED = [
        (3, 1, ("1/3",), Fraction(1, 3)),
        (4, 1, ("1/4",), Fraction(1, 4)),
        (5, 2, ("1/5", "2/5"), Fraction(3, 10)),
        (6, 1, ("1/6",), Fraction(1, 6)),
        (7, 3, ("1/7", "2/7", "3/7"), Fraction(2, 7)),
        (8, 2, ("1/8", "3/8"), Fraction(1, 4)),
        (9, 3, ("1/9", "2/9", "4/9"), Fraction(7, 27)),
        (10, 2, ("1/10", "3/10"), Fraction(1, 5)),
        (12, 2, ("1/12", "5/12"), Fraction(1, 4)),
        (14, 3, ("1/14", "3/14", "5/14"), Fraction(3, 14)),
        (18, 3, ("1/18", "5/18", "7/18"), Fraction(13, 54)),
    ]

    def test_rows_exact(self):
        rows = table1()
        assert len(rows) == 11
        for row, (n, half, values, mean) in zip(rows, self.EXPECTED):
            assert row.n == n
            assert row.half_count == half
            assert tuple(str(v) for v in row.values) == values
            assert row.mean == mean

    def test_mean_below_quarter_set(self):
        below = {row.n for row in table1() if row.mean < Fraction(1, 4)}
        assert below == {6, 10, 14, 18}
        for row in table1():
            if row.n not in below:
                assert row.mean >= Fraction(1, 4)


class TestFeasibleOrders:
    def test_bound_372(self):
        computed, report = feasible_orders(372)
        assert set(CONFIRMED_ORDERS) <= set(computed)
        assert report.missing == ()
        assert [d for d, _ in report.extras] == [9, 15]
        assert 11 not in computed

    def test_closed_form_scan_matches_the_listing(self):
        listed = tuple(d for d in range(2, 2001) if min_halforbit_sum(d)[0] < 1)
        assert feasible_orders(2000)[0] == listed

    def test_extras_carry_witnesses(self):
        _, report = feasible_orders(30)
        for d, witness in report.extras:
            total = sum(Fraction(u, d) for u in witness["representatives"])
            assert str(total) == witness["sum"]
            assert total < 1


# ---------------------------------------------------------------------------
# Orbit feasibility
# ---------------------------------------------------------------------------


class TestAvOrbitFeasibility:
    def test_examples(self):
        res = av_orbit_feasibility([R(1, 6), R(1, 6), R(1, 3)])
        assert (res.total, res.feasible) == (Fraction(2, 3), True)
        res = av_orbit_feasibility([R(1, 8), R(1, 8), R(3, 8)])
        assert (res.total, res.feasible) == (Fraction(3, 2), False)
        res = av_orbit_feasibility([R(1, 8), R(3, 8)])
        assert (res.total, res.feasible) == (Fraction(1, 2), True)
        # sigma_3 fixes the multiset: a single conjugation class
        assert len(res.classes) == 1

    def test_errors(self):
        with pytest.raises(ValueError):
            av_orbit_feasibility([])
        with pytest.raises(ValueError):
            av_orbit_feasibility([R(0, 1), R(1, 2)])

    def test_oracle_agreement(self):
        cases = [
            [R(1, 6), R(1, 3)],
            [R(1, 8), R(1, 8), R(3, 8)],
            [R(1, 12), R(1, 4)],
            [R(1, 12), R(7, 12)],
            [R(1, 5), R(2, 5)],
            [R(1, 7), R(2, 7), R(3, 7)],
            [R(1, 10), R(3, 10), R(1, 10)],
            [R(1, 9), R(2, 9)],
        ]
        for values in cases:
            assert av_orbit_feasibility(values).total == _orbit_total_oracle(values)


# ---------------------------------------------------------------------------
# Pair feasibility and classification
# ---------------------------------------------------------------------------


class TestPairFeasible:
    def test_examples(self):
        for mode in (MODE_VALUE_UNION, MODE_ORBIT_SETS):
            d = pair_feasible(1, 2, 6, mode)
            assert d.feasible and d.minimal_sum == Fraction(1, 2)
        d = pair_feasible(1, 3, 12, MODE_VALUE_UNION)
        assert d.feasible and d.minimal_sum == Fraction(3, 4)
        assert set(d.witness.chosen_residues) == {1, 5}
        assert tuple(str(v) for v in d.values) == ("1/12", "1/4", "5/12")
        d = pair_feasible(1, 3, 12, MODE_ORBIT_SETS)
        assert not d.feasible and d.minimal_sum == Fraction(1)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            pair_feasible(2, 1, 6)
        with pytest.raises(ValueError):
            pair_feasible(2, 4, 4)
        with pytest.raises(ValueError):
            pair_feasible(1, 6, 6)
        with pytest.raises(ValueError):
            pair_feasible(3, 4, 6, "bogus-mode")

    def test_value_union_against_exhaustive_oracle(self):
        values = []
        for d in (2, 3, 4, 5, 6, 8, 10, 12):
            values.extend(R(k, d) for k in unit_classes(d).units)
        seen = set()
        for alpha, beta in itertools.combinations(values, 2):
            if alpha == beta or math.lcm(alpha.order, beta.order) > 30:
                continue
            key = tuple(sorted((alpha, beta)))
            if key in seen:
                continue
            seen.add(key)
            total, witness, expanded = value_union_minimum(*key)
            assert total == _value_union_min_oracle(*key), key
            assert covers_conjugate_pairs(witness.modulus, witness.chosen_residues)
            assert sum(expanded, Fraction(0)) == total
            bounded = _value_union_minimum(*key)
            assert bounded == ((total, witness, expanded) if total < 1 else None), key


@pytest.fixture(scope="module")
def value_union():
    return classify_pairs(126, MODE_VALUE_UNION)


@pytest.fixture(scope="module")
def orbit_sets():
    return classify_pairs(126, MODE_ORBIT_SETS)


@pytest.fixture(scope="module")
def literal():
    return enumerate_exceptional_multisets(MODE_VALUE_UNION)


@pytest.fixture(scope="module")
def orbit():
    return enumerate_exceptional_multisets(MODE_ORBIT_SETS)


def test_the_searches_refuse_an_unknown_mode():
    message = r"^unknown mode 'bogus'; expected one of \('value-union', 'orbit-sets'\)$"
    with pytest.raises(ValueError, match=message):
        classify_pairs(12, "bogus")
    with pytest.raises(ValueError, match=message):
        enumerate_exceptional_multisets("bogus", 12)


class TestClassifyPairs:
    def test_reference_pairs_found(self, value_union):
        classes, report = value_union
        computed = {c.pair for c in classes}
        assert set(REFERENCE_PAIRS) <= computed
        assert report.missing == ()

    def test_quarter_half_extra(self, value_union, orbit_sets):
        target = (R(1, 4), R(1, 2))
        for classes, report in (value_union, orbit_sets):
            extras = {tuple(item) for item, _ in report.extras}
            assert target in extras
        witness = dict(value_union[1].extras)[target]
        assert witness["minimal_sum"] == "3/4"
        assert witness["sigma"]["chosen_residues"] == [1]

    def test_seventh_pair_refuted(self, orbit_sets):
        classes, _ = orbit_sets
        assert (R(1, 7), R(2, 7)) not in {c.pair for c in classes}
        assert av_orbit_feasibility([R(1, 7), R(2, 7)]).total == Fraction(2)

    def test_orbit_mode_misses_exactly_k_and_m(self, orbit_sets):
        _, report = orbit_sets
        assert set(report.missing) == {(R(1, 12), R(1, 4)), (R(1, 4), R(5, 12))}
        for pair in report.missing:
            assert av_orbit_feasibility(pair).total == Fraction(1)

    def test_conjugation_closure(self, value_union):
        classes, _ = value_union
        computed = {c.pair for c in classes}
        for pair in computed:
            conj = tuple(sorted(RootOfUnity(-v.numerator, v.denominator) for v in pair))
            assert conj in computed

    def test_witnesses_reproduce_minimal_sum(self, value_union):
        classes, _ = value_union
        for c in classes:
            assert c.minimal_sum < 1
            sigma = c.witness
            assert covers_conjugate_pairs(sigma.modulus, sigma.chosen_residues)
            values = {
                RootOfUnity(k * v.numerator, v.denominator)
                for k in sigma.chosen_residues
                for v in c.pair
            }
            assert sum(values, Fraction(0)) == c.minimal_sum

    def test_galois_orbits_partition_the_candidates(self):
        candidates = _pair_candidates(126)
        orbits = _galois_orbits(candidates)
        assert (len(candidates), len(orbits)) == (1437, 143)
        assert sorted(i for orbit in orbits for i, _ in orbit) == list(range(len(candidates)))
        lift = [(modulus, (R(a, modulus), R(b, modulus))) for modulus, a, b in candidates]
        for orbit in orbits:
            first, k = orbit[0]
            assert k == 1
            assert [i for i, _ in orbit] == sorted(i for i, _ in orbit)
            modulus, pair = lift[first]
            twists = {}
            for unit in unit_classes(modulus).units:
                twists.setdefault(tuple(sorted(R(unit * v.numerator, v.denominator) for v in pair)), unit)
            assert {lift[i][1]: k for i, k in orbit} == twists

    def test_value_union_minimum_runs_once_per_orbit(self, monkeypatch):
        import reidtai.search as search

        calls = []
        original = search._value_union_minimum
        monkeypatch.setattr(search, "_value_union_minimum", lambda *pair: calls.append(pair) or original(*pair))
        classify_pairs(126, MODE_VALUE_UNION)
        assert len(calls) == 143

    def test_matches_per_pair_oracle(self, value_union, orbit_sets):
        # At f_max 210 = lcm(14, 15) the candidates are every pair any f_max can produce.
        assert value_union[0] == classify_pairs_per_pair(126, MODE_VALUE_UNION)
        assert orbit_sets[0] == classify_pairs_per_pair(126, MODE_ORBIT_SETS)
        for mode in MODES:
            assert classify_pairs(210, mode)[0] == classify_pairs_per_pair(210, mode), mode

    def test_orbit_subset_of_value_union(self, value_union, orbit_sets):
        assert {c.pair for c in orbit_sets[0]} <= {c.pair for c in value_union[0]}


# ---------------------------------------------------------------------------
# Multiset enumeration
# ---------------------------------------------------------------------------


class TestMultisets:
    def test_all_fourteen_present_in_literal_mode(self, literal):
        computed = {s.values for s in literal.multisets}
        for label, values in REFERENCE_MULTISETS:
            assert tuple(sorted(values)) in computed, label
        assert literal.conformance.missing == ()

    def test_case_c_present_boundary_absent(self, literal):
        computed = {s.values for s in literal.multisets}
        assert tuple(sorted((R(1, 6), R(1, 6), R(1, 6), R(1, 3)))) in computed
        assert tuple(sorted((R(1, 6),) * 4 + (R(1, 3),))) not in computed  # sum exactly 1

    def test_orbit_mode_excludes_exactly_k_and_m(self, orbit):
        missing = set(orbit.conformance.missing)
        expected_missing = {
            tuple(sorted((R(1, 12), R(1, 4)))),
            tuple(sorted((R(1, 4), R(5, 12)))),
        }
        assert missing == expected_missing
        refuted = {s.values: total for s, total in orbit.refutations}
        for ms in expected_missing:
            assert refuted[ms] == Fraction(1)

    def test_k_present_in_literal_mode(self, literal):
        assert tuple(sorted((R(1, 12), R(1, 4)))) in {s.values for s in literal.multisets}

    def test_refutations_cover_excluded_reference_bases(self, orbit):
        # every excluded candidate built on a reference pair with sum < 1 carries a total >= 1
        refuted = {s.values: total for s, total in orbit.refutations}
        assert refuted[tuple(sorted((R(1, 8), R(1, 8), R(3, 8))))] == Fraction(3, 2)
        for values, total in refuted.items():
            assert sum(values, Fraction(0)) < 1
            assert total >= 1

    def test_orbit_multisets_all_feasible(self, orbit):
        for s in orbit.multisets:
            assert av_orbit_feasibility(s.values).feasible

    def test_every_reference_pair_candidate_accounted_for(self, orbit):
        # each multiplicity variant of each reference pair with sum < 1 is
        # either kept or refuted with a total >= 1 in orbit-sets mode
        kept = {s.values for s in orbit.multisets}
        refuted = {s.values: total for s, total in orbit.refutations}
        for pair in REFERENCE_PAIRS:
            lo, hi = sorted(pair)
            m_lo = 1
            while m_lo * lo + hi < 1:
                m_hi = 1
                while m_lo * lo + m_hi * hi < 1:
                    candidate = tuple(sorted((lo,) * m_lo + (hi,) * m_hi))
                    if candidate in kept:
                        assert av_orbit_feasibility(candidate).feasible
                    else:
                        assert refuted[candidate] >= 1
                    m_hi += 1
                m_lo += 1


# ---------------------------------------------------------------------------
# Same-order screen
# ---------------------------------------------------------------------------


class TestMinAgeSameOrder:
    @pytest.mark.parametrize(
        "n, dim, expected",
        [
            (6, 5, Fraction(5, 6)),
            (10, 4, Fraction(4, 5)),
            (5, 4, Fraction(6, 5)),
            (7, 4, None),
            (2, 3, Fraction(3, 2)),
            (6, 6, Fraction(1)),
            (14, 6, Fraction(9, 7)),
        ],
    )
    def test_examples(self, n, dim, expected):
        assert min_age_same_order(n, dim) == expected

    def test_exhaustive_oracle(self):
        for n in (2, 3, 4, 5, 6, 8, 10, 12):
            for dim in range(1, 7):
                assert min_age_same_order(n, dim) == _same_order_min_oracle(n, dim), (n, dim)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            min_age_same_order(1, 3)
        with pytest.raises(ValueError):
            min_age_same_order(6, 0)
