import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from element_oracles import from_phases, is_identity
from monomial_oracles import compose_class, g_group_listing, listing_scan, span_order

from reidtai.deviation import monomial_matrix
from reidtai.groups import _KernelSpan
from reidtai.imprimitive import imprimitive_classification
from reidtai.monomial import (
    GroupTooLargeError,
    MonomialElement,
    _closure_order,
    _exceptional_candidates,
    conjugacy_class,
    g_group,
    g_group_order,
    monomial_closure,
    monomial_identity,
    normal_closure,
    prop_prod_check,
    spectrum_of,
)
from reidtai.spectra import Spectrum


def elem(perm, phases):
    return from_phases(perm, phases)


def _normal_closure_oracle(g, group):
    """Direct closure of the full conjugate set, no generator tricks."""
    conjugates = {h.compose(g).compose(h.inverse()) for h in group.elements}
    members = {monomial_identity(group.degree)}
    frontier = list(members)
    while frontier:
        new = []
        for x in frontier:
            for c in conjugates:
                y = x.compose(c)
                if y not in members:
                    members.add(y)
                    new.append(y)
        frontier = new
    return members


class TestMonomialElement:
    def test_canonical_modulus(self):
        a = MonomialElement((0, 1), (3, 0), 6)
        assert a.modulus == 2 and a.phase_numerators == (1, 0)
        assert a == elem((0, 1), ["1/2", "0"])

    def test_compose_matches_matrices(self):
        rng = random.Random(17)
        for _ in range(100):
            n = rng.randint(1, 4)
            perm1 = tuple(rng.sample(range(n), n))
            perm2 = tuple(rng.sample(range(n), n))
            g = elem(perm1, [Fraction(rng.randrange(6), 6) for _ in range(n)])
            h = elem(perm2, [Fraction(rng.randrange(6), 6) for _ in range(n)])
            prod = g.compose(h)
            assert np.allclose(monomial_matrix(prod), monomial_matrix(g) @ monomial_matrix(h), atol=1e-9)

    def test_inverse(self):
        rng = random.Random(19)
        for _ in range(50):
            n = rng.randint(1, 4)
            g = elem(tuple(rng.sample(range(n), n)), [Fraction(rng.randrange(8), 8) for _ in range(n)])
            assert is_identity(g.compose(g.inverse()))
            assert is_identity(g.inverse().compose(g))

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            MonomialElement((0, 0), (0, 0), 1)
        with pytest.raises(ValueError):
            MonomialElement((0, 1), (0,), 2)


class TestSpectrumOf:
    def test_examples(self):
        assert spectrum_of(elem((1, 0), [0, 0])) == Spectrum([0, Fraction(1, 2)])
        assert spectrum_of(elem((0, 1, 2), ["1/2", 0, 0])) == Spectrum([Fraction(1, 2), 0, 0])
        assert spectrum_of(elem((1, 0), [0, "1/4"])) == Spectrum([Fraction(1, 8), Fraction(5, 8)])

    def test_matches_numeric_eigenvalues(self):
        rng = random.Random(23)
        for _ in range(100):
            n = rng.randint(1, 4)
            g = elem(tuple(rng.sample(range(n), n)), [Fraction(rng.randrange(12), 12) for _ in range(n)])
            exact = sorted(2 * math.pi * float(v) for v in spectrum_of(g).values)
            numeric = sorted(np.angle(np.linalg.eigvals(monomial_matrix(g))) % (2 * np.pi))
            # realign values that wrapped to just below 2*pi
            for arr in (exact, numeric):
                if arr and arr[-1] > 2 * math.pi - 1e-9:
                    arr[:] = sorted(x - 2 * math.pi if x > 2 * math.pi - 1e-9 else x for x in arr)
            assert np.allclose(exact, numeric, atol=1e-9)

    def test_conjugation_invariance(self):
        group = g_group(3, 1, 3)
        rng = random.Random(29)
        sample = rng.sample(group.elements, 40)
        for g in sample:
            h = rng.choice(group.elements)
            assert spectrum_of(h.compose(g).compose(h.inverse())) == spectrum_of(g)

    def test_exact_agreement_with_integer_matrix_spectra(self):
        # sign groups have integral matrix realizations, so the cycle formula
        # can be checked exactly against the cyclotomic factorization
        from reidtai.lattice import cyclotomic_spectrum, mat

        for (m, p, n) in [(1, 1, 3), (2, 1, 2), (2, 2, 3), (2, 1, 3)]:
            for g in g_group(m, p, n).elements:
                rows = [[0] * n for _ in range(n)]
                for j in range(n):
                    sign = 1 if g.phase_numerators[j] == 0 else -1
                    rows[g.permutation[j]][j] = sign
                assert cyclotomic_spectrum(mat(rows)) == spectrum_of(g)


class TestGGroup:
    @pytest.mark.parametrize("m, p, n, order", [(2, 1, 2, 8), (1, 1, 3, 6), (4, 4, 2, 8)])
    def test_examples(self, m, p, n, order):
        group = g_group(m, p, n)
        assert group.order == order == g_group_order(m, p, n)

    def test_order_formula_within_cap(self):
        for m in range(1, 5):
            for p in range(1, m + 1):
                if m % p:
                    continue
                for n in range(1, 4):
                    assert g_group(m, p, n).order == m**n * math.factorial(n) // p

    @pytest.mark.parametrize(
        "m, p, n",
        [(m, p, n) for m in range(1, 7) for p in range(1, m + 1) if m % p == 0 for n in range(1, 5)
         if g_group_order(m, p, n) <= 20_000],
    )
    def test_listing_is_the_closure_of_the_generators(self, m, p, n):
        # the criterion-10 groups, every n <= 3, (3, 1, 4) and (6, 6, 4) among them: the closure engine's listing
        # against the direct one, every permutation times every phase vector
        group = g_group(m, p, n)
        assert len(group.elements) == group.order == g_group_order(m, p, n)
        assert group.elements == g_group_listing(m, p, n)

    def test_equality_hash_and_repr_do_not_list(self):
        group = g_group(6, 1, 5)
        assert group == g_group(6, 1, 5) and hash(group) == hash(g_group(6, 1, 5))
        assert repr(group).startswith("GGroup(m=6, p=1, degree=5, generators=(") and len(repr(group)) < 1000
        assert group != g_group(6, 2, 5) and group != monomial_closure(g_group(2, 1, 2).generators)
        assert "elements" not in vars(group)

    def test_phase_product_constraint(self):
        group = g_group(4, 2, 2)
        for g in group.elements:
            total = sum(Fraction(p) for p in g.phases) % 1
            assert total in (Fraction(0), Fraction(1, 2))  # mu_{m/p} with m/p = 2

    def test_cap(self):
        with pytest.raises(GroupTooLargeError):
            g_group(6, 1, 4, cap=100)

    @pytest.mark.parametrize("m, p, n", [(2, 1, 3), (4, 2, 3), (6, 6, 2), (1, 1, 5)])
    def test_cap_is_inclusive(self, m, p, n):
        order = g_group_order(m, p, n)
        assert g_group(m, p, n, cap=order).order == order
        with pytest.raises(GroupTooLargeError, match=rf"^\|G\({m},{p},{n}\)\| exceeds cap {order - 1}$"):
            g_group(m, p, n, cap=order - 1)

    def test_closure_of_infinite_set_capped(self):
        # not a finite-order generator set for the closure cap path
        with pytest.raises(GroupTooLargeError):
            monomial_closure([elem((0,), ["1/1000001"])], cap=10)


class TestNormalClosure:
    def test_transposition_in_s3(self):
        s3 = g_group(1, 1, 3)
        t = elem((1, 0, 2), [0, 0, 0])
        assert normal_closure(t, s3).order == 6

    def test_diagonal_in_b2(self):
        b2 = g_group(2, 1, 2)
        d = elem((0, 1), ["1/2", 0])
        sub = normal_closure(d, b2)
        assert sub.order == 4
        assert all(g.permutation == (0, 1) for g in sub.elements)

    def test_identity(self):
        s3 = g_group(1, 1, 3)
        assert normal_closure(monomial_identity(3), s3).order == 1

    def test_against_bruteforce_oracle(self):
        rng = random.Random(31)
        for group in (g_group(1, 1, 3), g_group(2, 1, 2), g_group(3, 3, 2), g_group(2, 2, 3)):
            for g in rng.sample(group.elements, min(6, group.order)):
                assert set(normal_closure(g, group).elements) == _normal_closure_oracle(g, group)

    def test_membership_required(self):
        with pytest.raises(ValueError):
            normal_closure(elem((0, 1), ["1/5", 0]), g_group(2, 1, 2))


class TestPropProd:
    def test_g213_scan(self):
        report = prop_prod_check(g_group(2, 1, 3))
        assert report.group_order == 48
        assert not report.violations
        # every full-closure exceptional class (here: none) is a transposition;
        # the transposition class generates the index-2 reflection subgroup
        kinds = {(e.cycle_type, e.closure_index) for e in report.entries}
        assert kinds == {((1, 1, 1), 6), ((2, 1), 2)}

    def test_s4_standard_rep(self):
        report = prop_prod_check(g_group(1, 1, 4))
        assert report.group_order == 24
        assert len(report.entries) == 1
        entry = report.entries[0]
        assert entry.is_transposition and entry.closure_index == 1
        assert entry.age == Fraction(1, 2)
        assert not report.violations

    def test_s4_reflection_rep(self):
        report = prop_prod_check(g_group(1, 1, 4), reflection_rep=True)
        assert report.entries[0].spectrum.dimension == 3
        assert report.entries[0].age == Fraction(1, 2)

    def test_reflection_rep_rejected_for_phased_groups(self):
        with pytest.raises(ValueError):
            prop_prod_check(g_group(2, 1, 2), reflection_rep=True)

    def test_trivial_group(self):
        report = prop_prod_check(g_group(1, 1, 1))
        assert report.entries == () and report.violations == ()

    @pytest.mark.parametrize(
        "m, p, n",
        [(1, 1, 3), (1, 1, 4), (2, 1, 2), (2, 1, 3), (2, 2, 3), (3, 1, 2), (3, 3, 2), (4, 2, 2), (5, 1, 3), (6, 2, 3)],
    )
    def test_closure_orders_match_normal_closure(self, m, p, n):
        # (5,1,3) and (6,2,3) have classes of closure index 1, stopped at half the group, and of larger index
        group = g_group(m, p, n)
        report = prop_prod_check(group)
        assert report.entries
        for e in report.entries:
            assert e.closure_order == normal_closure(e.representative, group).order

    def test_exceptional_ages_match_spectra(self):
        report = prop_prod_check(g_group(4, 1, 2))
        for e in report.entries:
            assert e.age == spectrum_of(e.representative).age()
            assert 0 < e.age < 1
            assert e.class_size == len(conjugacy_class(e.representative, g_group(4, 1, 2)))


# Every G(m, p, n) with m <= 6, n <= 4 and order <= 12,000, three groups of degree 5, and the reflection
# representation of every symmetric group among them.
ORACLE_GROUPS = [
    (m, p, n) for m in range(1, 7) for p in range(1, m + 1) if m % p == 0 for n in range(1, 5)
    if g_group_order(m, p, n) <= 12_000
] + [(2, 1, 5), (1, 1, 5), (3, 3, 5)]
ORACLE_CASES = [(m, p, n, False) for m, p, n in ORACLE_GROUPS] + [
    (m, p, n, True) for m, p, n in ORACLE_GROUPS if m == 1 and n >= 2
]


class TestPropProdAgainstTheListing:
    def test_cases(self):
        assert len(ORACLE_GROUPS) == 56 and len(ORACLE_CASES) == 60

    @pytest.mark.parametrize("m, p, n, reflection_rep", ORACLE_CASES)
    def test_report_matches_the_listing_scan(self, m, p, n, reflection_rep):
        report = prop_prod_check(g_group(m, p, n), reflection_rep=reflection_rep)
        assert report.to_json() == listing_scan(g_group(m, p, n), reflection_rep=reflection_rep).to_json()

    def test_g614_is_never_listed(self, monkeypatch):
        group = g_group(6, 1, 4)
        composes = [0]
        compose = MonomialElement.compose

        def counted_compose(self, other):
            composes[0] += 1
            return compose(self, other)

        monkeypatch.setattr(MonomialElement, "compose", counted_compose)
        report = prop_prod_check(group)
        assert "elements" not in vars(group)
        assert composes[0] < g_group_order(6, 1, 4) // 4
        assert report.group_order == 31_104 and len(report.entries) == 24 and not report.violations

    @pytest.mark.parametrize("m, n", [(1, 4), (2, 3), (3, 3), (4, 2), (6, 2), (2, 4)])
    def test_schreier_order_of_any_elements_without_the_lagrange_stop(self, m, n):
        # a group order too large to stop at, so pi(N) is walked in full and N ∩ D spanned in full
        rng = random.Random(37 * m + n)
        elements = g_group(m, 1, n).elements
        for _ in range(40):
            gens = rng.sample(elements, rng.randint(1, 3))
            assert _closure_order(gens, 10**12) == monomial_closure(gens).order, gens

    @pytest.mark.parametrize(
        "m, p, n", [(m, p, n) for m in range(1, 4) for p in range(1, m + 1) if m % p == 0 for n in range(1, 4)]
    )
    def test_membership_from_the_parameters_matches_the_closure(self, m, p, n):
        group = g_group(m, p, n)
        closed = set(monomial_closure(group.generators).elements) if group.generators else {monomial_identity(n)}
        for g in g_group(2 * m, 1, n).elements:
            assert (g in group) == (g in closed)
        assert elem(tuple(range(n)), ["1/5"] + [0] * (n - 1)) not in group
        assert monomial_identity(n + 1) not in group
        assert "elements" not in vars(group)


# every G(m, p, n) with m <= 6, n <= 4 and order <= 30,000
CONJUGATION_GROUPS = [
    (m, p, n) for m in range(1, 7) for p in range(1, m + 1) if m % p == 0 for n in range(1, 5)
    if g_group_order(m, p, n) <= 30_000
]


class TestDirectConjugation:
    def test_cases(self):
        assert len(CONJUGATION_GROUPS) == 55 and (6, 1, 4) not in CONJUGATION_GROUPS

    @pytest.mark.parametrize("m, p, n", CONJUGATION_GROUPS)
    def test_class_matches_the_compose_walk(self, m, p, n):
        # every exceptional candidate in the group, and a seeded sample of other members with longer cycles
        group = g_group(m, p, n)
        modulus = math.lcm(*(g.modulus for g in group.generators))
        members = [g for g in _exceptional_candidates(n, modulus) if g in group]
        rng = random.Random(1000 * m + 10 * p + n)
        for _ in range(10):
            ks = [rng.randrange(m) for _ in range(n)]
            ks[0] = (ks[0] - sum(ks)) % m + rng.randrange(m // p) * p  # phase sum in p Z / m Z
            members.append(MonomialElement(tuple(rng.sample(range(n), n)), ks, m))
        assert all(g in group for g in members)
        seen = set()
        for g in members:
            if g not in seen:
                cls = conjugacy_class(g, group)
                assert cls == compose_class(g, group), g
                seen.update(cls)


def _assert_span_matches(vectors, n, m):
    span = _KernelSpan(n, m)
    for v in vectors:
        span.add(v)
    for i, row in enumerate(span.rows):
        assert row[:i] == [0] * i and m % row[i] == 0 and all(0 <= x < m for x in row[i + 1:])
    assert span.order == span_order(vectors, n, m), (vectors, n, m)


class TestPhaseSpan:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_every_pair_of_vectors_in_the_plane(self, m):
        vectors = [(a, b) for a in range(m) for b in range(m)]
        for u in vectors:
            for v in vectors:
                _assert_span_matches([u, v], 2, m)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_every_vector_of_degree_three(self, m):
        for v in product(range(-m, 2 * m, 2), range(m), range(m)):
            _assert_span_matches([v], 3, m)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 6), st.lists(st.tuples(*[st.integers(-12, 12)] * 3), max_size=5))
    @example(6, [(2, 1, 0), (3, 0, 1), (0, 3, 3)])  # pivots 2 and 3 mod 6 meet in an extended gcd
    @example(6, [(3, 2, 5), (2, 3, 1), (4, 4, 4)])
    @example(6, [(6, 12, -6), (0, 0, 0), (0, 6, 0)])  # vectors that are 0 mod 6
    @example(4, [(2, 1, 0), (0, 2, 1)])  # (4/2) * (2, 1, 0) leaves (0, 2, 0) for the later rows
    def test_against_the_brute_force_span(self, m, vectors):
        _assert_span_matches(vectors, 3, m)


class TestImprimitiveClassification:
    def test_case_table(self):
        records = imprimitive_classification()
        assert len(records) == 5
        swaps = {str(r.swap_value) for r in records}
        assert swaps == {"0", "1/6", "1/8"}
        survivors = [r for r in records if not r.eliminated]
        assert len(survivors) == 1
        s = survivors[0]
        assert str(s.swap_value) == "0" and s.extra is None
        # eigenvalues -1, 1, ..., 1: a reflection
        assert s.spectrum == Spectrum([0, 0, Fraction(1, 2)])
        assert s.spectrum.age() == Fraction(1, 2)

    def test_square_test_values(self):
        by_key = {(str(r.swap_value), None if r.extra is None else str(r.extra)): r for r in imprimitive_classification()}
        assert by_key[("1/8", None)].square_spectrum == Spectrum([Fraction(1, 4), Fraction(1, 4), 0])
        assert by_key[("1/8", None)].square_age == Fraction(1, 2)
        assert by_key[("0", "1/3")].square_age == Fraction(2, 3)
        assert by_key[("0", "1/6")].square_age == Fraction(1, 3)
        assert by_key[("1/6", None)].square_age == Fraction(2, 3)
        for r in imprimitive_classification():
            assert r.eliminated == r.square_spectrum.is_exceptional()
