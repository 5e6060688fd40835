import math
import random
from fractions import Fraction
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from element_oracles import inverse, sort_key
from group_oracles import generate

from reidtai import groups, monomial, torus
from reidtai.lattice import identity
from reidtai.monomial import MonomialElement, conjugacy_class, g_group, monomial_closure, normal_closure
from reidtai.torus import AffineTorusMap, affine_identity, closure

F = Fraction


def _torus_closure_oracle(gens, cap):
    """Breadth-first product closure; None once it passes the cap."""
    ident = affine_identity(gens[0].rank)
    members = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x.compose(g)
                if y not in members:
                    members.add(y)
                    new.append(y)
        if len(members) > cap:
            return None
        frontier = new
    return members


def _random_signed_permutation_map(rng, n):
    perm = rng.sample(range(n), n)
    linear = tuple(
        tuple(rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(n)) for i in range(n)
    )
    translation = []
    for _ in range(n):
        d = rng.randint(1, 4)
        translation.append(F(rng.randrange(d), d))
    return AffineTorusMap(linear, tuple(translation))


def test_one_error_class():
    assert monomial.GroupTooLargeError is torus.GroupTooLargeError is groups.GroupTooLargeError


@pytest.mark.parametrize("order", [2, 7, 12])
def test_monomial_cap_boundary(order):
    gens = [MonomialElement((0,), (1,), order)]
    assert monomial_closure(gens, cap=order).order == order
    with pytest.raises(groups.GroupTooLargeError):
        monomial_closure(gens, cap=order - 1)


@pytest.mark.parametrize("order", [2, 7, 12])
def test_torus_cap_boundary(order):
    gens = [AffineTorusMap(identity(1), (F(1, order),))]
    assert closure(gens, cap=order).order == order
    with pytest.raises(groups.GroupTooLargeError):
        closure(gens, cap=order - 1)


def test_cap_boundary_inside_a_coset():
    # <diag(e(1/4), 1)> has order 4; the second generator adds cosets of size 4
    gens = [MonomialElement((0, 1), (1, 0), 4), MonomialElement((0, 1), (0, 1), 3)]
    assert monomial_closure(gens, cap=12).order == 12
    for cap in (8, 11):
        with pytest.raises(groups.GroupTooLargeError):
            monomial_closure(gens, cap=cap)


def test_torus_closure_matches_breadth_first_oracle():
    rng = random.Random(11)
    cap = 2000
    compared = 0
    for _ in range(40):
        n = rng.randint(1, 3)
        gens = [_random_signed_permutation_map(rng, n) for _ in range(rng.randint(1, 3))]
        oracle = _torus_closure_oracle(gens, cap)
        if oracle is None:
            with pytest.raises(groups.GroupTooLargeError):
                closure(gens, cap=cap)
            continue
        action = closure(gens, cap=cap)
        assert action.elements == tuple(sorted(oracle, key=sort_key))
        compared += 1
    assert compared >= 20


def test_normal_closure_generators_are_irredundant():
    s3 = g_group(1, 1, 3)
    t = MonomialElement((1, 0, 2), (0, 0, 0), 1)
    cls = conjugacy_class(t, s3)
    assert normal_closure(t, s3).generators == cls[:2]


def test_generate_skips_redundant_elements():
    g = MonomialElement((1, 2, 0), (0, 0, 0), 1)  # a 3-cycle
    g2 = g.compose(g)
    members, used = generate([g, g2, g], monomial.monomial_identity(3), 10)
    assert used == (g,)
    assert sorted(members, key=sort_key) == sorted(
        [monomial.monomial_identity(3), g, g2], key=sort_key
    )


_PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def _monomial_set(draw):
    """Elements of one degree over mixed moduli; a few permutations, so heads tie."""
    n = draw(st.integers(1, 3))
    elements = set()
    for _ in range(draw(st.integers(0, 12))):
        m = draw(st.integers(1, 24))
        nums = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        elements.add(MonomialElement(tuple(draw(st.permutations(range(n)))), tuple(nums), m))
    return elements


@st.composite
def _torus_set(draw):
    """Maps of one rank over mixed denominators, with linear parts from a small pool, so heads tie."""
    n = draw(st.integers(1, 3))
    pool = [identity(n), tuple(tuple(-x for x in row) for row in identity(n))]
    maps = set()
    for _ in range(draw(st.integers(0, 12))):
        d = draw(st.integers(1, 24))
        t = [F(k, d) for k in draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n))]
        maps.add(AffineTorusMap(draw(st.sampled_from(pool)), t))
    return maps


@_PROPERTY_SETTINGS
@given(_monomial_set())
def test_canonical_is_sort_key_order_for_monomial_elements(elements):
    parts = attrgetter("permutation", "phase_numerators", "modulus")
    assert groups.canonical(elements, parts) == tuple(sorted(elements, key=sort_key))


@_PROPERTY_SETTINGS
@given(_torus_set())
def test_canonical_is_sort_key_order_for_torus_maps(maps):
    parts = attrgetter("linear", "numerators", "denominator")
    assert groups.canonical(maps, parts) == tuple(sorted(maps, key=sort_key))


# ``groups.extension`` against Dimino over whole elements (tests/group_oracles.py), at caps from 0 up.
# The torus pool holds rank-2 linear parts of order 3, 4 and 6 that are not signed permutations, and two
# involutions whose product has infinite order.
_RANK2_LINEARS = (
    ((1, 0), (0, 1)),
    ((-1, 0), (0, -1)),
    ((0, -1), (1, -1)),  # order 3
    ((1, -2), (1, -1)),  # order 4
    ((1, -1), (1, 0)),  # order 6
    ((0, 1), (1, 0)),
    ((-1, 0), (0, 1)),
    ((1, 0), (1, -1)),
)


def _outcome(close):
    """close() or the GroupTooLargeError text."""
    try:
        return close()
    except groups.GroupTooLargeError as e:
        return str(e)


def _oracle(elements, identity, cap):
    """(canonical members, used) from Dimino over whole elements, or the GroupTooLargeError text."""

    def close():
        members, used = generate(elements, identity, cap)
        return groups.canonical(members, type(identity)._values), used

    return _outcome(close)


def _members(oracle):
    return oracle if isinstance(oracle, str) else oracle[0]


def _caps(rng, full):
    """Caps from 0 up around the order; a group above the oracle's cap of 1000 gets the caps below it."""
    order = 1001 if isinstance(full, str) else len(full[0])
    return sorted({0, 1, 2, order - 1, order, order + 1, rng.randint(0, order + 1)} - {-1, 1002})


def _random_monomial(rng, n):
    m = rng.randint(1, 6)
    return MonomialElement(tuple(rng.sample(range(n), n)), tuple(rng.randrange(m) for _ in range(n)), m)


def test_monomial_closure_matches_the_dimino_oracle():
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randint(1, 3)
        gens = [_random_monomial(rng, n) for _ in range(rng.randint(1, 3))]
        ident = monomial.monomial_identity(n)
        for cap in _caps(rng, _oracle(gens, ident, 1000)):
            got = _outcome(lambda: monomial_closure(gens, cap=cap).elements)
            assert got == _members(_oracle(gens, ident, cap)), (gens, cap)


def _normal_closure_cases(rng):
    # diagonal classes: every member lies over the identity permutation, the known-head branch
    for m, p, n, phases in [(4, 1, 3, (1, 0, 0)), (6, 2, 3, (1, 5, 0)), (6, 1, 2, (2, 0)), (3, 3, 3, (1, 2, 0))]:
        group = g_group(m, p, n)
        yield group, MonomialElement(tuple(range(n)), phases, m)
    for _ in range(30):
        n = rng.randint(1, 3)
        group = monomial_closure([_random_monomial(rng, n) for _ in range(rng.randint(1, 3))])
        yield group, rng.choice(group.elements)


def test_normal_closure_matches_the_dimino_oracle():
    rng = random.Random(22)
    for group, g in _normal_closure_cases(rng):
        cls = conjugacy_class(g, group)
        ident = monomial.monomial_identity(group.degree)
        for cap in _caps(rng, _oracle(cls, ident, 1000)):
            closed = _outcome(lambda: normal_closure(g, group, cap=cap))
            got = closed if isinstance(closed, str) else (closed.elements, closed.generators)
            assert got == _oracle(cls, ident, cap), (g, cap)


def test_torus_closure_matches_the_dimino_oracle():
    rng = random.Random(23)
    above_oracle_cap = 0  # the infinite groups among them
    for _ in range(60):
        gens = []
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(1, 4)
            gens.append(AffineTorusMap(rng.choice(_RANK2_LINEARS), (F(rng.randrange(d), d), F(rng.randrange(d), d))))
        full = _oracle(gens, affine_identity(2), 1000)
        above_oracle_cap += isinstance(full, str)
        for cap in _caps(rng, full):
            got = _outcome(lambda: closure(gens, cap=cap).elements)
            assert got == _members(_oracle(gens, affine_identity(2), cap)), (gens, cap)
    assert above_oracle_cap >= 5


# The one defect rule: the difference of two members' numerators over one head, read off the coset form.


def test_the_monomial_defect_is_t_inverse_times_y():
    rng = random.Random(24)
    for _ in range(200):
        n = rng.randint(1, 4)
        perm = tuple(rng.sample(range(n), n))
        y, t = (MonomialElement(perm, [rng.randrange(m) for _ in range(n)], m) for m in rng.choices(range(1, 13), k=2))
        m = math.lcm(y.modulus, t.modulus)
        q = t.inverse().compose(y)  # diag(k_y - k_t)
        assert q.permutation == tuple(range(n))
        f = m // q.modulus
        assert [k % m for k in groups._difference(y, t, m)] == [k * f for k in q.phase_numerators], (y, t)


def test_the_torus_defect_is_y_times_t_inverse():
    rng = random.Random(25)
    for _ in range(200):
        n = rng.randint(1, 3)
        linear = _random_signed_permutation_map(rng, n).linear
        y, t = (AffineTorusMap(linear, _random_signed_permutation_map(rng, n).translation) for _ in range(2))
        d = math.lcm(y.denominator, t.denominator)
        q = y.compose(inverse(t))  # the translation by t_y - t_t
        assert q.linear == identity(n)
        f = d // q.denominator
        assert [k % d for k in groups._difference(y, t, d)] == [k * f for k in q.numerators], (y, t)


def test_a_held_monomial_group_lists_nothing_for_its_order(monkeypatch):
    def listed(self):
        raise AssertionError("the kernel was listed")

    monkeypatch.setattr(groups._KernelSpan, "vectors", listed)
    group = g_group(4, 2, 3)
    t = MonomialElement((0, 1, 2), (1, 3, 0), 4)
    assert monomial_closure(group.generators).order == group.order == 192
    assert normal_closure(t, group).order == 16  # the diagonal phases with product in mu_2
    assert monomial_closure([MonomialElement((1, 2, 0), (1, 0, 0), 3)]).order == 9
