"""Group elements as integers over a reduced modulus, for both group families.

Closures compose, hash and sort on the stored ints; a ``Fraction`` or a
``RootOfUnity`` is built only at the API boundary.  These tests pin the
canonical order to its ``Fraction`` key, equality to mathematical equality, and the
trusted product constructors to the validating public ones.
"""

import contextlib
from fractions import Fraction

import pytest
from element_oracles import from_phases, inverse, is_identity, sort_key
from hypothesis import given, settings
from hypothesis import strategies as st

from reidtai.groups import GroupTooLargeError
from reidtai.lattice import identity, mat_mul
from reidtai.monomial import MonomialElement, conjugacy_class, g_group, monomial_closure, normal_closure
from reidtai.spectra import Spectrum
from reidtai.torus import AffineTorusMap, closure

F = Fraction
CAP = 2000


@contextlib.contextmanager
def _counting_fractions():
    """Count Fraction constructions; RootOfUnity goes through Fraction.__new__ too."""
    original = Fraction.__dict__["__new__"]
    count = [0]

    def counting(cls, *args, **kwargs):
        count[0] += 1
        return original(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting)
    try:
        yield count
    finally:
        Fraction.__new__ = original


def test_closures_build_no_fraction():
    group = g_group(6, 3, 3)
    g = next(x for x in group.elements if x.modulus == 6 and not is_identity(x))
    maps = [
        AffineTorusMap(((0, -1), (1, 0)), (F(1, 2), F(0))),
        AffineTorusMap(((1, 0), (0, 1)), (F(1, 3), F(2, 3))),
    ]
    with _counting_fractions() as count:
        assert monomial_closure(group.generators).order == 432
        conjugacy_class(g, group)
        closure(maps)
    assert count[0] == 0


def test_fraction_counter_sees_roots_of_unity():
    with _counting_fractions() as count:
        MonomialElement((0, 1), (1, 3), 4).phases
    assert count[0] >= 2


# ---------------------------------------------------------------------------
# Strategies: small groups whose moduli or denominators are mixed
# ---------------------------------------------------------------------------


@st.composite
def _monomial_generators(draw):
    n = draw(st.integers(1, 3))
    moduli = (4, 6) if n < 3 else (2, 3)  # mixed moduli; degree 3 stays small
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.sampled_from(moduli))
        perm = tuple(draw(st.permutations(range(n))))
        nums = tuple(draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
        gens.append(MonomialElement(perm, nums, m))
    return gens


@st.composite
def _signed_permutation(draw, n):
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    return tuple(tuple(signs[i] if j == perm[i] else 0 for j in range(n)) for i in range(n))


@st.composite
def _torus_map(draw, n):
    d = draw(st.sampled_from((3, 4)))  # mixed denominators
    translation = tuple(F(draw(st.integers(-d, 2 * d)), d) for _ in range(n))
    return AffineTorusMap(draw(_signed_permutation(n)), translation)


@st.composite
def _torus_generators(draw):
    n = draw(st.integers(1, 2))
    return draw(st.lists(_torus_map(n), min_size=1, max_size=2))


def _monomial_group(gens):
    try:
        return monomial_closure(gens, cap=CAP)
    except GroupTooLargeError:
        return None


# ---------------------------------------------------------------------------
# The canonical order on ints is the order of the Fraction key element_oracles.sort_key
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(gens=_monomial_generators(), pick=st.integers(0, 10**6))
def test_monomial_orders_match_sort_key(gens, pick):
    group = _monomial_group(gens)
    if group is None:
        return
    assert group.elements == tuple(sorted(group.elements, key=sort_key))
    g = group.elements[pick % group.order]
    cls = conjugacy_class(g, group)
    assert cls == tuple(sorted(cls, key=sort_key))
    sub = normal_closure(g, group, cap=CAP)
    assert sub.elements == tuple(sorted(sub.elements, key=sort_key))


@settings(max_examples=60, deadline=None)
@given(gens=_torus_generators())
def test_torus_closure_order_matches_sort_key(gens):
    action = closure(gens, cap=CAP)
    assert action.elements == tuple(sorted(action.elements, key=sort_key))


# ---------------------------------------------------------------------------
# Equal values give equal maps; JSON round trips
# ---------------------------------------------------------------------------


def test_translations_equal_mod_one_give_equal_maps():
    lin = ((-1,),)
    halves = [AffineTorusMap(lin, (t,)) for t in (F(1, 2), F(3, 2), F(2, 4), "1/2", "-1/2")]
    zeros = [AffineTorusMap(lin, (t,)) for t in (0, 1, F(0), "4/4", -3)]
    for same in (halves, zeros):
        assert len(set(same)) == 1
        assert len({hash(g) for g in same}) == 1
    assert halves[0].translation == (F(1, 2),)
    assert zeros[0].translation == (F(0),) and zeros[0].denominator == 1
    assert halves[0] != zeros[0]


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 3), data=st.data())
def test_rescaled_translations_give_equal_maps(n, data):
    lin = data.draw(_signed_permutation(n))
    d = data.draw(st.integers(1, 12))
    nums = data.draw(st.lists(st.integers(-2 * d, 2 * d), min_size=n, max_size=n))
    shifts = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    scale = data.draw(st.integers(1, 5))
    g = AffineTorusMap(lin, tuple(F(k, d) for k in nums))
    h = AffineTorusMap(lin, tuple(F((k + s * d) * scale, d * scale) for k, s in zip(nums, shifts)))
    assert g == h and hash(g) == hash(h)
    assert g.translation == tuple(F(k, d) % 1 for k in nums)
    assert AffineTorusMap.from_json(g.to_json()) == g


# ---------------------------------------------------------------------------
# Trusted products equal what the validating constructors build
# ---------------------------------------------------------------------------


def _monomial_product_oracle(a, b):
    """a * b from Fraction phases: line j gets b's phase, then a's phase on line b(j)."""
    phases = [pb + a.phases[b.permutation[j]] for j, pb in enumerate(b.phases)]
    return from_phases([a.permutation[p] for p in b.permutation], phases)


@settings(max_examples=100, deadline=None)
@given(gens=_monomial_generators(), data=st.data())
def test_monomial_trusted_products_equal_validated(gens, data):
    a = data.draw(st.sampled_from(gens))
    b = data.draw(st.sampled_from(gens))
    for r in (a.compose(b), a.inverse(), b.inverse().compose(a)):
        rebuilt = MonomialElement(r.permutation, r.phase_numerators, r.modulus)
        assert rebuilt == r and hash(rebuilt) == hash(r)
        assert rebuilt.modulus == r.modulus and rebuilt.phase_numerators == r.phase_numerators
    assert a.compose(b) == _monomial_product_oracle(a, b)
    assert is_identity(a.compose(a.inverse()))


def _torus_product_oracle(a, b):
    """a after b with Fraction arithmetic, through the validating constructor."""
    t = tuple(
        sum(F(c) * v for c, v in zip(row, b.translation)) + s for row, s in zip(a.linear, a.translation)
    )
    return AffineTorusMap(mat_mul(a.linear, b.linear), t)


@settings(max_examples=100, deadline=None)
@given(gens=_torus_generators(), data=st.data())
def test_torus_trusted_products_equal_validated(gens, data):
    a = data.draw(st.sampled_from(gens))
    b = data.draw(st.sampled_from(gens))
    for r in (a.compose(b), inverse(b).compose(a)):
        rebuilt = AffineTorusMap(r.linear, r.translation)
        assert rebuilt == r and hash(rebuilt) == hash(r)
        assert rebuilt.numerators == r.numerators and rebuilt.denominator == r.denominator
    assert a.compose(b) == _torus_product_oracle(a, b)
    assert a.compose(inverse(a)) == AffineTorusMap(identity(a.rank), (0,) * a.rank)


# ---------------------------------------------------------------------------
# Slotted values: equal parts are equal values, and nothing can be set
# ---------------------------------------------------------------------------


def _assert_slotted_and_frozen(g):
    assert not hasattr(g, "__dict__")
    for name in (*type(g).__slots__, "other"):
        with pytest.raises(AttributeError):
            setattr(g, name, 0)
        with pytest.raises(AttributeError):
            delattr(g, name)


def test_monomial_element_equality_is_on_its_parts():
    trusted = MonomialElement._trusted((1, 0, 2), (1, 0, 3), 4)
    checked = MonomialElement((1, 0, 2), (2, 8, -2), 8)  # reduces to (1, 0, 3) over 4
    assert trusted == checked and hash(trusted) == hash(checked) == hash(((1, 0, 2), (1, 0, 3), 4))
    assert trusted != MonomialElement((1, 0, 2), (1, 0, 1), 4) and trusted != MonomialElement((0, 1, 2), (1, 0, 3), 4)
    assert trusted.__eq__(((1, 0, 2), (1, 0, 3), 4)) is NotImplemented
    assert repr(checked) == "MonomialElement(permutation=(1, 0, 2), phase_numerators=(1, 0, 3), modulus=4)"
    _assert_slotted_and_frozen(trusted)
    _assert_slotted_and_frozen(checked)
    assert checked == trusted


def test_a_list_permutation_is_stored_as_a_tuple():
    listed = MonomialElement([1, 0], (0, 0), 1)
    assert listed.permutation == (1, 0) and type(listed.permutation) is tuple
    assert listed == MonomialElement((1, 0), (0, 0), 1) and hash(listed) == hash(((1, 0), (0, 0), 1))
    assert monomial_closure([listed]).order == 2


def test_affine_torus_map_equality_is_on_its_parts():
    swap = ((0, 1), (1, 0))
    trusted = AffineTorusMap._trusted(swap, (2, 4), 8)  # reduces to (1, 2) over 4
    checked = AffineTorusMap(swap, (F(5, 4), "-1/2"))
    assert trusted == checked and hash(trusted) == hash(checked) == hash((swap, (1, 2), 4))
    assert trusted != AffineTorusMap(swap, (F(1, 4), 0)) and trusted != AffineTorusMap(identity(2), (F(1, 4), F(1, 2)))
    assert trusted.__eq__((swap, (1, 2), 4)) is NotImplemented
    assert repr(checked) == "AffineTorusMap(linear=((0, 1), (1, 0)), numerators=(1, 2), denominator=4)"
    _assert_slotted_and_frozen(trusted)
    _assert_slotted_and_frozen(checked)
    assert checked == trusted


def test_spectrum_equality_is_on_its_values():
    s = Spectrum([F(1, 2), 0])
    assert s == Spectrum(["0", "1/2"]) and hash(s) == hash((s.values,)) and s != Spectrum([F(1, 2)])
    assert s.__eq__(s.values) is NotImplemented
    assert repr(s) == "Spectrum([0, 1/2])"
    _assert_slotted_and_frozen(s)
