import cmath
import importlib.util
import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from element_oracles import apply, inverse, is_identity, sort_key
from hypothesis import given, settings
from group_oracles import generate
from hypothesis import strategies as st
from test_lattice import _rank_of_m_minus_i

from reidtai.cli import main
from reidtai.groups import _KernelSpan
from reidtai.lattice import _is_reflection, cyclotomic_spectrum, identity, mat, mat_mul, solve_torus_congruence
from reidtai.orders import simple_av_screen
from reidtai.spectra import Spectrum
from reidtai.torus import (
    KODAIRA_ZERO,
    RATIONALLY_CONNECTED,
    UNIRULED_NOT_RC,
    AffineTorusMap,
    ExceptionalElement,
    GroupTooLargeError,
    TorusAction,
    _minkowski,
    affine_identity,
    closure,
    exceptional_elements,
    filtration,
    rt_tangent_sublattice,
)

F = Fraction


def amap(linear, translation=None):
    linear = mat(linear)
    if translation is None:
        translation = (F(0),) * len(linear)
    return AffineTorusMap(linear, tuple(F(t) for t in translation))


def group(*maps):
    return closure(list(maps))


# canonical actions
def rank1_pm1():
    return group(amap([[-1]]))


def kummer2():
    return group(amap([[-1, 0], [0, -1]]))


def swap2():
    return group(amap([[0, 1], [1, 0]]))


def s3_pm1():
    cyc = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    neg = [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]
    return group(amap(cyc), amap(swap), amap(neg))


# ---------------------------------------------------------------------------
# Brute-force stage-1 oracle: grid fixed points + float ages
# ---------------------------------------------------------------------------


def _grid_has_fixed_point(g, denominator=12):
    n = g.rank
    for coords in itertools.product(range(denominator), repeat=n):
        x = [F(c, denominator) for c in coords]
        if apply(g, x) == tuple(x):
            return True
    return False


def _float_age(linear):
    angles = np.angle(np.linalg.eigvals(np.array(linear, dtype=float))) / (2 * np.pi) % 1.0
    angles[angles > 1 - 1e-9] = 0.0
    return float(np.sum(angles))


def _stage1_exceptional_oracle(action, denominator=12):
    found = []
    for g in action.elements:
        if is_identity(g):
            continue
        age = _float_age(g.linear)
        if 1e-9 < age < 1 - 1e-9 and _grid_has_fixed_point(g, denominator):
            found.append(g)
    return found


def _exceptional_by_listing(action):
    """The walk over every listed element, one spectrum per reflection linear part: exceptional_elements before it listed only the reflection cosets."""
    out = []
    for linear, run in itertools.groupby(action.elements, key=lambda g: g.linear):
        if not _is_reflection(linear):
            continue
        spec = cyclotomic_spectrum(linear)
        for g in run:
            solvable, x = solve_torus_congruence(linear, g.translation)
            if solvable:
                out.append(ExceptionalElement(g, spec, spec.age(), x))
    return tuple(out)


class TestClosure:
    def test_examples(self):
        assert kummer2().order == 2
        cyc_neg = group(amap([[0, 0, 1], [1, 0, 0], [0, 1, 0]]), amap([[-1, 0, 0], [0, -1, 0], [0, 0, -1]]))
        assert cyc_neg.order == 6
        translation = group(amap(identity(2), ("1/2", 0)))
        assert translation.order == 2

    def test_cyclic_six_structure(self):
        cyc_neg = group(amap([[0, 0, 1], [1, 0, 0], [0, 1, 0]]), amap([[-1, 0, 0], [0, -1, 0], [0, 0, -1]]))
        # abstractly Z/6: abelian with an order-6 element
        elements = cyc_neg.elements
        assert all(a.compose(b) == b.compose(a) for a in elements for b in elements)
        orders = []
        for g in elements:
            k, h = 1, g
            while not is_identity(h):
                h = h.compose(g)
                k += 1
            orders.append(k)
        assert sorted(orders) == [1, 2, 3, 3, 6, 6]

    def test_infinite_order_generator_rejected(self):
        with pytest.raises(ValueError):
            closure([amap([[1, 1], [0, 1]])])

    def test_cap(self):
        with pytest.raises(GroupTooLargeError):
            closure([amap(identity(1), ("1/1000",))], cap=100)

    def test_translation_subgroup_above_cap_raises_before_composing(self, monkeypatch):
        # each generator has order 31, but together they generate the 961 translations by (i/31, j/31)
        gens = [amap(identity(2), ("1/31", 0)), amap(identity(2), (0, "1/31"))]
        calls = []
        original = AffineTorusMap.compose
        monkeypatch.setattr(AffineTorusMap, "compose", lambda a, b: calls.append(1) or original(a, b))
        with pytest.raises(GroupTooLargeError, match="cap 960 exceeded"):
            closure(gens, cap=960)
        assert calls == []
        assert closure(gens, cap=961).order == 961

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.data())
    def test_closure_at_a_cap_equal_to_the_order(self, data):
        """A cap equal to the order lets the group through and one below it refuses the group."""
        n = data.draw(st.integers(1, 3))
        cycle = [[int(i == (j + 1) % n) for j in range(n)] for i in range(n)]
        flip = [[-int(i == j == 0) or int(i == j) for j in range(n)] for i in range(n)]
        linears = [identity(n), [[-int(i == j) for j in range(n)] for i in range(n)], cycle, flip]
        fractions = st.builds(F, st.integers(0, 11), st.integers(1, 4))
        gens = data.draw(st.lists(
            st.builds(amap, st.sampled_from(linears), st.lists(fractions, min_size=n, max_size=n)),
            min_size=1, max_size=3))
        action = closure(gens)
        members, _ = generate(gens, affine_identity(n), 10**6)
        assert action.elements == tuple(sorted(members, key=sort_key))
        assert closure(gens, cap=action.order).elements == action.elements
        if action.order > 1:
            with pytest.raises(GroupTooLargeError):
                closure(gens, cap=action.order - 1)

    def test_minkowski_bound(self):
        assert [_minkowski(n) for n in range(1, 6)] == [2, 24, 48, 5760, 11520]

    def test_infinite_group_of_finite_order_generators_stops_at_the_minkowski_bound(self, monkeypatch):
        # two involutions whose product [[-1, 0], [1, -1]] has infinite order
        gens = [amap([[-1, 0], [0, 1]]), amap([[1, 0], [1, -1]])]
        calls = []
        original = AffineTorusMap.compose
        monkeypatch.setattr(AffineTorusMap, "compose", lambda a, b: calls.append(1) or original(a, b))
        with pytest.raises(GroupTooLargeError, match="^group too large or infinite: cap 1000000 exceeded$"):
            closure(gens)
        # the walk passes M(2) * 1^2 = 24 linear parts, not the cap of a million elements
        assert len(calls) <= 100

    def test_closed_under_composition_and_inverse(self):
        action = s3_pm1()
        members = set(action.elements)
        for g in action.elements:
            assert inverse(g) in members
            for h in action.elements:
                assert g.compose(h) in members

    def test_equality_reads_the_generators_and_lists_nothing(self):
        a, b = s3_pm1(), s3_pm1()
        assert a == b and hash(a) == hash(b) and "elements" not in vars(a)
        assert a.elements == b.elements and a == b
        assert kummer2() != swap2()

    def test_canonical_order_independent_of_generator_order(self):
        cyc = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
        neg = [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]
        a = group(amap(cyc), amap(neg))
        b = group(amap(neg), amap(cyc))
        assert a.elements == b.elements


class TestExceptionalElements:
    def test_rank1(self):
        exc = exceptional_elements(rank1_pm1())
        assert len(exc) == 1
        assert exc[0].age == F(1, 2)
        assert exc[0].fixed_point == (F(0),)

    def test_kummer_has_none(self):
        assert exceptional_elements(kummer2()) == ()

    def test_minus_one_with_half_translation(self):
        from reidtai.lattice import solve_torus_congruence

        g = amap([[-1, 0], [0, -1]], ("1/2", 0))
        solvable, x = solve_torus_congruence(g.linear, g.translation)
        assert solvable and apply(g, x) == x  # fixed point exists...
        assert exceptional_elements(group(g)) == ()  # ...but age is 1, not exceptional
        assert _grid_has_fixed_point(g, denominator=4)

    def test_swap_and_s3(self):
        exc = exceptional_elements(swap2())
        assert len(exc) == 1 and exc[0].age == F(1, 2)
        exc3 = exceptional_elements(s3_pm1())
        assert len(exc3) == 3
        assert all(e.age == F(1, 2) for e in exc3)
        assert all(sorted(e.spectrum.to_json()) == ["0", "0", "1/2"] for e in exc3)

    def test_against_bruteforce_oracle(self):
        for action in (rank1_pm1(), kummer2(), swap2(), s3_pm1()):
            ours = {e.element for e in exceptional_elements(action)}
            oracle = set(_stage1_exceptional_oracle(action))
            assert ours == oracle


class TestRtTangentSublattice:
    def test_examples(self):
        assert rt_tangent_sublattice(kummer2()).rank == 0
        assert rt_tangent_sublattice(rank1_pm1()).basis == ((1,),)
        single = rt_tangent_sublattice(swap2())
        assert single.basis == ((1, -1),)
        full3 = rt_tangent_sublattice(s3_pm1())
        assert full3.rank == 2  # the sum-zero plane; rank 3 only arrives via the chain
        assert full3.basis == ((1, 0, -1), (0, 1, -1))


class TestFiltration:
    def test_kummer(self):
        report = filtration(kummer2())
        assert report.verdict == KODAIRA_ZERO
        assert report.exceptional == ()
        assert report.chain[-1].rank == 0

    def test_s3_pm1_chain(self):
        report = filtration(s3_pm1())
        assert report.verdict == RATIONALLY_CONNECTED
        ranks = [s.rank for s in report.chain]
        assert ranks == [2, 3]
        assert all(a < b for a, b in zip(ranks, ranks[1:]))  # strictly increasing
        assert report.chain[-1].is_full()

    def test_swap_only(self):
        report = filtration(swap2())
        assert report.verdict == UNIRULED_NOT_RC
        assert [s.rank for s in report.chain] == [1]
        assert report.chain[0].basis == ((1, -1),)
        # stage 2 on the quotient found nothing
        assert report.stage_exceptional_counts == (1, 0)


class TestVerdict:
    def test_weyl_b2_type(self):
        action = group(amap([[-1, 0], [0, 1]]), amap([[0, 1], [1, 0]]))
        assert action.order == 8
        assert filtration(action).verdict == RATIONALLY_CONNECTED

    def test_free_translation(self):
        action = group(amap(identity(2), ("1/2", 0)))
        assert filtration(action).verdict == KODAIRA_ZERO

    def test_order5_rank4(self):
        c5 = [[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]]
        action = group(amap(c5))
        assert action.order == 5
        from reidtai.lattice import cyclotomic_spectrum

        for g in action.elements:
            if not is_identity(g):
                assert cyclotomic_spectrum(g.linear).age() == 2
        assert filtration(action).verdict == KODAIRA_ZERO


class TestSimpleAvScreen:
    def test_dim4(self):
        report = simple_av_screen(4)
        assert report.survivors == {6: F(2, 3), 10: F(4, 5)}
        assert report.extra_survivors == {15: F(14, 15)}

    def test_dim5(self):
        report = simple_av_screen(5)
        assert report.survivors == {6: F(5, 6)}
        assert report.extra_survivors == {}

    def test_dims_6_to_8_empty(self):
        for dim in (6, 7, 8):
            assert simple_av_screen(dim).survivors == {}


class TestTranslationsThroughFiltration:
    def test_twisted_swap_stage_one(self):
        # swap plus the diagonal half translation: both swap-type elements
        # are exceptional (the twisted one fixes (1/2, 0)), quotient trivial
        action = group(amap([[0, 1], [1, 0]]), amap(identity(2), ("1/2", "1/2")))
        assert action.order == 4
        exc = exceptional_elements(action)
        assert len(exc) == 2
        twisted = next(e for e in exc if any(e.element.translation))
        assert apply(twisted.element, twisted.fixed_point) == twisted.fixed_point
        report = filtration(action)
        assert report.verdict == UNIRULED_NOT_RC
        assert [s.rank for s in report.chain] == [1]

    def test_quotient_stage_sees_projected_translations(self):
        # swap plus the half translation in one coordinate: order 8, with
        # two exceptional swap-types (the (1/2,0)- and (0,1/2)-twists are
        # fixed-point-free, the (1/2,1/2)-twist fixes (1/2,0)); the quotient
        # inherits a genuine half translation and the chain stalls at rank 1
        action = group(amap([[0, 1], [1, 0]]), amap(identity(2), ("1/2", "0")))
        assert action.order == 8
        exc = exceptional_elements(action)
        assert len(exc) == 2
        translations = sorted(e.element.translation for e in exc)
        assert translations == [(F(0), F(0)), (F(1, 2), F(1, 2))]
        report = filtration(action)
        assert report.verdict == UNIRULED_NOT_RC
        assert [s.rank for s in report.chain] == [1]
        assert report.stage_exceptional_counts == (2, 0)


def _random_signed_permutation(rng, n):
    perm = rng.sample(range(n), n)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return [[signs[i] if perm[i] == j else 0 for j in range(n)] for i in range(n)]


def _element_grid(g):
    """Sound grid denominator for the fixed-point scan of one element."""
    import math

    from reidtai.lattice import snf

    n = g.rank
    delta = tuple(tuple(g.linear[i][j] - (1 if i == j else 0) for j in range(n)) for i in range(n))
    divisors = [d for d in snf(delta).diagonal if d]
    den = math.lcm(*[t.denominator for t in g.translation]) if g.translation else 1
    return den * (math.lcm(*divisors) if divisors else 1)


def _stage1_oracle_exact(action):
    found = set()
    for g in action.elements:
        if is_identity(g):
            continue
        angles = np.angle(np.linalg.eigvals(np.array(g.linear, dtype=float))) / (2 * np.pi) % 1.0
        angles[angles > 1 - 1e-9] = 0.0
        age = float(np.sum(angles))
        if 1e-9 < age < 1 - 1e-9 and _grid_has_fixed_point(g, _element_grid(g)):
            found.add(g)
    return found


class TestRandomizedFiltrationInvariants:
    def test_chain_and_quotient_invariants(self):
        import random

        from reidtai.lattice import saturate
        from reidtai.torus import GroupTooLargeError, _quotient_action

        rng = random.Random(8128)
        trials = 0
        oracle_trials = 0
        while trials < 40:
            n = rng.randint(1, 3)
            gens = []
            for _ in range(rng.randint(1, 2)):
                den = rng.choice((1, 2, 4))
                t = tuple(F(rng.randrange(den), den) for _ in range(n))
                gens.append(AffineTorusMap(mat(_random_signed_permutation(rng, n)), t))
            try:
                action = closure(gens, cap=5_000)
            except GroupTooLargeError:
                continue
            trials += 1
            assert action.order == len(action.elements)
            members, _ = generate(gens, affine_identity(n), 10**6)
            assert action.elements == tuple(sorted(members, key=sort_key))
            exc = exceptional_elements(action)
            assert exc == _exceptional_by_listing(action)
            report = filtration(action)
            assert report.chain[0] == _tangent_by_every_column(n, exc)
            # verdict trichotomy and its defining equivalences
            assert report.verdict in (KODAIRA_ZERO, UNIRULED_NOT_RC, RATIONALLY_CONNECTED)
            assert (report.verdict == KODAIRA_ZERO) == (not report.exceptional)
            assert (report.verdict == RATIONALLY_CONNECTED) == report.chain[-1].is_full()
            # chain members saturated and strictly increasing
            ranks = [s.rank for s in report.chain]
            assert ranks == sorted(ranks)
            assert len(set(report.chain)) == len(report.chain)
            for s in report.chain:
                assert saturate(s) == s
            # every reported fixed point really is fixed
            for e in report.exceptional:
                assert apply(e.element, e.fixed_point) == e.fixed_point
            small = action.order <= 40 and all(_element_grid(g) <= 12 for g in action.elements)
            if small:
                oracle_trials += 1
                ours = {e.element for e in exceptional_elements(action)}
                assert ours == _stage1_oracle_exact(action)
                # the induced quotient map is a homomorphism onto a closed group
                if report.exceptional and report.chain[0].rank < n:
                    quotient, _ = _quotient_action(action, report.chain[0])
                    assert exceptional_elements(quotient) == _exceptional_by_listing(quotient)
                    members = set(quotient.elements)
                    induced = {g: _induce(action, report.chain[0], g) for g in action.elements}
                    for g in action.elements:
                        assert induced[g] in members
                        for h in action.elements:
                            assert induced[g.compose(h)] == induced[g].compose(induced[h])
        assert oracle_trials >= 10  # enough small cases actually exercised the oracle


def _tangent_by_every_column(n, exc):
    """The saturated span of every column of every M - I, zero and repeated ones included."""
    from reidtai.lattice import saturate, sublattice_from_rows, zero_sublattice

    rows = [[e.element.linear[i][j] - (i == j) for i in range(n)] for e in exc for j in range(n)]
    return saturate(sublattice_from_rows(n, rows)) if rows else zero_sublattice(n)


def _induce(action, sub, g):
    from reidtai.lattice import mat_mul, snf, transpose, unimodular_inverse

    n = action.rank
    r = sub.rank
    q = transpose(unimodular_inverse(snf(sub.basis).v))
    qinv = unimodular_inverse(q)
    m2 = mat_mul(mat_mul(qinv, g.linear), q)
    block = tuple(row[r:] for row in m2[r:])
    t2 = tuple(sum(F(c) * v for c, v in zip(row, g.translation)) % 1 for row in qinv[r:])
    return AffineTorusMap(block, t2)


class TestSerialization:
    def test_round_trip(self):
        g = amap([[-1, 0], [0, -1]], ("1/2", "1/3"))
        assert AffineTorusMap.from_json(g.to_json()) == g

    def test_translation_normalized(self):
        g = amap(identity(2), ("3/2", "-1/4"))
        assert g.translation == (F(1, 2), F(3, 4))


REPO = Path(__file__).resolve().parent.parent
DEMOS = REPO / "demos" / "inputs"
DEMO_INPUTS = sorted(DEMOS.glob("*.json"))
TORUSGEN_INPUTS = sorted((Path(__file__).resolve().parent / "inputs").glob("*.json"))


def _load_action(path):
    payload = json.loads(path.read_text())
    return closure(AffineTorusMap.from_json(g) for g in payload["generators"])


def _random_affine_map(rng, n):
    """A signed permutation times an upper unitriangular shear, with a rational translation."""
    shear = [[1 if i == j else (rng.randint(-2, 2) if j > i else 0) for j in range(n)] for i in range(n)]
    linear = mat_mul(mat(_random_signed_permutation(rng, n)), mat(shear))
    t = tuple(F(rng.randrange(den), den) for den in rng.choices((1, 2, 3, 4, 6), k=n))
    return AffineTorusMap(linear, t)


class TestAffineMapLaws:
    def test_compose_and_inverse(self):
        rng = random.Random(2718)
        for _ in range(60):
            n = rng.randint(1, 4)
            g, h = _random_affine_map(rng, n), _random_affine_map(rng, n)
            x = tuple(F(rng.randrange(12), 12) for _ in range(n))
            assert apply(g.compose(h), x) == apply(g, apply(h, x))
            assert is_identity(g.compose(inverse(g)))
            assert is_identity(inverse(g).compose(g))


def _trace_of_power(m, k):
    """tr(m^k) by k row-by-column products, independent of the lattice module."""
    n = len(m)
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(k):
        power = [[sum(row[l] * m[l][j] for l in range(n)) for j in range(n)] for row in power]
    return sum(power[i][i] for i in range(n))


class TestSpectrumTraceOracle:
    @pytest.mark.parametrize("path", DEMO_INPUTS + TORUSGEN_INPUTS, ids=lambda p: p.stem)
    def test_power_sums_are_traces(self, path):
        # the power sums p_k = tr(M^k), k = 1..n, fix the n eigenvalues of M
        for linear in {g.linear for g in _load_action(path).elements}:
            values = cyclotomic_spectrum(linear).values
            for k in range(1, len(linear) + 1):
                power_sum = sum(cmath.exp(2j * cmath.pi * float(k * r % 1)) for r in values)
                assert abs(power_sum - _trace_of_power(linear, k)) < 1e-9, (linear, k)

    @pytest.mark.parametrize("path", DEMO_INPUTS + TORUSGEN_INPUTS, ids=lambda p: p.stem)
    def test_age_is_half_the_rank_of_m_minus_i(self, path):
        # the theorem exceptional_elements rests on: -1 adds 1/2 to the age, a conjugate pair adds 1
        for linear in {g.linear for g in _load_action(path).elements}:
            assert cyclotomic_spectrum(linear).age() == Fraction(_rank_of_m_minus_i(linear), 2), linear


@pytest.mark.parametrize("path", DEMO_INPUTS + TORUSGEN_INPUTS, ids=lambda p: p.stem)
def test_closure_matches_dimino_over_whole_elements(path):
    _assert_closure_matches_dimino(path)


def _assert_closure_matches_dimino(path):
    gens = [AffineTorusMap.from_json(g) for g in json.loads(path.read_text())["generators"]]
    members, _ = generate(gens, affine_identity(gens[0].rank), 10**6)
    assert closure(gens).elements == tuple(sorted(members, key=sort_key)), path.name


def _torusgen_inputs(seed, directory, monkeypatch):
    """The 16 inputs of the torus-quotient benchmark at seed, written by `bench/torusgen.py` into directory."""
    spec = importlib.util.spec_from_file_location("bench_torusgen", REPO / "bench" / "torusgen.py")
    torusgen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, torusgen)  # its dataclass looks its module up there
    spec.loader.exec_module(torusgen)
    return [Path(inp.path) for inp in torusgen.generate(seed, directory)]


@pytest.mark.parametrize("seed", [2, 3])
def test_closure_matches_dimino_over_whole_elements_on_torusgen_seeds(seed, tmp_path, monkeypatch):
    for path in _torusgen_inputs(seed, tmp_path, monkeypatch):
        _assert_closure_matches_dimino(path)


def test_rank_one_test_matches_the_smith_form_on_every_linear_part(tmp_path, monkeypatch):
    """_is_reflection decides exceptional_elements; check it on every linear part of every shipped input."""
    paths = DEMO_INPUTS + TORUSGEN_INPUTS + _torusgen_inputs(1, tmp_path, monkeypatch)
    linears = {g.linear for path in paths for g in _load_action(path).elements}
    assert sum(map(_is_reflection, linears)) > 0
    for linear in linears:
        assert _is_reflection(linear) == (_rank_of_m_minus_i(linear) == 1), linear


class TestOneDerivationPerStage:
    @pytest.mark.parametrize("path", DEMO_INPUTS, ids=lambda p: p.stem)
    def test_exceptional_elements_once_per_stage(self, path, monkeypatch):
        import reidtai.torus as torus

        action = _load_action(path)
        calls = []
        original = torus.exceptional_elements
        monkeypatch.setattr(torus, "exceptional_elements", lambda a: calls.append(a) or original(a))
        report = filtration(action)
        assert len(calls) == len(report.stage_exceptional_counts)

    def test_quotient_induces_each_generator_once(self):
        from reidtai.torus import _quotient_action

        action = group(amap([[0, 1], [1, 0]]), amap(identity(2), ("1/2", "0")))
        quotient, _ = _quotient_action(action, filtration(action).chain[0])
        assert len(quotient.generators) == len(action.generators) == 2
        assert set(quotient.generators) <= set(quotient.elements)

    def test_one_smith_form_per_stage_sublattice(self, monkeypatch):
        """Saturation and the quotient stage each put the stage-1 sublattice through snf once."""
        import reidtai.lattice as lattice
        import reidtai.torus as torus

        action = _load_action(DEMOS / "permute_negate3.json")
        arguments = []
        original = lattice.snf

        def counting(m):
            arguments.append(m)
            return original(m)

        for module in (lattice, torus):
            monkeypatch.setattr(module, "snf", counting, raising=False)
        report = filtration(action)
        assert report.stage_exceptional_counts[1:]  # a quotient stage ran
        bases = {s.basis for s in report.chain}
        assert sum(m in bases for m in arguments) == 2

    @pytest.mark.parametrize("path", DEMO_INPUTS + TORUSGEN_INPUTS, ids=lambda p: p.stem)
    def test_one_spectrum_per_linear_part(self, path, monkeypatch):
        """Every reflection linear part has the one spectrum of n - 1 zeros and 1/2, so a stage computes it once.

        At most one spectrum per exceptional_elements call, none when no lift is a
        reflection, and each exceptional element carries its own linear part's spectrum.
        """
        import reidtai.torus as torus

        action = _load_action(path)
        calls = []
        monkeypatch.setattr(torus, "cyclotomic_spectrum", lambda m: calls.append(m) or cyclotomic_spectrum(m))
        exc = exceptional_elements(action)
        assert len(calls) == any(_is_reflection(t.linear) for t in action.lifts)
        assert all(e.spectrum == cyclotomic_spectrum(e.element.linear) for e in exc)
        calls.clear()
        report = filtration(action)
        assert len(calls) <= len(report.stage_exceptional_counts)


def _heads(path):
    action = _load_action(path)
    return action.rank, [t.linear for t in action.lifts]


class TestReflectionFacts:
    """The facts exceptional_elements relies on, checked on every head of the shipped inputs."""

    @pytest.mark.parametrize("path", DEMO_INPUTS + TORUSGEN_INPUTS, ids=lambda p: p.stem)
    def test_a_reflection_has_trace_n_minus_2_and_the_one_spectrum(self, path):
        n, heads = _heads(path)
        one_spectrum = Spectrum([0] * (n - 1) + [F(1, 2)])
        for linear in heads:
            if _is_reflection(linear):
                assert sum(linear[i][i] for i in range(n)) == n - 2, linear
                assert cyclotomic_spectrum(linear) == one_spectrum, linear

    def test_the_trace_test_only_skips_a_head(self, monkeypatch):
        """A rank-4 head with eigenvalues 1, 1, i, -i has trace 2 = n - 2, yet the rank-one test rejects it."""
        import reidtai.torus as torus

        quarter_turn = mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
        assert sum(quarter_turn[i][i] for i in range(4)) == 2
        assert cyclotomic_spectrum(quarter_turn).to_json() == ["0", "0", "1/4", "3/4"]
        seen = []
        monkeypatch.setattr(torus, "_is_reflection", lambda m: seen.append(m) or _is_reflection(m))
        assert exceptional_elements(group(amap(quarter_turn))) == ()
        # the trace test let it and its inverse through (and skipped I and its square); the rank-one test decided
        assert sorted(seen) == sorted([quarter_turn, mat_mul(quarter_turn, mat_mul(quarter_turn, quarter_turn))])


@pytest.mark.parametrize("path", DEMO_INPUTS + TORUSGEN_INPUTS, ids=lambda p: p.stem)
def test_exceptional_elements_match_the_listing_walk(path):
    action = _load_action(path)
    assert exceptional_elements(action) == _exceptional_by_listing(action)
    assert action.order == len(action.elements)


class TestListingGuards:
    @pytest.mark.parametrize("path", DEMO_INPUTS + TORUSGEN_INPUTS, ids=lambda p: p.stem)
    def test_filtration_and_av_verdict_never_list_the_group(self, path, monkeypatch, capsys):
        def refuse(self):
            raise AssertionError("TorusAction.elements was read")

        monkeypatch.setattr(TorusAction, "elements", property(refuse))
        filtration(_load_action(path))
        for command in ("filtration", "av-verdict"):
            assert main(["--format", "json", command, str(path)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("path", [p for p in TORUSGEN_INPUTS if "kummer" in p.stem or "cycle" in p.stem],
                             ids=lambda p: p.stem)
    def test_no_kernel_vector_without_a_reflection(self, path, monkeypatch):
        listed = []
        original = _KernelSpan.vectors
        monkeypatch.setattr(_KernelSpan, "vectors", lambda span: listed.append(span) or original(span))
        report = filtration(_load_action(path))
        assert report.exceptional == () and listed == []
