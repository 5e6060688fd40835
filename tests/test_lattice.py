import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reidtai.lattice import (
    _cyclotomic_orders,
    _is_reflection,
    charpoly,
    cyclotomic_poly,
    cyclotomic_spectrum,
    hnf,
    identity,
    mat,
    mat_mul,
    mat_vec,
    matrix_order,
    saturate,
    snf,
    solve_torus_congruence,
    sublattice_from_rows,
    unimodular_inverse,
)
from reidtai.roots import euler_phi


def _det_int(m):
    """Exact integer determinant by cofactor expansion (test oracle, small n)."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * _det_int(minor)
    return total


def _random_matrix(rng, rows, cols, bound=20):
    return mat([[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


def _assert_hnf_shape(h):
    """Row-style HNF: positive pivots, entries above a pivot in [0, pivot), zero rows last."""
    pivots = []
    for row in h:
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            pivots.append(None)
            continue
        assert all(p is not None for p in pivots), "zero row above a nonzero row"
        j = nz[0]
        assert row[j] > 0
        if pivots and pivots[-1] is not None:
            assert j > pivots[-1]
        pivots.append(j)
    rows = [r for r, p in enumerate(pivots) if p is not None]
    for r in rows:
        j = pivots[r]
        for above in range(r):
            assert 0 <= h[above][j] < h[r][j]


class TestHnf:
    def test_examples(self):
        assert hnf(identity(3))[0] == identity(3)
        m = mat([[2, 4], [0, 6]])
        assert hnf(m)[0] == m
        h, u = hnf(mat([[0, 1], [1, 0]]))
        assert h == identity(2)
        assert mat_mul(u, mat([[0, 1], [1, 0]])) == h
        assert abs(_det_int(u)) == 1

    def test_reconstruction_random(self):
        rng = random.Random(23)
        for _ in range(200):
            m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), bound=9)
            h, u = hnf(m)
            assert mat_mul(u, m) == h
            assert abs(_det_int(u)) == 1
            _assert_hnf_shape(h)

    def test_canonical_under_row_equivalence(self):
        # row-equivalent matrices share one HNF: the canonical lattice form
        rng = random.Random(67)
        for _ in range(100):
            n = rng.randint(1, 4)
            m = _random_matrix(rng, n, n, bound=6)
            u = [list(row) for row in identity(n)]
            for _ in range(6):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    q = rng.randint(-3, 3)
                    u[i] = [x + q * y for x, y in zip(u[i], u[j])]
            assert hnf(mat_mul(mat(u), m))[0] == hnf(m)[0]

    def test_sublattice_equality_independent_of_generators(self):
        a = sublattice_from_rows(3, [[1, 0, -1], [0, 1, -1]])
        b = sublattice_from_rows(3, [[1, 1, -2], [0, 1, -1], [2, 0, -2]])
        assert a == b
        # an index-2 subset is not equal
        c = sublattice_from_rows(3, [[1, 1, -2], [1, -1, 0]])
        assert c != a


class TestSnf:
    def test_examples(self):
        d = snf(mat([[6, 0], [0, 4]]))
        assert d.diagonal == (2, 12)
        z = snf(mat([[0, 0], [0, 0]]))
        assert z.diagonal == (0, 0)
        assert snf(mat([[1, 2], [3, 4]])).diagonal == (1, 2)

    def test_reconstruction_and_divisibility(self):
        rng = random.Random(29)
        for _ in range(200):
            m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), bound=9)
            dec = snf(m)
            assert mat_mul(mat_mul(dec.u, m), dec.v) == dec.d
            assert abs(_det_int(dec.u)) == 1
            assert abs(_det_int(dec.v)) == 1
            diag = dec.diagonal
            assert all(x >= 0 for x in diag)
            for a, b in zip(diag, diag[1:]):
                assert (a == 0 and b == 0) or (a != 0 and b % a == 0) or (a != 0 and b == 0)

    def test_gcd_and_det_invariants(self):
        # d_1 is the gcd of all entries; the product of the d_i matches |det|.
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randint(1, 4)
            m = _random_matrix(rng, n, n, bound=8)
            dec = snf(m)
            entries = [x for row in m for x in row]
            if any(entries):
                assert dec.diagonal[0] == math.gcd(*entries)
            prod = 1
            for x in dec.diagonal:
                prod *= x
            assert prod == abs(_det_int(m)) or (prod == 0 and _det_int(m) == 0)


class TestUnimodularInverse:
    def test_round_trip(self):
        rng = random.Random(37)
        for _ in range(100):
            n = rng.randint(1, 4)
            # random unimodular: product of elementary row operations
            m = [list(row) for row in identity(n)]
            for _ in range(8):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    q = rng.randint(-3, 3)
                    m[i] = [x + q * y for x, y in zip(m[i], m[j])]
            m = mat(m)
            assert mat_mul(unimodular_inverse(m), m) == identity(n)

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            unimodular_inverse(mat([[2, 0], [0, 1]]))


class TestSaturate:
    def test_examples(self):
        assert saturate(sublattice_from_rows(2, [[2, 0]])).basis == ((1, 0),)
        # full-rank sublattice of index 5: saturation is all of Z^2
        idx5 = sublattice_from_rows(2, [[5, 1], [0, 1]])
        assert saturate(idx5).basis == identity(2)
        already = saturate(sublattice_from_rows(3, [[1, 0, -1], [0, 1, -1]]))
        assert saturate(already) == already

    def test_idempotent_and_same_span(self):
        rng = random.Random(41)
        for _ in range(100):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(1, n))]
            s = sublattice_from_rows(n, rows)
            sat = saturate(s)
            assert saturate(sat) == sat
            assert sat.rank == s.rank
            # every original basis row is an integer combination of the saturated basis
            if s.rank:
                a = np.array(sat.basis, dtype=float)
                for row in s.basis:
                    sol, *_ = np.linalg.lstsq(a.T, np.array(row, dtype=float), rcond=None)
                    assert np.allclose(a.T @ sol, row, atol=1e-6)
                    assert np.allclose(sol, np.round(sol), atol=1e-6)


def _grid_solvable(m, t, denominator):
    """Brute-force oracle: scan x in (1/L)Z^n for a fixed point of x -> Mx + t."""
    n = len(m)
    for coords in itertools.product(range(denominator), repeat=n):
        x = [Fraction(c, denominator) for c in coords]
        fx = [(sum(m[i][j] * x[j] for j in range(n)) + t[i]) % 1 for i in range(n)]
        if fx == x:
            return True
    return False


class TestSolveTorusCongruence:
    def test_examples(self):
        ok, x = solve_torus_congruence(mat([[-1, 0], [0, -1]]), (Fraction(0), Fraction(0)))
        assert ok and x == (Fraction(0), Fraction(0))
        ok, _ = solve_torus_congruence(identity(2), (Fraction(1, 2), Fraction(0)))
        assert not ok
        m = mat([[0, -1], [1, -1]])
        t = (Fraction(1, 3), Fraction(0))
        ok, x = solve_torus_congruence(m, t)
        assert ok
        # returned point actually is fixed
        fx = tuple((sum(m[i][j] * x[j] for j in range(2)) + t[i]) % 1 for i in range(2))
        assert fx == x
        # grid oracle at denominator 9 agrees
        assert _grid_solvable(m, t, 9)

    def test_solution_is_fixed_point(self):
        rng = random.Random(43)
        for _ in range(200):
            n = rng.randint(1, 3)
            m = _random_matrix(rng, n, n, bound=2)
            den = rng.choice((1, 2, 3, 4, 6))
            t = tuple(Fraction(rng.randrange(den), den) for _ in range(n))
            ok, x = solve_torus_congruence(m, t)
            if ok:
                fx = tuple((sum(m[i][j] * x[j] for j in range(n)) + t[i]) % 1 for i in range(n))
                assert fx == x


class TestMatrixOrder:
    def test_examples(self):
        assert matrix_order(mat([[-1, 0], [0, -1]])) == 2
        assert matrix_order(mat([[0, -1], [1, -1]])) == 3
        assert matrix_order(mat([[1, 1], [0, 1]])) is None
        assert matrix_order(identity(4)) == 1
        assert matrix_order(mat([[2, 0], [0, 1]])) is None

    def test_order_divides_crystallographic_bound(self):
        rng = random.Random(47)
        for _ in range(50):
            n = rng.randint(1, 3)
            perm = list(range(n))
            rng.shuffle(perm)
            sign = rng.choice((1, -1))
            m = mat([[sign * (1 if perm[i] == j else 0) for j in range(n)] for i in range(n)])
            order = matrix_order(m)
            bound = math.lcm(*[d for d in range(1, 2 * n * n + 3) if euler_phi(d) <= n])
            assert order is not None and bound % order == 0


class TestCyclotomicOrders:
    def test_orders_match_a_brute_force_scan(self):
        """The candidate orders are every d with phi(d) <= n, scanned to 10n^2, far past the 2n^2 bound."""
        top = 10 * 12 * 12
        phi = [0] + [sum(math.gcd(k, d) == 1 for k in range(1, d + 1)) for d in range(1, top + 1)]
        for n in range(1, 13):
            assert _cyclotomic_orders(n) == tuple(d for d in range(1, 10 * n * n + 1) if phi[d] <= n), n

    def test_each_candidate_is_the_order_of_its_companion(self):
        for d in _cyclotomic_orders(6):
            m = _companion(cyclotomic_poly(d))
            assert matrix_order(m) == d
            assert cyclotomic_spectrum(m).values == tuple(sorted(Fraction(k, d) for k in range(d) if math.gcd(k, d) == 1))


def _companion(coeffs):
    """Companion matrix of a monic polynomial given by descending coefficients."""
    n = len(coeffs) - 1
    return mat([[(1 if i == j + 1 else 0) for j in range(n - 1)] + [-coeffs[n - i]] for i in range(n)])


class TestCyclotomicSpectrum:
    def test_examples(self):
        assert cyclotomic_spectrum(_companion(cyclotomic_poly(4))).to_json() == ["1/4", "3/4"]
        cyc3 = mat([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        assert cyclotomic_spectrum(cyc3).to_json() == ["0", "1/3", "2/3"]
        assert cyclotomic_spectrum(_companion(cyclotomic_poly(12))).to_json() == [
            "1/12",
            "5/12",
            "7/12",
            "11/12",
        ]

    def test_numeric_eigenvalue_oracle(self):
        m = _companion(cyclotomic_poly(12))
        angles = sorted(np.angle(np.linalg.eigvals(np.array(m, dtype=float))) % (2 * np.pi))
        expected = sorted(2 * math.pi * float(v) for v in cyclotomic_spectrum(m).values)
        assert np.allclose(angles, expected, atol=1e-9)

    def test_infinite_order_rejected(self):
        with pytest.raises(ValueError):
            cyclotomic_spectrum(mat([[1, 1], [0, 1]]))

    def test_one_charpoly_per_spectrum(self, monkeypatch):
        import reidtai.lattice as lattice

        calls = []
        original = lattice.charpoly
        monkeypatch.setattr(lattice, "charpoly", lambda m: calls.append(m) or original(m))
        assert cyclotomic_spectrum(_companion(cyclotomic_poly(12))).dimension == 4
        assert len(calls) == 1

    def test_inverse_spectrum_is_conjugate(self):
        # eigenvalues of M and M^{-1} pair off as conjugates, so the two
        # spectra are entrywise negatives mod 1
        rng = random.Random(61)
        for _ in range(40):
            blocks = [_companion(cyclotomic_poly(rng.choice((1, 2, 3, 4, 6, 8, 12)))) for _ in range(rng.randint(1, 3))]
            m = _block_diag(blocks)
            spec = cyclotomic_spectrum(m)
            inv_spec = cyclotomic_spectrum(unimodular_inverse(m))
            assert inv_spec == spec.power(-1)
            nontrivial = sum(1 for v in spec.values if v != 0)
            assert spec.age() + inv_spec.age() == nontrivial

    def test_charpoly_reconstruction(self):
        # product of (x - e(r)) over the spectrum equals the characteristic polynomial
        rng = random.Random(53)
        for _ in range(50):
            blocks = [rng.choice((1, 2, 3, 4, 6)) for _ in range(rng.randint(1, 3))]
            m = _block_diag([_companion(cyclotomic_poly(d)) for d in blocks])
            spec = cyclotomic_spectrum(m)
            coeffs = np.array([1.0])
            for v in spec.values:
                root = np.exp(2j * np.pi * float(v))
                coeffs = np.convolve(coeffs, [1.0, -root])
            assert np.allclose(coeffs, np.array(charpoly(m), dtype=complex), atol=1e-9)


def _block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[offset + i][offset + j] = x
        offset += len(b)
    return mat(out)


class TestCharpoly:
    def test_known(self):
        assert charpoly(mat([[1, 2], [3, 4]])) == (1, -5, -2)
        assert charpoly(identity(3)) == (1, -3, 3, -1)

    def test_against_numpy(self):
        rng = random.Random(59)
        for _ in range(100):
            n = rng.randint(1, 5)
            m = _random_matrix(rng, n, n, bound=6)
            ours = np.array(charpoly(m), dtype=float)
            theirs = np.poly(np.array(m, dtype=float))
            assert np.allclose(ours, theirs, rtol=1e-8, atol=1e-6)


# ---------------------------------------------------------------------------
# Kernel oracles: the rank-one test against a Smith form, the products against a triple loop
# ---------------------------------------------------------------------------


def _rank_of_m_minus_i(m):
    n = len(m)
    return sum(1 for d in snf(tuple(tuple(m[i][j] - (i == j) for j in range(n)) for i in range(n))).diagonal if d)


@st.composite
def _square_matrices(draw):
    """Random matrices (mostly of infinite order), I, and I plus rank-one and rank-two updates."""
    n = draw(st.integers(1, 5))
    vector = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    kind = draw(st.sampled_from(["random", "identity", "rank one", "rank two"]))
    if kind == "random":
        return mat(draw(st.lists(vector, min_size=n, max_size=n)))
    delta = [[0] * n for _ in range(n)]
    for _ in range({"identity": 0, "rank one": 1, "rank two": 2}[kind]):
        u, v = draw(vector), draw(vector)
        for i in range(n):
            for j in range(n):
                delta[i][j] += u[i] * v[j]
    first = next((x for row in delta for x in row if x), 0)
    if draw(st.booleans()) and first > 0:  # make the first nonzero entry of M - I negative
        delta = [[-x for x in row] for row in delta]
    return mat([[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(delta)])


class TestIsReflection:
    def test_examples(self):
        assert not _is_reflection(identity(3))
        assert _is_reflection(mat([[-1]]))
        assert _is_reflection(mat([[0, 1], [1, 0]]))
        assert _is_reflection(mat([[1, 1], [0, 1]]))  # a transvection: rank one, infinite order
        assert not _is_reflection(mat([[-1, 0], [0, -1]]))
        assert not _is_reflection(mat([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(m=_square_matrices())
    def test_matches_the_rank_of_a_smith_form(self, m):
        assert _is_reflection(m) == (_rank_of_m_minus_i(m) == 1)


def _naive_mat_mul(a, b):
    """Row-by-column triple loop; a matrix with no rows has no columns either, as in IntMatrix."""
    cols = len(b[0]) if b else 0
    out = []
    for i in range(len(a)):
        row = []
        for j in range(cols):
            total = 0
            for k in range(len(b)):
                total += a[i][k] * b[k][j]
            row.append(total)
        out.append(tuple(row))
    return tuple(out)


def _naive_mat_vec(a, v):
    out = []
    for row in a:
        total = 0
        for k in range(len(v)):
            total += row[k] * v[k]
        out.append(total)
    return tuple(out)


_HUGE = st.integers(-(10**40), 10**40)  # far past 64 bits, so no fixed-width shortcut can pass


def _matrices(rows, cols):
    return st.lists(st.lists(_HUGE, min_size=cols, max_size=cols).map(tuple), min_size=rows, max_size=rows).map(tuple)


@st.composite
def _product_operands(draw):
    r, k, c = (draw(st.integers(0, 5)) for _ in range(3))
    return draw(_matrices(r, k)), draw(_matrices(k, c)), draw(st.lists(_HUGE, min_size=k, max_size=k).map(tuple))


class TestProductKernels:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(operands=_product_operands())
    def test_mat_mul_and_mat_vec_match_a_triple_loop(self, operands):
        a, b, v = operands
        assert mat_mul(a, b) == _naive_mat_mul(a, b)
        assert mat_vec(a, v) == _naive_mat_vec(a, v)
