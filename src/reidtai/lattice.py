"""Exact integer linear algebra for lattices and finite-order matrices.

Matrices are tuples of tuples of Python ints (row-major), so every value
is hashable and arithmetic never overflows.  Hermite normal form is the
canonical representation of a sublattice of Z^n (row style: positive
pivots, entries above a pivot reduced into [0, pivot)); two sublattices
are equal iff their HNF bases are equal.  Smith normal form solves the
fixed-point congruences of affine torus maps, and finite-order integer
matrices get exact eigenvalue multisets by peeling cyclotomic factors off
the characteristic polynomial.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterable, Sequence

from .records import Record
from .roots import RootOfUnity, euler_phi, over_common_modulus
from .spectra import Spectrum

__all__ = [
    "IntMatrix",
    "SmithDecomposition",
    "Sublattice",
    "charpoly",
    "cyclotomic_poly",
    "cyclotomic_spectrum",
    "hnf",
    "identity",
    "mat",
    "mat_mul",
    "mat_vec",
    "matrix_order",
    "saturate",
    "snf",
    "solve_torus_congruence",
    "sublattice_from_rows",
    "transpose",
    "unimodular_inverse",
    "zero_sublattice",
]

IntMatrix = tuple[tuple[int, ...], ...]


def mat(rows: Iterable[Iterable[int]]) -> IntMatrix:
    m = tuple(tuple(int(x) for x in row) for row in rows)
    if m and any(len(row) != len(m[0]) for row in m):
        raise ValueError("ragged matrix")
    return m


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: IntMatrix) -> IntMatrix:
    return tuple(zip(*m)) if m else ()


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def mat_vec(a: IntMatrix, v: Sequence) -> tuple:
    return tuple(sum(map(mul, row, v)) for row in a)


def mat_pow(m: IntMatrix, k: int) -> IntMatrix:
    result = identity(len(m))
    base = m
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        k >>= 1
    return result


# ---------------------------------------------------------------------------
# Hermite and Smith normal forms
# ---------------------------------------------------------------------------


def hnf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form: returns (H, U) with U unimodular, U*m = H."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(row) for row in m]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]

    def rowsub(i, j, q):
        if q:
            a[i] = [x - q * y for x, y in zip(a[i], a[j])]
            u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    r = 0
    for c in range(cols):
        while True:
            nz = [i for i in range(r, rows) if a[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(a[i][c]), i))
            if i0 != r:
                a[r], a[i0] = a[i0], a[r]
                u[r], u[i0] = u[i0], u[r]
            done = True
            for i in range(r + 1, rows):
                if a[i][c] != 0:
                    rowsub(i, r, a[i][c] // a[r][c])
                    if a[i][c] != 0:
                        done = False
            if done:
                break
        if r < rows and a[r][c] != 0:
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
                u[r] = [-x for x in u[r]]
            for i in range(r):
                rowsub(i, r, a[i][c] // a[r][c])
            r += 1
    h = tuple(tuple(row) for row in a)
    uu = tuple(tuple(row) for row in u)
    assert mat_mul(uu, m) == h
    return h, uu


class SmithDecomposition(Record):
    """U*M*V = D with U, V unimodular and D diagonal, d_1 | d_2 | ... >= 0."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.d[i][i] for i in range(min(len(self.d), len(self.d[0]) if self.d else 0)))


def snf(m: IntMatrix) -> SmithDecomposition:
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(row) for row in m]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def rowsub(i, j, q):
        if q:
            a[i] = [x - q * y for x, y in zip(a[i], a[j])]
            u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def colsub(i, j, q):
        if q:
            for row in a:
                row[i] -= q * row[j]
            for row in v:
                row[i] -= q * row[j]

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def move_min_to_pivot(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            return False
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        return True

    t = 0
    while t < min(rows, cols):
        # Reselect the globally smallest entry every round; pivots shrink to
        # the block gcd fast, which keeps the transforms from exploding.
        if not move_min_to_pivot(t):
            break
        while True:
            pivot = a[t][t]
            reduced = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    rowsub(i, t, a[i][t] // pivot)
                    if a[i][t] != 0:
                        reduced = True
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    colsub(j, t, a[t][j] // pivot)
                    if a[t][j] != 0:
                        reduced = True
            if reduced:
                move_min_to_pivot(t)
                continue
            # Row and column are clear; the pivot must divide the rest.
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % pivot:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            u[t] = [x + y for x, y in zip(u[t], u[offender])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    dec = SmithDecomposition(
        tuple(tuple(row) for row in u),
        tuple(tuple(row) for row in a),
        tuple(tuple(row) for row in v),
    )
    assert mat_mul(mat_mul(dec.u, m), dec.v) == dec.d
    return dec


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix (its HNF is the identity)."""
    h, u = hnf(m)
    if h != identity(len(m)):
        raise ValueError("matrix is not unimodular")
    return u


# ---------------------------------------------------------------------------
# Sublattices of Z^n
# ---------------------------------------------------------------------------


class Sublattice(Record):
    """A sublattice of Z^n, canonically represented by its HNF basis rows."""

    ambient_rank: int
    basis: IntMatrix

    @property
    def rank(self) -> int:
        return len(self.basis)

    def is_full(self) -> bool:
        return self.basis == identity(self.ambient_rank)


def zero_sublattice(n: int) -> Sublattice:
    return Sublattice(n, ())


def sublattice_from_rows(ambient_rank: int, rows: Iterable[Sequence[int]]) -> Sublattice:
    """Sublattice generated by the given row vectors, HNF-canonicalized."""
    rows = mat(rows)
    if not rows:
        return zero_sublattice(ambient_rank)
    if len(rows[0]) != ambient_rank:
        raise ValueError("row length does not match ambient rank")
    h, _ = hnf(rows)
    basis = tuple(row for row in h if any(row))
    return Sublattice(ambient_rank, basis)


def saturate(s: Sublattice) -> Sublattice:
    """The largest sublattice of Z^n with the same rational span (idempotent)."""
    if s.rank == 0:
        return s
    # U*B = D*V^{-1}: the HNF basis rows are independent, so dividing row i of
    # U*B by d_i leaves the first rank(s) rows of V^{-1}, a basis of the saturation.
    dec = snf(s.basis)
    rows = [[x // d for x in row] for row, d in zip(mat_mul(dec.u, s.basis), dec.diagonal)]
    return sublattice_from_rows(s.ambient_rank, rows)


# ---------------------------------------------------------------------------
# Torus fixed-point congruences
# ---------------------------------------------------------------------------


# No subcommand calls this; kept as a `bench/tracer.py` target (removing it changes the benchmark).
def solve_torus_congruence(m: IntMatrix, t: Sequence[Fraction]) -> tuple[bool, tuple[Fraction, ...] | None]:
    """Decide (M - I) x = -t on R^n/Z^n; return (solvable, one rational solution).

    The affine map x -> Mx + t has a fixed point on the torus iff this
    congruence is solvable.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    if len(t) != n:
        raise ValueError("translation length mismatch")
    numerators, d = over_common_modulus([Fraction(v) for v in t])
    x = _torus_congruence_solver(m)(numerators, d)
    return x is not None, x


def _torus_congruence_solver(m: IntMatrix):
    """A solver of (M - I) x = -t on R^n/Z^n, from one Smith form of M - I.

    The solver takes t as integer numerators over one denominator and
    returns one solution in [0, 1)^n, or None when there is none.
    """
    n = len(m)
    dec = snf(tuple(tuple(m[i][j] - (1 if i == j else 0) for j in range(n)) for i in range(n)))
    diagonal = dec.diagonal
    # With y = V^-1 x the congruence reads D y = U(-t): y_i = c_i / d_i,
    # and a zero d_i needs an integral c_i (then y_i = 0).
    scale = math.lcm(*(d for d in diagonal if d))

    def solve(numerators: Sequence[int], denominator: int) -> tuple[Fraction, ...] | None:
        c = [-x for x in mat_vec(dec.u, numerators)]
        if any(not d and ci % denominator for d, ci in zip(diagonal, c)):
            return None
        y = [ci * (scale // d) if d else 0 for d, ci in zip(diagonal, c)]
        common = denominator * scale
        return tuple(Fraction(x % common, common) for x in mat_vec(dec.v, y))

    return solve


def _is_reflection(m: IntMatrix) -> bool:
    """Whether M - I has rank 1 (for M of finite order: whether M is a reflection).

    M - I has rank 1 iff it is nonzero and every 2x2 minor through its
    first nonzero entry (p, q) vanishes, i.e. every row is row p times
    row[q] / a with a = (M - I)[p][q]; no Smith form is needed.
    """
    delta = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(m)]
    top = next((row for row in delta if any(row)), None)
    if top is None:
        return False
    q = next(j for j, x in enumerate(top) if x)
    a = top[q]
    return all(a * x == row[q] * t for row in delta for x, t in zip(row, top))


# ---------------------------------------------------------------------------
# Characteristic polynomials and cyclotomic spectra
# ---------------------------------------------------------------------------


def charpoly(m: IntMatrix) -> tuple[int, ...]:
    """det(xI - M) by Faddeev-LeVerrier; coefficients descending, leading 1."""
    n = len(m)
    coeffs = [1]
    mk = identity(n)
    for k in range(1, n + 1):
        mk = mat_mul(m, mk)
        tr = sum(mk[i][i] for i in range(n))
        if tr % k:
            raise ArithmeticError("non-integral trace in Faddeev-LeVerrier")
        c = -(tr // k)
        coeffs.append(c)
        mk = tuple(tuple(mk[i][j] + (c if i == j else 0) for j in range(n)) for i in range(n))
    return tuple(coeffs)


def _poly_divmod(num: Sequence[int], den: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Division of integer polynomials (descending coefficients); den must be monic."""
    num = list(num)
    q = []
    dn = len(den) - 1
    while len(num) - 1 >= dn:
        lead = num[0]
        q.append(lead)
        for i, c in enumerate(den):
            num[i] -= lead * c
        assert num[0] == 0
        num.pop(0)
    while num and num[0] == 0 and len(num) > 1:
        num.pop(0)
    return tuple(q) if q else (0,), tuple(num) if num else (0,)


@lru_cache(maxsize=None)
def cyclotomic_poly(d: int) -> tuple[int, ...]:
    """Coefficients (descending) of the d-th cyclotomic polynomial."""
    if d < 1:
        raise ValueError("d must be positive")
    # x^d - 1 divided by all proper cyclotomic factors.
    poly = tuple([1] + [0] * (d - 1) + [-1])
    for e in range(1, d):
        if d % e == 0:
            poly, rem = _poly_divmod(poly, cyclotomic_poly(e))
            assert rem == (0,)
    return poly


@lru_cache(maxsize=None)
def _cyclotomic_orders(n: int) -> tuple[int, ...]:
    """The orders d with phi(d) <= n, ascending: the cyclotomic factors a degree-n polynomial can have."""
    # phi(d) >= sqrt(d/2) for all d, so phi(d) <= n forces d <= 2n^2.
    return tuple(d for d in range(1, 2 * n * n + 3) if euler_phi(d) <= n)


def _cyclotomic_factorization(coeffs: tuple[int, ...], n: int) -> dict[int, int] | None:
    """Write a monic degree-n integer polynomial as a product of cyclotomics.

    Returns {d: multiplicity} or None if the polynomial has a
    non-cyclotomic factor.  Candidate orders d satisfy phi(d) <= n.
    """
    poly = coeffs
    factors: dict[int, int] = {}
    for d in _cyclotomic_orders(n):
        while len(poly) > 1:
            q, rem = _poly_divmod(poly, cyclotomic_poly(d))
            if rem != (0,):
                break
            factors[d] = factors.get(d, 0) + 1
            poly = q
    if poly != (1,):
        return None
    return factors


def _finite_order_factors(m: IntMatrix) -> dict[int, int] | None:
    """Cyclotomic factorization {d: multiplicity} of a finite-order matrix, else None.

    The order of any finite-order element of GL_n(Z) divides
    lcm{d : phi(d) <= n}; here it is read off the cyclotomic factorization
    of the characteristic polynomial and confirmed with a single power.
    A product of cyclotomic polynomials has constant term +-1, so a matrix
    with |det| != 1 already fails the factorization.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    factors = _cyclotomic_factorization(charpoly(m), n)
    if factors is None or mat_pow(m, math.lcm(*factors)) != identity(n):
        return None
    return factors


def matrix_order(m: IntMatrix) -> int | None:
    """Least k with M^k = I, or None when M has infinite order.

    k is the lcm of the cyclotomic orders in the factorization of the
    characteristic polynomial, confirmed by one power of M.
    """
    factors = _finite_order_factors(m)
    return None if factors is None else math.lcm(*factors)


def cyclotomic_spectrum(m: IntMatrix) -> Spectrum:
    """Exact eigenvalue multiset of a finite-order integer matrix.

    Each cyclotomic factor of the characteristic polynomial contributes a
    full packet of primitive roots, so the spectrum is a disjoint union of
    complete Galois orbits.  The characteristic polynomial is factored once,
    by the same routine that decides the order.
    """
    factors = _finite_order_factors(m)
    if factors is None:
        raise ValueError("matrix does not have finite order")
    values = []
    for d, mult in factors.items():
        for k in range(d):
            if math.gcd(k, d) == 1:
                values.extend([RootOfUnity(k, d)] * mult)
    return Spectrum(values)
