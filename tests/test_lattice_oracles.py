"""sympy as an independent oracle for the hand-written lattice routines.

Seeded random integer matrices, singular and non-unimodular ones included,
are checked against sympy's characteristic polynomial, determinant, matrix
powers, Smith normal form and cyclotomic polynomials.  sympy is used only
here, never by the package.
"""

import math
import random

import pytest

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import smith_normal_form  # noqa: E402

from reidtai.lattice import (  # noqa: E402
    charpoly,
    cyclotomic_poly,
    cyclotomic_spectrum,
    mat,
    mat_mul,
    matrix_order,
    snf,
)


def _random_unimodular(rng, n, steps=4):
    m = sympy.eye(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            m[i, :] = m[i, :] + rng.choice((-2, -1, 1, 2)) * m[j, :]
        if rng.random() < 0.3:
            m[i, :] = -m[i, :]
    return m


def _signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return sympy.Matrix(n, n, lambda i, j: rng.choice((1, -1)) if perm[i] == j else 0)


def _square_matrices(seed, count=160):
    """Random, singular, unimodular and finite-order (conjugated signed permutation) matrices."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(1, 4)
        kind = i % 4
        if kind == 0:
            m = sympy.Matrix(n, n, lambda *_: rng.randint(-4, 4))
        elif kind == 1:
            m = sympy.Matrix(n, n, lambda *_: rng.randint(-4, 4))
            m[rng.randrange(n), :] = m[rng.randrange(n), :] * (rng.randint(-2, 2) if n > 1 else 0)
        elif kind == 2:
            m = _random_unimodular(rng, n)
        else:
            p = _random_unimodular(rng, n, steps=2)
            m = p * _signed_permutation(rng, n) * p.inv()
        out.append(m)
    return out


SQUARE = _square_matrices(2024)


def _as_int_matrix(m):
    return mat(m.tolist())


def test_sample_covers_every_case():
    dets = [abs(m.det()) for m in SQUARE]
    assert dets.count(0) >= 20
    assert sum(d not in (0, 1) for d in dets) >= 20
    assert sum(matrix_order(_as_int_matrix(m)) is not None for m in SQUARE) >= 40


def test_charpoly_matches_sympy():
    for m in SQUARE:
        assert charpoly(_as_int_matrix(m)) == tuple(int(c) for c in m.charpoly().all_coeffs()), m


def test_no_finite_order_without_unit_determinant():
    for m in SQUARE:
        if abs(m.det()) != 1:
            assert matrix_order(_as_int_matrix(m)) is None, m
            with pytest.raises(ValueError):
                cyclotomic_spectrum(_as_int_matrix(m))


def test_matrix_order_matches_sympy_powers():
    # A finite order in GL_n(Z) divides L = lcm{d : phi(d) <= n}, so M has
    # finite order iff M^L = I; the least such power is then checked directly.
    for m in SQUARE:
        n = m.rows
        if abs(m.det()) != 1:
            continue
        bound = math.lcm(*(d for d in range(1, 2 * n * n + 3) if sympy.totient(d) <= n))
        order = matrix_order(_as_int_matrix(m))
        if m**bound != sympy.eye(n):
            assert order is None, m
            continue
        assert order is not None and m**order == sympy.eye(n), m
        assert all(m ** (order // p) != sympy.eye(n) for p in sympy.primefactors(order)), m


def test_snf_diagonal_matches_sympy():
    rng = random.Random(7)
    for i in range(120):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = sympy.Matrix(rows, cols, lambda *_: rng.randint(-6, 6))
        if i % 3 == 0:  # rank-deficient
            m[rng.randrange(rows), :] = sympy.zeros(1, cols)
        expected = smith_normal_form(m, domain=sympy.ZZ)
        diagonal = tuple(abs(int(expected[k, k])) for k in range(min(rows, cols)))
        dec = snf(_as_int_matrix(m))
        assert dec.diagonal == diagonal, m
        assert mat_mul(dec.v, dec.vinv) == _as_int_matrix(sympy.eye(cols)), m


def test_cyclotomic_poly_matches_sympy():
    x = sympy.Symbol("x")
    for d in range(1, 61):
        expected = tuple(int(c) for c in sympy.Poly(sympy.cyclotomic_poly(d, x), x).all_coeffs())
        assert cyclotomic_poly(d) == expected, d
