"""Lattice routines that only the tests need: the references for ``lattice.hnf`` and ``lattice.saturate``.

``hnf_with_transform`` is the row-style Hermite normal form that also
carries its unimodular transform U (H. Cohen, *A Course in Computational
Algebraic Number Theory*, GTM 138, 1993, §2.4.2); ``lattice.hnf`` must
return its H.  ``unimodular_inverse`` reads an inverse off that transform,
and ``saturate_by_division`` recovers the rows of V^-1 from a Smith form
U*B*V = D as the rows of U*B divided by the diagonal.
"""

from reidtai.lattice import IntMatrix, Sublattice, identity, mat_mul, snf, sublattice_from_rows


def hnf_with_transform(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
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


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix (its HNF is the identity)."""
    h, u = hnf_with_transform(m)
    if h != identity(len(m)):
        raise ValueError("matrix is not unimodular")
    return u


def saturate_by_division(s: Sublattice) -> Sublattice:
    """The saturation of s from the rows of U*B, each divided by its Smith diagonal entry."""
    if s.rank == 0:
        return s
    dec = snf(s.basis)
    rows = [[x // d for x in row] for row, d in zip(mat_mul(dec.u, s.basis), dec.diagonal)]
    return sublattice_from_rows(s.ambient_rank, rows)
