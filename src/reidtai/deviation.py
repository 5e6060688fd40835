"""Numeric checks for deviation bounds on unitary operators.

The deviation of a unitary T with respect to an orthonormal basis B is
d(T, B) = sum over b in B of ||T(b) - b||.  Everything verified here is a
theorem in exact arithmetic; floating point only absorbs rounding, with
1e-9 assertion tolerances against a 1e-12 arithmetic target.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, reduce
from typing import Sequence

import numpy as np

from .monomial import GGroup, MonomialGroup, MonomialElement
from .records import Record
from .spectra import Spectrum

__all__ = [
    "DeviationReport",
    "ExtraspecialRecord",
    "InvariantDimensionReport",
    "ProductBoundReport",
    "TensorPermTraceReport",
    "deviation_wrt_basis",
    "eigenbasis_deviation",
    "extraspecial_bound",
    "extraspecial_scan",
    "invariant_dimension",
    "monomial_matrix",
    "product_bound_check",
    "tensor_perm_trace_check",
]

ORTHO_TOL = 1e-9


def _is_unitary(m: np.ndarray) -> bool:
    """Whether every entry is finite and max |M^H M - I| is within ORTHO_TOL."""
    return bool(np.isfinite(m).all() and np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) <= ORTHO_TOL)


def _check_unitary(t, what: str = "operator", dimension: int | None = None) -> np.ndarray:
    """T as a square complex array that is unitary; for ``what="basis"``, its columns are the basis vectors.

    A basis must have the ``dimension`` of the operator it is used with.
    """
    t = np.asarray(t, dtype=complex)
    n = t.shape[0]
    basis = what == "basis"
    if t.shape != (n, n):
        raise ValueError("basis must consist of n vectors of dimension n" if basis else f"{what} must be square")
    if dimension is not None and n != dimension:
        raise ValueError(f"{what} dimension {n} does not match operator dimension {dimension}")
    if not _is_unitary(t):
        raise ValueError(f"{what} is not {'orthonormal' if basis else 'unitary'} to {ORTHO_TOL}")
    return t


class DeviationReport(Record):
    label: str
    per_vector: tuple[float, ...]
    total: float

    def threshold_set(self, x: float) -> tuple[int, ...]:
        """Indices of basis vectors with ||T(b) - b|| >= x."""
        return tuple(i for i, d in enumerate(self.per_vector) if d >= x)


def deviation_wrt_basis(t, basis=None, label: str = "basis") -> DeviationReport:
    """d(T, B) = sum ||T(b) - b|| over the columns of the orthonormal basis B."""
    t = _check_unitary(t)
    n = t.shape[0]
    b = np.eye(n, dtype=complex) if basis is None else _check_unitary(basis, "basis", n)
    diffs = t @ b - b
    per = tuple(float(np.linalg.norm(diffs[:, j])) for j in range(n))
    return DeviationReport(label, per, float(math.fsum(per)))


def eigenbasis_deviation(s: Spectrum) -> float:
    """Deviation in the eigenbasis: sum of chord lengths 2*sin(pi*r)."""
    return math.fsum(2 * math.sin(math.pi * v.numerator / v.denominator) for v in s.values)


# ---------------------------------------------------------------------------
# Product bound
# ---------------------------------------------------------------------------


class ProductBoundReport(Record):
    n_factors: int
    dimension: int
    thresholds: tuple[float, ...]
    jump_counts: tuple[tuple[float, int, int], ...]  # (x, lhs |S(prod, B, nx)|, rhs sum)
    product_deviation: float
    factor_deviation_sum: float
    ok: bool

    def to_json(self) -> dict:
        payload = super().to_json()
        del payload["thresholds"]
        return payload


# No subcommand calls this; kept for `demos/deviation_bounds.py`.
def product_bound_check(ts: Sequence, bases: Sequence | None = None) -> ProductBoundReport:
    """Build the adapted basis from the jump subspaces and verify the product bound.

    Verifies |S(T_1...T_n, B, n*x)| <= sum_i |S(T_i, B_i, x)| at thresholds
    between consecutive jumps, and d(T_1...T_n, B) <= n * sum_i d(T_i, B_i).
    """
    ts = [_check_unitary(t, f"factor {i}") for i, t in enumerate(ts)]
    if not ts:
        raise ValueError("need at least one factor")
    dim = ts[0].shape[0]
    if any(t.shape[0] != dim for t in ts):
        raise ValueError("dimension mismatch among factors")
    if bases is None:
        bases = [np.eye(dim, dtype=complex) for _ in ts]
    bases = [_check_unitary(b, "basis", dim) for b in bases]
    if len(bases) != len(ts):
        raise ValueError("need one basis per factor")

    scored = []  # (distance, factor index, column) ordered by distance descending
    for i, (t, b) in enumerate(zip(ts, bases)):
        diffs = t @ b - b
        for j in range(dim):
            scored.append((float(np.linalg.norm(diffs[:, j])), i, j))
    scored.sort(key=lambda s: (-s[0], s[1], s[2]))

    # Orthonormal basis adapted to the increasing chain of jump subspaces.
    adapted: list[np.ndarray] = []

    def absorb(v: np.ndarray):
        w = v.astype(complex)
        for u in adapted:
            w = w - (u.conj() @ w) * u
        norm = np.linalg.norm(w)
        if norm > 1e-9:
            adapted.append(w / norm)

    for _, i, j in scored:
        absorb(bases[i][:, j])
    for j in range(dim):
        absorb(np.eye(dim, dtype=complex)[:, j])
    b_adapted = np.column_stack(adapted)

    product = np.eye(dim, dtype=complex)
    for t in ts:
        product = product @ t
    prod_report = deviation_wrt_basis(product, b_adapted, label="adapted")
    factor_reports = [deviation_wrt_basis(t, b) for t, b in zip(ts, bases)]

    jumps = sorted({s[0] for s in scored if s[0] > 1e-12})
    thresholds = []
    lo = 0.0
    for x in jumps:
        thresholds.append((lo + x) / 2)
        lo = x
    thresholds.append(lo + 1.0)

    n = len(ts)
    rows = []
    ok = True
    for x in thresholds:
        lhs = len(prod_report.threshold_set(n * x + 1e-9))
        rhs = sum(len(r.threshold_set(x - 1e-9)) for r in factor_reports)
        rows.append((x, lhs, rhs))
        ok = ok and lhs <= rhs
    total_bound = n * math.fsum(r.total for r in factor_reports)
    ok = ok and prod_report.total <= total_bound + 1e-9
    return ProductBoundReport(
        n_factors=n,
        dimension=dim,
        thresholds=tuple(thresholds),
        jump_counts=tuple(rows),
        product_deviation=prod_report.total,
        factor_deviation_sum=math.fsum(r.total for r in factor_reports),
        ok=ok,
    )


# ---------------------------------------------------------------------------
# Invariant dimension via averaged traces
# ---------------------------------------------------------------------------


def monomial_matrix(g: MonomialElement) -> np.ndarray:
    n = g.degree
    m = np.zeros((n, n), dtype=complex)
    for j in range(n):
        m[g.permutation[j], j] = np.exp(2j * np.pi * g.phase_numerators[j] / g.modulus)
    return m


class InvariantDimensionReport(Record):
    dimension: int
    average: float
    witness_index: int | None  # an element with Re tr <= 0 when dimension is 0


# No subcommand calls this; kept for `demos/deviation_bounds.py`.
def invariant_dimension(group) -> InvariantDimensionReport:
    """dim of invariants = average of traces over a closed finite matrix group."""
    if isinstance(group, (MonomialGroup, GGroup)):
        mats = [monomial_matrix(g) for g in group.elements]
    else:
        mats = [np.asarray(m, dtype=complex) for m in group]
    if not mats:
        raise ValueError("empty group")
    traces = [float(np.trace(m).real) for m in mats]
    avg = math.fsum(traces) / len(traces)
    dim = round(avg)
    if abs(avg - dim) > 1e-6:
        raise ValueError(f"trace average {avg} is not an integer; input is not a closed group")
    witness = None
    if dim == 0:
        witness = min(range(len(traces)), key=lambda i: traces[i])
    return InvariantDimensionReport(dim, avg, witness)


# ---------------------------------------------------------------------------
# Tensor-permutation trace identity
# ---------------------------------------------------------------------------


class TensorPermTraceReport(Record):
    n_factors: int
    dimension: int
    cyclic_trace: complex
    product_trace: complex
    bound: float
    ok: bool


# No subcommand calls this; kept for `demos/deviation_bounds.py`.
def tensor_perm_trace_check(ts: Sequence) -> TensorPermTraceReport:
    """Trace of v_1 x...x v_n -> T_n(v_n) x T_1(v_1) x...x T_{n-1}(v_{n-1}).

    The trace equals the trace of the factors composed along the cycle,
    tr(T_n T_{n-1} ... T_1); for unitary factors its magnitude is at most
    dim^(n-1).
    """
    mats = [np.asarray(t, dtype=complex) for t in ts]
    if not mats:
        raise ValueError("need at least one factor")
    d = mats[0].shape[0]
    if any(m.shape != (d, d) for m in mats):
        raise ValueError("dimension mismatch")
    n = len(mats)
    # kron(T_1, ..., T_n) fills output slot k with T_k(v_k); move slot n to the front.
    op = np.moveaxis(reduce(np.kron, mats).reshape((d,) * n + (d**n,)), n - 1, 0).reshape(d**n, d**n)
    cyclic = complex(np.trace(op))
    product = np.eye(d, dtype=complex)
    for m in reversed(mats):
        product = product @ m
    ptrace = complex(np.trace(product))
    unitary = all(_is_unitary(m) for m in mats)
    bound = float(d ** (n - 1))
    ok = abs(cyclic - ptrace) <= 1e-9 and (not unitary or abs(cyclic) <= bound + 1e-9)
    return TensorPermTraceReport(n, d, cyclic, ptrace, bound, ok)


# ---------------------------------------------------------------------------
# Extraspecial dimension bound
# ---------------------------------------------------------------------------


class ExtraspecialRecord(Record):
    p: int
    n_exp: int
    m: int
    dim: int
    eigen_deviation: float
    stated_bound: float
    relaxed_bound: float
    threshold: float
    stated_bound_below_threshold: bool
    survives: bool


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % q for q in range(2, math.isqrt(p) + 1))


@cache
def _chord_sum(p: int) -> Fraction:
    """The exact sum of the p chords 2*sin(pi*j/p) as floats: math.fsum of mult copies is float(mult * this)."""
    ratios = [(2 * math.sin(math.pi * j / p)).as_integer_ratio() for j in range(p)]
    d = max(q for _, q in ratios)
    return Fraction(sum(k * (d // q) for k, q in ratios), d)


def extraspecial_bound(p: int, n_exp: int, m: int) -> ExtraspecialRecord:
    """Dimension screen for m copies of a p-group character-sum spectrum.

    The spectrum is {e(j/p) : j = 0..p-1}, each with multiplicity
    m * p^(n_exp - 1) (central twist set to 1).  The stated chain compares
    2*pi*m*p^(n_exp-1)*p(p-1)/(2p) and 2*pi*m*p^n_exp/4 against 8*pi;
    survivors are exactly the shapes with dim = m * p^n_exp < 16.
    """
    if n_exp < 1 or m < 1:
        raise ValueError("need n_exp >= 1 and m >= 1")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    mult = m * p ** (n_exp - 1)
    dim = m * p**n_exp
    stated = 2 * math.pi * m * p ** (n_exp - 1) * (p * (p - 1)) / (2 * p)
    relaxed = 2 * math.pi * dim / 4
    threshold = 8 * math.pi
    return ExtraspecialRecord(
        p=p,
        n_exp=n_exp,
        m=m,
        dim=dim,
        eigen_deviation=float(mult * _chord_sum(p)),
        stated_bound=stated,
        relaxed_bound=relaxed,
        threshold=threshold,
        stated_bound_below_threshold=stated < threshold,
        survives=dim < 16,
    )


def extraspecial_scan(max_dim: int = 32) -> tuple[ExtraspecialRecord, ...]:
    """All (p, n_exp, m) with m * p^n_exp <= max_dim."""
    if max_dim < 1:
        raise ValueError("max_dim must be at least 1")
    records = []
    primes = [p for p in range(2, max_dim + 1) if _is_prime(p)]
    for p in primes:
        n_exp = 1
        while p**n_exp <= max_dim:
            m = 1
            while m * p**n_exp <= max_dim:
                records.append(extraspecial_bound(p, n_exp, m))
                m += 1
            n_exp += 1
    records.sort(key=lambda r: (r.dim, r.p, r.n_exp, r.m))
    return tuple(records)
