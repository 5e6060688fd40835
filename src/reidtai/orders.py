"""Half-orbit sums of units and the order scans built on them.

An eigenvalue of order d comes with all its Galois conjugates, so a
section of an exceptional element's eigenvalue data takes at least one
primitive d-th root from each conjugate pair {u/d, (d-u)/d}.  The least
such sum, one half-orbit, decides everything here, exactly:

* the published half-orbit table (``table1``);
* the feasible eigenvalue orders: the d whose half-orbit sum is below 1;
* the same-order screen: the minimal age of a multiset of primitive n-th
  roots that is a disjoint union of half-orbit and full-orbit blocks, and
  that screen over the feasible orders in one dimension.

It also holds the conformance report that every search diffs against its
published reference set.  The pair and multiset searches, which read the
half-orbit sums to prune, are in ``reidtai.search``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .records import Record
from .roots import RootOfUnity, unit_classes

__all__ = [
    "ConformanceReport",
    "SimpleAvScreenReport",
    "Table1Row",
    "CONFIRMED_ORDERS",
    "TABLE1_ORDERS",
    "feasible_orders",
    "min_age_same_order",
    "min_halforbit_sum",
    "simple_av_screen",
    "table1",
]


# Published reference data the scans are diffed against.
CONFIRMED_ORDERS: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 18)
TABLE1_ORDERS: tuple[int, ...] = (3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 18)


# ---------------------------------------------------------------------------
# Conformance reporting
# ---------------------------------------------------------------------------


class ConformanceReport(Record):
    """Diff of a computed set against its published reference set.

    ``extras`` pairs each surplus item with a witness dict that
    ``verify-witness`` can re-check; the JSON lists them under ``extra``
    as ``{"item", "witness"}`` objects.
    """

    expected: tuple
    computed: tuple
    missing: tuple
    extras: tuple  # of (item, witness-dict)

    def to_json(self) -> dict:
        payload = super().to_json()
        payload["extra"] = [{"item": x, "witness": w} for x, w in payload.pop("extras")]
        return payload


def _conformance(expected: Sequence, computed: Sequence, witness_of) -> ConformanceReport:
    expected = tuple(expected)
    computed = tuple(computed)
    expected_set = set(expected)
    computed_set = set(computed)
    missing = tuple(x for x in expected if x not in computed_set)
    extras = tuple((x, witness_of(x)) for x in computed if x not in expected_set)
    return ConformanceReport(expected, computed, missing, extras)


# ---------------------------------------------------------------------------
# Half-orbit sums and the order scan
# ---------------------------------------------------------------------------


def _halforbit_numerator(d: int) -> int:
    """d * min_halforbit_sum(d)[0], the sum of the units u <= d/2, in closed form.

    By Moebius inversion over the squarefree divisors e of d it is sum(mu(e) * e * k(k+1)/2), k = d // 2e.
    """
    signed = [1]  # mu(e) * e for each squarefree divisor e
    n, p = d, 2
    while p * p <= n:
        if n % p == 0:
            signed += [-e * p for e in signed]
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        signed += [-e * n for e in signed]
    twice = 0
    for e in signed:
        k = d // (2 * abs(e))
        twice += e * k * (k + 1)
    return twice // 2


def min_halforbit_sum(d: int) -> tuple[Fraction, tuple[int, ...]]:
    """Minimal sum of one representative u/d per conjugate pair {u, d-u}: the units u <= d/2."""
    if d < 2:
        raise ValueError(f"modulus must be at least 2, got {d}")
    reps = tuple(u for u in range(1, d // 2 + 1) if math.gcd(u, d) == 1)
    return Fraction(sum(reps), d), reps


class Table1Row(Record):
    n: int
    half_count: int
    values: tuple[RootOfUnity, ...]
    mean: Fraction


def table1() -> tuple[Table1Row, ...]:
    """Minimal half-orbit representatives and their means, one row per listed order."""
    rows = []
    for n in TABLE1_ORDERS:
        total, reps = min_halforbit_sum(n)
        values = tuple(RootOfUnity(u, n) for u in reps)
        rows.append(Table1Row(n, len(reps), values, total / len(reps)))
    return tuple(rows)


def feasible_orders(d_max: int = 372) -> tuple[tuple[int, ...], ConformanceReport]:
    """All d <= d_max whose minimal half-orbit sum is below 1, with conformance."""
    if d_max < 2:
        raise ValueError("d_max must be at least 2")
    computed = tuple(d for d in range(2, d_max + 1) if _halforbit_numerator(d) < d)

    def witness(d: int) -> dict:
        total, reps = min_halforbit_sum(d)
        return {"kind": "order", "d": d, "representatives": list(reps), "sum": str(total)}

    expected = tuple(d for d in CONFIRMED_ORDERS if d <= d_max)
    return computed, _conformance(expected, computed, witness)


# ---------------------------------------------------------------------------
# Same-order minimal-age screen
# ---------------------------------------------------------------------------


def min_age_same_order(n: int, dim: int) -> Fraction | None:
    """Minimal age of dim primitive n-th roots forming half-/full-orbit blocks.

    A half-orbit block takes the cheaper representative of every conjugate
    pair; a full-orbit block takes all primitive roots.  Returns None when
    dim is not a non-negative combination of the two block sizes.
    """
    if n < 2:
        raise ValueError("order must be at least 2")
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    classes = unit_classes(n)
    half_size = len(classes.pairs)
    half_sum = Fraction(_halforbit_numerator(n), n)
    full_size = len(classes.units)
    full_sum = Fraction(sum(classes.units), n)
    best = None
    for b in range(dim // full_size + 1):
        rem = dim - b * full_size
        if rem % half_size:
            continue
        age = (rem // half_size) * half_sum + b * full_sum
        if best is None or age < best:
            best = age
    return best


class SimpleAvScreenReport(Record):
    dim: int
    survivors: dict[int, Fraction]
    extra_survivors: dict[int, Fraction]
    scanned_orders: tuple[int, ...]
    extra_orders: tuple[int, ...]


def simple_av_screen(dim: int, d_max: int = 372) -> SimpleAvScreenReport:
    """Which same-order eigenvalue configurations stay exceptional in a given dimension.

    The headline scan runs over the confirmed order set; orders that the
    literal half-orbit predicate additionally admits are screened
    separately so their survivors are visible but clearly marked.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    computed, _ = feasible_orders(d_max)
    extra_orders = tuple(d for d in computed if d not in CONFIRMED_ORDERS)

    def scan(orders: Iterable[int]) -> dict[int, Fraction]:
        found = {}
        for order in orders:
            age = min_age_same_order(order, dim)
            if age is not None and 0 < age < 1:
                found[order] = age
        return found

    return SimpleAvScreenReport(
        dim=dim,
        survivors=scan(CONFIRMED_ORDERS),
        extra_survivors=scan(extra_orders),
        scanned_orders=CONFIRMED_ORDERS,
        extra_orders=extra_orders,
    )
