"""Finite groups of affine automorphisms of the torus R^n/Z^n.

An automorphism is x -> Mx + t with M a finite-order integer matrix and t
a rational translation.  The differential at every point is M, so an
element is exceptional exactly when it has a fixed point (a solvable
congruence (M - I)x = -t mod Z^n) and the spectrum of M has age strictly
between 0 and 1.  The increasing chain of saturated sublattices generated
by the images (M - I)Z^n of exceptional elements, recomputed on each
quotient torus, decides whether the quotient has Kodaira dimension zero,
is uniruled without being rationally connected, or is rationally
connected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Iterable, Sequence

from .groups import GroupTooLargeError, generate
from .lattice import (
    IntMatrix,
    Sublattice,
    cyclotomic_spectrum,
    identity,
    mat,
    mat_mul,
    mat_vec,
    matrix_order,
    saturate,
    snf,
    solve_torus_congruence,
    sublattice_from_rows,
    transpose,
    unimodular_inverse,
    zero_sublattice,
)
from .spectra import Spectrum

__all__ = [
    "AffineTorusMap",
    "ExceptionalElement",
    "FiltrationReport",
    "GroupTooLargeError",
    "SimpleAvScreenReport",
    "TorusAction",
    "KODAIRA_ZERO",
    "RATIONALLY_CONNECTED",
    "UNIRULED_NOT_RC",
    "affine_identity",
    "closure",
    "exceptional_elements",
    "filtration",
    "rt_subgroup",
    "rt_tangent_sublattice",
    "simple_av_screen",
    "verdict",
]

KODAIRA_ZERO = "KodairaZero"
UNIRULED_NOT_RC = "UniruledNotRC"
RATIONALLY_CONNECTED = "RationallyConnected"


@dataclass(frozen=True)
class AffineTorusMap:
    """x -> (linear)x + translation on R^n/Z^n; translations live in [0,1)^n."""

    linear: IntMatrix
    translation: tuple[Fraction, ...]

    def __post_init__(self):
        linear = mat(self.linear)
        n = len(linear)
        if any(len(row) != n for row in linear):
            raise ValueError("linear part must be square")
        t = tuple(Fraction(x) % 1 for x in self.translation)
        if len(t) != n:
            raise ValueError("translation length mismatch")
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "translation", t)

    @property
    def rank(self) -> int:
        return len(self.linear)

    def is_identity(self) -> bool:
        return self.linear == identity(self.rank) and not any(self.translation)

    def apply(self, x: Sequence[Fraction]) -> tuple[Fraction, ...]:
        return tuple(
            (sum(Fraction(c) * Fraction(v) for c, v in zip(row, x)) + t) % 1
            for row, t in zip(self.linear, self.translation)
        )

    def compose(self, other: "AffineTorusMap") -> "AffineTorusMap":
        """self after other: x -> self(other(x))."""
        t = tuple(a + s for a, s in zip(mat_vec(self.linear, other.translation), self.translation))
        return AffineTorusMap(mat_mul(self.linear, other.linear), t)

    def inverse(self) -> "AffineTorusMap":
        minv = unimodular_inverse(self.linear)
        return AffineTorusMap(minv, tuple(-x for x in mat_vec(minv, self.translation)))

    def sort_key(self):
        return (self.linear, self.translation)

    def to_json(self) -> dict:
        return {
            "matrix": [list(row) for row in self.linear],
            "translation": [str(x) for x in self.translation],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "AffineTorusMap":
        matrix = payload["matrix"]
        bad = [x for row in matrix for x in row if type(x) is not int]  # mat() would read 1.5 and true as 1
        if bad:
            raise ValueError(f"matrix entry {bad[0]!r} is not an integer")
        translation = payload["translation"]
        if type(translation) is not list:  # a string or an object would be iterated as its characters or keys
            raise ValueError(f"translation {translation!r} is not a list")
        # Fraction() would read the float 0.1 as its binary expansion and true as 1
        bad = [x for x in translation if type(x) not in (int, str)]
        if bad:
            raise ValueError(f"translation entry {bad[0]!r} is not an integer or a string")
        return cls(mat(matrix), tuple(Fraction(s) for s in translation))


def affine_identity(n: int) -> AffineTorusMap:
    return AffineTorusMap(identity(n), (Fraction(0),) * n)


@dataclass(frozen=True)
class TorusAction:
    """A closed finite group of affine torus maps, canonically ordered."""

    rank: int
    elements: tuple[AffineTorusMap, ...]
    generators: tuple[AffineTorusMap, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def closure(generators: Iterable[AffineTorusMap], cap: int = 1_000_000) -> TorusAction:
    """Group generated by the maps, in canonical order."""
    gens = tuple(generators)
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].rank
    if any(g.rank != n for g in gens):
        raise ValueError("generators must share a rank")
    for g in gens:
        if matrix_order(g.linear) is None:
            raise ValueError("generator linear part has infinite order")
    members, _ = generate(gens, affine_identity(n), cap)
    return TorusAction(n, tuple(sorted(members, key=AffineTorusMap.sort_key)), gens)


@dataclass(frozen=True)
class ExceptionalElement:
    element: AffineTorusMap
    spectrum: Spectrum
    age: Fraction
    fixed_point: tuple[Fraction, ...]

    def to_json(self) -> dict:
        return {
            "element": self.element.to_json(),
            "spectrum": self.spectrum.to_json(),
            "age": str(self.age),
            "fixed_point": [str(x) for x in self.fixed_point],
        }


def exceptional_elements(action: TorusAction) -> tuple[ExceptionalElement, ...]:
    """Elements with a fixed point whose linear-part age lies in (0, 1).

    One spectrum per run of equal linear part (one run each in the canonical
    order); the identity has age 0.
    """
    out = []
    for linear, run in groupby(action.elements, key=lambda g: g.linear):
        spec = cyclotomic_spectrum(linear)
        age = spec.age()
        if not 0 < age < 1:
            continue
        for g in run:
            solvable, x = solve_torus_congruence(linear, g.translation)
            if solvable:
                out.append(ExceptionalElement(g, spec, age, x))
    return tuple(out)


def rt_subgroup(action: TorusAction, cap: int = 1_000_000) -> TorusAction:
    """Subgroup generated by all exceptional elements (trivial when there are none).

    Lemma: this equals the subgroup generated by the age-below-1 stabilizer
    elements over all points.  Proof: at a fixed point the stabilizer acts
    through its differential, and the differential of x -> Mx + t is M
    (translations differentiate to zero), so the age of g at any of its
    fixed points is the age of its linear part.
    """
    exc = exceptional_elements(action)
    if not exc:
        ident = affine_identity(action.rank)
        return TorusAction(action.rank, (ident,), ())
    return closure(tuple(e.element for e in exc), cap=cap)


def rt_tangent_sublattice(action: TorusAction) -> Sublattice:
    """Saturation of the sum of the image lattices (M - I)Z^n over exceptional elements.

    ``filtration`` builds each stage's sublattice from the exceptional
    elements it already holds, so it does not go through this function.
    """
    return _tangent_sublattice(action.rank, exceptional_elements(action))


def _tangent_sublattice(n: int, exc: Sequence[ExceptionalElement]) -> Sublattice:
    rows = []
    for e in exc:
        m = e.element.linear
        delta = tuple(tuple(m[i][j] - (1 if i == j else 0) for j in range(n)) for i in range(n))
        rows.extend(transpose(delta))
    if not rows:
        return zero_sublattice(n)
    return saturate(sublattice_from_rows(n, rows))


def _quotient_action(action: TorusAction, sub: Sublattice) -> tuple[TorusAction, IntMatrix]:
    """Induced action on the quotient torus Z^n / sub (sub saturated, G-stable, rank >= 1).

    Also returns q = P^T, P = V^{-1} from the Smith form U*B*V = D of sub's
    basis, whose first rank(sub) columns span sub; q^{-1} = V^T is free.
    """
    n = action.rank
    r = sub.rank
    v = snf(sub.basis).v
    q = transpose(unimodular_inverse(v))
    qinv = transpose(v)
    induced = {}
    for linear, run in groupby(action.elements, key=lambda g: g.linear):
        m2 = mat_mul(mat_mul(qinv, linear), q)
        if any(m2[i][j] != 0 for i in range(r, n) for j in range(r)):
            raise ArithmeticError("sublattice is not stable under the action")
        block = tuple(row[r:] for row in m2[r:])
        for g in run:
            induced[g] = AffineTorusMap(block, mat_vec(qinv[r:], g.translation))
    elements = sorted(set(induced.values()), key=AffineTorusMap.sort_key)
    return TorusAction(n - r, tuple(elements), tuple(induced[g] for g in action.generators)), q


@dataclass(frozen=True)
class FiltrationReport:
    rank: int
    exceptional: tuple[ExceptionalElement, ...]
    rt_generators: tuple[AffineTorusMap, ...]
    chain: tuple[Sublattice, ...]
    verdict: str
    stage_exceptional_counts: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "rank": self.rank,
            "exceptional_elements": [e.to_json() for e in self.exceptional],
            "rt_generators": [g.to_json() for g in self.rt_generators],
            "chain": [s.to_json() for s in self.chain],
            "verdict": self.verdict,
            "stage_exceptional_counts": list(self.stage_exceptional_counts),
        }


def filtration(action: TorusAction) -> FiltrationReport:
    """Iterate the exceptional-tangent construction through quotient tori.

    Stage 1 works on the given torus; each later stage recomputes the
    exceptional elements on the quotient by the current saturated
    sublattice (fixed points are re-verified there) and pulls the result
    back (saturated as built: Z^n modulo the preimage is torsion-free).
    Stops at stabilization or full rank.
    """
    n = action.rank
    exc1 = exceptional_elements(action)
    current = _tangent_sublattice(n, exc1)
    chain = [current]
    counts = [len(exc1)]
    if exc1:
        while current.rank < n:
            quotient, q = _quotient_action(action, current)
            exc_q = exceptional_elements(quotient)
            counts.append(len(exc_q))
            if not exc_q:
                break
            r = current.rank
            lifted = [mat_vec(q, (0,) * r + w) for w in _tangent_sublattice(quotient.rank, exc_q).basis]
            nxt = sublattice_from_rows(n, current.basis + tuple(lifted))
            if nxt == current:
                break
            current = nxt
            chain.append(current)
    if not exc1:
        result = KODAIRA_ZERO
    elif chain[-1].is_full():
        result = RATIONALLY_CONNECTED
    else:
        result = UNIRULED_NOT_RC
    return FiltrationReport(
        rank=n,
        exceptional=exc1,
        rt_generators=tuple(e.element for e in exc1),
        chain=tuple(chain),
        verdict=result,
        stage_exceptional_counts=tuple(counts),
    )


def verdict(action: TorusAction) -> str:
    """KodairaZero, UniruledNotRC, or RationallyConnected."""
    return filtration(action).verdict


# ---------------------------------------------------------------------------
# Same-order screen for simple quotients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimpleAvScreenReport:
    dim: int
    survivors: dict[int, Fraction]
    extra_survivors: dict[int, Fraction]
    scanned_orders: tuple[int, ...]
    extra_orders: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "dim": self.dim,
            "survivors": {str(n): str(a) for n, a in sorted(self.survivors.items())},
            "extra_survivors": {str(n): str(a) for n, a in sorted(self.extra_survivors.items())},
            "scanned_orders": list(self.scanned_orders),
            "extra_orders": list(self.extra_orders),
        }


def simple_av_screen(dim: int, d_max: int = 372) -> SimpleAvScreenReport:
    """Which same-order eigenvalue configurations stay exceptional in a given dimension.

    The headline scan runs over the confirmed order set; orders that the
    literal half-orbit predicate additionally admits are screened
    separately so their survivors are visible but clearly marked.
    """
    from .search import CONFIRMED_ORDERS, feasible_orders, min_age_same_order

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
