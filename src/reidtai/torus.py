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

A group G is held as the extension 1 -> T -> G -> L -> 1 that the closure
engine returns: one lift per linear part in L and the span T of the pure
translations.  Its members are the cosets lift + T; only the reflection
cosets are ever listed by ``exceptional_elements``, and ``elements``
lists them all only when it is read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Sequence

from .groups import GroupTooLargeError, extension
from .lattice import (
    _is_reflection,
    _torus_congruence_solver,
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
    sublattice_from_rows,
    transpose,
    unimodular_inverse,
    zero_sublattice,
)
from .records import Record
from .roots import over_common_modulus, over_least_modulus
from .spectra import Spectrum

__all__ = [
    "AffineTorusMap",
    "ExceptionalElement",
    "FiltrationReport",
    "GroupTooLargeError",
    "TorusAction",
    "KODAIRA_ZERO",
    "RATIONALLY_CONNECTED",
    "UNIRULED_NOT_RC",
    "affine_identity",
    "closure",
    "exceptional_elements",
    "filtration",
    "rt_tangent_sublattice",
]

KODAIRA_ZERO = "KodairaZero"
UNIRULED_NOT_RC = "UniruledNotRC"
RATIONALLY_CONNECTED = "RationallyConnected"


class AffineTorusMap(Record):
    """x -> (linear)x + translation on R^n/Z^n; translations live in [0,1)^n.

    The translation is stored as integer numerators in [0, denominator)
    over the least common denominator, so structural equality is
    mathematical equality.  Immutable and hashable.
    """

    __slots__ = ("linear", "numerators", "denominator")
    linear: IntMatrix
    numerators: tuple[int, ...]
    denominator: int

    def __init__(self, linear: IntMatrix, translation: Sequence):
        linear = mat(linear)
        n = len(linear)
        if any(len(row) != n for row in linear):
            raise ValueError("linear part must be square")
        t = tuple(Fraction(x) for x in translation)
        if len(t) != n:
            raise ValueError("translation length mismatch")
        nums, d = over_least_modulus(*over_common_modulus(t))
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "numerators", nums)
        object.__setattr__(self, "denominator", d)

    @classmethod
    def _trusted(cls, linear: IntMatrix, numerators: Iterable[int], d: int) -> "AffineTorusMap":
        """A map built from valid ones: the linear part is already a square int matrix."""
        g = object.__new__(cls)
        nums, d = over_least_modulus(numerators, d)
        object.__setattr__(g, "linear", linear)
        object.__setattr__(g, "numerators", nums)
        object.__setattr__(g, "denominator", d)
        return g

    @property
    def translation(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(k, self.denominator) for k in self.numerators)

    @property
    def rank(self) -> int:
        return len(self.linear)

    def compose(self, other: "AffineTorusMap") -> "AffineTorusMap":
        """self after other: x -> self(other(x))."""
        d = math.lcm(self.denominator, other.denominator)
        fa = d // self.denominator
        fb = d // other.denominator
        t = tuple(a * fb + s * fa for a, s in zip(mat_vec(self.linear, other.numerators), self.numerators))
        return AffineTorusMap._trusted(mat_mul(self.linear, other.linear), t, d)

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
    return AffineTorusMap._trusted(identity(n), (0,) * n, 1)


class TorusAction(Record):
    """A finite group of affine torus maps: its lifts over the linear parts L and its translation kernel T.

    ``closure`` sets ``lifts``, one member per linear part, sorted by linear
    part, and ``kernel``, the translations of G as a span in (Z/d)^n, d the
    lcm of the generators' denominators; G is the union of the cosets
    lift + T.  Both are derived from the generators, so they are not
    fields: ``==``, ``hash`` and ``repr`` read the rank and the generators.
    ``order`` is |L| * |T|, and the members are listed, in canonical order,
    only when ``elements`` is first read.
    """

    rank: int
    generators: tuple[AffineTorusMap, ...]

    @property
    def order(self) -> int:
        return len(self.lifts) * self.kernel.order

    @cached_property
    def elements(self) -> tuple[AffineTorusMap, ...]:
        vectors, d = self.kernel.vectors(), self.kernel.m
        return tuple(AffineTorusMap._trusted(t.linear, nums, d) for t in self.lifts for nums in _coset(t, vectors, d))


def _coset(t: AffineTorusMap, vectors: list[list[int]], d: int) -> list[list[int]]:
    """The translations of t + T as numerators over d, sorted: the coset in canonical order."""
    f = d // t.denominator
    base = [k * f for k in t.numerators]
    return sorted([(b + x) % d for b, x in zip(base, v)] for v in vectors)


def closure(generators: Iterable[AffineTorusMap], cap: int = 1_000_000) -> TorusAction:
    """Group generated by the maps; GroupTooLargeError when it has more than cap elements."""
    gens = tuple(generators)
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].rank
    if any(g.rank != n for g in gens):
        raise ValueError("generators must share a rank")
    if any(matrix_order(g.linear) is None for g in gens):
        raise ValueError("generator linear part has infinite order")
    return _closed(gens, cap)


def _closed(gens: tuple[AffineTorusMap, ...], cap: int) -> TorusAction:
    """``closure`` of maps of one rank whose linear parts have finite order, without checking either."""
    n = gens[0].rank
    d = math.lcm(*(g.denominator for g in gens))

    def defect(y, t):  # y * t^-1, the translation by the difference of the two translations, over d
        fy, ft = d // y.denominator, d // t.denominator
        return [a * fy - b * ft for a, b in zip(y.numerators, t.numerators)]

    # a finite group's linear image has order dividing M(n), and its translations lie in (Z/d)^n
    bound = min(max(cap, 1), _minkowski(n) * d**n)
    # conjugating x -> x + v by s gives x -> x + M_s v
    result = extension(
        gens, affine_identity(n), attrgetter("linear"), defect, lambda s, v: mat_vec(s.linear, v), d, n, bound
    )
    if result is None:
        raise GroupTooLargeError.over_cap(cap)
    lifts, kernel, _ = result
    action = TorusAction(n, gens)
    object.__setattr__(action, "lifts", tuple(sorted(lifts, key=attrgetter("linear"))))  # not fields
    object.__setattr__(action, "kernel", kernel)
    return action


def _minkowski(n: int) -> int:
    """Minkowski's bound M(n): the order of every finite subgroup of GL(n, Z) divides it.

    M(n) = prod over primes p of p^e, e = sum over k >= 0 of floor(n / (p^k (p - 1))).
    """
    bound = 1
    for p in range(2, n + 2):
        if all(p % q for q in range(2, p)):
            e, q = 0, p - 1
            while q <= n:
                e += n // q
                q *= p
            bound *= p**e
    return bound


class ExceptionalElement(Record):
    element: AffineTorusMap
    spectrum: Spectrum
    age: Fraction
    fixed_point: tuple[Fraction, ...]


def exceptional_elements(action: TorusAction) -> tuple[ExceptionalElement, ...]:
    """Elements with a fixed point whose linear-part age lies in (0, 1), in canonical order.

    A finite-order integer M has age rank(M - I)/2 (an eigenvalue -1 adds 1/2,
    a conjugate pair adds 1), so these are the reflections with a fixed point.
    A reflection has the eigenvalue 1 n - 1 times and -1 once, so trace n - 2:
    only a lift with that trace is put through the rank-one test, and only a
    reflection's coset lift + T is listed.  All reflections of rank n share
    one spectrum, computed once, at the first reflection.
    """
    n, d = action.rank, action.kernel.m
    vectors = spec = age = None
    out = []
    for t in action.lifts:
        linear = t.linear
        if sum(linear[i][i] for i in range(n)) != n - 2 or not _is_reflection(linear):
            continue
        if spec is None:
            vectors = action.kernel.vectors()
            spec = cyclotomic_spectrum(linear)
            age = spec.age()
        solve = _torus_congruence_solver(linear)
        for nums in _coset(t, vectors, d):
            x = solve(nums, d)
            if x is not None:
                out.append(ExceptionalElement(AffineTorusMap._trusted(linear, nums, d), spec, age, x))
    return tuple(out)


# No subcommand calls this (filtration reuses each stage's exceptional elements); kept as a `bench/tracer.py` target.
def rt_tangent_sublattice(action: TorusAction) -> Sublattice:
    """Saturation of the sum of the image lattices (M - I)Z^n over exceptional elements."""
    return _tangent_sublattice(action.rank, exceptional_elements(action))


def _tangent_sublattice(n: int, exc: Sequence[ExceptionalElement]) -> Sublattice:
    # the columns of each M - I, each nonzero one once: the same span, so the same Hermite form
    rows = {tuple(m[i][j] - (i == j) for i in range(n)) for m in {e.element.linear for e in exc} for j in range(n)}
    rows.discard((0,) * n)
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
    images = []
    for g in action.generators:  # a sublattice stable under the generators is stable under the group
        m2 = mat_mul(mat_mul(qinv, g.linear), q)
        if any(m2[i][j] != 0 for i in range(r, n) for j in range(r)):
            raise ArithmeticError("sublattice is not stable under the action")
        block = tuple(row[r:] for row in m2[r:])
        images.append(AffineTorusMap._trusted(block, mat_vec(qinv[r:], g.numerators), g.denominator))
    # images of a finite group's generators: one rank, linear parts of finite order
    return _closed(tuple(images), action.order), q


class FiltrationReport(Record):
    rank: int
    exceptional: tuple[ExceptionalElement, ...]
    rt_generators: tuple[AffineTorusMap, ...]
    chain: tuple[Sublattice, ...]
    verdict: str
    stage_exceptional_counts: tuple[int, ...]

    def to_json(self) -> dict:
        payload = super().to_json()
        payload["exceptional_elements"] = payload.pop("exceptional")
        return payload


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
