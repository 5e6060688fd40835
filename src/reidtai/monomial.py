"""Finite monomial groups: permutations of coordinate lines with exact phases.

An element is a permutation matrix times a diagonal of roots of unity,
stored as (permutation, integer phase numerators, common modulus).  The
modulus is always reduced to the least faithful one, so structural
equality is mathematical equality.  Eigenvalues come from the cycle
decomposition: an l-cycle whose phases multiply to e(s) contributes
e((s + j)/l) for j = 0..l-1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from operator import attrgetter
from typing import Iterable, Sequence

from .groups import GroupTooLargeError, Held, canonical, extension
from .records import Record
from .roots import RootOfUnity, over_least_modulus
from .spectra import Spectrum

__all__ = [
    "ExceptionalClassEntry",
    "GGroup",
    "GroupTooLargeError",
    "MonomialElement",
    "MonomialGroup",
    "PropProdReport",
    "conjugacy_class",
    "g_group",
    "g_group_order",
    "monomial_closure",
    "monomial_identity",
    "normal_closure",
    "prop_prod_check",
    "spectrum_of",
]


class MonomialElement(Record):
    """(permutation) * diag(phases): line j is scaled by e(k_j/m), then sent to line perm[j].

    Immutable and hashable, with structural equality on the three parts.
    """

    __slots__ = ("permutation", "phase_numerators", "modulus")
    permutation: tuple[int, ...]
    phase_numerators: tuple[int, ...]
    modulus: int

    def __init__(self, permutation: Sequence[int], phase_numerators: Sequence[int], modulus: int):
        permutation = tuple(permutation)
        n = len(permutation)
        if sorted(permutation) != list(range(n)):
            raise ValueError("permutation must be a bijection of 0..n-1")
        if len(phase_numerators) != n:
            raise ValueError("phase vector length mismatch")
        if modulus < 1:
            raise ValueError("modulus must be positive")
        nums, m = over_least_modulus(phase_numerators, modulus)
        object.__setattr__(self, "permutation", permutation)
        object.__setattr__(self, "phase_numerators", nums)
        object.__setattr__(self, "modulus", m)

    @classmethod
    def _trusted(cls, permutation: tuple[int, ...], numerators: Iterable[int], m: int) -> "MonomialElement":
        """An element built from valid ones: the permutation is already a tuple bijection of the numerators' length."""
        g = object.__new__(cls)
        nums, m = over_least_modulus(numerators, m)
        object.__setattr__(g, "permutation", permutation)
        object.__setattr__(g, "phase_numerators", nums)
        object.__setattr__(g, "modulus", m)
        return g

    @property
    def degree(self) -> int:
        return len(self.permutation)

    @property
    def phases(self) -> tuple[RootOfUnity, ...]:
        return tuple(RootOfUnity(k, self.modulus) for k in self.phase_numerators)

    def compose(self, other: "MonomialElement") -> "MonomialElement":
        """Matrix product self * other."""
        sp, op, sk = self.permutation, other.permutation, self.phase_numerators
        if len(sp) != len(op):
            raise ValueError("degree mismatch")
        m = math.lcm(self.modulus, other.modulus)
        fa = m // self.modulus
        fb = m // other.modulus
        perm = tuple([sp[p] for p in op])
        nums = [sk[p] * fa + k * fb for p, k in zip(op, other.phase_numerators)]
        return MonomialElement._trusted(perm, nums, m)

    # No subcommand inverts an element; kept as a `bench/tracer.py` target and for the test oracles' class closures.
    def inverse(self) -> "MonomialElement":
        n = self.degree
        inv = [0] * n
        for j, img in enumerate(self.permutation):
            inv[img] = j
        return MonomialElement._trusted(tuple(inv), [-self.phase_numerators[i] for i in inv], self.modulus)

    def cycles(self) -> list[list[int]]:
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = []
            j = start
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = self.permutation[j]
            out.append(cyc)
        return out

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def is_transposition(self) -> bool:
        return self.cycle_type() == tuple([2] + [1] * (self.degree - 2))

    def to_json(self) -> dict:
        return {
            "permutation": list(self.permutation),
            "phases": [str(p) for p in self.phases],
        }


def monomial_identity(n: int) -> MonomialElement:
    return MonomialElement(tuple(range(n)), (0,) * n, 1)


def spectrum_of(g: MonomialElement) -> Spectrum:
    """Exact eigenvalue multiset from the cycle decomposition."""
    values = []
    m = g.modulus
    for cyc in g.cycles():
        length = len(cyc)
        s = sum(g.phase_numerators[j] for j in cyc) % m
        for j in range(length):
            values.append(RootOfUnity(s + j * m, m * length))
    return Spectrum(values)


class MonomialGroup(Held, Record):
    """A finite monomial group of (degree, generators), held (``groups.Held``) over its permutations."""

    degree: int
    generators: tuple[MonomialElement, ...]

    @cached_property
    def _members(self) -> frozenset[MonomialElement]:
        return frozenset(self.elements)

    def __contains__(self, g: MonomialElement) -> bool:
        return g in self._members


class GGroup(Record):
    """G(m, p, n) from ``g_group``: ``order`` and membership come from the parameters.

    Its elements are listed by ``monomial_closure``, in canonical order, only
    when ``elements`` is first read; the fields, so ``==``, ``hash`` and
    ``repr``, never list them.
    """

    m: int
    p: int
    degree: int
    generators: tuple[MonomialElement, ...]

    @property
    def order(self) -> int:
        return g_group_order(self.m, self.p, self.degree)

    def __contains__(self, g: MonomialElement) -> bool:
        # phases in mu_m whose product lies in mu_{m/p}
        m, p = self.m, self.p
        return g.degree == self.degree and m % g.modulus == 0 and sum(g.phase_numerators) * (m // g.modulus) % p == 0

    @cached_property
    def elements(self) -> tuple[MonomialElement, ...]:
        if not self.generators:  # G(m, m, 1) is trivial
            return (monomial_identity(self.degree),)
        return monomial_closure(self.generators, self.order).elements


def _closed(elements: Sequence[MonomialElement], cap: int) -> tuple:
    """(lifts, kernel, used) of ``groups.extension`` over the permutations; GroupTooLargeError above the cap."""
    n = elements[0].degree
    m = math.lcm(*{c.modulus for c in elements})

    def act(s, v):  # the conjugate by s moves the phase of line j to line pi(s)[j]
        return [k for _, k in sorted(zip(s.permutation, v))]

    result = extension(elements, monomial_identity(n), act, m, n, max(cap, 1))
    if result is None:
        raise GroupTooLargeError.over_cap(cap)
    return result


# No subcommand calls this; it lists `GGroup.elements`, and it is a `bench/tracer.py` target.
def monomial_closure(generators: Iterable[MonomialElement], cap: int = 1_000_000) -> MonomialGroup:
    """Group generated by the elements, in deterministic canonical order."""
    gens = tuple(generators)
    if not gens:
        raise ValueError("need at least one generator")
    lifts, kernel, _ = _closed(gens, cap)
    return MonomialGroup(gens[0].degree, gens).hold(lifts, kernel)


def g_group_order(m: int, p: int, n: int) -> int:
    return m**n * math.factorial(n) // p


def g_group(m: int, p: int, n: int, cap: int = 1_000_000) -> GGroup:
    """G(m, p, n): phases in mu_m with product in mu_{m/p}, times every permutation."""
    if m < 1 or n < 1 or p < 1 or m % p:
        raise ValueError("need m, n >= 1 and p | m")
    size = 1  # m^n n! / p > cap iff the running product m^i i! passes cap * p at some i <= n
    for i in range(1, n + 1):
        size *= m * i
        if size > cap * p:
            raise GroupTooLargeError(f"|G({m},{p},{n})| exceeds cap {cap}")
    gens = []
    ident_perm = tuple(range(n))
    if p < m:
        gens.append(MonomialElement(ident_perm, (p,) + (0,) * (n - 1), m))
    if p > 1 and n >= 2:
        gens.append(MonomialElement(ident_perm, (1, m - 1) + (0,) * (n - 2), m))
    for i in range(n - 1):
        perm = list(range(n))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        gens.append(MonomialElement(tuple(perm), (0,) * n, 1))
    return GGroup(m, p, n, tuple(gens))


def conjugacy_class(g: MonomialElement, group: MonomialGroup | GGroup) -> tuple[MonomialElement, ...]:
    """Orbit of g under conjugation by the group's generators.

    Each conjugate is built in one pass: for h = (s, a) and x = (t, k),
    h x h^-1 has permutation s t s^-1, and line i, with j = s^-1(i), gets
    the phase a[t(j)] + k[j] - a[j] over lcm(m_h, m_x).
    """
    gens = []
    for h in group.generators:
        s = h.permutation
        s_inv = [0] * len(s)
        for j, img in enumerate(s):
            s_inv[img] = j
        gens.append((s, s_inv, h.phase_numerators, h.modulus))
    seen = {g}
    frontier = [g]
    while frontier:
        new = []
        for x in frontier:
            t, k, mx = x.permutation, x.phase_numerators, x.modulus
            for s, s_inv, a, mh in gens:
                m = math.lcm(mh, mx)
                fa, fk = m // mh, m // mx
                perm = tuple([s[t[j]] for j in s_inv])
                nums = [(a[t[j]] - a[j]) * fa + k[j] * fk for j in s_inv]
                y = MonomialElement._trusted(perm, nums, m)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return canonical(seen, MonomialElement._values)


# No subcommand calls this; kept for `demos/monomial_reflection_groups.py` and as a `bench/tracer.py` target.
def normal_closure(g: MonomialElement, group: MonomialGroup | GGroup, cap: int = 1_000_000) -> MonomialGroup:
    """Smallest normal subgroup of the group containing g.

    The subgroup generated by the conjugacy class; its generators are the
    class members that were not already in the subgroup generated by the
    earlier ones, starting with the first.
    """
    if g not in group:
        raise ValueError("element does not belong to the group")
    lifts, kernel, used = _closed(conjugacy_class(g, group), cap)
    return MonomialGroup(group.degree, used).hold(lifts, kernel)


# ---------------------------------------------------------------------------
# Exceptional-element reports
# ---------------------------------------------------------------------------


class ExceptionalClassEntry(Record):
    representative: MonomialElement
    class_size: int
    age: Fraction
    spectrum: Spectrum
    cycle_type: tuple[int, ...]
    closure_order: int
    closure_index: int
    is_transposition: bool


class PropProdReport(Record):
    degree: int
    group_order: int
    reflection_rep: bool
    entries: tuple[ExceptionalClassEntry, ...]
    violations: tuple[ExceptionalClassEntry, ...]

    def to_json(self) -> dict:
        payload = super().to_json()
        payload["exceptional_classes"] = payload.pop("entries")
        return payload


def _reported_spectrum(g: MonomialElement, reflection_rep: bool) -> Spectrum:
    spec = spectrum_of(g)
    if not reflection_rep:
        return spec
    values = list(spec.values)
    values.remove(RootOfUnity(0))
    return Spectrum(values)


def _bounded_sums(length: int, bound: int):
    """Every tuple of ``length`` non-negative integers with sum below ``bound`` (>= 1)."""
    if length == 0:
        yield ()
        return
    for first in range(bound):
        for rest in _bounded_sums(length - 1, bound - first):
            yield (first, *rest)


def _exceptional_candidates(n: int, m: int):
    """Every element of degree n with phases in mu_m and 0 < age < 1.

    2m * age sums 2 * (phase sum of the cycle mod m) + m * (l - 1) over the
    l-cycles, so an l-cycle adds at least (l - 1)/2 and the permutation is
    the identity or one transposition (a b).  The identity needs
    0 < sum(k) < m; the transposition 2 * ((k_a + k_b) mod m) + 2 * (the
    other k) < m.
    """
    identity = tuple(range(n))
    for ks in _bounded_sums(n, m):
        if any(ks):
            yield MonomialElement._trusted(identity, ks, m)
    for a, b in combinations(range(n), 2):
        perm = list(identity)
        perm[a], perm[b] = b, a
        perm = tuple(perm)
        for s, *rest in _bounded_sums(n - 1, (m + 1) // 2):
            for ka in range(m):
                ks = rest.copy()
                ks.insert(a, ka)
                ks.insert(b, (s - ka) % m)
                yield MonomialElement._trusted(perm, ks, m)


def _closure_order(cls: Sequence[MonomialElement], group_order: int) -> int:
    """|N| for N the subgroup the class generates, or group_order once |N| > group_order/2 (then N = G by Lagrange).

    |N| = |pi(N)| * |N ∩ D|, pi the map to permutations and D the diagonal
    subgroup: the lifts and the kernel of ``groups.extension``.
    """
    try:
        lifts, kernel, _ = _closed(cls, group_order // 2)
    except GroupTooLargeError:
        return group_order
    return len(lifts) * kernel.order


def prop_prod_check(group: MonomialGroup | GGroup, reflection_rep: bool = False) -> PropProdReport:
    """Scan a monomial group for exceptional elements, per conjugacy class.

    Entries whose normal closure is the whole group must have transposition
    permutation part; any counterexample lands in ``violations`` and
    signals an implementation bug, not a discovery.  The exceptional
    elements are enumerated from the age bound and kept if they belong to
    the group, and the normal closure of a class is the subgroup its
    members generate, whose order comes from Schreier's lemma: the group
    is never listed.
    """
    modulus = math.lcm(*(g.modulus for g in group.generators))  # every element's phases lie in mu_modulus
    if reflection_rep:
        if modulus != 1:
            raise ValueError("reflection projection only applies to phase-free (symmetric) groups")
        if group.degree < 2:
            raise ValueError("reflection representation needs degree >= 2")
    entries = []
    assigned: set[MonomialElement] = set()
    for g in _exceptional_candidates(group.degree, modulus):
        if g in assigned or g not in group:
            continue
        cls = conjugacy_class(g, group)
        assigned.update(cls)
        closure_order = _closure_order(cls, group.order)
        spec = _reported_spectrum(cls[0], reflection_rep)
        entries.append(
            ExceptionalClassEntry(
                representative=cls[0],
                class_size=len(cls),
                age=spec.age(),
                spectrum=spec,
                cycle_type=cls[0].cycle_type(),
                closure_order=closure_order,
                closure_index=group.order // closure_order,
                is_transposition=cls[0].is_transposition(),
            )
        )
    # by age, then (a stable sort) by the canonical order of the representatives
    entries = sorted(canonical(entries, lambda e: MonomialElement._values(e.representative)), key=attrgetter("age"))
    # The transposition law presumes a genuine line system (degree >= 2);
    # scalar groups on one line are exempt.
    violations = tuple(
        e for e in entries if group.degree >= 2 and e.closure_index == 1 and not e.is_transposition
    )
    return PropProdReport(group.degree, group.order, reflection_rep, tuple(entries), violations)

