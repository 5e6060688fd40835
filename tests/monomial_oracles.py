"""Listing oracles that cross-check the monomial scan in the tests.

``listing_scan`` is a second path to ``prop_prod_check``: it lists the
group, computes the age of every element from its cycles, and closes each
exceptional class with ``group_oracles.generate``.  ``compose_class`` is a
second path to ``conjugacy_class``: it conjugates with two ``compose`` calls.
``g_group_listing`` is a second path to the elements of a G(m, p, n): every
permutation times every phase vector, with no closure.
``span_order`` is a second path to the phase span: it adds vectors in
(Z/m)^n until the set is closed.
"""

from itertools import permutations, product

from element_oracles import sort_key
from group_oracles import generate
from reidtai.groups import canonical
from reidtai.monomial import (
    ExceptionalClassEntry,
    MonomialElement,
    PropProdReport,
    monomial_identity,
    spectrum_of,
)
from reidtai.roots import RootOfUnity, over_least_modulus
from reidtai.spectra import Spectrum


def compose_class(g, group) -> tuple:
    """The orbit of g under conjugation by the group's generators, each conjugate h * g * h^-1 by ``compose``."""
    gens = [(h, h.inverse()) for h in group.generators]
    seen = {g}
    frontier = [g]
    while frontier:
        new = []
        for x in frontier:
            for h, hinv in gens:
                y = h.compose(x).compose(hinv)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return canonical(seen, MonomialElement._values)


def g_group_listing(m: int, p: int, n: int) -> tuple:
    """The elements of G(m, p, n) in canonical order: every permutation, then every phase vector with sum 0 mod p."""
    phases = [over_least_modulus(ks, m) for ks in product(range(m), repeat=n) if sum(ks) % p == 0]
    return tuple(MonomialElement._trusted(s, *ks) for s in permutations(range(n)) for ks in phases)


def listing_scan(group, reflection_rep: bool = False) -> PropProdReport:
    """The report of ``prop_prod_check``, from every element of the listed group."""
    if reflection_rep:
        if any(g.modulus != 1 for g in group.elements):
            raise ValueError("reflection projection only applies to phase-free (symmetric) groups")
        if group.degree < 2:
            raise ValueError("reflection representation needs degree >= 2")
    exceptional = []
    for g in group.elements:
        m, k = g.modulus, g.phase_numerators
        twice_age_times_m = sum(2 * (sum(k[j] for j in c) % m) + m * (len(c) - 1) for c in g.cycles())
        if 0 < twice_age_times_m < 2 * m:
            exceptional.append(g)
    entries = []
    assigned = set()
    for g in exceptional:
        if g in assigned:
            continue
        cls = compose_class(g, group)
        assigned.update(cls)
        closure_order = len(generate(cls, monomial_identity(group.degree), group.order)[0])
        spec = spectrum_of(cls[0])
        if reflection_rep:
            values = list(spec.values)
            values.remove(RootOfUnity(0))
            spec = Spectrum(values)
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
    entries.sort(key=lambda e: (e.age, sort_key(e.representative)))
    violations = tuple(
        e for e in entries if group.degree >= 2 and e.closure_index == 1 and not e.is_transposition
    )
    return PropProdReport(group.degree, group.order, reflection_rep, tuple(entries), violations)


def span_order(vectors, n: int, m: int) -> int:
    """The order of the subgroup of (Z/m)^n that the vectors generate, by closing under addition."""
    gens = [tuple(x % m for x in v) for v in vectors]
    members = {(0,) * n}
    frontier = list(members)
    while frontier:
        new = []
        for x in frontier:
            for v in gens:
                y = tuple((a + b) % m for a, b in zip(x, v))
                if y not in members:
                    members.add(y)
                    new.append(y)
        frontier = new
    return len(members)
