"""Exhaustive oracles that cross-check the search kernels in the tests."""

import math
from fractions import Fraction

from reidtai.roots import RootOfUnity, over_common_modulus, unit_classes
from reidtai.options import MODES
from reidtai.orders import min_halforbit_sum
from reidtai.search import (
    MODE_VALUE_UNION,
    REFERENCE_TRIPLE,
    PairDecision,
    SigmaWitness,
    av_orbit_feasibility,
)


def value_union_minimum(alpha: RootOfUnity, beta: RootOfUnity):
    """Exact minimum of sum(distinct twist values) over covering Galois sections, at or above 1 too.

    The unbounded form of ``search._value_union_minimum``: the same walk and
    prune, started at a bound above any sum of distinct residues mod M, so
    it always reaches a leaf.  Sides u and -u give the same value set
    exactly when b = -a; only the smaller u is kept.
    """
    (a, b), modulus = over_common_modulus((alpha, beta))
    options = []
    for pair in unit_classes(modulus).pairs:
        sides: dict[frozenset[int], int] = {}
        for u in pair:  # smaller unit first
            sides.setdefault(frozenset((u * a % modulus, u * b % modulus)), u)
        options.append(sorted((sum(vals), u, tuple((x, 1 << x) for x in vals)) for vals, u in sides.items()))
    options.sort(key=lambda sides: (-sides[0][0], sides[0][1]))

    depth = len(options)
    best_sum = modulus * modulus  # above any sum of distinct residues mod M
    best_units: tuple[int, ...] = ()
    best_mask = 0
    chosen: list[int] = []

    def rec(i: int, mask: int, acc_sum: int):
        nonlocal best_sum, best_units, best_mask
        if acc_sum >= best_sum:
            return
        if i == depth:
            best_sum, best_units, best_mask = acc_sum, tuple(chosen), mask
            return
        for _, u, vals in options[i]:
            new_mask, new_sum = mask, acc_sum
            for x, bit in vals:
                if not new_mask & bit:
                    new_mask |= bit
                    new_sum += x
            chosen.append(u)
            rec(i + 1, new_mask, new_sum)
            chosen.pop()

    rec(0, 0, 0)
    witness = SigmaWitness(modulus, tuple(sorted(set(best_units))))
    values = tuple(RootOfUnity(x, modulus) for x in range(modulus) if best_mask >> x & 1)
    return Fraction(best_sum, modulus), witness, values


def pair_feasible(a: int, b: int, f: int, mode: str = MODE_VALUE_UNION) -> PairDecision:
    """Decide the value pair {e(a/f), e(b/f)}, with its exact minimal sum even when infeasible.

    Requires 0 < a < b < f and a known mode.
    """
    if not 0 < a < b < f:
        raise ValueError("need 0 < a < b < f")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    pair = (RootOfUnity(a, f), RootOfUnity(b, f))
    if 0 in pair:
        raise ValueError("degenerate pair: a value reduces to 1")
    if mode == MODE_VALUE_UNION:
        total, witness, values = value_union_minimum(*pair)
        return PairDecision(pair, mode, total < 1, total, witness=witness, values=values)
    orbit = av_orbit_feasibility(pair)
    return PairDecision(pair, mode, orbit.feasible, orbit.total, orbit=orbit)


def subset_min_sum(d: int) -> Fraction:
    """Second search path: exhaustive minimum over all representative choices."""
    classes = unit_classes(d)
    best = None
    pairs = classes.pairs
    choices = [[Fraction(u, d) for u in (pair if len(pair) == 2 else pair * 2)] for pair in pairs]

    def rec(i: int, acc: Fraction):
        nonlocal best
        if best is not None and acc >= best:
            return
        if i == len(choices):
            best = acc
            return
        for val in choices[i]:
            rec(i + 1, acc + val)

    rec(0, Fraction(0))
    return best


def pair_candidates(f_max: int) -> list[tuple[RootOfUnity, RootOfUnity]]:
    """Every unordered pair of distinct primitive values whose orders have half-orbit sum below 1 and lcm at most
    f_max, in order of that lcm, then of the pair.  No bound on the two orders together prunes them."""
    orders = [d for d in range(2, f_max + 1) if min_halforbit_sum(d)[0] < 1]
    primitive = {d: [RootOfUnity(u, d) for u in unit_classes(d).units] for d in orders}
    candidates = {
        tuple(sorted((alpha, beta)))
        for da in orders
        for db in orders
        if math.lcm(da, db) <= f_max
        for alpha in primitive[da]
        for beta in primitive[db]
        if alpha != beta
    }
    return sorted(candidates, key=lambda p: (math.lcm(p[0].order, p[1].order), p))


def classify_pairs_per_pair(f_max: int, mode: str) -> tuple[PairDecision, ...]:
    """Second search path: one decision per candidate pair of ``pair_candidates``, no Galois orbits."""
    classes = []
    for alpha, beta in pair_candidates(f_max):
        modulus = math.lcm(alpha.order, beta.order)
        a, b = (v.numerator * (modulus // v.order) for v in (alpha, beta))
        decision = pair_feasible(a, b, modulus, mode)
        if decision.feasible:
            classes.append(decision)
    return tuple(classes)


def multiplicity_variants(values: tuple[RootOfUnity, ...]) -> list[tuple[RootOfUnity, ...]]:
    """All multisets using every listed value at least once with total sum < 1, over the values' own modulus."""
    scaled, modulus = over_common_modulus(values)
    out = []
    k = len(values)

    def rec(i: int, current: list, acc: int):
        if i == k:
            out.append(tuple(current))
            return
        v, x = values[i], scaled[i]
        rest = sum(scaled[i + 1:])
        mult = 1
        while acc + mult * x + rest < modulus:
            rec(i + 1, current + [v] * mult, acc + mult * x)
            mult += 1

    rec(0, [], 0)
    return out


def multiplicity_variants_reference(values: tuple[RootOfUnity, ...]) -> list[tuple[RootOfUnity, ...]]:
    """``multiplicity_variants`` carried out on Fraction values."""
    out = []
    k = len(values)

    def rec(i, current, acc):
        if i == k:
            out.append(tuple(current))
            return
        v = values[i]
        rest = sum(values[i + 1:], Fraction(0))
        mult = 1
        while acc + mult * v + rest < 1:
            rec(i + 1, current + [v] * mult, acc + mult * v)
            mult += 1

    rec(0, [], Fraction(0))
    return out


def multisets_reference(pairs, mode: str):
    """Second enumeration path: the multisets on the given value-union pairs and the reference triple, as roots.

    Each base's variants come over the base's own modulus; every orbit total
    is read from ``av_orbit_feasibility``.  Returns the candidates in (size,
    values) order, the kept ones, and each refuted one with its orbit total.
    """
    bases = {tuple(pair) for pair in pairs} | {REFERENCE_TRIPLE}
    candidates = sorted({ms for base in bases for ms in multiplicity_variants(base)}, key=lambda t: (len(t), t))
    if mode == MODE_VALUE_UNION:
        return candidates, candidates, []
    kept, refuted = [], []
    for ms in candidates:
        total = av_orbit_feasibility(ms).total
        if 0 < total < 1:
            kept.append(ms)
        else:
            refuted.append((ms, total))
    return candidates, kept, refuted
