"""Exhaustive oracles that cross-check the search kernels in the tests."""

import math
from fractions import Fraction

from reidtai.roots import RootOfUnity, unit_classes
from reidtai.options import MODES
from reidtai.search import MODE_VALUE_UNION, PairDecision, _decide_pair, min_halforbit_sum


def pair_feasible(a: int, b: int, f: int, mode: str = MODE_VALUE_UNION) -> PairDecision:
    """Decide feasibility of the value pair {e(a/f), e(b/f)}; requires 0 < a < b < f and a known mode."""
    if not 0 < a < b < f:
        raise ValueError("need 0 < a < b < f")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    alpha = RootOfUnity(a, f)
    beta = RootOfUnity(b, f)
    if alpha == 0 or beta == 0:
        raise ValueError("degenerate pair: a value reduces to 1")
    return _decide_pair((alpha, beta), mode)


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


def classify_pairs_per_pair(f_max: int, mode: str) -> tuple[PairDecision, ...]:
    """Second search path: one decision per candidate pair, no Galois orbits.

    Candidates are every unordered pair of distinct primitive values whose
    orders have half-orbit sum below 1 and lcm at most f_max, in order of
    that lcm, then of the pair.
    """
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
    classes = []
    for alpha, beta in sorted(candidates, key=lambda p: (math.lcm(p[0].order, p[1].order), p)):
        modulus = math.lcm(alpha.order, beta.order)
        a, b = (v.numerator * (modulus // v.order) for v in (alpha, beta))
        decision = pair_feasible(a, b, modulus, mode)
        if decision.feasible:
            classes.append(decision)
    return tuple(classes)
