"""Exhaustive oracles that cross-check the search kernels in the tests."""

from fractions import Fraction

from reidtai.roots import unit_classes


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
