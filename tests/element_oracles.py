"""Element operations that only the tests need, written from the elements' public fields.

``sort_key`` is the canonical order with ``Fraction`` values, the
reference for ``groups.canonical``.  ``apply`` is the fixed-point check of
an affine torus map, and ``trace_magnitude`` checks the magnitudes of the
``table2.json`` reference cells.
"""

import math
from fractions import Fraction

from lattice_oracles import unimodular_inverse

from reidtai.lattice import mat_vec
from reidtai.monomial import MonomialElement, monomial_identity
from reidtai.roots import over_common_modulus
from reidtai.torus import AffineTorusMap, affine_identity


def from_phases(permutation, phases) -> MonomialElement:
    """(permutation) * diag(e(phase)) for rational phases."""
    nums, m = over_common_modulus([Fraction(p) for p in phases])
    return MonomialElement(tuple(permutation), tuple(nums), m)


def is_identity(g) -> bool:
    if isinstance(g, MonomialElement):
        return g == monomial_identity(g.degree)
    return g == affine_identity(g.rank)


def sort_key(g) -> tuple:
    """(permutation, phases) of a monomial element, (linear, translation) of a torus map."""
    if isinstance(g, MonomialElement):
        return g.permutation, g.phases
    return g.linear, g.translation


def apply(g: AffineTorusMap, x) -> tuple[Fraction, ...]:
    """g(x) mod Z^n."""
    return tuple(
        (sum(Fraction(c) * Fraction(v) for c, v in zip(row, x)) + t) % 1 for row, t in zip(g.linear, g.translation)
    )


def inverse(g: AffineTorusMap) -> AffineTorusMap:
    minv = unimodular_inverse(g.linear)
    return AffineTorusMap(minv, [-Fraction(x, g.denominator) for x in mat_vec(minv, g.numerators)])


def trace_magnitude(spectrum) -> float:
    """|sum of e(r)| in double precision."""
    re = math.fsum(math.cos(2 * math.pi * v.numerator / v.denominator) for v in spectrum.values)
    im = math.fsum(math.sin(2 * math.pi * v.numerator / v.denominator) for v in spectrum.values)
    return math.hypot(re, im)
