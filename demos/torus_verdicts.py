#!/usr/bin/env python3
"""Kodaira verdicts for finite quotients of tori, by exact lattice arithmetic.

A finite group of affine automorphisms of R^n/Z^n acts with differential
equal to the integer linear part, so exceptional elements (age in (0,1)
with a fixed point) are detected exactly: cyclotomic factorization gives
the spectrum, Smith normal form decides the fixed-point congruence.  The
saturated sublattice spanned by their images, iterated through quotient
tori, decides: no exceptional elements means Kodaira dimension zero, a
chain that stabilizes below full rank means uniruled but not rationally
connected, and full rank means rationally connected.
"""

from fractions import Fraction

from reidtai.orders import simple_av_screen
from reidtai.torus import AffineTorusMap, closure, filtration

F = Fraction


def amap(linear, translation=None):
    if translation is None:
        translation = ["0"] * len(linear)
    return AffineTorusMap(tuple(tuple(r) for r in linear), tuple(F(t) for t in translation))


def report(name, *generators):
    action = closure(list(generators))
    rep = filtration(action)
    ranks = [s.rank for s in rep.chain]
    print(f"{name}:")
    print(f"  group order {action.order}, {len(rep.exceptional)} exceptional elements")
    print(f"  chain of saturated sublattice ranks: {ranks}")
    print(f"  verdict: {rep.verdict}\n")


report("Elliptic curve modulo the sign involution (E/{+-1} = P^1)",
       amap([[-1]]))

report("Abelian surface modulo the sign involution (Kummer surface)",
       amap([[-1, 0], [0, -1]]))

report("E^2 modulo the coordinate swap (E x P^1 up to finite data)",
       amap([[0, 1], [1, 0]]))

report("E^3 modulo permutations and the sign involution",
       amap([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
       amap([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
       amap([[-1, 0, 0], [0, -1, 0], [0, 0, -1]]))

report("E^2 modulo sign flips and the swap (Weyl group of type B2)",
       amap([[-1, 0], [0, 1]]),
       amap([[0, 1], [1, 0]]))

report("Free translation by a 2-torsion point (no fixed points anywhere)",
       amap([[1, 0], [0, 1]], ["1/2", "0"]))

report("Order-5 rotation block on a 4-torus (all ages equal 2)",
       amap([[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]]))

print("Same-order screen for simple quotients: which single-order spectra stay")
print("exceptional as the dimension grows?")
for dim in range(4, 9):
    rep = simple_av_screen(dim)
    extras = f"  (extra predicate orders: {rep.extra_survivors})" if rep.extra_survivors else ""
    print(f"  dim {dim}: {rep.survivors or 'none'}{extras}")
