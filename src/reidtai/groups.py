"""The one group-closure engine and canonical order, shared by the monomial and torus groups.

Both group kinds are extensions 1 -> K -> G -> H -> 1 of a head group H by
an abelian kernel K: a monomial group over its permutations with the
diagonal phases as kernel, an affine torus group over its linear parts
with the translations as kernel.  ``extension`` closes such a group by
Dimino's coset algorithm over the heads (G. Butler, *Fundamental
Algorithms for Permutation Groups*, LNCS 559, 1991), and keeps K as a
span of vectors in (Z/m)^n.
"""

from __future__ import annotations

import math
from typing import Callable, Collection, Iterable, Sequence

__all__ = ["GroupTooLargeError", "canonical", "extension"]


class GroupTooLargeError(RuntimeError):
    """Closure exceeded the configured cap: group too large or infinite."""

    @classmethod
    def over_cap(cls, cap: int) -> "GroupTooLargeError":
        return cls(f"group too large or infinite: cap {cap} exceeded")


class _KernelSpan:
    """The subgroup of (Z/m)^n that the added vectors span.

    The rows are an upper-triangular basis of the lattice Λ + m Z^n, Λ the
    span of the vectors: row i is zero before column i, has a divisor of
    m at column i and entries in [0, m) after it, and starts as m e_i.
    An added vector is reduced row by row and, where the pivot does not
    divide its entry, swapped in by an extended gcd; what is left of it
    moves on to the later rows.  The subgroup has order m^n / prod(pivots).
    """

    __slots__ = ("rows", "m", "order")

    def __init__(self, n: int, m: int):
        self.rows = [[m if j == i else 0 for j in range(n)] for i in range(n)]
        self.m = m
        self.order = 1

    def add(self, vector: Sequence[int]) -> bool:
        """Add the vector; True if the span grew."""
        m, rows = self.m, self.rows
        v = [x % m for x in vector]
        changed = False
        for i, row in enumerate(rows):
            a = v[i]
            if not a:
                continue
            b = row[i]
            if a % b:  # x*b + y*a = g = gcd(a, b) becomes the pivot
                g = math.gcd(a, b)
                y = pow(a // g, -1, b // g)
                x = (g - y * a) // b
                rows[i] = [(x * r + y * w) % m for r, w in zip(row, v)]
                v = [((b // g) * w - (a // g) * r) % m for r, w in zip(row, v)]
                changed = True
            else:
                q = a // b
                v = [(w - q * r) % m for r, w in zip(row, v)]
        if changed:
            self.order = m ** len(rows) // math.prod(row[i] for i, row in enumerate(rows))
        return changed

    def vectors(self) -> list[list[int]]:
        """Every member, once: sum c_i * row_i mod m over 0 <= c_i < m / pivot_i (distinct by triangularity)."""
        m = self.m
        out = [[0] * len(self.rows)]
        for i, row in enumerate(self.rows):
            out = [[(x + c * r) % m for x, r in zip(v, row)] for c in range(m // row[i]) for v in out]
        return out


def extension(
    elements: Iterable, identity, head: Callable, defect: Callable, act: Callable, m: int, n: int, bound: int
) -> tuple[list, _KernelSpan, tuple] | None:
    """The group G the elements generate, as (lifts, kernel, used); None once it has more than bound members.

    An element needs ``compose`` (the group product).  head(g) is its
    hashable image in H; defect(y, t), for y and t over one head, is the
    vector in (Z/m)^n of y * t^-1 in K; act(s, v) is the vector of s v s^-1.
    G is the union of the cosets lift * K, one lift per head, and
    |G| = len(lifts) * kernel.order.  An element already in the group built
    so far is skipped, so the used ones are irredundant, as in Dimino's
    algorithm over whole elements.

    The walk.  A new element c over a new head grows the head group H_old
    into right cosets H_old * r; the representatives r meet every used s.
    The lift of h * head(y), for h in H_old and a new representative y, is
    lift(h) * y.  A product r * s that lands on a known head t adds
    defect(r * s, t) to the span.  An element over a known head is used
    only if its defect grows the span.  After each element, the span K is
    closed under act by the used elements, so K is normal in G (K is finite,
    so conjugation by s^-1 maps K onto K too).

    Proof that S = lifts * K is G.  Every lift is a product of used
    elements and every kernel vector is a product of such, so S lies in G.
    S holds the identity, and it is closed under right multiplication by
    each used s: lift(h) * k * s = lift(h) * s * k' with k' in K, so it is
    enough that (*) lift(h) * s lies in lift(h * head(s)) * K.  By
    induction over the Dimino layers, assume (*) for the heads and used
    elements of the earlier layers.  Then lifts multiply correctly up to K:
    lift(b) is an exact product of used elements s_1 ... s_j, and applying
    (*) j times, K normal, gives lift(a) * lift(b) in lift(ab) * K.  Now
    take h = h'' * head(r) in the new layer, with h'' in H_old and r a
    representative, so lift(h) = lift(h'') * r.  If r * s is a new
    representative y, lift(h) * s = lift(h'' * head(y)) exactly.  Otherwise
    r * s = d * lift(h' * head(r')) = d * lift(h') * r' with d in K, and
    lift(h) * s = lift(h'') * d * lift(h') * r' lies in
    lift(h'' h') * r' * K = lift(h'' h' head(r')) * K = lift(h * head(s)) * K.
    An element s over a known head is d * t with t a lift, and
    lift(h) * d * t lies in lift(h) * t * K = lift(h * head(t)) * K.  So S
    is a finite set closed under the used elements, hence a group (each
    s^-1 is a power of s), and S = G with |G| = len(lifts) * |K|.
    """
    lifts = {head(identity): identity}
    span = _KernelSpan(n, m)
    used: list = []
    full = m**n
    for c in elements:
        t = lifts.get(head(c))
        if t is not None and not span.add(defect(c, t)):
            continue
        used.append(c)
        if t is None:
            subgroup = list(lifts.values())
            reps = [identity]
            for r in reps:  # grows while it is walked
                for s in used:
                    y = r.compose(s)
                    t = lifts.get(head(y))
                    if t is None:
                        for x in subgroup:
                            z = x.compose(y)
                            lifts[head(z)] = z
                        reps.append(y)
                    elif span.order < full:
                        span.add(defect(y, t))
                    if len(lifts) * span.order > bound:
                        return None
        order = 1
        while order < span.order < full:  # a pass that leaves the order unchanged leaves every row's image in K
            order = span.order
            for s in used:
                for row in span.rows.copy():
                    span.add(act(s, row))
        if len(lifts) * span.order > bound:
            return None
    return list(lifts.values()), span, tuple(used)


def canonical(elements: Collection, parts: Callable) -> tuple:
    """The elements sorted by (head, k/m for each numerator k), where parts(g) = (head, numerators, m).

    Both element kinds order their fields that way, so parts is the class's field getter ``_values``.

    This is the one canonical order of both element kinds.  It builds no Fraction: values k/m in
    [0, 1) compare like the ints k * (L // m), L the lcm of the moduli present.
    """
    lcm = math.lcm(*{parts(g)[2] for g in elements})

    def key(g):
        head, numerators, m = parts(g)
        f = lcm // m
        return head, tuple([k * f for k in numerators])

    return tuple(sorted(elements, key=key))
