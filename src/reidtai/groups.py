"""The one group-closure engine, held-group form and canonical order, shared by the monomial and torus groups.

Both group kinds are extensions 1 -> K -> G -> H -> 1 of a head group H by
an abelian kernel K: a monomial group over its permutations with the
diagonal phases as kernel, an affine torus group over its linear parts
with the translations as kernel.  Only this module reads an element's
record fields as its coset form (head, numerators, modulus).  ``extension``
closes a group by Dimino's coset algorithm over the heads (G. Butler,
*Fundamental Algorithms for Permutation Groups*, LNCS 559, 1991) and keeps
K as a span of vectors in (Z/m)^n; ``Held`` lists a group held as its lifts
and K coset by coset.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import attrgetter
from typing import Callable, Collection, Iterable, Sequence

__all__ = ["GroupTooLargeError", "Held", "canonical", "coset", "extension"]


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


def _difference(y, t, m: int) -> list[int]:
    """The defect of y and t over one head (see ``extension``): y's numerators minus t's, over m."""
    _, ky, my = type(y)._values(y)
    _, kt, mt = type(t)._values(t)
    fy, ft = m // my, m // mt
    return [a * fy - b * ft for a, b in zip(ky, kt)]


def extension(
    elements: Iterable, identity, act: Callable, m: int, n: int, bound: int
) -> tuple[list, _KernelSpan, tuple] | None:
    """The group G the elements generate, as (lifts, kernel, used); None once it has more than bound members.

    An element needs ``compose``, and its record fields are its coset form
    (head, numerators, modulus), the head its hashable image in H.  The
    defect of y and t over one head is the difference of their numerators
    over m: the translation of y * t^-1 for torus maps, the phases of
    t^-1 * y for monomial ones.  act(s, v) is the vector of s v s^-1.  G is
    the union of the cosets lift * K, one lift per head, and
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
    its defect puts r * s in t * K = K * t (K normal), t = lift(h' * head(r'))
    = lift(h') * r', and lift(h) * s = lift(h'') * r * s lies in
    lift(h'') * lift(h') * r' * K, inside lift(h'' h') * r' * K =
    lift(h'' h' head(r')) * K = lift(h * head(s)) * K.  An element s over a
    known head lies in t * K with t a lift, by its defect, and
    lift(h) * s lies in lift(h) * t * K = lift(h * head(t)) * K.  So S is a
    finite set closed under the used elements, hence a group (each s^-1 is a
    power of s), and S = G with |G| = len(lifts) * |K|.
    """
    head = attrgetter(type(identity)._fields[0])
    lifts = {head(identity): identity}
    span = _KernelSpan(n, m)
    used: list = []
    full = m**n
    for c in elements:
        t = lifts.get(head(c))
        if t is not None and not span.add(_difference(c, t, m)):
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
                        span.add(_difference(y, t, m))
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


def coset(t, vectors: list[list[int]], m: int) -> list[list[int]]:
    """The numerators over m of the members of t * K, sorted, for the vectors of K: t's numerators plus each vector."""
    _, numerators, mt = type(t)._values(t)
    f = m // mt
    base = [k * f for k in numerators]
    return sorted([(b + x) % m for b, x in zip(base, v)] for v in vectors)


class Held:
    """A group held as ``extension`` gives it: ``lifts``, one per head, sorted by head, and the ``kernel`` K.

    ``hold`` sets both outside the record fields, so ``==``, ``hash`` and ``repr`` never read them.  ``order``
    is |lifts| * |K|; ``elements`` lists the cosets t * K over the sorted lifts, in canonical order, when first read.
    """

    def hold(self, lifts: Iterable, kernel: _KernelSpan):
        """Set the lifts, sorted by head, and the kernel; returns the group."""
        object.__setattr__(self, "lifts", tuple(sorted(lifts, key=lambda t: type(t)._values(t)[0])))
        object.__setattr__(self, "kernel", kernel)
        return self

    @property
    def order(self) -> int:
        return len(self.lifts) * self.kernel.order

    @cached_property
    def elements(self) -> tuple:
        vectors, m = self.kernel.vectors(), self.kernel.m
        return tuple(t._trusted(t._values(t)[0], nums, m) for t in self.lifts for nums in coset(t, vectors, m))


def canonical(elements: Collection, parts: Callable) -> tuple:
    """The elements sorted by (head, k/m for each numerator k), where parts(g) = (head, numerators, m).

    Both element kinds order their fields that way, so parts is the class's field getter ``_values``.

    This is the one canonical order of both element kinds; a held group of either kind lists the same
    order coset by coset, over its sorted lifts, without this sort.  It builds no Fraction: values k/m in
    [0, 1) compare like the ints k * (L // m), L the lcm of the moduli present.
    """
    lcm = math.lcm(*{parts(g)[2] for g in elements})

    def key(g):
        head, numerators, m = parts(g)
        f = lcm // m
        return head, tuple([k * f for k in numerators])

    return tuple(sorted(elements, key=key))
