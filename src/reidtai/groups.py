"""The one subgroup-closure routine and canonical order, shared by the monomial and torus groups.

Dimino's coset algorithm (G. Butler, *Fundamental Algorithms for
Permutation Groups*, LNCS 559, 1991).  An element needs nothing but
``compose`` (the group product) and hashing.
"""

from __future__ import annotations

import math
from typing import Callable, Collection, Iterable

__all__ = ["GroupTooLargeError", "canonical", "generate"]


class GroupTooLargeError(RuntimeError):
    """Closure exceeded the configured cap: group too large or infinite."""

    @classmethod
    def over_cap(cls, cap: int) -> "GroupTooLargeError":
        return cls(f"group too large or infinite: cap {cap} exceeded")


def generate(elements: Iterable, identity, cap: int) -> tuple[list, tuple]:
    """Members of the group generated by the elements, and the elements used.

    An element already in the subgroup H built so far is skipped, so the
    used ones are irredundant; a new one grows H into a union of right
    cosets H*r, and only the representatives r meet the generators.
    Raises GroupTooLargeError as soon as the member count would exceed cap.
    """
    members = [identity]
    seen = {identity}
    used = []
    for c in elements:
        if c in seen:
            continue
        used.append(c)
        subgroup = members.copy()
        reps = [identity]
        for r in reps:  # grows while it is walked
            for s in used:
                y = r.compose(s)
                if y in seen:
                    continue
                if len(members) + len(subgroup) > cap:
                    raise GroupTooLargeError.over_cap(cap)
                coset = [h.compose(y) for h in subgroup]
                members.extend(coset)
                seen.update(coset)
                reps.append(y)
    return members, tuple(used)


def canonical(elements: Collection, parts: Callable) -> tuple:
    """The elements sorted by (head, k/m for each numerator k), where parts(g) = (head, numerators, m).

    Both element kinds order their fields that way, so parts is the class's field getter ``_values``.

    This is the ``sort_key`` order of both element kinds, without building a Fraction: values k/m
    in [0, 1) compare like the ints k * (L // m), L the lcm of the moduli present.
    """
    lcm = math.lcm(*{parts(g)[2] for g in elements})

    def key(g):
        head, numerators, m = parts(g)
        f = lcm // m
        return head, tuple([k * f for k in numerators])

    return tuple(sorted(elements, key=key))
