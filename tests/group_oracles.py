"""Dimino's algorithm over whole elements: the reference for ``groups.extension`` in the tests.

Dimino's coset algorithm (G. Butler, *Fundamental Algorithms for
Permutation Groups*, LNCS 559, 1991).  An element needs nothing but
``compose`` (the group product) and hashing.
"""

from typing import Iterable

from reidtai.groups import GroupTooLargeError


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
