"""Re-check a conformance witness from its definition, in `Fraction` arithmetic and importing no engine.

The work is bounded by the witness: the checks stop at the first conjugate pair of units the residues
miss, and at more Galois twists, or a larger orbit total, than the witness claims.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .options import MODE_ORBIT_SETS, MODE_VALUE_UNION

__all__ = ["UnknownKindError", "covers_conjugate_pairs", "verify"]


class UnknownKindError(Exception):
    pass


def covers_conjugate_pairs(d: int, residues) -> bool:
    """Whether the residues are units in (0, d) meeting every conjugate pair {u, d-u} of units, u <= d/2."""
    if not isinstance(d, int) or d < 2:
        raise ValueError(f"modulus must be at least 2, got {d!r}")
    chosen = set(residues)
    if any(math.gcd(u, d) != 1 or not 0 < u < d for u in chosen):
        return False
    return all(u in chosen or d - u in chosen for u in range(1, d // 2 + 1) if math.gcd(u, d) == 1)


def _orbit_breakdown(values: list[Fraction], max_twists=math.inf, max_total=math.inf) -> tuple[Fraction, dict] | None:
    """The orbit-sets total and the ``orbit`` object of its witness, from the definition.

    Distinct Galois twists of the multiset, as sorted tuples in ascending order, fall into conjugation
    classes (the twists by k and -k); each lists its members, its minimal age and the first member of
    that age.  The total sums the minimal ages.  None once there are more than ``max_twists`` twists
    or the total passes ``max_total``.
    """
    values = [v % 1 for v in values]
    if not values or 0 in values:
        raise ValueError("orbit-sets values must be nonzero roots of unity")
    modulus = math.lcm(*(v.denominator for v in values))
    classes = {}  # by smallest member
    twists, total = 0, Fraction(0)
    for k in (k for k in range(1, modulus) if math.gcd(k, modulus) == 1):
        members = tuple(sorted({tuple(sorted(sign * k * v % 1 for v in values)) for sign in (1, -1)}))
        if members[0] in classes:
            continue
        ages = [sum(m, Fraction(0)) for m in members]
        min_age = min(ages)
        classes[members[0]] = {"members": [[str(v) for v in m] for m in members], "min_age": str(min_age),
                               "chosen": [str(v) for v in members[ages.index(min_age)]]}
        twists, total = twists + len(members), total + min_age
        if twists > max_twists or total > max_total:
            return None
    rows = [classes[t] for t in sorted(classes)]
    return total, {"total": str(total), "feasible": 0 < total < 1, "modulus": modulus, "classes": rows}


def verify(payload: dict) -> tuple[bool, str]:
    """(ok, message) for a witness; raises UnknownKindError for an unknown kind, a built-in error if malformed."""
    kind = payload.get("kind")
    if kind == "order":
        d, reps, total = payload["d"], payload["representatives"], Fraction(payload["sum"])
        if not covers_conjugate_pairs(d, reps):
            return False, "representatives are not units in (0, d) covering every conjugate pair"
        actual = sum((Fraction(u, d) for u in reps), Fraction(0))
        if actual != total:
            return False, f"sum mismatch: recomputed {actual}"
        return actual < 1, f"sum {actual} {'<' if actual < 1 else '>='} 1"
    if kind == f"pair-{MODE_VALUE_UNION}":
        pair = [Fraction(v) % 1 for v in payload["pair"]]
        sigma = payload["sigma"]
        chosen = set(sigma["chosen_residues"])
        if not covers_conjugate_pairs(sigma["modulus"], chosen):
            return False, "sigma residues are not units in (0, modulus) covering every conjugate pair"
        values = sorted({k * v % 1 for k in chosen for v in pair})
        if [str(v) for v in values] != payload["values"]:
            return False, "expanded value set mismatch"
        total = sum(values, Fraction(0))
        if str(total) != payload["minimal_sum"]:
            return False, f"sum mismatch: recomputed {total}"
        if payload["feasible"] != (total < 1):
            return False, "feasibility flag inconsistent with the sum"
        return True, f"value union sums to {total}"
    if kind == f"pair-{MODE_ORBIT_SETS}":
        listed = sum(len(c["members"]) for c in payload["orbit"]["classes"])
        if (breakdown := _orbit_breakdown([Fraction(v) for v in payload["pair"]], max_twists=listed)) is None:
            return False, f"orbit classes list {listed} twists, but the pair has more"
        total, orbit = breakdown
        if str(total) != payload["minimal_sum"]:
            return False, f"orbit total mismatch: recomputed {total}"
        if payload["feasible"] != (0 < total < 1):
            return False, "feasibility flag inconsistent with the orbit total"
        for key, value in orbit.items():
            if payload["orbit"][key] != value:
                return False, f"orbit {key} does not match the recomputation"
        return True, f"orbit total {total}"
    if kind == "multiset":
        values = [Fraction(v) for v in payload["values"]]
        total = sum(values, Fraction(0))
        if str(total) != payload["sum"]:
            return False, f"sum mismatch: recomputed {total}"
        if not all(0 < v < 1 for v in values):
            return False, "values must lie in (0, 1)"
        if len(set(values)) < 2:
            return False, "need at least two distinct values"
        if total >= 1:
            return False, f"sum {total} >= 1"
        if "orbit_total" in payload:
            claimed = Fraction(payload["orbit_total"])
            if (breakdown := _orbit_breakdown(values, max_total=claimed)) is None:
                return False, f"orbit total mismatch: recomputed more than {claimed}"
            orbit_total, _ = breakdown
            if str(orbit_total) != payload["orbit_total"]:
                return False, f"orbit total mismatch: recomputed {orbit_total}"
            if not 0 < orbit_total < 1:
                return False, f"orbit total {orbit_total} outside (0, 1)"
        return True, f"sum {total}"
    raise UnknownKindError(f"unknown witness kind {kind!r}")
