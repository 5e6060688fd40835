"""Machine searches over Galois orbits of roots of unity.

Two searches, all exact:

* the pair classification: unordered pairs {e(a/f), e(b/f)} admitting a
  Galois section Sigma (Sigma together with its conjugate covering the
  whole unit group) whose twist values sum below 1;
* the enumeration of exceptional eigenvalue multisets built from those
  pairs.

The half-orbit sums that prune them, the order scan and the same-order
screen are in ``reidtai.orders``.

Two pair/multiset feasibility predicates are implemented.  The
``value-union`` mode sums the distinct values of the twist family; the
``orbit-sets`` mode deduplicates Galois twists as multisets, pairs the
survivors by conjugation, and sums the minimum age of each class (the
constraint a rational representation places on eigenvalue data).  Neither
predicate reproduces the published reference sets exactly, so every
search returns a conformance report whose extras carry machine-checkable
witnesses.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .options import MODE_ORBIT_SETS, MODE_VALUE_UNION, MODES
from .orders import ConformanceReport, _conformance, _halforbit_numerator
from .records import Record
from .roots import RootOfUnity, over_common_modulus, over_least_modulus, unit_classes

# The order scan's entry points stay bound here too: bench/tracer.py names
# them as ``reidtai.search`` attributes and wraps every namespace that binds them.
from .orders import feasible_orders, min_halforbit_sum

if TYPE_CHECKING:
    from .spectra import Spectrum

__all__ = [
    "AvOrbitResult",
    "MultisetEnumeration",
    "OrbitClass",
    "PairDecision",
    "SigmaWitness",
    "REFERENCE_MULTISETS",
    "REFERENCE_PAIRS",
    "MODE_ORBIT_SETS",
    "MODE_VALUE_UNION",
    "av_orbit_feasibility",
    "classify_pairs",
    "enumerate_exceptional_multisets",
]


def _r(a: int, d: int) -> RootOfUnity:
    return RootOfUnity(a, d)


# The fourteen labelled exceptional eigenvalue multisets (non-trivial parts).
REFERENCE_MULTISETS: tuple[tuple[str, tuple[RootOfUnity, ...]], ...] = (
    ("a", (_r(1, 6), _r(1, 3))),
    ("b", (_r(1, 6), _r(1, 6), _r(1, 3))),
    ("c", (_r(1, 6), _r(1, 6), _r(1, 6), _r(1, 3))),
    ("d", (_r(1, 6), _r(1, 3), _r(1, 3))),
    ("e", (_r(1, 6), _r(1, 2))),
    ("f", (_r(1, 6), _r(1, 6), _r(1, 2))),
    ("g", (_r(1, 6), _r(2, 3))),
    ("h", (_r(1, 3), _r(1, 2))),
    ("i", (_r(1, 8), _r(3, 8))),
    ("j", (_r(1, 8), _r(5, 8))),
    ("k", (_r(1, 12), _r(1, 4))),
    ("l", (_r(1, 12), _r(5, 12))),
    ("m", (_r(1, 4), _r(5, 12))),
    ("n", (_r(1, 12), _r(1, 4), _r(5, 12))),
)

# The nine Galois-section pairs are the two-value multisets; the triple is (n).
REFERENCE_PAIRS: tuple[tuple[RootOfUnity, RootOfUnity], ...] = tuple(
    vals for _, vals in REFERENCE_MULTISETS if len(vals) == 2
)
REFERENCE_TRIPLE: tuple[RootOfUnity, ...] = dict(REFERENCE_MULTISETS)["n"]


# ---------------------------------------------------------------------------
# Shared modulus
# ---------------------------------------------------------------------------
#
# The search kernels work on integer numerators over one modulus M, the lcm
# of the orders involved (``roots.over_common_modulus``): the value x/M is
# the int x, a Galois twist is u*x % M, conjugation is -x % M and "below 1"
# is "below M".  Over a fixed M the ints sort exactly as the fractions they
# stand for, so every sort, prune and tie-break gives what it gives on
# Fractions; Fraction and RootOfUnity objects are built only for what the
# kernels return, the roots by the trusted ``RootOfUnity._reduced``.  Each
# search asks only whether a sum is below 1, so each kernel stops at M: the
# value-union bound starts there, an orbit total outside (0, M) refutes a
# pair or multiset before any root is built, and a pair of orders whose
# half-orbit sums reach 1 is never searched.  The Galois twists of a
# multiset are walked in one place, ``_twist_classes``; a pair orbit is
# decided once, at its first member, and each member is reached from it by
# a least unit k.  The multisets are enumerated over one modulus L, the lcm
# of the orders of their bases.


# ---------------------------------------------------------------------------
# Orbit-sets feasibility (rational-representation constraint)
# ---------------------------------------------------------------------------


class OrbitClass(Record):
    """A conjugation class of distinct Galois-twist multisets."""

    members: tuple[tuple[RootOfUnity, ...], ...]
    min_age: Fraction
    chosen: tuple[RootOfUnity, ...]


class AvOrbitResult(Record):
    total: Fraction
    feasible: bool
    classes: tuple[OrbitClass, ...]
    modulus: int


def _twist_classes(scaled: Sequence[int], modulus: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """The conjugation classes of distinct Galois twists of the nonzero numerators ``scaled`` over M.

    Maps the smaller member t of each class {t, conjugate of t}, both
    sorted, to its conjugate, which is t itself when t is self-conjugate.
    Twisting by -u conjugates, so one unit u per conjugate pair reaches
    every class.
    """
    classes = {}
    for u, *_ in unit_classes(modulus).pairs:
        t = tuple(sorted(u * x % modulus for x in scaled))
        tbar = tuple(modulus - x for x in reversed(t))
        classes[min(t, tbar)] = max(t, tbar)
    return classes


def av_orbit_feasibility(values: Iterable) -> AvOrbitResult:
    """Sum, over conjugation classes of distinct Galois twists, of the class-minimal age.

    Distinct twist multisets are assumed to sit in distinct conjugate
    subrepresentations unless they are literally equal; conjugate twists
    share one class because only one of each conjugate pair contributes.
    Feasible means 0 < total < 1.
    """
    ms = tuple(sorted(v if isinstance(v, RootOfUnity) else RootOfUnity(Fraction(v)) for v in values))
    if not ms:
        raise ValueError("empty eigenvalue multiset")
    if any(v == 0 for v in ms):
        raise ValueError("multiset entries must be nonzero roots of unity")
    scaled, modulus = over_common_modulus(ms)
    twist_classes = sorted(_twist_classes(scaled, modulus).items())
    root = {x: RootOfUnity._reduced(x, modulus) for cls in twist_classes for t in cls for x in t}

    def lift(t: tuple[int, ...]) -> tuple[RootOfUnity, ...]:
        return tuple(root[x] for x in t)

    classes = []
    total = 0
    for t, tbar in twist_classes:
        members = (t,) if tbar == t else (t, tbar)
        ages = [sum(m) for m in members]
        min_age = min(ages)
        chosen = members[ages.index(min_age)]
        classes.append(OrbitClass(tuple(lift(m) for m in members), Fraction(min_age, modulus), lift(chosen)))
        total += min_age
    return AvOrbitResult(Fraction(total, modulus), 0 < total < modulus, tuple(classes), modulus)


def _orbit_total(scaled: Sequence[int], modulus: int) -> int:
    """M times the ``av_orbit_feasibility`` total of the nonzero numerators ``scaled`` over M."""
    return sum(min(sum(t), sum(tbar)) for t, tbar in _twist_classes(scaled, modulus).items())


# ---------------------------------------------------------------------------
# Value-union feasibility and the pair search
# ---------------------------------------------------------------------------


class SigmaWitness(Record):
    """A Galois section: chosen unit residues covering every conjugate pair."""

    modulus: int
    chosen_residues: tuple[int, ...]


def _value_union_minimum(alpha: RootOfUnity, beta: RootOfUnity):
    """Least sum(distinct twist values) over covering Galois sections if below 1, else None.

    Branch-and-bound over one side per conjugate pair of units; the union
    only grows along a branch, so pruning at the current best is sound.
    A twist value x/M is the int x, and the union is a bitmask of them.
    Sides u and -u give the same value set exactly when b = -a; a second
    copy of a side could never beat the first, so only the smaller u is
    kept, and a conjugate pair {a, -a} is one path instead of 2^pairs leaves.

    The bound starts at M, the sum 1.  The walk order is fixed and a branch
    is pruned at >= the bound, so the search keeps the first leaf in that
    order with the least sum S: no leaf before it and no prefix of its path
    reaches S.  So any start bound above S, the unbounded search's included,
    gives the same leaf, section and values; when S >= 1 no leaf is reached.
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
    best_sum = modulus
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
    if best_sum == modulus:
        return None
    witness = SigmaWitness(modulus, tuple(sorted(set(best_units))))
    values = tuple(RootOfUnity._reduced(x, modulus) for x in range(modulus) if best_mask >> x & 1)
    return Fraction(best_sum, modulus), witness, values


class PairDecision(Record):
    pair: tuple[RootOfUnity, RootOfUnity]
    mode: str
    feasible: bool
    minimal_sum: Fraction
    witness: SigmaWitness | None = None
    values: tuple[RootOfUnity, ...] | None = None
    orbit: AvOrbitResult | None = None

    def to_json(self) -> dict:
        """The ``pair-<mode>`` witness that ``verify-witness`` re-checks."""
        payload = {
            "kind": f"pair-{self.mode}",
            "pair": [str(v) for v in self.pair],
            "feasible": self.feasible,
            "minimal_sum": str(self.minimal_sum),
        }
        if self.witness is not None:
            payload["sigma"] = self.witness.to_json()
            payload["values"] = [str(v) for v in self.values]
        if self.orbit is not None:
            payload["orbit"] = self.orbit.to_json()
        return payload


def _pair_candidates(f_max: int) -> list[tuple[int, int, int]]:
    """Each candidate pair a/M < b/M as (M, a, b), M the lcm of its orders; sorted."""
    # A covering section's alpha-values meet every conjugate pair of
    # primitive d_alpha-th roots, so they sum to at least the half-orbit sum
    # h(d_alpha)/d_alpha, and the beta-values to at least h(d_beta)/d_beta.
    # Values of different orders are distinct, so for d_alpha != d_beta the
    # value union, and the orbit-sets total likewise, is at least the sum of
    # both.  A pair of orders reaching 1 there, or one order reaching 1
    # alone, is refuted in both modes before any search.
    half = {d: h for d in range(2, f_max + 1) if (h := _halforbit_numerator(d)) < d}
    feasible_d = list(half)
    units = {d: unit_classes(d).units for d in feasible_d}
    out = set()
    for i, da in enumerate(feasible_d):
        for db in feasible_d[i:]:
            modulus = math.lcm(da, db)
            if modulus > f_max:
                continue
            if da != db and half[da] * (modulus // da) + half[db] * (modulus // db) >= modulus:
                continue
            xs = [u * (modulus // da) for u in units[da]]
            ys = [u * (modulus // db) for u in units[db]]
            out.update((modulus, min(x, y), max(x, y)) for x in xs for y in ys if x != y)
    return sorted(out)


def _galois_orbits(candidates: Sequence[tuple[int, int, int]]) -> list[list[tuple[int, int]]]:
    """Partition the candidates into orbits of the units mod M, each member as (position, k).

    Members are in ascending position; k is the least unit that twists the
    orbit's first member onto the member, so the first entry has k = 1.
    Twisting keeps the orders, so the candidate list is closed under it.
    """
    position = {c: i for i, c in enumerate(candidates)}
    orbits = []
    assigned = set()
    for i, (modulus, a, b) in enumerate(candidates):
        if i in assigned:
            continue
        members: dict[int, int] = {}
        for k in unit_classes(modulus).units:
            members.setdefault(position[(modulus, *sorted((k * a % modulus, k * b % modulus)))], k)
        assigned.update(members)
        orbits.append(sorted(members.items()))
    return orbits


def _feasible_orbits(f_max: int, mode: str) -> Iterator[tuple[list[tuple[tuple[int, int, int], int]], object]]:
    """Each Galois orbit of candidate pairs that passes the mode predicate, decided at its first member.

    Yields the members as ((M, a, b), k), k as in ``_galois_orbits``, with
    the first member's result: its ``AvOrbitResult`` in orbit-sets mode, the
    (sum, section, values) of ``_value_union_minimum`` in value-union mode.
    """
    candidates = _pair_candidates(f_max)
    for orbit in _galois_orbits(candidates):
        modulus, a, b = candidates[orbit[0][0]]
        if mode == MODE_ORBIT_SETS and not 0 < _orbit_total((a, b), modulus) < modulus:
            continue  # refuted from ints, before any root is built
        pair = RootOfUnity._reduced(a, modulus), RootOfUnity._reduced(b, modulus)
        found = av_orbit_feasibility(pair) if mode == MODE_ORBIT_SETS else _value_union_minimum(*pair)
        if found is not None:
            yield [(candidates[i], k) for i, k in orbit], found


def classify_pairs(
    f_max: int = 126, mode: str = MODE_VALUE_UNION
) -> tuple[tuple[PairDecision, ...], ConformanceReport]:
    """All distinct reduced value pairs with lcm of orders <= f_max passing the mode predicate.

    For a unit k, the covering sections of {k*alpha, k*beta} are the sections k^-1*S for the
    covering sections S of {alpha, beta}, with the same value union and twist set.  So one
    decision per Galois orbit, at its first member, decides all its members: each member takes
    that sum, orbit result or value union, and a value-union member the section k^-1*S.
    """
    if f_max < 2:
        raise ValueError("f_max must be at least 2")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    decisions = []
    for members, found in _feasible_orbits(f_max, mode):
        for (modulus, a, b), k in members:
            pair = RootOfUnity._reduced(a, modulus), RootOfUnity._reduced(b, modulus)
            if mode == MODE_ORBIT_SETS:
                decision = PairDecision(pair, mode, True, found.total, orbit=found)
            else:
                total, sigma, values = found
                inverse = pow(k, -1, modulus)
                section = SigmaWitness(modulus, tuple(sorted(inverse * u % modulus for u in sigma.chosen_residues)))
                decision = PairDecision(pair, mode, True, total, witness=section, values=values)
            decisions.append(((modulus, a, b), decision))
    classes = tuple(d for _, d in sorted(decisions, key=lambda item: item[0]))
    computed = tuple(c.pair for c in classes)
    by_pair = {c.pair: c for c in classes}
    expected = tuple(p for p in REFERENCE_PAIRS if math.lcm(p[0].order, p[1].order) <= f_max)
    report = _conformance(expected, computed, lambda p: by_pair[p].to_json())
    return classes, report


# ---------------------------------------------------------------------------
# Exceptional multiset enumeration
# ---------------------------------------------------------------------------


class MultisetEnumeration(Record):
    mode: str
    multisets: tuple[Spectrum, ...]
    conformance: ConformanceReport
    refutations: tuple[tuple[Spectrum, Fraction], ...] = ()

    def to_json(self) -> dict:
        payload = super().to_json()
        payload["refutations"] = [{"multiset": s, "orbit_total": total} for s, total in payload["refutations"]]
        return payload


def _multiplicity_variants(scaled: Sequence[int], modulus: int) -> list[tuple[int, ...]]:
    """All multisets of the numerators over M using every one at least once with total below M.

    Each comes as a tuple in the order of ``scaled``, so ascending numerators give sorted tuples.
    """
    out = []
    k = len(scaled)

    def rec(i: int, current: tuple[int, ...], acc: int):
        if i == k:
            out.append(current)
            return
        x = scaled[i]
        rest = sum(scaled[i + 1:])
        mult = 1
        while acc + mult * x + rest < modulus:
            rec(i + 1, current + (x,) * mult, acc + mult * x)
            mult += 1

    rec(0, (), 0)
    return out


def _multiset_candidates(f_max: int) -> tuple[list[tuple[int, ...]], int]:
    """The candidate multisets as sorted numerator tuples over one modulus L, in (size, values) order, and L.

    Their bases are the value-union pairs with lcm of orders <= f_max and the
    reference triple; L is the lcm of the bases' orders.  Over one L the ints
    sort, dedupe and sum as the fractions they stand for.
    """
    bases = {base for members, _ in _feasible_orbits(f_max, MODE_VALUE_UNION) for base, _ in members}
    triple, triple_modulus = over_common_modulus(REFERENCE_TRIPLE)
    bases.add((triple_modulus, *triple))
    modulus = math.lcm(*(base[0] for base in bases))
    candidates = set()
    for base_modulus, *xs in bases:
        candidates.update(_multiplicity_variants([x * (modulus // base_modulus) for x in xs], modulus))
    return sorted(candidates, key=lambda t: (len(t), t)), modulus


def enumerate_exceptional_multisets(mode: str = MODE_VALUE_UNION, f_max: int = 126) -> MultisetEnumeration:
    """Eigenvalue multisets with >= 2 distinct non-trivial values consistent with age < 1.

    Values are drawn from the classified pairs (value-union predicate) or
    the reference triple, each value appearing at least once, total sum
    below 1.  In orbit-sets mode the multisets must additionally pass the
    av_orbit_feasibility test, read from the integer orbit total over the
    multiset's own lcm of orders; every candidate it excludes is returned
    with its refutation total (>= 1).
    """
    from .spectra import Spectrum  # only here, so the pair search does not load the spectra module

    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if f_max < 2:
        raise ValueError("f_max must be at least 2")
    candidates, modulus = _multiset_candidates(f_max)
    kept = candidates
    refuted = []
    orbit_totals: dict[tuple[int, ...], tuple[int, int]] = {}  # M times the total, over the multiset's own M
    if mode == MODE_ORBIT_SETS:
        kept = []
        for ms in candidates:
            scaled, own = over_least_modulus(ms, modulus)
            total = _orbit_total(scaled, own)
            orbit_totals[ms] = total, own
            (kept if 0 < total < own else refuted).append(ms)

    root = {x: RootOfUnity._reduced(x, modulus) for x in {x for ms in candidates for x in ms}}

    def lift(ms: tuple[int, ...]) -> tuple[RootOfUnity, ...]:
        return tuple(root[x] for x in ms)

    lifted = {lift(ms): ms for ms in kept}
    expected = tuple(tuple(sorted(vals)) for _, vals in REFERENCE_MULTISETS)

    def witness(values: tuple[RootOfUnity, ...]) -> dict:
        ms = lifted[values]
        payload = {
            "kind": "multiset",
            "values": [str(v) for v in values],
            "sum": str(Fraction(sum(ms), modulus)),
        }
        if mode == MODE_ORBIT_SETS:
            payload["orbit_total"] = str(Fraction(*orbit_totals[ms]))
        return payload

    report = _conformance(expected, tuple(lifted), witness)
    return MultisetEnumeration(
        mode,
        tuple(Spectrum(values) for values in lifted),
        report,
        tuple((Spectrum(lift(ms)), Fraction(*orbit_totals[ms])) for ms in refuted),
    )
