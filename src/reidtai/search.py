"""Machine searches over Galois orbits of roots of unity.

Four searches, all exact:

* feasible eigenvalue orders: the d for which a choice of one
  representative from each conjugate pair {u, d-u} of units keeps the
  total rotation below 1;
* the pair classification: unordered pairs {e(a/f), e(b/f)} admitting a
  Galois section Sigma (Sigma together with its conjugate covering the
  whole unit group) whose twist values sum below 1;
* the enumeration of exceptional eigenvalue multisets built from those
  pairs;
* the same-order screen: minimal age of a multiset of primitive n-th
  roots that is a disjoint union of half-orbit and full-orbit blocks,
  and that screen over the feasible orders in one dimension.

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
from typing import Iterable, Sequence

from .options import MODE_ORBIT_SETS, MODE_VALUE_UNION, MODES
from .records import Record
from .roots import RootOfUnity, over_common_modulus, unit_classes
from .spectra import Spectrum

__all__ = [
    "AvOrbitResult",
    "ConformanceReport",
    "MultisetEnumeration",
    "OrbitClass",
    "PairDecision",
    "SigmaWitness",
    "SimpleAvScreenReport",
    "Table1Row",
    "CONFIRMED_ORDERS",
    "REFERENCE_MULTISETS",
    "REFERENCE_PAIRS",
    "TABLE1_ORDERS",
    "MODE_ORBIT_SETS",
    "MODE_VALUE_UNION",
    "av_orbit_feasibility",
    "classify_pairs",
    "enumerate_exceptional_multisets",
    "feasible_orders",
    "min_age_same_order",
    "min_halforbit_sum",
    "simple_av_screen",
    "table1",
]


# Published reference data the searches are diffed against.
CONFIRMED_ORDERS: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 18)
TABLE1_ORDERS: tuple[int, ...] = (3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 18)


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
# Conformance reporting
# ---------------------------------------------------------------------------


class ConformanceReport(Record):
    """Diff of a computed set against its published reference set.

    ``extras`` pairs each surplus item with a witness dict that
    ``verify-witness`` can re-check; the JSON lists them under ``extra``
    as ``{"item", "witness"}`` objects.
    """

    expected: tuple
    computed: tuple
    missing: tuple
    extras: tuple  # of (item, witness-dict)

    def to_json(self) -> dict:
        payload = super().to_json()
        payload["extra"] = [{"item": x, "witness": w} for x, w in payload.pop("extras")]
        return payload


def _conformance(expected: Sequence, computed: Sequence, witness_of) -> ConformanceReport:
    expected = tuple(expected)
    computed = tuple(computed)
    expected_set = set(expected)
    computed_set = set(computed)
    missing = tuple(x for x in expected if x not in computed_set)
    extras = tuple((x, witness_of(x)) for x in computed if x not in expected_set)
    return ConformanceReport(expected, computed, missing, extras)


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
# pair or multiset before any root is built, and an order is tested by its
# half-orbit numerator in closed form.  The Galois twists of a multiset are
# walked in one place, ``_twist_classes``; a pair orbit is decided once, at
# its first member, and each member is reached from it by a least unit k.


# ---------------------------------------------------------------------------
# Half-orbit sums and the order scan
# ---------------------------------------------------------------------------


def _halforbit_numerator(d: int) -> int:
    """d * min_halforbit_sum(d)[0], the sum of the units u <= d/2, in closed form.

    By Moebius inversion over the squarefree divisors e of d it is sum(mu(e) * e * k(k+1)/2), k = d // 2e.
    """
    signed = [1]  # mu(e) * e for each squarefree divisor e
    n, p = d, 2
    while p * p <= n:
        if n % p == 0:
            signed += [-e * p for e in signed]
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        signed += [-e * n for e in signed]
    twice = 0
    for e in signed:
        k = d // (2 * abs(e))
        twice += e * k * (k + 1)
    return twice // 2


def min_halforbit_sum(d: int) -> tuple[Fraction, tuple[int, ...]]:
    """Minimal sum of one representative u/d per conjugate pair {u, d-u}: the units u <= d/2."""
    if d < 2:
        raise ValueError(f"modulus must be at least 2, got {d}")
    reps = tuple(u for u in range(1, d // 2 + 1) if math.gcd(u, d) == 1)
    return Fraction(sum(reps), d), reps


class Table1Row(Record):
    n: int
    half_count: int
    values: tuple[RootOfUnity, ...]
    mean: Fraction


def table1() -> tuple[Table1Row, ...]:
    """Minimal half-orbit representatives and their means, one row per listed order."""
    rows = []
    for n in TABLE1_ORDERS:
        total, reps = min_halforbit_sum(n)
        values = tuple(_r(u, n) for u in reps)
        rows.append(Table1Row(n, len(reps), values, total / len(reps)))
    return tuple(rows)


def feasible_orders(d_max: int = 372) -> tuple[tuple[int, ...], ConformanceReport]:
    """All d <= d_max whose minimal half-orbit sum is below 1, with conformance."""
    if d_max < 2:
        raise ValueError("d_max must be at least 2")
    computed = tuple(d for d in range(2, d_max + 1) if _halforbit_numerator(d) < d)

    def witness(d: int) -> dict:
        total, reps = min_halforbit_sum(d)
        return {"kind": "order", "d": d, "representatives": list(reps), "sum": str(total)}

    expected = tuple(d for d in CONFIRMED_ORDERS if d <= d_max)
    return computed, _conformance(expected, computed, witness)


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
    # Any covering section's alpha-part already contains one of each
    # conjugate pair of primitive d_alpha-th values, so its sum alone is
    # >= min_halforbit_sum(d_alpha); the orbit-sets total obeys the same
    # bound.  Orders with half-orbit sum >= 1 therefore never occur.
    feasible_d = [d for d in range(2, f_max + 1) if _halforbit_numerator(d) < d]
    units = {d: unit_classes(d).units for d in feasible_d}
    out = set()
    for i, da in enumerate(feasible_d):
        for db in feasible_d[i:]:
            modulus = math.lcm(da, db)
            if modulus > f_max:
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
    candidates = _pair_candidates(f_max)

    def pair(i: int) -> tuple[RootOfUnity, RootOfUnity]:
        modulus, a, b = candidates[i]
        return RootOfUnity._reduced(a, modulus), RootOfUnity._reduced(b, modulus)

    decisions = {}
    for orbit in _galois_orbits(candidates):
        first = orbit[0][0]
        modulus, a, b = candidates[first]
        if mode == MODE_ORBIT_SETS:
            # An orbit total outside (0, M) refutes the orbit from ints, before any root is built.
            if 0 < _orbit_total((a, b), modulus) < modulus:
                result = av_orbit_feasibility(pair(first))
                decisions.update((i, PairDecision(pair(i), mode, True, result.total, orbit=result)) for i, _ in orbit)
        elif found := _value_union_minimum(*pair(first)):
            total, sigma, values = found
            for i, k in orbit:
                inverse = pow(k, -1, modulus)
                section = SigmaWitness(modulus, tuple(sorted(inverse * u % modulus for u in sigma.chosen_residues)))
                decisions[i] = PairDecision(pair(i), mode, True, total, witness=section, values=values)
    classes = tuple(d for _, d in sorted(decisions.items()))
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


def _multiplicity_variants(values: tuple[RootOfUnity, ...]) -> list[tuple[RootOfUnity, ...]]:
    """All multisets using every listed value at least once with total sum < 1."""
    scaled, modulus = over_common_modulus(values)
    out = []
    k = len(values)

    def rec(i: int, current: list, acc: int):
        if i == k:
            out.append(tuple(current))
            return
        v, x = values[i], scaled[i]
        rest = sum(scaled[i + 1:])
        mult = 1
        while acc + mult * x + rest < modulus:
            rec(i + 1, current + [v] * mult, acc + mult * x)
            mult += 1

    rec(0, [], 0)
    return out


def enumerate_exceptional_multisets(mode: str = MODE_VALUE_UNION, f_max: int = 126) -> MultisetEnumeration:
    """Eigenvalue multisets with >= 2 distinct non-trivial values consistent with age < 1.

    Values are drawn from the classified pairs (value-union predicate) or
    the reference triple, each value appearing at least once, total sum
    below 1.  In orbit-sets mode the multisets must additionally pass the
    av_orbit_feasibility test, read from the integer orbit total; every
    candidate it excludes is returned with its refutation total (>= 1).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    classes, _ = classify_pairs(f_max, MODE_VALUE_UNION)
    bases = {c.pair for c in classes}
    bases.add(REFERENCE_TRIPLE)
    candidates = []
    for base in sorted(bases, key=lambda b: (len(b), b)):
        candidates.extend(_multiplicity_variants(base))
    candidates = sorted(set(candidates), key=lambda t: (len(t), t))

    kept: list[tuple[RootOfUnity, ...]] = []
    refuted: list[tuple[Spectrum, Fraction]] = []
    orbit_totals: dict[tuple, Fraction] = {}
    if mode == MODE_VALUE_UNION:
        kept = candidates
    else:
        for ms in candidates:
            scaled, modulus = over_common_modulus(ms)
            total = _orbit_total(scaled, modulus)
            orbit_totals[ms] = Fraction(total, modulus)
            if 0 < total < modulus:
                kept.append(ms)
            else:
                refuted.append((Spectrum(ms), orbit_totals[ms]))

    expected = tuple(tuple(sorted(vals)) for _, vals in REFERENCE_MULTISETS)

    def witness(ms: tuple) -> dict:
        payload = {
            "kind": "multiset",
            "values": [str(v) for v in ms],
            "sum": str(sum(ms, Fraction(0))),
        }
        if mode == MODE_ORBIT_SETS:
            payload["orbit_total"] = str(orbit_totals[ms])
        return payload

    report = _conformance(expected, tuple(kept), witness)
    return MultisetEnumeration(
        mode,
        tuple(Spectrum(ms) for ms in kept),
        report,
        tuple(refuted),
    )


# ---------------------------------------------------------------------------
# Same-order minimal-age screen
# ---------------------------------------------------------------------------


def min_age_same_order(n: int, dim: int) -> Fraction | None:
    """Minimal age of dim primitive n-th roots forming half-/full-orbit blocks.

    A half-orbit block takes the cheaper representative of every conjugate
    pair; a full-orbit block takes all primitive roots.  Returns None when
    dim is not a non-negative combination of the two block sizes.
    """
    if n < 2:
        raise ValueError("order must be at least 2")
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    classes = unit_classes(n)
    half_size = len(classes.pairs)
    half_sum = Fraction(_halforbit_numerator(n), n)
    full_size = len(classes.units)
    full_sum = Fraction(sum(classes.units), n)
    best = None
    for b in range(dim // full_size + 1):
        rem = dim - b * full_size
        if rem % half_size:
            continue
        age = (rem // half_size) * half_sum + b * full_sum
        if best is None or age < best:
            best = age
    return best


class SimpleAvScreenReport(Record):
    dim: int
    survivors: dict[int, Fraction]
    extra_survivors: dict[int, Fraction]
    scanned_orders: tuple[int, ...]
    extra_orders: tuple[int, ...]


def simple_av_screen(dim: int, d_max: int = 372) -> SimpleAvScreenReport:
    """Which same-order eigenvalue configurations stay exceptional in a given dimension.

    The headline scan runs over the confirmed order set; orders that the
    literal half-orbit predicate additionally admits are screened
    separately so their survivors are visible but clearly marked.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    computed, _ = feasible_orders(d_max)
    extra_orders = tuple(d for d in computed if d not in CONFIRMED_ORDERS)

    def scan(orders: Iterable[int]) -> dict[int, Fraction]:
        found = {}
        for order in orders:
            age = min_age_same_order(order, dim)
            if age is not None and 0 < age < 1:
                found[order] = age
        return found

    return SimpleAvScreenReport(
        dim=dim,
        survivors=scan(CONFIRMED_ORDERS),
        extra_survivors=scan(extra_orders),
        scanned_orders=CONFIRMED_ORDERS,
        extra_orders=extra_orders,
    )
