#!/usr/bin/env python3
"""The machine searches: feasible orders, pair classification, multisets.

Every search diffs its output against the published reference set and
returns a conformance report whose extras carry re-checkable witnesses.
Two feasibility predicates are available: the literal value-union test
and the stricter orbit-sets test that models the constraint a rational
representation imposes on Galois twists.
"""

from reidtai.orders import feasible_orders, table1
from reidtai.search import (
    MODE_ORBIT_SETS,
    MODE_VALUE_UNION,
    av_orbit_feasibility,
    classify_pairs,
    enumerate_exceptional_multisets,
)

print("Minimal half-orbit sums (one representative per conjugate pair):")
print(f"  {'n':>3} {'count':>5}  {'values':<22} mean")
for row in table1():
    print(f"  {row.n:>3} {row.half_count:>5}  {', '.join(str(v) for v in row.values):<22} {row.mean}")

print("\nOrders whose minimal half-orbit sum stays below 1 (bound 372):")
orders, report = feasible_orders(372)
print(f"  computed: {orders}")
print(f"  beyond the confirmed set: {[d for d, _ in report.extras]}")
for d, witness in report.extras:
    print(f"    d={d}: representatives {witness['representatives']} sum {witness['sum']}")

print("\nPair classification, value-union predicate (f_max 126):")
classes, creport = classify_pairs(126, MODE_VALUE_UNION)
print(f"  {len(classes)} feasible pairs; all nine reference pairs present: {creport.missing == ()}")
print(f"  {len(creport.extras)} extras, e.g.:")
for item, witness in creport.extras[:4]:
    print(f"    {{{', '.join(str(v) for v in item)}}}: sigma {witness['sigma']['chosen_residues']} "
          f"-> values {witness['values']} sum {witness['minimal_sum']}")

print("\nThe orbit-sets predicate is stricter; it refutes two reference pairs at exactly 1:")
oclasses, oreport = classify_pairs(126, MODE_ORBIT_SETS)
for pair in oreport.missing:
    result = av_orbit_feasibility(pair)
    print(f"  {{{', '.join(str(v) for v in pair)}}}: twist-class total {result.total}")

print("\nA multiplicity refutation: {1/8, 1/8, 3/8} is outlawed by its twin twist class:")
result = av_orbit_feasibility(["1/8", "1/8", "3/8"])
for cls in result.classes:
    print(f"  class {[list(map(str, m)) for m in cls.members]} min age {cls.min_age}")
print(f"  total {result.total} -> feasible: {result.feasible}")

print("\nExceptional multiset enumeration:")
literal = enumerate_exceptional_multisets(MODE_VALUE_UNION)
orbit = enumerate_exceptional_multisets(MODE_ORBIT_SETS)
print(f"  value-union mode: {len(literal.multisets)} multisets "
      f"(all fourteen labelled entries present: {literal.conformance.missing == ()})")
print(f"  orbit-sets mode:  {len(orbit.multisets)} multisets, "
      f"{len(orbit.refutations)} refuted candidates")
print("  multisets surviving the orbit-sets screen:")
for s in orbit.multisets:
    print(f"    {{{', '.join(s.to_json())}}}  sum {s.age()}")
