#!/usr/bin/env python3
"""Imprimitive monomial groups and the transposition law.

G(m, p, n) is the group of n x n monomial matrices with phases in the
m-th roots of unity whose phase product lies in the (m/p)-th roots.
Scanning them shows the structure of their exceptional elements: in a
group generated by the conjugacy class of an exceptional element, that
element's permutation part must be a transposition.
"""

from reidtai.imprimitive import imprimitive_classification
from reidtai.monomial import g_group, normal_closure, prop_prod_check

for (m, p, n) in [(1, 1, 4), (2, 1, 3), (3, 1, 2), (4, 4, 2)]:
    group = g_group(m, p, n)
    report = prop_prod_check(group)
    print(f"G({m},{p},{n}): order {group.order}")
    for e in report.entries:
        kind = "transposition" if e.is_transposition else "diagonal"
        print(f"  exceptional class of size {e.class_size}: age {e.age}, {kind}, "
              f"normal closure has index {e.closure_index}")
    print(f"  transposition-law violations: {len(report.violations)}\n")

print("S4 in its reflection representation (trivial summand removed):")
report = prop_prod_check(g_group(1, 1, 4), reflection_rep=True)
for e in report.entries:
    print(f"  spectrum {{{', '.join(e.spectrum.to_json())}}} in dimension {e.spectrum.dimension}")

print("\nNormal closures distinguish reflection subgroups:")
b3 = g_group(2, 1, 3)
swap = next(g for g in b3.elements if g.is_transposition() and g.modulus == 1)
diag = next(g for g in b3.elements if g.permutation == (0, 1, 2) and g.modulus == 2)
print(f"  closure of a plain transposition in G(2,1,3): order {normal_closure(swap, b3).order} (index 2)")
print(f"  closure of a diagonal sign flip:              order {normal_closure(diag, b3).order} (the diagonal)")

print("\nWhich line-swapping elements can be exceptional at all?  The square test:")
for record in imprimitive_classification():
    extra = f" + extra e({record.extra})" if record.extra is not None else ""
    status = "eliminated (square is an exceptional diagonal)" if record.eliminated else "SURVIVES"
    print(f"  swap eigenvalues e({record.swap_value}), e({record.swap_value}+1/2){extra}: "
          f"square age {record.square_age} -> {status}")
print("The lone survivor is the honest reflection -1, 1, ..., 1: imprimitive")
print("groups violating Reid-Tai are reflection groups.")
