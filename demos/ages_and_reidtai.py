#!/usr/bin/env python3
"""Ages of finite-order elements and the Reid-Tai condition.

A finite-order linear map with eigenvalues e(r_1), ..., e(r_n)
(0 <= r_i < 1) has age r_1 + ... + r_n.  A group action passes the
Reid-Tai test when no element has age strictly between 0 and 1; the
elements that fail it ("exceptional" elements) are exactly what makes a
quotient singularity non-canonical.
"""

from fractions import Fraction

from reidtai import Spectrum, satisfies_rt

F = Fraction


def show(s, note=""):
    print(f"  {{{', '.join(s.to_json())}}}  age {s.age()}  exceptional: {s.is_exceptional()}  {note}")


print("Single pseudoreflections are the canonical failures:")
show(Spectrum([F(1, 2)]), "(a reflection in dimension 1)")
show(Spectrum([0, 0, F(1, 2)]), "(a reflection in dimension 3)")

print("\nThe sign involution in dimension 2 passes (age exactly 1):")
show(Spectrum([F(1, 2), F(1, 2)]), "(the Kummer involution)")

print("\nAn order-7 action on a 3-dimensional space with CM by the 7th roots:")
base = Spectrum([F(1, 7), F(2, 7), F(3, 7)])
powers = [base.power(k) for k in range(1, 7)]
for k, p in enumerate(powers, start=1):
    show(p, f"(power {k})")
print(f"  whole cyclic group satisfies Reid-Tai: {satisfies_rt(powers)}")
print("  The generator itself is exceptional (age 6/7): the quotient is")
print("  uniruled, in fact rationally connected.")

print("\nAges come with exact arithmetic; powers wrap exactly:")
s = Spectrum([F(1, 8), F(5, 8), 0])
show(s)
show(s.power(2), "(square: the swap block becomes a diagonal quarter-turn)")

print("\nArc widths are exact; Blichfeldt's bound for primitive groups is pi/3:")
tight = Spectrum([0, F(1, 6)])
print(f"  {{1, e(1/6)}} spans an arc of {tight.arc_width():.6f} rad = pi/3")
