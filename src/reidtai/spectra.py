"""Eigenvalue multisets of finite-order elements.

A finite-order linear map has eigenvalues e(r_1), ..., e(r_n) with
0 <= r_i < 1; its age is the exact rational r_1 + ... + r_n.  An element
is exceptional when 0 < age < 1, and a collection of elements satisfies
the Reid-Tai condition when none of them is exceptional.  Ages, powers
and arc widths in turns are exact; only the arc width in radians goes
through floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator

from .records import Record
from .roots import RootOfUnity

__all__ = [
    "Spectrum",
    "satisfies_rt",
]


class Spectrum(Record):
    """A finite multiset of roots of unity: the eigenvalue data of one element.

    Values are kept as a sorted tuple (multiplicity by repetition), which is
    also the JSON serialization order.
    """

    __slots__ = ("values",)
    values: tuple[RootOfUnity, ...]

    def __init__(self, values: Iterable):
        vals = tuple(sorted(v if isinstance(v, RootOfUnity) else RootOfUnity(Fraction(v)) for v in values))
        if not vals:
            raise ValueError("a spectrum needs at least one eigenvalue")
        object.__setattr__(self, "values", vals)

    def __iter__(self) -> Iterator[RootOfUnity]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self):
        return "Spectrum([%s])" % ", ".join(str(v) for v in self.values)

    @property
    def dimension(self) -> int:
        return len(self.values)

    def age(self) -> Fraction:
        """Exact sum of the fractional rotation numbers."""
        return sum(self.values, Fraction(0))

    def is_exceptional(self) -> bool:
        """True iff 0 < age < 1."""
        a = self.age()
        return 0 < a < 1

    def power(self, k: int) -> "Spectrum":
        """Eigenvalues of the k-th power: each r maps to k*r mod 1, so power(-1) is the complex conjugate."""
        return Spectrum(RootOfUnity(k * v.numerator, v.denominator) for v in self.values)

    def arc_width_turns(self) -> Fraction:
        """Shortest closed arc containing all eigenvalues, in turns (exact)."""
        distinct = sorted(set(self.values))
        if len(distinct) == 1:
            return Fraction(0)
        gaps = [distinct[i + 1] - distinct[i] for i in range(len(distinct) - 1)]
        gaps.append(1 + distinct[0] - distinct[-1])
        return 1 - max(gaps)

    def arc_width(self) -> float:
        """Shortest closed arc containing all eigenvalues, in radians."""
        return 2 * math.pi * float(self.arc_width_turns())

    def to_json(self) -> list[str]:
        return [str(v) for v in self.values]


def satisfies_rt(elements: Iterable[Spectrum]) -> bool:
    """Reid-Tai condition for a set of non-identity element spectra: no member is exceptional."""
    return not any(s.is_exceptional() for s in elements)

