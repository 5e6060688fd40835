"""Exact arithmetic for roots of unity.

A root of unity e(x) := exp(2*pi*i*x) is stored as its exact rotation
number, a reduced fraction a/d in [0, 1).  The multiplicative order of
e(a/d) is the reduced denominator d, the Galois group acting on the d-th
roots of unity is the unit group (Z/dZ)^x, and complex conjugation pairs
each unit u with d - u.  Everything here is arbitrary-precision integer
arithmetic; no floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .records import Record

__all__ = [
    "RootOfUnity",
    "UnitClasses",
    "euler_phi",
    "over_common_modulus",
    "over_least_modulus",
    "unit_classes",
]


class RootOfUnity(Fraction):
    """The root of unity e(a/d) as the reduced fraction a/d in [0, 1).

    Immutable and hashable; equality is structural equality of reduced
    fractions, so multisets of roots deduplicate exactly.  Serializes as
    the string str(Fraction), e.g. "5/18", with integers rendered bare
    ("0" for the trivial root).
    """

    __slots__ = ()

    def __new__(cls, numerator=0, denominator=None):
        if denominator is None:
            value = Fraction(numerator)
        else:
            value = Fraction(numerator, denominator)
        return super().__new__(cls, value % 1)

    @classmethod
    def _reduced(cls, x: int, d: int) -> RootOfUnity:
        """e(x/d) for ints 0 <= x < d, reduced by their gcd without Fraction's parsing and normalisation."""
        g = math.gcd(x, d)
        root = object.__new__(cls)
        root._numerator, root._denominator = x // g, d // g
        return root

    @property
    def order(self) -> int:
        """Multiplicative order of e(a/d): the reduced denominator."""
        return self.denominator


def over_common_modulus(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Each value's numerator over M, and the lcm M of the values' denominators."""
    modulus = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (modulus // v.denominator) for v in values], modulus


def over_least_modulus(numerators: Iterable[int], m: int) -> tuple[tuple[int, ...], int]:
    """The numerators k/m mod 1 as numerators in [0, m') over the least modulus m' dividing m."""
    nums = [k % m for k in numerators]
    g = math.gcd(m, *nums)
    if g > 1:
        return tuple([k // g for k in nums]), m // g
    return tuple(nums), m


def euler_phi(d: int) -> int:
    if d < 1:
        raise ValueError(f"phi undefined for {d}")
    result = d
    n = d
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


class UnitClasses(Record):
    """Units modulo d grouped into complex-conjugation pairs {u, d-u}.

    A self-paired unit (u == d-u, which happens only for d = 2) is stored
    as the 1-tuple (u,).
    """

    modulus: int
    units: tuple[int, ...]
    pairs: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def unit_classes(d: int) -> UnitClasses:
    """Partition the units mod d into conjugation pairs; requires d >= 2."""
    if d < 2:
        raise ValueError(f"modulus must be at least 2, got {d}")
    units = tuple(u for u in range(1, d) if math.gcd(u, d) == 1)
    pairs = []
    for u in units:
        v = d - u
        if u < v:
            pairs.append((u, v))
        elif u == v:
            pairs.append((u,))
    return UnitClasses(d, units, tuple(pairs))
