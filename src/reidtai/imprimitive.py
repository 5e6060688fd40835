"""The imprimitive case analysis: which line-swapping elements could be exceptional.

A line-swapping exceptional element of an imprimitive group has the
eigenvalues e(r) and e(r + 1/2), so r comes from the classified pairs;
its square stabilizes every line, and the square test eliminates every
candidate but the reflection -1, 1, ..., 1.  Only ``imprimitive-cases``
loads this module.
"""

from __future__ import annotations

from fractions import Fraction

from .records import Record
from .roots import RootOfUnity
from .spectra import Spectrum

__all__ = ["CaseRecord", "imprimitive_case_candidates", "imprimitive_classification"]


class CaseRecord(Record):
    label: str
    swap_value: RootOfUnity
    extra: RootOfUnity | None
    spectrum: Spectrum
    square_spectrum: Spectrum
    square_age: Fraction
    eliminated: bool
    reason: str


def imprimitive_case_candidates() -> tuple[tuple[RootOfUnity, RootOfUnity | None], ...]:
    """Candidate (swap eigenvalue r, optional extra diagonal eigenvalue) pairs.

    A line-swapping exceptional element contributes eigenvalues e(r) and
    e(r + 1/2), so {r, r + 1/2} must be a classified pair with sum < 1
    (giving r = 1/6 and r = 1/8) or the pair {1, -1} (r = 0).  For r = 0
    an extra diagonal eigenvalue v is allowed when {1/2, v} is itself a
    classified pair.
    """
    from .search import REFERENCE_PAIRS

    half = Fraction(1, 2)
    swap_rs = [RootOfUnity(0)]
    extras: list[RootOfUnity] = []
    for pair in REFERENCE_PAIRS:
        lo, hi = pair
        if hi - lo == half and lo + hi < 1:
            swap_rs.append(lo)
        if hi == half:
            extras.append(lo)
        if lo == half:
            extras.append(hi)
    candidates: list[tuple[RootOfUnity, RootOfUnity | None]] = [(RootOfUnity(0), None)]
    for v in sorted(extras):
        candidates.append((RootOfUnity(0), v))
    for r in sorted(swap_rs):
        if r != 0:
            candidates.append((r, None))
    return tuple(candidates)


def imprimitive_classification() -> tuple[CaseRecord, ...]:
    """Candidate line-swapping exceptional elements and the square test.

    The square of a line-swapper stabilizes every line; if that square is
    still exceptional it would itself have to swap lines, a contradiction.
    The only candidate surviving the test is the reflection -1, 1, ..., 1.
    """
    records = []
    for idx, (r, extra) in enumerate(imprimitive_case_candidates()):
        values = [r, RootOfUnity(r + Fraction(1, 2))]
        if extra is not None:
            values.append(extra)
        values.append(RootOfUnity(0))  # one representative fixed line
        spec = Spectrum(values)
        square = spec.power(2)
        square_age = square.age()
        eliminated = square.is_exceptional()
        if eliminated:
            reason = "square is exceptional but stabilizes all lines"
        else:
            reason = "survives: reflection with eigenvalues -1, 1, ..., 1"
        records.append(
            CaseRecord(
                label=chr(ord("A") + idx),
                swap_value=r,
                extra=extra,
                spectrum=spec,
                square_spectrum=square,
                square_age=square_age,
                eliminated=eliminated,
                reason=reason,
            )
        )
    return tuple(records)
