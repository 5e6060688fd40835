"""Seeded affine torus actions for the torus-quotient workload.

Every input is a template linear group (signed permutations, permutations,
permutations times {+-1}, the Kummer -I, or a cyclic permutation) plus
seeded pure translations with denominators <= 3, conjugated by a seeded
unimodular matrix.  Each base action is written twice, under two different
conjugations, so the two `filtration` reports must agree on every
conjugation invariant.

The group is T x| L, where L is the template's linear group and T the
L-stable translation group generated by the drawn translations, so its
order is |L| * |T| and costs nothing to compute.  A draw whose order falls
outside its slot's band is rejected and drawn again; the narrow bands keep
the cost of a pass nearly independent of the seed and rule out runaway
closures.

Independently of `reidtai`, this module also checks what a `filtration`
report claims: each exceptional element belongs to the group, fixes its
fixed point, carries the spectrum of its matrix, and has age in (0, 1).
"""

from __future__ import annotations

import cmath
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

DEN = 6  # translations are stored as numerators over 6: denominators 1, 2 and 3
# Entries of one drawn translation: halves only, thirds only, or both mixed.
TRANSLATION_NUMERATORS = ((0, 3), (0, 2, 4), (0, 2, 3, 4))
MAX_DRAWS = 20_000

KODAIRA_ZERO = "KodairaZero"
UNIRULED_NOT_RC = "UniruledNotRC"
RATIONALLY_CONNECTED = "RationallyConnected"

Matrix = tuple[tuple[int, ...], ...]


def identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(a: Matrix, v) -> tuple:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def _perm(images: list[int]) -> Matrix:
    n = len(images)
    return tuple(tuple(int(images[j] == i) for j in range(n)) for i in range(n))


def _swap(n: int, i: int) -> Matrix:
    images = list(range(n))
    images[i], images[i + 1] = images[i + 1], images[i]
    return _perm(images)


def _diag(values) -> Matrix:
    n = len(values)
    return tuple(tuple(values[i] if i == j else 0 for j in range(n)) for i in range(n))


def template_generators(name: str, n: int) -> list[Matrix]:
    swaps = [_swap(n, i) for i in range(n - 1)]
    if name == "signed-perm":  # B_n, order 2^n n!
        return swaps + [_diag([-1] + [1] * (n - 1))]
    if name == "perm":  # S_n, order n!
        return swaps
    if name == "perm-pm":  # S_n x {+-1}, order 2 n!
        return swaps + [_diag([-1] * n)]
    if name == "kummer":  # {+-I}
        return [_diag([-1] * n)]
    if name == "cycle":  # cyclic shift of the coordinates, order n
        return [_perm([(j + 1) % n for j in range(n)])]
    raise ValueError(f"unknown template {name!r}")


# (template, rank, order band, verdict the template forces).  Pure
# translations never change the verdict: the elements (M, 0) stay in the
# group, so the exceptional linear parts, and with them the chain, are the
# template's.  Each band admits one translation-group size.
SLOTS = (
    ("signed-perm", 3, (384, 384), RATIONALLY_CONNECTED),
    ("signed-perm", 4, (768, 768), RATIONALLY_CONNECTED),
    ("perm", 5, (240, 240), UNIRULED_NOT_RC),
    ("perm-pm", 4, (96, 96), RATIONALLY_CONNECTED),
    ("perm-pm", 5, (480, 480), RATIONALLY_CONNECTED),
    ("kummer", 4, (72, 72), KODAIRA_ZERO),
    ("cycle", 4, (324, 324), KODAIRA_ZERO),
    ("cycle", 5, (405, 405), KODAIRA_ZERO),
)


def linear_group(gens: list[Matrix]) -> frozenset[Matrix]:
    n = len(gens[0])
    seen = {identity(n)}
    frontier = list(seen)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = mat_mul(x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return frozenset(seen)


def translation_group(lin_gens: list[Matrix], translations: list[tuple[int, ...]], cap: int) -> frozenset | None:
    """L-stable subgroup of (Z/6)^n generated by the translations, or None above cap elements."""
    n = len(lin_gens[0])
    zero = (0,) * n
    seen = {zero}
    frontier = [zero]
    moves = [lambda v, t=t: tuple((a + b) % DEN for a, b in zip(v, t)) for t in translations]
    moves += [lambda v, m=m: tuple(x % DEN for x in mat_vec(m, v)) for m in lin_gens]
    while frontier:
        new = []
        for v in frontier:
            for move in moves:
                w = move(v)
                if w not in seen:
                    if len(seen) >= cap:
                        return None
                    seen.add(w)
                    new.append(w)
        frontier = new
    return frozenset(seen)


def random_unimodular(rng: random.Random, n: int, steps: int = 8, max_entry: int = 2) -> tuple[Matrix, Matrix]:
    """A seeded unimodular P with its inverse: a signed permutation times elementary transvections."""
    while True:
        images = list(range(n))
        rng.shuffle(images)
        signs = [rng.choice((-1, 1)) for _ in range(n)]
        p = mat_mul(_diag(signs), _perm(images))
        pinv = tuple(zip(*p))  # signed permutations are orthogonal
        for _ in range(steps):
            i, j = rng.sample(range(n), 2)
            s = rng.choice((-1, 1))
            e = tuple(tuple(int(r == c) + (s if (r, c) == (i, j) else 0) for c in range(n)) for r in range(n))
            einv = tuple(tuple(int(r == c) - (s if (r, c) == (i, j) else 0) for c in range(n)) for r in range(n))
            p, pinv = mat_mul(e, p), mat_mul(pinv, einv)
        if max(abs(x) for row in p + pinv for x in row) <= max_entry and p != identity(n):
            return p, pinv


@dataclass(frozen=True)
class TorusInput:
    """One generated input file and what the benchmark knows about it independently."""

    name: str
    pair: str  # the base action; both members of a pair must report the same invariants
    template: str
    rank: int
    order: int
    verdict: str
    path: str
    conjugator: Matrix
    conjugator_inverse: Matrix
    linear: frozenset  # the template's linear group L
    translations: frozenset  # T, numerators over DEN


def _draw_translations(rng: random.Random, lin_gens, lin_order: int, band: tuple[int, int]):
    n = len(lin_gens[0])
    lo, hi = band
    for _ in range(MAX_DRAWS):
        count = rng.choice((0, 1, 2))
        ts = []
        for _ in range(count):
            numerators = rng.choice(TRANSLATION_NUMERATORS)
            ts.append(tuple(rng.choice(numerators) for _ in range(n)))
        group = translation_group(lin_gens, ts, cap=hi // lin_order)
        if group is not None and lo <= lin_order * len(group) <= hi:
            return [t for t in ts if any(t)], group
    raise RuntimeError(f"no translation draw in band {band} after {MAX_DRAWS} draws")


def _conjugated_json(lin_gens, translations, p: Matrix, pinv: Matrix) -> dict:
    n = len(p)
    gens = [(m, (0,) * n) for m in lin_gens] + [(identity(n), t) for t in translations]
    return {
        "rank": n,
        "generators": [
            {
                "matrix": [list(row) for row in mat_mul(mat_mul(p, m), pinv)],
                "translation": [str(Fraction(x % DEN, DEN)) for x in mat_vec(p, t)],
            }
            for m, t in gens
        ],
    }


def generate(seed: int, directory: Path) -> list[TorusInput]:
    """Write two conjugated copies of every slot's seeded base action into directory."""
    rng = random.Random(seed)
    out = []
    for index, (template, n, band, verdict) in enumerate(SLOTS):
        lin_gens = template_generators(template, n)
        lin = linear_group(lin_gens)
        translations, tgroup = _draw_translations(rng, lin_gens, len(lin), band)
        conjugators = []
        while len(conjugators) < 2:
            p, pinv = random_unimodular(rng, n)
            if all(p != q for q, _ in conjugators):
                conjugators.append((p, pinv))
        pair = f"{template}{n}"
        for label, (p, pinv) in zip("ab", conjugators):
            name = f"{index}-{pair}-{label}"
            path = directory / f"{name}.json"
            path.write_text(json.dumps(_conjugated_json(lin_gens, translations, p, pinv)))
            out.append(TorusInput(name, pair, template, n, len(lin) * len(tgroup), verdict, str(path),
                                  p, pinv, lin, tgroup))
    return out


# ---------------------------------------------------------------------------
# Independent checks of a filtration report
# ---------------------------------------------------------------------------


def _eigen_power_sums_match(matrix: Matrix, spectrum: list[Fraction]) -> bool:
    """Power sums tr(M^k), k = 1..n, determine the eigenvalue multiset of an n x n matrix."""
    n = len(matrix)
    power = identity(n)
    for k in range(1, n + 1):
        power = mat_mul(power, matrix)
        trace = sum(power[i][i] for i in range(n))
        total = sum(cmath.exp(2j * cmath.pi * float(k * v)) for v in spectrum)
        if abs(total - trace) > 1e-6:
            return False
    return True


def check_report(inp: TorusInput, report: dict) -> tuple[list[str], tuple]:
    """Problems found in one filtration report, and its conjugation-invariant summary."""
    problems = []
    n = inp.rank
    if report.get("rank") != n:
        problems.append(f"rank {report.get('rank')} != {n}")
    exceptional = report["exceptional_elements"]
    for e in exceptional:
        m = tuple(tuple(row) for row in e["element"]["matrix"])
        t = [Fraction(x) for x in e["element"]["translation"]]
        base_m = mat_mul(mat_mul(inp.conjugator_inverse, m), inp.conjugator)
        base_t = tuple(x * DEN for x in mat_vec(inp.conjugator_inverse, t))
        if (base_m not in inp.linear or any(x.denominator != 1 for x in base_t)
                or tuple(int(x) % DEN for x in base_t) not in inp.translations):
            problems.append("exceptional element is not in the group")
        x = [Fraction(v) for v in e["fixed_point"]]
        image = [a + b for a, b in zip(mat_vec(m, x), t)]
        if any((a - b).denominator != 1 for a, b in zip(image, x)):
            problems.append("reported fixed point is not fixed")
        spectrum = [Fraction(v) for v in e["spectrum"]]
        if len(spectrum) != n or any(not 0 <= v < 1 for v in spectrum):
            problems.append("spectrum has the wrong shape")
        elif not _eigen_power_sums_match(m, spectrum):
            problems.append("spectrum does not match the matrix")
        age = Fraction(e["age"])
        if age != sum(spectrum, Fraction(0)) or not 0 < age < 1:
            problems.append(f"age {age} is not an exceptional age of the spectrum")
    ranks = [len(s["basis"]) for s in report["chain"]]
    if any(a >= b for a, b in zip(ranks, ranks[1:])):
        problems.append(f"chain ranks {ranks} do not increase")
    if report["verdict"] != inp.verdict:
        problems.append(f"verdict {report['verdict']} != {inp.verdict} forced by the template")
    expected = (KODAIRA_ZERO if not exceptional
                else RATIONALLY_CONNECTED if ranks[-1] == n else UNIRULED_NOT_RC)
    if report["verdict"] != expected:
        problems.append(f"verdict {report['verdict']} inconsistent with the chain")
    summary = (inp.order, report["verdict"], len(exceptional), tuple(ranks),
               tuple(report["stage_exceptional_counts"]))
    return problems, summary
