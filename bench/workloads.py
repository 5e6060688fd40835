"""The benchmark's workloads: which `reidtai` commands run, and how each output is checked.

A command is the argument list after the global flags, which the runner
supplies (`--format json --threads 1`).  Its check takes the command's
stdout and returns a list of problems; an empty list means correct.
Fixed-input commands are compared byte for byte with the snapshot in
`snapshots/` and then checked against published facts that do not come
from the program.  The torus inputs change with the seed, so their
reports are checked against the generator's own knowledge of each group
and against the other conjugate of the same base action.
"""

from __future__ import annotations

import json
import math
import random
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import torusgen

SNAPSHOTS = Path(__file__).resolve().parent / "snapshots"
GLOBAL_FLAGS = ("--format", "json", "--threads", "1")

# G(m, p, n) cases of the criterion-10 grid.  The first five have many
# exceptional classes, so normal closure dominates; the next three have
# one or a few, so the single big closure dominates.  G(6,1,4), G(5,1,4)
# and G(6,2,4) (10-17 s each) are left out to keep a pass short.
MONOMIAL_CASES = ((6, 1, 3), (5, 1, 3), (6, 2, 3), (3, 1, 4), (4, 1, 4), (6, 6, 4), (5, 5, 4), (6, 3, 4))
REFLECTION_CASE = (1, 1, 6)

# Published reference data, restated here so that the checks do not lean
# on the program's own constants.
REFERENCE_PAIRS = (
    ("1/6", "1/3"), ("1/6", "1/2"), ("1/6", "2/3"), ("1/3", "1/2"), ("1/8", "3/8"),
    ("1/8", "5/8"), ("1/12", "1/4"), ("1/12", "5/12"), ("1/4", "5/12"),
)
ORBIT_EXCLUDED = (("1/12", "1/4"), ("1/4", "5/12"))  # multisets (k) and (m)
ORDER_SCAN_EXTRAS = [9, 15]


@dataclass(frozen=True)
class Command:
    name: str
    args: tuple[str, ...]
    check: Callable[[bytes], list[str]]


@dataclass
class Workload:
    name: str
    commands: list[Command]
    # Problems that only show across commands, by command name.
    cross_check: Callable[[], dict[str, list[str]]] = field(default=lambda: {})


def _snapshot_check(name: str, facts: Callable[[dict], list[str]]) -> Callable[[bytes], list[str]]:
    path = SNAPSHOTS / f"{name}.out"

    def check(stdout: bytes) -> list[str]:
        problems = [] if stdout == path.read_bytes() else [f"stdout differs from {path.name}"]
        try:
            payload = json.loads(stdout)
        except ValueError as exc:
            return problems + [f"stdout is not JSON: {exc}"]
        try:
            return problems + facts(payload)
        except (KeyError, TypeError, ValueError) as exc:
            return problems + [f"unexpected payload shape: {exc!r}"]

    return check


def _monomial_facts(m: int, p: int, n: int) -> Callable[[dict], list[str]]:
    order = m**n * math.factorial(n) // p

    def facts(payload: dict) -> list[str]:
        problems = []
        if payload["group_order"] != order:
            problems.append(f"group order {payload['group_order']} != m^n n!/p = {order}")
        if payload["violations"]:
            problems.append(f"{len(payload['violations'])} transposition-law violations")
        return problems

    return facts


def _orders_facts(payload: dict) -> list[str]:
    extras = [e["item"] for e in payload["conformance"]["extra"]]
    problems = [] if extras == ORDER_SCAN_EXTRAS else [f"order-scan extras {extras} != {ORDER_SCAN_EXTRAS}"]
    if payload["conformance"]["missing"]:
        problems.append(f"order scan misses {payload['conformance']['missing']}")
    return problems


def _pairs_facts(expected_missing: tuple) -> Callable[[dict], list[str]]:
    def facts(payload: dict) -> list[str]:
        found = {tuple(p["pair"]) for p in payload["pairs"]}
        absent = [p for p in REFERENCE_PAIRS if p not in found and p not in expected_missing]
        problems = [f"reference pairs absent: {absent}"] if absent else []
        missing = {tuple(p) for p in payload["conformance"]["missing"]}
        if missing != set(expected_missing):
            problems.append(f"missing {sorted(missing)} != {sorted(expected_missing)}")
        return problems

    return facts


def _multisets_facts(payload: dict) -> list[str]:
    kept = {tuple(ms) for ms in payload["multisets"]}
    refuted = {tuple(r["multiset"]) for r in payload["refutations"]}
    wrong = [ms for ms in ORBIT_EXCLUDED if ms in kept or ms not in refuted]
    return [f"orbit mode does not refute {wrong}"] if wrong else []


def monomial_commands() -> list[Command]:
    cmds = []
    for m, p, n in MONOMIAL_CASES:
        name = f"monomial-check-{m}-{p}-{n}"
        cmds.append(Command(name, ("monomial-check", "--m", str(m), "--p", str(p), "--n", str(n)),
                            _snapshot_check(name, _monomial_facts(m, p, n))))
    m, p, n = REFLECTION_CASE
    name = f"monomial-check-{m}-{p}-{n}-reflection-rep"
    cmds.append(Command(name, ("monomial-check", "--m", str(m), "--p", str(p), "--n", str(n), "--reflection-rep"),
                        _snapshot_check(name, _monomial_facts(m, p, n))))
    return cmds


def galois_commands() -> list[Command]:
    specs = (
        ("orders-scan-372", ("orders-scan", "--bound", "372"), _orders_facts),
        ("pair-search-126-value-union", ("pair-search", "--f-max", "126", "--mode", "value-union"), _pairs_facts(())),
        ("pair-search-126-orbit-sets", ("pair-search", "--f-max", "126", "--mode", "orbit-sets"),
         _pairs_facts(ORBIT_EXCLUDED)),
        ("multisets-orbit-sets", ("multisets", "--mode", "orbit-sets"), _multisets_facts),
    )
    return [Command(name, args, _snapshot_check(name, facts)) for name, args, facts in specs]


def torus_workload(seed: int, directory: Path) -> tuple[list[Command], Callable[[], dict[str, list[str]]]]:
    inputs = torusgen.generate(seed, directory)
    first_stdout: dict[str, bytes] = {}
    summaries: dict[str, tuple] = {}

    def make_check(inp: torusgen.TorusInput) -> Callable[[bytes], list[str]]:
        def check(stdout: bytes) -> list[str]:
            # No snapshot can cover every seed; a repeat must at least match the first run.
            if first_stdout.setdefault(inp.name, stdout) != stdout:
                return ["stdout differs from the first run of the same input"]
            try:
                problems, summaries[inp.name] = torusgen.check_report(inp, json.loads(stdout))
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                return [f"unexpected payload shape: {exc!r}"]
            return problems

        return check

    def cross_check() -> dict[str, list[str]]:
        by_pair = defaultdict(list)
        for inp in inputs:
            by_pair[inp.pair].append(inp.name)
        problems = {}
        for names in by_pair.values():
            seen = {summaries.get(name) for name in names}
            if len(seen) != 1 or None in seen:
                for name in names:
                    problems[name] = [f"conjugates disagree on (order, verdict, exceptional, ranks, counts): {seen}"]
        return problems

    cmds = [Command(inp.name, ("filtration", inp.path), make_check(inp)) for inp in inputs]
    return cmds, cross_check


WORKLOADS = ("monomial-scan", "galois-search", "torus-quotient")


def build(name: str, seed: int, directory: Path) -> Workload:
    """The workload's commands in seeded order; torus inputs are written into directory."""
    if name == "monomial-scan":
        workload = Workload(name, monomial_commands())
    elif name == "galois-search":
        workload = Workload(name, galois_commands())
    elif name == "torus-quotient":
        workload = Workload(name, *torus_workload(seed, directory))
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    random.Random(seed).shuffle(workload.commands)
    return workload
