"""Reference data contracts and the golden files diffed against them.

The golden files pin the published reference sets the searches must
reproduce (the half-orbit table, the trace-magnitude table, the nine
pairs, the confirmed order set, and the fourteen labelled multisets).
The Python constants are the one source; the files in the repository's
``golden/`` directory are their JSON export, which ``check_golden`` keeps
current.  Regeneration is an explicit flag on the ``golden`` CLI subcommand.
"""

from __future__ import annotations

import json
from pathlib import Path

from .orders import CONFIRMED_ORDERS, table1
from .search import REFERENCE_MULTISETS, REFERENCE_PAIRS

__all__ = [
    "TRACE_TABLE_CELLS",
    "check_golden",
    "compute_golden",
    "write_golden",
]

# Trace-magnitude reference table: one entry per populated cell.  Each cell
# stores the eigenvalue multiset that reproduces the printed magnitude; for
# rows b and c the printed values correspond to the case multiset padded to
# dimension column-1, for rows i and n to dimension column.
TRACE_TABLE_CELLS: tuple[dict, ...] = tuple(
    {
        "case": case,
        "column": column,
        "eigenvalues": eigenvalues,
        "magnitude_sq": magnitude_sq,
        "display": display,
    }
    for case, column, eigenvalues, magnitude_sq, display in [
        ("b", 3, ["1/6", "1/3"], 3, "sqrt(3)"),
        ("b", 4, ["0", "1/6", "1/3"], 4, "2"),
        ("b", 5, ["0", "0", "1/6", "1/3"], 7, "sqrt(7)"),
        ("b", 6, ["0", "0", "0", "1/6", "1/3"], 12, "2*sqrt(3)"),
        ("c", 4, ["1/6", "1/6", "1/3"], 7, "sqrt(7)"),
        ("c", 5, ["0", "1/6", "1/6", "1/3"], 9, "3"),
        ("c", 6, ["0", "0", "1/6", "1/6", "1/3"], 13, "sqrt(13)"),
        ("c", 7, ["0", "0", "0", "1/6", "1/6", "1/3"], 19, "sqrt(19)"),
        ("c", 8, ["0", "0", "0", "0", "1/6", "1/6", "1/3"], 27, "3*sqrt(3)"),
        ("i", 3, ["0", "1/8", "3/8"], 3, "sqrt(3)"),
        ("i", 4, ["0", "0", "1/8", "3/8"], 6, "sqrt(6)"),
        ("n", 3, ["1/12", "1/4", "5/12"], 4, "2"),
        ("n", 4, ["0", "1/12", "1/4", "5/12"], 5, "sqrt(5)"),
        ("n", 5, ["0", "0", "1/12", "1/4", "5/12"], 8, "2*sqrt(2)"),
        ("n", 6, ["0", "0", "0", "1/12", "1/4", "5/12"], 13, "sqrt(13)"),
    ]
)

def compute_golden() -> dict[str, dict]:
    return {
        "table1.json": {"schema": 1, "rows": [row.to_json() for row in table1()]},
        "table2.json": {"schema": 1, "cells": [dict(c) for c in TRACE_TABLE_CELLS]},
        "pairs.json": {"schema": 1, "pairs": [[str(v) for v in p] for p in REFERENCE_PAIRS]},
        "orders.json": {"schema": 1, "orders": list(CONFIRMED_ORDERS)},
        "multisets.json": {
            "schema": 1,
            "multisets": [{"label": label, "values": [str(v) for v in vals]} for label, vals in REFERENCE_MULTISETS],
        },
    }


def _dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_golden(directory: str | Path) -> list[str]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, payload in compute_golden().items():
        (directory / name).write_text(_dump(payload))
        written.append(name)
    return written


def check_golden(directory: str | Path) -> list[str]:
    """Names of golden files that are missing or differ from the computed data."""
    directory = Path(directory)
    if directory.exists() and not directory.is_dir():
        raise NotADirectoryError(f"{directory} is not a directory")
    mismatches = []
    for name, payload in compute_golden().items():
        path = directory / name
        if not path.exists() or path.read_text() != _dump(payload):
            mismatches.append(name)
    return mismatches
