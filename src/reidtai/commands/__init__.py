"""What the command handlers share: the input error, the exit codes, JSON in and out.

The handlers live in one module per engine family here: ``spectra``,
``search``, ``torus``, ``monomial``, ``deviation``, ``witness`` and
``golden``.  Each module's ``HANDLERS`` maps its subcommands to
``(handler, arguments)``, the arguments as ``(name or flag, add_argument
keywords)`` pairs.  Each handler imports the engine it runs, so a command
compiles only its own family and loads only its own engine.

No module here imports ``reidtai.cli``.  Under ``python -m reidtai.cli`` that
file runs as ``__main__``, so importing it would compile it a second time and
make a second ``InputError`` that ``main`` does not catch.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

EXIT_OK = 0
EXIT_CONFORMANCE = 1
EXIT_INPUT = 2


class InputError(Exception):
    pass


def _parse_spectrum(text: str):
    from ..spectra import Spectrum

    try:
        return Spectrum(Fraction(part.strip()) for part in text.split(",") if part.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad spectrum {text!r}: {exc}") from exc


def _load_json(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:  # json.loads recurses once per level of nesting
        raise InputError(f"malformed JSON in {path}: nested too deeply") from exc


def _emit(payload: dict, fmt: str, table_renderer) -> None:
    if fmt == "json":
        print(json.dumps({"schema": 1, **payload}, sort_keys=True, indent=2))
    else:
        table_renderer(payload)


def _conformance_exit(report_json: dict, strict: bool) -> int:
    mismatch = bool(report_json["missing"]) or bool(report_json["extra"])
    return EXIT_CONFORMANCE if strict and mismatch else EXIT_OK
