"""Handlers of the numeric commands, the only ones that load numpy: ``deviation`` and ``extraspecial-scan``."""

from __future__ import annotations

import math

from . import EXIT_OK, InputError, _emit, _load_json, _parse_spectrum


def _load_complex_matrix(path: str, what: str) -> list[list[complex]]:
    raw = _load_json(path)
    try:
        return [[complex(re, im) for re, im in row] for row in raw]
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad {what} file {path}: {exc}") from exc


def _cmd_deviation(args) -> int:
    from .. import deviation as dev

    if args.spectrum:
        s = _parse_spectrum(args.spectrum)
        age = s.age()
        payload = {
            "spectrum": s.to_json(),
            "age": str(age),
            "eigenbasis_deviation": dev.eigenbasis_deviation(s),
            "arc_bound": 2 * math.pi * float(age),
        }
        _emit(payload, args.format, lambda p: print(
            f"eigenbasis deviation {p['eigenbasis_deviation']:.9f} <= 2*pi*age {p['arc_bound']:.9f}"
        ))
        return EXIT_OK
    if not args.matrix:
        raise InputError("need --spectrum or --matrix")
    matrix = _load_complex_matrix(args.matrix, "matrix")
    basis = _load_complex_matrix(args.basis, "basis") if args.basis else None
    try:
        report = dev.deviation_wrt_basis(matrix, basis)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit(report.to_json(), args.format, lambda p: print(f"deviation {p['total']:.9f}"))
    return EXIT_OK


def _cmd_extraspecial_scan(args) -> int:
    from .. import deviation as dev

    records = dev.extraspecial_scan(args.max_dim)
    payload = {"max_dim": args.max_dim, "records": [r.to_json() for r in records]}

    def render(p):
        for r in p["records"]:
            flag = "survives" if r["survives"] else "fails"
            print(f"p={r['p']} n={r['n_exp']} m={r['m']} dim={r['dim']:>3}  {flag}")

    _emit(payload, args.format, render)
    return EXIT_OK


HANDLERS = {
    "deviation": (_cmd_deviation, (
        ("--spectrum", {}),
        ("--matrix", {"help": "JSON file of [re, im] entry pairs"}),
        ("--basis", {"help": "JSON file of [re, im] entry pairs (orthonormal columns)"}),
    )),
    "extraspecial-scan": (_cmd_extraspecial_scan, (("--max-dim", {"type": int, "default": 32}),)),
}
