"""Handlers of the torus-quotient commands: ``av-verdict`` and ``filtration``."""

from __future__ import annotations

from . import EXIT_OK, InputError, _emit, _load_json


def _load_action(path: str, cap: int):
    from ..groups import GroupTooLargeError
    from ..torus import AffineTorusMap, closure

    payload = _load_json(path)
    try:
        rank = payload["rank"]
        if type(rank) is not int:  # true and 1.0 would compare equal to a generator rank of 1
            raise ValueError(f"rank {rank!r} is not an integer")
        gens = [AffineTorusMap.from_json(g) for g in payload["generators"]]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad input file {path}: {exc}") from exc
    if any(g.rank != rank for g in gens):
        raise InputError(f"bad input file {path}: generator rank mismatch")
    try:
        return closure(gens, cap=cap)
    except (ValueError, GroupTooLargeError) as exc:
        raise InputError(f"bad input file {path}: {exc}") from exc


def _cmd_av_verdict(args) -> int:
    from ..torus import filtration

    action = _load_action(args.input, args.cap)
    report = filtration(action)
    payload = {"verdict": report.verdict, "order": action.order}
    _emit(payload, args.format, lambda p: print(p["verdict"]))
    return EXIT_OK


def _cmd_filtration(args) -> int:
    from ..torus import filtration

    action = _load_action(args.input, args.cap)
    report = filtration(action)
    payload = report.to_json()

    def render(p):
        print(f"rank {p['rank']}, {len(p['exceptional_elements'])} exceptional elements")
        for i, sub in enumerate(p["chain"], 1):
            print(f"  chain[{i}] rank {len(sub['basis'])}: {sub['basis']}")
        print(f"verdict: {p['verdict']}")

    _emit(payload, args.format, render)
    return EXIT_OK


HANDLERS = {
    "av-verdict": (_cmd_av_verdict, (("input", {"help": "JSON file: {rank, generators: [{matrix, translation}]}"}),)),
    "filtration": (_cmd_filtration, (("input", {}),)),
}
