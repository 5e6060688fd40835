"""Handlers of ``age`` and ``rt-check``: ages and the Reid-Tai check of spectra given on the command line."""

from __future__ import annotations

from . import EXIT_OK, InputError, _emit, _parse_spectrum


def _cmd_age(args) -> int:
    s = _parse_spectrum(args.spectrum)
    payload = {"spectrum": s.to_json(), "age": str(s.age()), "exceptional": s.is_exceptional()}
    _emit(payload, args.format, lambda p: print(f"age {p['age']}  exceptional {p['exceptional']}"))
    return EXIT_OK


def _cmd_rt_check(args) -> int:
    from ..spectra import satisfies_rt

    spectra = [_parse_spectrum(text) for text in args.spectrum]
    if not spectra:
        raise InputError("need at least one --spectrum")
    entries = [
        {"spectrum": s.to_json(), "age": str(s.age()), "exceptional": s.is_exceptional()} for s in spectra
    ]
    payload = {"elements": entries, "satisfies_rt": satisfies_rt(spectra)}

    def render(p):
        for e in p["elements"]:
            print(f"age {e['age']:>8}  exceptional {e['exceptional']}  [{', '.join(e['spectrum'])}]")
        print(f"satisfies Reid-Tai: {p['satisfies_rt']}")

    _emit(payload, args.format, render)
    return EXIT_OK


HANDLERS = {
    "age": (_cmd_age, (("--spectrum", {"required": True, "help": 'comma-separated fractions, e.g. "1/6,1/3"'}),)),
    "rt-check": (_cmd_rt_check, (("--spectrum", {"action": "append", "default": [], "help": "repeatable"}),)),
}
