"""Command-line entry point.

Subcommands mirror the library: ages and Reid-Tai checks, the machine
searches with conformance reports, torus-quotient verdicts, monomial
group scans, and the numeric deviation checks.  Output is a stable,
canonically ordered table or JSON.  A JSON payload is built from the
reports' own ``to_json()``, which follows the one rule of
``records.json_value``, and ``_emit`` adds the schema version to it;
exit status is 0 on success, 1 when --strict-conformance is set and a
conformance report has missing or extra entries, and 2 on input errors.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

# Each handler imports the engine it runs, so a command loads only its own
# modules; numpy comes in with `deviation` alone.
from .groups import GroupTooLargeError
from .options import MODE_ORBIT_SETS, MODE_VALUE_UNION, worker_count

# The engine entry points the handlers call, by defining module.  They are
# also attributes of this module, loaded on first access (PEP 562).  The
# first access binds all of them, so code that walks this module's namespace,
# such as a tracer that rebinds a function wherever it is bound, finds each.
_ENGINE_NAMES = {
    "monomial": ("g_group", "g_group_order", "imprimitive_classification", "prop_prod_check"),
    "search": ("classify_pairs", "enumerate_exceptional_multisets", "feasible_orders", "min_age_same_order", "table1"),
    "spectra": ("Spectrum",),
    "torus": ("AffineTorusMap", "closure", "filtration", "simple_av_screen"),
}


def __getattr__(name: str):
    if not any(name in names for names in _ENGINE_NAMES.values()):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module, names in _ENGINE_NAMES.items():
        engine = importlib.import_module(f".{module}", __package__)
        globals().update((attr, getattr(engine, attr)) for attr in names)
    return globals()[name]


EXIT_OK = 0
EXIT_CONFORMANCE = 1
EXIT_INPUT = 2


class InputError(Exception):
    pass


def _parse_spectrum(text: str):
    from .spectra import Spectrum

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


def _load_action(path: str, cap: int):
    from .torus import AffineTorusMap, closure

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


def _load_complex_matrix(path: str, what: str) -> list[list[complex]]:
    raw = _load_json(path)
    try:
        return [[complex(re, im) for re, im in row] for row in raw]
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad {what} file {path}: {exc}") from exc


def _emit(payload: dict, fmt: str, table_renderer) -> None:
    if fmt == "json":
        print(json.dumps({"schema": 1, **payload}, sort_keys=True, indent=2))
    else:
        table_renderer(payload)


def _conformance_exit(report_json: dict, strict: bool) -> int:
    mismatch = bool(report_json["missing"]) or bool(report_json["extra"])
    return EXIT_CONFORMANCE if strict and mismatch else EXIT_OK


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------


def _cmd_age(args) -> int:
    s = _parse_spectrum(args.spectrum)
    payload = {"spectrum": s.to_json(), "age": str(s.age()), "exceptional": s.is_exceptional()}
    _emit(payload, args.format, lambda p: print(f"age {p['age']}  exceptional {p['exceptional']}"))
    return EXIT_OK


def _cmd_rt_check(args) -> int:
    spectra = [_parse_spectrum(text) for text in args.spectrum]
    if not spectra:
        raise InputError("need at least one --spectrum")
    entries = [
        {"spectrum": s.to_json(), "age": str(s.age()), "exceptional": s.is_exceptional()} for s in spectra
    ]
    payload = {"elements": entries, "satisfies_rt": not any(e["exceptional"] for e in entries)}

    def render(p):
        for e in p["elements"]:
            print(f"age {e['age']:>8}  exceptional {e['exceptional']}  [{', '.join(e['spectrum'])}]")
        print(f"satisfies Reid-Tai: {p['satisfies_rt']}")

    _emit(payload, args.format, render)
    return EXIT_OK


def _cmd_table1(args) -> int:
    from .search import table1

    rows = table1()
    payload = {"rows": [r.to_json() for r in rows]}

    def render(p):
        print(f"{'n':>3} {'phi(n)/2':>9}  {'values':<24} mean")
        for r in p["rows"]:
            print(f"{r['n']:>3} {r['half_count']:>9}  {', '.join(r['values']):<24} {r['mean']}")

    _emit(payload, args.format, render)
    return EXIT_OK


def _cmd_orders_scan(args) -> int:
    from .search import feasible_orders

    computed, report = feasible_orders(args.bound)
    payload = {
        "bound": args.bound,
        "orders": list(computed),
        "conformance": report.to_json(),
    }

    def render(p):
        print("feasible orders:", ", ".join(str(d) for d in p["orders"]))
        print("missing:", p["conformance"]["missing"])
        print("extras:", [e["item"] for e in p["conformance"]["extra"]])

    _emit(payload, args.format, render)
    return _conformance_exit(payload["conformance"], args.strict_conformance)


def _cmd_pair_search(args) -> int:
    from .search import classify_pairs

    classes, report = classify_pairs(args.f_max, args.mode)
    payload = {
        "f_max": args.f_max,
        "mode": args.mode,
        "pairs": [c.to_json() for c in classes],
        "conformance": report.to_json(),
    }

    def render(p):
        for c in p["pairs"]:
            print(f"{{{', '.join(c['pair'])}}}  minimal sum {c['minimal_sum']}")
        print(f"{len(p['pairs'])} pairs; missing {p['conformance']['missing']}; "
              f"extras {[e['item'] for e in p['conformance']['extra']]}")

    _emit(payload, args.format, render)
    return _conformance_exit(payload["conformance"], args.strict_conformance)


def _cmd_multisets(args) -> int:
    from .search import enumerate_exceptional_multisets

    result = enumerate_exceptional_multisets(args.mode, args.f_max)
    payload = result.to_json()

    def render(p):
        for ms in p["multisets"]:
            print("{" + ", ".join(ms) + "}")
        print(f"{len(p['multisets'])} multisets; missing {p['conformance']['missing']}; "
              f"{len(p['conformance']['extra'])} extras; {len(p['refutations'])} refutations")

    _emit(payload, args.format, render)
    return _conformance_exit(payload["conformance"], args.strict_conformance)


def _cmd_same_order_screen(args) -> int:
    from .search import min_age_same_order

    age = min_age_same_order(args.n, args.dim)
    payload = {
        "n": args.n,
        "dim": args.dim,
        "feasible": age is not None,
        "min_age": None if age is None else str(age),
        "exceptional": age is not None and 0 < age < 1,
    }
    _emit(payload, args.format, lambda p: print(
        f"order {p['n']} dim {p['dim']}: "
        + ("infeasible" if not p["feasible"] else f"min age {p['min_age']} exceptional {p['exceptional']}")
    ))
    return EXIT_OK


def _cmd_av_verdict(args) -> int:
    from .torus import filtration

    action = _load_action(args.input, args.cap)
    report = filtration(action)
    payload = {"verdict": report.verdict, "order": action.order}
    _emit(payload, args.format, lambda p: print(p["verdict"]))
    return EXIT_OK


def _cmd_filtration(args) -> int:
    from .torus import filtration

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


def _cmd_simple_av_screen(args) -> int:
    from .torus import simple_av_screen

    report = simple_av_screen(args.dim, d_max=args.bound)
    payload = report.to_json()

    def render(p):
        print(f"dim {p['dim']}: survivors {p['survivors']}")
        if p["extra_survivors"]:
            print(f"extra-order survivors {p['extra_survivors']}")

    _emit(payload, args.format, render)
    return EXIT_OK


def _cmd_monomial_check(args) -> int:
    from .monomial import g_group, g_group_order, prop_prod_check

    group = g_group(args.m, args.p, args.n, cap=args.cap)
    report = prop_prod_check(group, reflection_rep=args.reflection_rep)
    payload = {
        "m": args.m,
        "p": args.p,
        "n": args.n,
        "expected_order": g_group_order(args.m, args.p, args.n),
        **report.to_json(),
    }

    def render(p):
        print(f"G({p['m']},{p['p']},{p['n']}): order {p['group_order']} (expected {p['expected_order']})")
        for e in p["exceptional_classes"]:
            print(
                f"  age {e['age']:>6}  cycle type {tuple(e['cycle_type'])}  class size {e['class_size']:>4}  "
                f"closure index {e['closure_index']:>4}  transposition {e['is_transposition']}"
            )
        print(f"violations: {len(p['violations'])}")

    _emit(payload, args.format, render)
    return EXIT_OK


def _cmd_imprimitive_cases(args) -> int:
    from .monomial import imprimitive_classification

    records = imprimitive_classification()
    payload = {"cases": [r.to_json() for r in records]}

    def render(p):
        for r in p["cases"]:
            status = "eliminated" if r["eliminated"] else "SURVIVES"
            extra = f" extra {r['extra']}" if r["extra"] else ""
            print(
                f"case {r['label']}: swap e({r['swap_value']}){extra}  "
                f"square age {r['square_age']}  {status}"
            )

    _emit(payload, args.format, render)
    return EXIT_OK


def _cmd_deviation(args) -> int:
    from . import deviation as dev

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
    from . import deviation as dev

    records = dev.extraspecial_scan(args.max_dim)
    payload = {"max_dim": args.max_dim, "records": [r.to_json() for r in records]}

    def render(p):
        for r in p["records"]:
            flag = "survives" if r["survives"] else "fails"
            print(f"p={r['p']} n={r['n_exp']} m={r['m']} dim={r['dim']:>3}  {flag}")

    _emit(payload, args.format, render)
    return EXIT_OK


def _cmd_verify_witness(args) -> int:
    from .witness import UnknownKindError, verify

    payload = _load_json(args.input)
    if not isinstance(payload, dict):
        raise InputError(f"bad witness payload: expected a JSON object, got {type(payload).__name__}")
    try:
        ok, message = verify(payload)
    except UnknownKindError as exc:
        raise InputError(str(exc)) from exc
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad witness payload: {exc}") from exc
    print(("verified: " if ok else "FAILED: ") + message)
    return EXIT_OK if ok else EXIT_CONFORMANCE


def _cmd_golden(args) -> int:
    from . import golden as golden_mod

    if args.write:
        try:
            written = golden_mod.write_golden(args.dir)
        except OSError as exc:
            raise InputError(f"cannot write golden files to {args.dir}: {exc}") from exc
        print("wrote " + ", ".join(written))
        return EXIT_OK
    try:
        mismatches = golden_mod.check_golden(args.dir)
    except OSError as exc:
        raise InputError(f"cannot read golden files from {args.dir}: {exc}") from exc
    if mismatches:
        print("golden mismatches: " + ", ".join(mismatches))
        return EXIT_CONFORMANCE
    print("golden files match")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # Registered on the main parser with real defaults and on every
    # subparser with SUPPRESS, so the flags work in either position.
    kw = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument("--format", choices=("table", "json"),
                        **(kw or {"default": "table"}))
    parser.add_argument("--strict-conformance", action="store_true",
                        help="exit 1 when a conformance report has missing or extra entries",
                        **(kw or {"default": False}))
    parser.add_argument("--threads", type=int,
                        help="accepted and ignored: every search runs in one thread (REIDTAI_THREADS likewise)",
                        **(kw or {"default": None}))
    parser.add_argument("--cap", type=int, help="group size cap", **(kw or {"default": 1_000_000}))
    parser.add_argument("--seed", type=int, help="seed for randomized subcommands (reserved)",
                        **(kw or {"default": 0}))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="reidtai", description=__doc__)
    _add_common(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=lambda **kw: argparse.ArgumentParser(parents=[common], **kw))

    p = sub.add_parser("age", help="age of one eigenvalue multiset")
    p.add_argument("--spectrum", required=True, help='comma-separated fractions, e.g. "1/6,1/3"')
    p.set_defaults(func=_cmd_age)

    p = sub.add_parser("rt-check", help="Reid-Tai check for a set of element spectra")
    p.add_argument("--spectrum", action="append", default=[], help="repeatable")
    p.set_defaults(func=_cmd_rt_check)

    p = sub.add_parser("table1", help="minimal half-orbit representatives and means")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("orders-scan", help="orders with minimal half-orbit sum below 1")
    p.add_argument("--bound", type=int, default=372)
    p.add_argument("--mode", choices=(MODE_VALUE_UNION, MODE_ORBIT_SETS), default=MODE_VALUE_UNION,
                   help="accepted for interface symmetry; the order scan is mode-independent")
    p.set_defaults(func=_cmd_orders_scan)

    p = sub.add_parser("pair-search", help="classify feasible value pairs")
    p.add_argument("--f-max", type=int, default=126)
    p.add_argument("--mode", choices=(MODE_VALUE_UNION, MODE_ORBIT_SETS), default=MODE_VALUE_UNION)
    p.set_defaults(func=_cmd_pair_search)

    p = sub.add_parser("multisets", help="enumerate exceptional eigenvalue multisets")
    p.add_argument("--f-max", type=int, default=126)
    p.add_argument("--mode", choices=(MODE_VALUE_UNION, MODE_ORBIT_SETS), default=MODE_VALUE_UNION)
    p.set_defaults(func=_cmd_multisets)

    p = sub.add_parser("same-order-screen", help="minimal age of same-order block spectra")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(func=_cmd_same_order_screen)

    p = sub.add_parser("av-verdict", help="Kodaira verdict for an affine torus action")
    p.add_argument("input", help="JSON file: {rank, generators: [{matrix, translation}]}")
    p.set_defaults(func=_cmd_av_verdict)

    p = sub.add_parser("filtration", help="full exceptional-tangent filtration report")
    p.add_argument("input")
    p.set_defaults(func=_cmd_filtration)

    p = sub.add_parser("simple-av-screen", help="same-order survivors per order, one dimension")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--bound", type=int, default=372)
    p.set_defaults(func=_cmd_simple_av_screen)

    p = sub.add_parser("monomial-check", help="exceptional-element scan of G(m,p,n)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reflection-rep", action="store_true",
                   help="drop the trivial summand eigenvalue (phase-free groups only)")
    p.set_defaults(func=_cmd_monomial_check)

    p = sub.add_parser("imprimitive-cases", help="line-swap candidates and the square test")
    p.set_defaults(func=_cmd_imprimitive_cases)

    p = sub.add_parser("deviation", help="deviation of a spectrum or an explicit matrix")
    p.add_argument("--spectrum")
    p.add_argument("--matrix", help="JSON file of [re, im] entry pairs")
    p.add_argument("--basis", help="JSON file of [re, im] entry pairs (orthonormal columns)")
    p.set_defaults(func=_cmd_deviation)

    p = sub.add_parser("extraspecial-scan", help="dimension screen for extraspecial spectra")
    p.add_argument("--max-dim", type=int, default=32)
    p.set_defaults(func=_cmd_extraspecial_scan)

    p = sub.add_parser("verify-witness", help="re-verify a conformance witness payload")
    p.add_argument("input", help="JSON witness file")
    p.set_defaults(func=_cmd_verify_witness)

    p = sub.add_parser("golden", help="check or regenerate the golden reference files")
    p.add_argument("--dir", default="golden")
    p.add_argument("--write", action="store_true", help="regenerate instead of checking")
    p.set_defaults(func=_cmd_golden)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error or the help
        return exc.code
    try:
        worker_count(args.threads)  # rejects a malformed REIDTAI_THREADS
        return args.func(args)
    except (InputError, GroupTooLargeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
