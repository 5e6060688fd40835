"""Handlers of the monomial group commands: ``monomial-check`` and ``imprimitive-cases``."""

from __future__ import annotations

from . import EXIT_OK, InputError, _emit


def _cmd_monomial_check(args) -> int:
    from ..groups import GroupTooLargeError
    from ..monomial import g_group, g_group_order, prop_prod_check

    try:
        group = g_group(args.m, args.p, args.n, cap=args.cap)
    except GroupTooLargeError as exc:
        raise InputError(str(exc)) from exc
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
    from ..imprimitive import imprimitive_classification

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


HANDLERS = {
    "monomial-check": (_cmd_monomial_check, (
        ("--m", {"type": int, "required": True}),
        ("--p", {"type": int, "required": True}),
        ("--n", {"type": int, "required": True}),
        ("--reflection-rep", {"action": "store_true",
                              "help": "drop the trivial summand eigenvalue (phase-free groups only)"}),
    )),
    "imprimitive-cases": (_cmd_imprimitive_cases, ()),
}
