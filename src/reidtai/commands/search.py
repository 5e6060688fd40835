"""Handlers of the machine searches: ``table1``, ``orders-scan``, ``pair-search``, ``multisets``,
``same-order-screen`` and ``simple-av-screen``."""

from __future__ import annotations

from ..options import MODE_VALUE_UNION, MODES
from . import EXIT_OK, _conformance_exit, _emit


def _cmd_table1(args) -> int:
    from ..search import table1

    rows = table1()
    payload = {"rows": [r.to_json() for r in rows]}

    def render(p):
        print(f"{'n':>3} {'phi(n)/2':>9}  {'values':<24} mean")
        for r in p["rows"]:
            print(f"{r['n']:>3} {r['half_count']:>9}  {', '.join(r['values']):<24} {r['mean']}")

    _emit(payload, args.format, render)
    return EXIT_OK


def _cmd_orders_scan(args) -> int:
    from ..search import feasible_orders

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
    from ..search import classify_pairs

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
    from ..search import enumerate_exceptional_multisets

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
    from ..search import min_age_same_order

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


def _cmd_simple_av_screen(args) -> int:
    from ..search import simple_av_screen

    report = simple_av_screen(args.dim, d_max=args.bound)
    payload = report.to_json()

    def render(p):
        print(f"dim {p['dim']}: survivors {p['survivors']}")
        if p["extra_survivors"]:
            print(f"extra-order survivors {p['extra_survivors']}")

    _emit(payload, args.format, render)
    return EXIT_OK


_F_MAX = ("--f-max", {"type": int, "default": 126})
_MODE = ("--mode", {"choices": MODES, "default": MODE_VALUE_UNION})

HANDLERS = {
    "table1": (_cmd_table1, ()),
    "orders-scan": (_cmd_orders_scan, (
        ("--bound", {"type": int, "default": 372}),
        ("--mode", {"choices": MODES, "default": MODE_VALUE_UNION,
                    "help": "accepted for interface symmetry; the order scan is mode-independent"}),
    )),
    "pair-search": (_cmd_pair_search, (_F_MAX, _MODE)),
    "multisets": (_cmd_multisets, (_F_MAX, _MODE)),
    "same-order-screen": (_cmd_same_order_screen, (
        ("--n", {"type": int, "required": True}),
        ("--dim", {"type": int, "required": True}),
    )),
    "simple-av-screen": (_cmd_simple_av_screen, (
        ("--dim", {"type": int, "required": True}),
        ("--bound", {"type": int, "default": 372}),
    )),
}
