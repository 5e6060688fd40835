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
import sys

from .commands import EXIT_INPUT, InputError
from .options import worker_count

# The engine entry points the handlers call, by defining module.  They are
# also attributes of this module, loaded on first access (PEP 562).  The
# first access binds all of them, so code that walks this module's namespace,
# such as a tracer that rebinds a function wherever it is bound, finds each.
_ENGINE_NAMES = {
    "monomial": ("g_group", "g_group_order", "prop_prod_check"),
    "imprimitive": ("imprimitive_classification",),
    "orders": ("feasible_orders", "min_age_same_order", "simple_av_screen", "table1"),
    "search": ("classify_pairs", "enumerate_exceptional_multisets"),
    "spectra": ("Spectrum",),
    "torus": ("AffineTorusMap", "closure", "filtration"),
}


def __getattr__(name: str):
    if not any(name in names for names in _ENGINE_NAMES.values()):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module, names in _ENGINE_NAMES.items():
        engine = importlib.import_module(f".{module}", __package__)
        globals().update((attr, getattr(engine, attr)) for attr in names)
    return globals()[name]


# Each subcommand, in help order: its help line and the module under
# `reidtai.commands` whose HANDLERS entry gives its handler and arguments.
_COMMANDS = {
    "age": ("age of one eigenvalue multiset", "spectra"),
    "rt-check": ("Reid-Tai check for a set of element spectra", "spectra"),
    "table1": ("minimal half-orbit representatives and means", "search"),
    "orders-scan": ("orders with minimal half-orbit sum below 1", "search"),
    "pair-search": ("classify feasible value pairs", "search"),
    "multisets": ("enumerate exceptional eigenvalue multisets", "search"),
    "same-order-screen": ("minimal age of same-order block spectra", "search"),
    "av-verdict": ("Kodaira verdict for an affine torus action", "torus"),
    "filtration": ("full exceptional-tangent filtration report", "torus"),
    "simple-av-screen": ("same-order survivors per order, one dimension", "search"),
    "monomial-check": ("exceptional-element scan of G(m,p,n)", "monomial"),
    "imprimitive-cases": ("line-swap candidates and the square test", "monomial"),
    "deviation": ("deviation of a spectrum or an explicit matrix", "deviation"),
    "extraspecial-scan": ("dimension screen for extraspecial spectra", "deviation"),
    "verify-witness": ("re-verify a conformance witness payload", "witness"),
    "golden": ("check or regenerate the golden reference files", "golden"),
}


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


def _parser(names, parser_class=argparse.ArgumentParser) -> argparse.ArgumentParser:
    """The main parser with a subparser for each of the named subcommands; the subparsers share its class."""
    parser = parser_class(prog="reidtai", description=__doc__)
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        help_line, family = _COMMANDS[name]
        handler, arguments = importlib.import_module(f".commands.{family}", __package__).HANDLERS[name]
        p = sub.add_parser(name, help=help_line)
        _add_common(p, suppress=True)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand: it prints the help and every usage error."""
    return _parser(_COMMANDS)


class _Unparsed(Exception):
    pass


class _OneCommandParser(argparse.ArgumentParser):
    """A parser that raises ``_Unparsed`` wherever argparse would print or exit."""

    def error(self, message):
        raise _Unparsed

    def exit(self, status=0, message=None):
        raise _Unparsed

    def print_help(self, file=None):
        raise _Unparsed

    def print_usage(self, file=None):
        raise _Unparsed


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse with the main parser and the one subparser the first subcommand name in argv names.

    Parsing only converts values, so when that parse would print anything,
    help or a usage error, the full parser parses again and prints it as it
    always has: its usage lists every subcommand.
    """
    name = next((token for token in argv if token in _COMMANDS), None)
    if name is not None:
        try:
            return _parser((name,), _OneCommandParser).parse_args(argv)
        except _Unparsed:
            pass
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # argparse has printed the usage error or the help
        return exc.code
    try:
        worker_count(args.threads)  # rejects a malformed REIDTAI_THREADS
        return args.func(args)
    except (InputError, ValueError) as exc:
        message = str(exc)
    except MemoryError:
        # printed after the except clause, once the traceback has let the exhausted work go
        message = "out of memory; a smaller --cap refuses a large group before it is listed"
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
