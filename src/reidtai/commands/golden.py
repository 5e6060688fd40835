"""Handler of ``golden``: check or regenerate the golden reference files."""

from __future__ import annotations

from . import EXIT_CONFORMANCE, EXIT_OK, InputError


def _cmd_golden(args) -> int:
    from .. import golden as golden_mod

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


HANDLERS = {
    "golden": (_cmd_golden, (
        ("--dir", {"default": "golden"}),
        ("--write", {"action": "store_true", "help": "regenerate instead of checking"}),
    )),
}
