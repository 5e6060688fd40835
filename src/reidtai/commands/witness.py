"""Handler of ``verify-witness``: re-check a conformance witness payload."""

from __future__ import annotations

from . import EXIT_CONFORMANCE, EXIT_OK, InputError, _load_json


def _cmd_verify_witness(args) -> int:
    from ..witness import UnknownKindError, verify

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


HANDLERS = {
    "verify-witness": (_cmd_verify_witness, (("input", {"help": "JSON witness file"}),)),
}
