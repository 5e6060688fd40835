"""Option values shared by the searches and the command line.

Kept apart from ``search`` so that building the parser and checking
``--threads`` do not load the search engine.  ``worker_count`` has one
caller, ``cli.main``: the library takes no thread argument.
"""

from __future__ import annotations

import os

__all__ = ["MODES", "MODE_ORBIT_SETS", "MODE_VALUE_UNION", "worker_count"]

MODE_VALUE_UNION = "value-union"
MODE_ORBIT_SETS = "orbit-sets"
MODES = (MODE_VALUE_UNION, MODE_ORBIT_SETS)


def worker_count(requested: int | None = None) -> int:
    """Validated worker count (REIDTAI_THREADS overrides); the CLI checks it; every search runs serially."""
    if requested is not None:
        return max(1, int(requested))
    env = os.environ.get("REIDTAI_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ValueError(f"REIDTAI_THREADS must be an integer, got {env!r}") from exc
    return 1
