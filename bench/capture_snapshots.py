"""Write the stdout snapshots that the fixed-input commands are compared with.

    python3 bench/capture_snapshots.py

Run once, from the root of a checkout of the commit whose outputs are the
reference.  Outputs must not change afterwards, so a later commit that
makes a snapshot differ has changed the program's behaviour.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    workloads.SNAPSHOTS.mkdir(exist_ok=True)
    env = run._child_env()
    (run.ROOT / ".bench_tmp").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_tmp") as scratch:
        for cmd in workloads.monomial_commands() + workloads.galois_commands():
            argv = [sys.executable, "-m", "reidtai.cli", *workloads.GLOBAL_FLAGS, *cmd.args]
            child = run._run_child(argv, env, Path(scratch))
            if child["rc"] != 0:
                print(f"{cmd.name}: exit {child['rc']}", file=sys.stderr)
                return 1
            (workloads.SNAPSHOTS / f"{cmd.name}.out").write_bytes(child["stdout"])
            print(f"{cmd.name}: {len(child['stdout'])} bytes")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
