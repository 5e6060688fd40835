"""Benchmark driver for `reidtai`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; `src/` must hold the package.

--trace 0 runs each of the workload's commands in a fresh
`python -m reidtai.cli ... --format json --threads 1` process, one at a
time, cycling through the seeded command list until S seconds have passed
(every command runs at least once).  The driver and its children are
pinned to one CPU.  After each command the driver runs a fixed pure-Python
reference loop for half as long as the command took, so that the loop
samples the host's speed at the moment the command ran.  It reports the
end-to-end metrics: the wall and CPU time of one pass, each command's run
in units of the reference loops right after it, the median over the
command's runs, summed; the peak RSS of any child; and the time of a bare
import, probed 15 times over the run, each probe also divided by the
reference loops right after it, the median turned back into seconds at a
fixed loop time (REF_LOOP_S).

--trace 1 makes exactly one pass in-process, whatever S is, calling
`reidtai.cli.main` on each command three times: to warm up, plain, and with
the tracer installed.  It reports the per-layer metrics.  Spans are written to `.bench_out/`.

Every output is checked (see workloads.py).  The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it give the run metadata and a readable table.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 15  # fresh `import reidtai.cli` processes per run, spread over the run
REF_SHARE = 0.5  # reference-loop time after each command, as a share of the command's wall time
REF_LOOP_S = 0.04  # the reference loop's wall time on the host the benchmark was written on; converts setup_s to seconds


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("REIDTAI_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def _run_child(argv: list[str], env: dict[str, str], scratch: Path) -> dict:
    """Run one child to completion; wall time, CPU time and max RSS come from wait4."""
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_kib": usage.ru_maxrss,
        "stdout": out_path.read_bytes(),
        "stderr": err_path.read_bytes(),
    }


def _problems(cmd: workloads.Command, rc: int, stdout: bytes, stderr: bytes) -> list[str]:
    if rc != 0:
        return [f"exit {rc}: {stderr.decode(errors='replace').strip()[-300:]}"]
    return cmd.check(stdout)


REF_GENERATORS = ((1, 2, 3, 4, 5, 6, 0), (1, 0, 2, 3, 4, 5, 6))  # generate S_7, 5040 permutations


def reference_loop() -> int:
    """A fixed slice of pure-Python work of the program's kinds.

    It closes a permutation group over tuples, sums Fractions, and fills and
    sorts a tuple-keyed dict.  It calls nothing in `reidtai`, so it costs the
    same on every commit, and its time measures only how fast the host runs
    Python at that moment.
    """
    seen = {tuple(range(7))}
    frontier = list(seen)
    while frontier:
        new = []
        for perm in frontier:
            for gen in REF_GENERATORS:
                image = tuple(perm[j] for j in gen)
                if image not in seen:
                    seen.add(image)
                    new.append(image)
        frontier = new
    acc = Fraction(0)
    for i in range(1, 1200):
        acc += Fraction(i % 37 + 1, i % 29 + 2) ** 2 - Fraction(1, i)
        acc = Fraction(acc.numerator % 1000003, acc.denominator % 999983 + 1)
    table: dict[tuple[int, int, int], int] = {}
    for i in range(8000):
        key = (i * 7919 % 4001, i % 7, i % 11)
        table[key] = table.get(key, 0) + i
    return len(seen) + acc.denominator + len(sorted(table.items()))


def _reference_loops(seconds: float) -> tuple[float, float]:
    """Run `reference_loop` until `seconds` of wall time have passed (at least once);
    return its mean wall and CPU time."""
    wall = cpu = 0.0
    loops = 0
    while loops == 0 or wall < seconds:
        w0, c0 = perf_counter(), process_time()
        reference_loop()
        wall += perf_counter() - w0
        cpu += process_time() - c0
        loops += 1
    return wall / loops, cpu / loops


def _import_wall(env: dict[str, str], scratch: Path) -> float:
    child = _run_child([sys.executable, "-c", "import reidtai.cli"], env, scratch)
    if child["rc"] != 0:
        raise RuntimeError(f"importing reidtai.cli failed: {child['stderr'].decode(errors='replace')}")
    return child["wall"]


def _import_probe(env: dict[str, str], scratch: Path) -> tuple[float, float]:
    """The wall time of one bare import, and that of the reference loops right after it."""
    wall = _import_wall(env, scratch)
    return wall, _reference_loops(REF_SHARE * wall)[0]


def timed_run(workload: workloads.Workload, seconds: float, scratch: Path) -> tuple[dict, int, int, dict]:
    # Children inherit the affinity, so every command and every reference
    # loop runs on the same CPU, and so sees the same contention.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = _child_env()
    _import_wall(env, scratch)  # warm-up: writes the bytecode caches
    probes = []
    cmds = workload.commands
    # per command: (wall, cpu, reference-loop wall, reference-loop cpu) of each run
    samples = {c.name: [] for c in cmds}
    failures = {}
    peak_kib = 0
    start = perf_counter()
    i = 0
    while True:
        cmd = cmds[i % len(cmds)]
        # After the first pass, start no command that is not expected to end,
        # with its reference loops, within the run's time.
        if i >= len(cmds) and perf_counter() + (1 + REF_SHARE) * samples[cmd.name][-1][0] > start + seconds:
            break
        i += 1
        # Import probes are spread over the run, so that a short burst of
        # contention cannot move their median.
        if len(probes) < SETUP_PROBES and perf_counter() >= start + len(probes) * seconds / SETUP_PROBES:
            probes.append(_import_probe(env, scratch))
        child = _run_child([sys.executable, "-m", "reidtai.cli", *workloads.GLOBAL_FLAGS, *cmd.args], env, scratch)
        peak_kib = max(peak_kib, child["rss_kib"])
        problems = _problems(cmd, child["rc"], child["stdout"], child["stderr"])
        if problems:
            failures.setdefault(cmd.name, set()).update(problems)
        samples[cmd.name].append((child["wall"], child["cpu"], *_reference_loops(REF_SHARE * child["wall"])))
    while len(probes) < SETUP_PROBES:
        probes.append(_import_probe(env, scratch))
    runs = {name: len(s) for name, s in samples.items()}
    failed = sum(runs[name] for name in failures)
    for name, problems in workload.cross_check().items():
        if name not in failures:
            failed += runs[name]
        failures.setdefault(name, set()).update(problems)
    # The host's speed swings by up to 2x within a second and over minutes,
    # and CPU time swings with it.  Each run of a command is divided by the
    # reference loops run right after it, which cancels the swing, and the
    # median over a command's runs drops the odd run that the two straddle.
    # Import probes are treated the same way, and REF_LOOP_S turns the
    # ratio back into seconds at a fixed host speed.
    med = statistics.median
    attempted = sum(runs.values())
    metrics = {
        "wall_ref": (sum(med(w / rw for w, _, rw, _ in s) for s in samples.values()), "ref_loops"),
        "cpu_ref": (sum(med(c / rc for _, c, _, rc in s) for s in samples.values()), "ref_loops"),
        "setup_s": (med(w / rw for w, rw in probes) * REF_LOOP_S, "s"),
        "peak_rss_mb": (peak_kib / 1024, "MiB"),
    }
    walls = [med(w for w, _, _, _ in s) for s in samples.values()]
    detail = {"wall_s": sum(walls), "cpu_s": sum(med(c for _, c, _, _ in s) for s in samples.values()),
              "slowest_cmd_s": max(walls), "import_s": med(w for w, _ in probes),
              "ref_loop_s": med(rw for s in samples.values() for _, _, rw, _ in s),
              "fail_ratio": failed / attempted, "samples": samples,
              "failures": {k: sorted(v) for k, v in failures.items()}}
    return metrics, attempted, failed, detail


def _call_main(argv: list[str]) -> tuple[int, bytes, bytes, float]:
    import reidtai.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = reidtai.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed command, not a failed benchmark
            traceback.print_exc()
            rc = 1
        wall = perf_counter() - start
    return rc, out.getvalue().encode(), err.getvalue().encode(), wall


def traced_run(workload: workloads.Workload, out_dir: Path, tag: str) -> tuple[dict, int, int, dict]:
    os.environ.pop("REIDTAI_THREADS", None)
    sys.path.insert(0, str(SRC))
    t = tracer.Tracer()
    walls = {False: 0.0, True: 0.0}
    failed = 0
    failures = {}
    for cmd in workload.commands:
        argv = [*workloads.GLOBAL_FLAGS, *cmd.args]
        _call_main(argv)  # warm-up, so that neither timed call fills caches for the other
        for traced in (False, True):
            with t if traced else contextlib.nullcontext():
                rc, stdout, stderr, wall = _call_main(argv)
            walls[traced] += wall
            problems = _problems(cmd, rc, stdout, stderr)
            if problems:
                failed += 1
                failures.setdefault(cmd.name, set()).update(problems)
    for name, problems in workload.cross_check().items():
        if name not in failures:
            failed += 2
        failures.setdefault(name, set()).update(problems)
    plain_wall, traced_wall = walls[False], walls[True]
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"spans-{tag}.json").write_text(json.dumps(t.spans))
    layer_self = sum(v for k, v in t.self_s.items() if k != "cli.main")
    metrics = {k: (v, "s" if k.endswith("_s") else "count" if k.endswith(".calls") else "ratio")
               for k, v in t.metrics().items()}
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    metrics["trace.layer_share"] = (layer_self / traced_wall, "ratio")
    attempted = 2 * len(workload.commands)
    detail = {"fail_ratio": failed / attempted, "plain_wall_s": plain_wall, "traced_wall_s": traced_wall,
              "spans": len(t.spans), "failures": {k: sorted(v) for k, v in failures.items()}}
    return metrics, attempted, failed, detail


def _git_commit() -> str:
    if not (ROOT / ".git").exists():  # an exported checkout, or one nested in another repository
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "reidtai" / "cli.py").is_file():
        print(f"error: {SRC / 'reidtai'} not found; run from a source checkout", file=sys.stderr)
        return 2

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "loadavg_1m": os.getloadavg()[0],
    }
    scratch_root = ROOT / ".bench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        workload = workloads.build(args.workload, args.seed, scratch)
        if args.trace:
            metrics, attempted, failed, detail = traced_run(workload, ROOT / ".bench_out",
                                                            f"{args.workload}-seed{args.seed}")
        else:
            metrics, attempted, failed, detail = timed_run(workload, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(json.dumps({"meta": meta}))
    print(json.dumps({"detail": detail}))
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>14.6f} {unit}")
    for name in ("wall_s", "cpu_s", "slowest_cmd_s", "import_s", "ref_loop_s"):
        if name in detail:
            print(f"{name:<48} {detail[name]:>14.6f} s")
    print(f"{'fail_ratio':<48} {detail['fail_ratio']:>14.6f} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
