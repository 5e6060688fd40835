"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import torusgen  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def installed_wrappers() -> list[str]:
    """Names under which a tracer wrapper is currently bound in any `reidtai` module or class."""
    found = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "reidtai" or name.startswith("reidtai.")):
            continue
        for attr, value in vars(module).items():
            owners = [(attr, value)]
            if isinstance(value, type) and value.__module__ == name:
                owners += [(f"{attr}.{a}", v) for a, v in vars(value).items()]
            found += [f"{name}.{a}" for a, v in owners if hasattr(v, "bench_trace_key")]
    return found


def _files(directory: Path) -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted(directory.iterdir())}


def test_generator_is_deterministic_per_seed(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = torusgen.generate(7, dirs[0])
    again = torusgen.generate(7, dirs[1])
    torusgen.generate(8, dirs[2])
    assert _files(dirs[0]) == _files(dirs[1])
    assert [(i.name, i.order) for i in first] == [(i.name, i.order) for i in again]
    assert _files(dirs[0]) != _files(dirs[2])
    for inp in first:
        template, rank, (lo, hi), _ = torusgen.SLOTS[int(inp.name.split("-")[0])]
        assert lo <= inp.order <= hi


def test_torus_check_accepts_the_program_and_catches_a_wrong_verdict(tmp_path):
    inp = next(i for i in torusgen.generate(0, tmp_path) if i.template == "perm")
    rc, stdout, _, _ = run._call_main([*workloads.GLOBAL_FLAGS, "filtration", inp.path])
    assert rc == 0
    report = json.loads(stdout)
    problems, summary = torusgen.check_report(inp, report)
    assert problems == [] and summary[1] == torusgen.UNIRULED_NOT_RC
    report["verdict"] = torusgen.RATIONALLY_CONNECTED
    assert torusgen.check_report(inp, report)[0]


def test_tracer_leaves_no_wrapper_behind():
    import reidtai.cli
    import reidtai.monomial

    before = (reidtai.cli.prop_prod_check, reidtai.monomial.MonomialElement.compose)
    t = tracer.Tracer()
    with t:
        wrapped = installed_wrappers()
        rc, _, _, _ = run._call_main([*workloads.GLOBAL_FLAGS, "monomial-check", "--m", "2", "--p", "1", "--n", "3"])
    assert rc == 0
    for name in ("reidtai.cli.prop_prod_check", "reidtai.cli.classify_pairs", "reidtai.torus.cyclotomic_spectrum",
                 "reidtai.torus.mat_mul", "reidtai.monomial.MonomialElement.compose"):
        assert name in wrapped
    assert installed_wrappers() == []
    assert (reidtai.cli.prop_prod_check, reidtai.monomial.MonomialElement.compose) == before
    metrics = t.metrics()
    assert metrics["monomial.prop_prod_check.calls"] == 1
    assert metrics["elem.monomial_compose.calls"] > 0
    assert metrics["cli.main.self_s"] > 0


@pytest.mark.parametrize("mutate", [False, True])
def test_mutated_stdout_counts_in_fail_ratio(tmp_path, mutate):
    cmd = next(c for c in workloads.galois_commands() if c.name == "orders-scan-372")
    if mutate:
        cmd = dataclasses.replace(cmd, check=lambda stdout, check=cmd.check: check(stdout.replace(b"9", b"11", 1)))
    metrics, attempted, failed, detail = run.timed_run(workloads.Workload("probe", [cmd]), 0, tmp_path)
    assert attempted == 1
    assert failed == (1 if mutate else 0)
    assert detail["fail_ratio"] == failed
    assert metrics["wall_ref"][0] > 0 and detail["wall_s"] > 0


def test_benchmark_json_lists_every_metric_the_runs_print():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    traced = list(tracer.Tracer().metrics()) + ["trace.overhead_ratio", "trace.layer_share"]
    assert [m["name"] for m in spec["per_layer"]] == traced
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
