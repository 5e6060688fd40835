"""Help, usage errors and flag placement: stdout, stderr and exit code pinned byte for byte.

The expected bytes live in ``tests/snapshots/cli-usage.json``, written from
``python -m reidtai.cli`` with ``COLUMNS=80``.  Each case is checked both in
process through ``main`` and in a fresh interpreter.  To rewrite the file
after a deliberate change of the command line:

    PYTHONPATH=src python tests/test_cli_usage.py --write
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SNAPSHOTS = REPO / "tests" / "snapshots" / "cli-usage.json"

SUBCOMMANDS = (
    "age", "rt-check", "table1", "orders-scan", "pair-search", "multisets", "same-order-screen", "av-verdict",
    "filtration", "simple-av-screen", "monomial-check", "imprimitive-cases", "deviation", "extraspecial-scan",
    "verify-witness", "golden",
)

CASES = {
    "help": ("--help",),
    **{f"{name}-help": (name, "--help") for name in SUBCOMMANDS},
    "short-help-after-arguments": ("monomial-check", "--m", "2", "-h"),
    "no-arguments": (),
    "unknown-subcommand": ("frobnicate",),
    "age-without-spectrum": ("age",),
    "filtration-without-input": ("--format", "json", "filtration"),
    "orders-scan-bound-not-an-int": ("orders-scan", "--bound", "x"),
    "pair-search-bad-mode": ("pair-search", "--mode", "bogus"),
    "format-not-a-choice": ("--format", "xml", "age", "--spectrum", "1/2"),
    "ambiguous-abbreviation": ("--s", "1", "age", "--spectrum", "1/2"),
    "option-value-names-a-subcommand": ("--cap", "age", "age", "--spectrum", "1/2"),
    "unrecognized-argument": ("age", "--spectrum", "1/2", "extra"),
    "global-flags-after-subcommand": ("age", "--spectrum", "1/2", "--format", "json", "--strict-conformance", "--cap", "5"),
    "abbreviated-global-flag": ("--form", "json", "age", "--spectrum", "1/2"),
    "abbreviated-global-flag-after-subcommand": ("age", "--spec", "1/2", "--form", "json"),
    "monomial-check-over-cap": ("monomial-check", "--m", "1", "--p", "1", "--n", "5000"),
    "monomial-check-over-small-cap": ("--cap", "10", "monomial-check", "--m", "2", "--p", "1", "--n", "3"),
    "monomial-check-p-not-dividing-m": ("monomial-check", "--m", "4", "--p", "3", "--n", "2"),
}


def run_module(argv) -> dict:
    env = {**os.environ, "COLUMNS": "80"}
    done = subprocess.run([sys.executable, "-m", "reidtai.cli", *argv], capture_output=True, cwd=REPO, env=env,
                          timeout=120)
    return {"argv": list(argv), "exit": done.returncode, "stdout": done.stdout.decode(), "stderr": done.stderr.decode()}


@pytest.fixture(scope="module")
def expected():
    return json.loads(SNAPSHOTS.read_text())


def test_every_case_is_pinned(expected):
    assert sorted(expected) == sorted(CASES)
    assert all(expected[name]["argv"] == list(argv) for name, argv in CASES.items())


@pytest.mark.parametrize("name", sorted(CASES))
def test_in_process(name, expected, monkeypatch, capsys):
    from reidtai.cli import main

    monkeypatch.setenv("COLUMNS", "80")
    rc = main(list(CASES[name]))
    out, err = capsys.readouterr()
    assert {"argv": list(CASES[name]), "exit": rc, "stdout": out, "stderr": err} == expected[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_fresh_process(name, expected):
    assert run_module(CASES[name]) == expected[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    SNAPSHOTS.write_text(json.dumps({name: run_module(argv) for name, argv in CASES.items()}, indent=1) + "\n")
