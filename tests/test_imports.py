"""The package namespace, and which modules each subcommand loads in a fresh process."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import reidtai

REPO = Path(__file__).resolve().parent.parent
KUMMER = str(REPO / "demos" / "inputs" / "kummer2.json")

# The package's public names, by the submodule that defines them.
PUBLIC = {
    "roots": ("RootOfUnity", "UnitClasses", "conjugate", "galois_apply", "normalize", "unit_classes"),
    "spectra": ("Spectrum", "blichfeldt_violating", "satisfies_rt"),
    "lattice": ("IntMatrix", "SmithDecomposition", "Sublattice", "cyclotomic_spectrum", "hnf", "matrix_order",
                "saturate", "snf", "solve_torus_congruence", "sublattice_from_rows"),
    "search": ("MODE_ORBIT_SETS", "MODE_VALUE_UNION", "av_orbit_feasibility", "classify_pairs",
               "enumerate_exceptional_multisets", "feasible_orders", "min_age_same_order", "min_halforbit_sum",
               "pair_feasible", "table1"),
    "monomial": ("MonomialElement", "MonomialGroup", "g_group", "imprimitive_classification", "monomial_closure",
                 "normal_closure", "prop_prod_check", "spectrum_of"),
    "torus": ("KODAIRA_ZERO", "RATIONALLY_CONNECTED", "UNIRULED_NOT_RC", "AffineTorusMap", "TorusAction", "closure",
              "exceptional_elements", "filtration", "rt_subgroup", "rt_tangent_sublattice", "simple_av_screen",
              "verdict"),
    "deviation": ("deviation_wrt_basis", "eigenbasis_deviation", "extraspecial_bound", "extraspecial_scan",
                  "invariant_dimension", "product_bound_check", "tensor_perm_trace_check"),
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


class TestNamespace:
    def test_all_lists_the_public_names(self):
        assert len(NAMES) == 56
        assert sorted(reidtai.__all__) == sorted(name for _, name in NAMES)

    @pytest.mark.parametrize("module,name", NAMES, ids=[name for _, name in NAMES])
    def test_name_is_the_submodule_attribute(self, module, name):
        assert getattr(reidtai, name) is getattr(importlib.import_module(f"reidtai.{module}"), name)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from reidtai import *", namespace)
        for module, name in NAMES:
            assert namespace[name] is getattr(importlib.import_module(f"reidtai.{module}"), name)

    def test_submodules_reachable_after_import(self):
        # in a fresh interpreter, where no test has imported a submodule yet
        code = (
            "import sys, reidtai\n"
            f"for name in {[*PUBLIC, 'groups']!r}:\n"
            "    assert getattr(reidtai, name) is sys.modules['reidtai.' + name], name\n"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=REPO, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_unknown_name_raises_attribute_error(self):
        assert not hasattr(reidtai, "no_such_name")


class TestCliEngineNames:
    def test_first_access_binds_every_engine_name(self):
        # in a fresh interpreter: importing the CLI binds no engine name, one access binds them all
        code = (
            "import sys, reidtai.cli as cli\n"
            "assert 'prop_prod_check' not in vars(cli) and 'reidtai.monomial' not in sys.modules\n"
            "cli.prop_prod_check\n"
            "for module, names in cli._ENGINE_NAMES.items():\n"
            "    for name in names:\n"
            "        assert vars(cli)[name] is getattr(sys.modules['reidtai.' + module], name), name\n"
            "assert 'reidtai.deviation' not in sys.modules and 'numpy' not in sys.modules\n"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=REPO, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_unknown_name_raises_attribute_error(self):
        import reidtai.cli

        assert not hasattr(reidtai.cli, "no_such_name")


# Run one command in a fresh interpreter and report the reidtai modules it loaded, and numpy, dataclasses and inspect
# when it loaded them.
PROBE = """
import contextlib, io, json, sys
from reidtai.cli import main
argv = json.loads(sys.argv[1])
rc = None
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
watched = ("numpy", "dataclasses", "inspect")
print(json.dumps({"rc": rc, "modules": sorted(m for m in sys.modules if m in watched or m.startswith("reidtai."))}))
"""

SEARCH_ONLY = ("deviation", "golden", "monomial", "torus", "lattice")
# Start-up cost that no engine command pays: the report records and group elements are plain classes.
STDLIB_NOT_LOADED = {"dataclasses", "inspect"}


def loaded_modules(*argv: str) -> set[str]:
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)], capture_output=True, text=True, cwd=REPO, timeout=120
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["rc"] in (None, 0)
    return set(result["modules"])


@pytest.mark.parametrize(
    "argv,absent",
    [
        ((), ("deviation", "golden", "monomial", "torus", "lattice", "search")),
        (("filtration", KUMMER), ("deviation", "golden", "monomial", "search")),
        (("av-verdict", KUMMER), ("deviation", "golden", "monomial", "search")),
        (("monomial-check", "--m", "2", "--p", "1", "--n", "3"), ("deviation", "golden", "torus", "lattice", "search")),
        (("orders-scan", "--bound", "30"), SEARCH_ONLY),
        (("pair-search", "--f-max", "12"), SEARCH_ONLY),
        (("multisets", "--f-max", "12", "--mode", "orbit-sets"), SEARCH_ONLY),
    ],
    ids=["import", "filtration", "av-verdict", "monomial-check", "orders-scan", "pair-search", "multisets"],
)
def test_command_loads_only_its_engine(argv, absent):
    modules = loaded_modules(*argv)
    assert "numpy" not in modules
    assert modules.isdisjoint(f"reidtai.{name}" for name in absent)
    assert modules.isdisjoint(STDLIB_NOT_LOADED)


def test_verify_witness_loads_no_engine(tmp_path):
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps({"kind": "order", "d": 9, "representatives": [1, 2, 4], "sum": "7/9"}))
    modules = loaded_modules("verify-witness", str(wfile))
    assert "reidtai.witness" in modules and "numpy" not in modules
    assert modules.isdisjoint(STDLIB_NOT_LOADED)
    engines = ("search", "spectra", "roots", "lattice", "monomial", "torus", "deviation", "golden")
    assert modules.isdisjoint(f"reidtai.{name}" for name in engines)


@pytest.mark.parametrize(
    "argv", [("deviation", "--spectrum", "1/6,1/3"), ("extraspecial-scan", "--max-dim", "9")],
    ids=["deviation", "extraspecial-scan"],
)
def test_numeric_commands_load_numpy(argv):
    assert {"numpy", "reidtai.deviation"} <= loaded_modules(*argv)
