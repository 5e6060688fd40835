"""The package namespace, and which modules each subcommand loads in a fresh process."""

import argparse
import ast
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
    "roots": ("RootOfUnity", "UnitClasses", "unit_classes"),
    "spectra": ("Spectrum", "satisfies_rt"),
    "lattice": ("IntMatrix", "SmithDecomposition", "Sublattice", "cyclotomic_spectrum", "hnf", "matrix_order",
                "saturate", "snf", "solve_torus_congruence", "sublattice_from_rows"),
    "search": ("MODE_ORBIT_SETS", "MODE_VALUE_UNION", "av_orbit_feasibility", "classify_pairs",
               "enumerate_exceptional_multisets", "feasible_orders", "min_age_same_order", "min_halforbit_sum",
               "simple_av_screen", "table1"),
    "monomial": ("GGroup", "MonomialElement", "MonomialGroup", "g_group", "monomial_closure", "normal_closure",
                 "prop_prod_check", "spectrum_of"),
    "imprimitive": ("imprimitive_classification",),
    "torus": ("KODAIRA_ZERO", "RATIONALLY_CONNECTED", "UNIRULED_NOT_RC", "AffineTorusMap", "TorusAction", "closure",
              "exceptional_elements", "filtration", "rt_tangent_sublattice"),
    "deviation": ("deviation_wrt_basis", "eigenbasis_deviation", "extraspecial_bound", "extraspecial_scan",
                  "invariant_dimension", "product_bound_check", "tensor_perm_trace_check"),
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


class TestNamespace:
    def test_all_lists_the_public_names(self):
        assert len(NAMES) == 50
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

    def test_every_name_is_used_outside_the_tests(self):
        # the library outside the export table, the demos and the benchmark
        package = REPO / "src" / "reidtai"
        files = [path for path in sorted(package.rglob("*.py")) if path != package / "__init__.py"]
        files += sorted((REPO / "demos").glob("*.py")) + sorted((REPO / "bench").glob("*.py"))
        used = set()
        for path in files:
            used |= _used_names(ast.parse(path.read_text()))
        assert _unused(_public_names(package), used) == []

    def test_a_member_named_only_in_another_class_path_is_unused(self):
        # a tracer target names MonomialElement.inverse; no file reads .inverse or names AffineTorusMap.inverse
        used = _used_names(ast.parse('TARGETS = {"elem": ("reidtai.monomial", "MonomialElement.inverse")}\n'
                                     "print(inverse, AffineTorusMap)\n"))
        members = [(f"{cls}.inverse", _member_keys(cls, "inverse")) for cls in ("AffineTorusMap", "MonomialElement")]
        assert _unused(members, used) == ["AffineTorusMap.inverse"]
        assert _unused(members, _used_names(ast.parse("g.inverse()\n"))) == []


def _member_keys(cls: str, member: str) -> tuple[str, str]:
    """The uses that count for a class member: an attribute read ``.member`` or ``Class.member`` in a string."""
    return f".{member}", f"{cls}.{member}"


def _public_names(package: Path):
    """Each module's ``__all__``, the package's included, and the public methods and properties of its classes.

    Each comes with the uses that count for it (see ``_used_names``): a module-level name any use of the name, a
    member the keys of ``_member_keys``.  A member that overrides a base-class method is left out: the base class's
    callers reach it.
    """
    for path in sorted(package.rglob("*.py")):
        dotted = ".".join(path.relative_to(package.parent).with_suffix("").parts).removesuffix(".__init__")
        module = importlib.import_module(dotted)
        yield from ((f"{module.__name__}.{name}", (name,)) for name in getattr(module, "__all__", ()))
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                bases = getattr(module, node.name).__mro__[1:]
                yield from (
                    (f"{node.name}.{member.name}", _member_keys(node.name, member.name)) for member in node.body
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
                    and not any(hasattr(base, member.name) for base in bases)
                )


def _unused(public, used: set[str]) -> list[str]:
    return [name for name, keys in public if used.isdisjoint(keys)]


def _used_names(tree: ast.Module) -> set[str]:
    """The uses in a module: each identifier; each attribute both bare and as ``.attr`` when it is read; each part of
    a string split at its dots, and each pair ``A.b`` of adjacent parts.

    A module-level definition's uses of its own name, and the strings of ``__all__``, do not count.
    """
    used = set()
    for statement in tree.body:
        if isinstance(statement, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in statement.targets):
            continue
        names = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    names.add(f".{node.attr}")
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                names.update(parts)
                names.update(f"{a}.{b}" for a, b in zip(parts, parts[1:]))
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            names.discard(statement.name)
        used |= names
    return used


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

SEARCH_ONLY = ("deviation", "golden", "groups", "imprimitive", "monomial", "torus", "lattice")
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
        ((), ("deviation", "golden", "groups", "imprimitive", "monomial", "torus", "lattice", "search")),
        (("filtration", KUMMER), ("deviation", "golden", "imprimitive", "monomial", "search")),
        (("av-verdict", KUMMER), ("deviation", "golden", "imprimitive", "monomial", "search")),
        (("monomial-check", "--m", "2", "--p", "1", "--n", "3"),
         ("deviation", "golden", "imprimitive", "torus", "lattice", "search")),
        (("orders-scan", "--bound", "30"), SEARCH_ONLY),
        (("pair-search", "--f-max", "12"), SEARCH_ONLY),
        (("multisets", "--f-max", "12", "--mode", "orbit-sets"), SEARCH_ONLY),
        (("simple-av-screen", "--dim", "4"), SEARCH_ONLY),
        (("age", "--spectrum", "1/6,1/3"), SEARCH_ONLY + ("search",)),
    ],
    ids=["import", "filtration", "av-verdict", "monomial-check", "orders-scan", "pair-search", "multisets",
         "simple-av-screen", "age"],
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
    engines = ("search", "spectra", "roots", "lattice", "groups", "monomial", "imprimitive", "torus", "deviation",
               "golden")
    assert modules.isdisjoint(f"reidtai.{name}" for name in engines)


@pytest.mark.parametrize(
    "argv", [("deviation", "--spectrum", "1/6,1/3"), ("extraspecial-scan", "--max-dim", "9")],
    ids=["deviation", "extraspecial-scan"],
)
def test_numeric_commands_load_numpy(argv):
    assert {"numpy", "reidtai.deviation"} <= loaded_modules(*argv)


@pytest.mark.parametrize(
    "argv,family",
    [
        (("age", "--spectrum", "1/6,1/3"), "spectra"),
        (("orders-scan", "--bound", "30"), "search"),
        (("filtration", KUMMER), "torus"),
        (("monomial-check", "--m", "2", "--p", "1", "--n", "3"), "monomial"),
        (("imprimitive-cases",), "monomial"),
    ],
    ids=["age", "orders-scan", "filtration", "monomial-check", "imprimitive-cases"],
)
def test_command_compiles_only_its_handler_family(argv, family):
    handlers = {m for m in loaded_modules(*argv) if m.startswith("reidtai.commands.")}
    assert handlers == {f"reidtai.commands.{family}"}


def test_imprimitive_cases_loads_no_group_engine():
    modules = loaded_modules("imprimitive-cases")
    assert "reidtai.imprimitive" in modules
    assert modules.isdisjoint(f"reidtai.{name}" for name in ("groups", "monomial", "torus", "lattice"))


class TestOneSubparser:
    SUBCOMMANDS = ("age", "rt-check", "table1", "orders-scan", "pair-search", "multisets", "same-order-screen",
                   "av-verdict", "filtration", "simple-av-screen", "monomial-check", "imprimitive-cases", "deviation",
                   "extraspecial-scan", "verify-witness", "golden")

    @pytest.fixture
    def built(self, monkeypatch):
        built = []
        add_parser = argparse._SubParsersAction.add_parser

        def counted(action, name, **kwargs):
            built.append(name)
            return add_parser(action, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
        return built

    def test_a_well_formed_command_builds_one_subparser(self, built, capsys):
        from reidtai.cli import main

        assert main(["--cap", "100", "monomial-check", "--m", "2", "--p", "1", "--n", "3", "--format", "json"]) == 0
        assert built == ["monomial-check"]
        assert json.loads(capsys.readouterr().out)["group_order"] == 48

    def test_help_lists_every_subcommand(self, built, capsys):
        from reidtai.cli import main

        assert main(["--help"]) == 0
        assert built == list(self.SUBCOMMANDS)
        out = capsys.readouterr().out
        assert all(f"    {name} " in out or f"    {name}\n" in out for name in self.SUBCOMMANDS)

    def test_a_usage_error_is_printed_by_the_full_parser(self, built, capsys):
        from reidtai.cli import main

        # the main parser's usage lists every subcommand
        assert main(["age", "--spectrum", "1/2", "extra"]) == 2
        assert built == ["age", *self.SUBCOMMANDS]
        err = capsys.readouterr().err
        assert "{age,rt-check," in err and err.endswith("reidtai: error: unrecognized arguments: extra\n")


def _imports(path: Path, src: Path):
    """The absolute names of the modules and attributes a file imports, relative imports resolved."""
    package = list(path.relative_to(src).with_suffix("").parts)
    package = package[:-1]  # a module's package, or the package of an __init__
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join(package[: len(package) - node.level + 1] + ([node.module] if node.module else []))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_no_module_imports_the_cli():
    src = REPO / "src"
    files = sorted((src / "reidtai").rglob("*.py"))
    imports = {path.name if path.parent.name == "reidtai" else f"commands/{path.name}": set(_imports(path, src))
               for path in files}
    assert {"reidtai.commands.EXIT_INPUT", "reidtai.options"} <= imports["cli.py"]  # relative imports resolve
    assert "reidtai.commands._emit" in imports["commands/search.py"] and "reidtai.options" in imports["commands/search.py"]
    assert [name for name, found in imports.items() if "reidtai.cli" in found] == []
