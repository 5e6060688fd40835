"""The benchmark's tracer targets and the names its own tests read still resolve.

The suite under `bench/` is not collected here, so a rename or an unbound
name in the package would only show when the benchmark runs.  This loads
`bench/tracer.py` without changing it and checks its `TARGETS` table, and
checks the names `bench/test_bench.py` looks up.  A tracer wrapper is seen
through a module's name only if that name is bound to the defining
module's object, so the re-bound names are compared by identity.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    for attr in path.split("."):
        owner = getattr(owner, attr)
    return owner


TARGETS = _load_tracer().TARGETS


@pytest.mark.parametrize("key", sorted(TARGETS))
def test_tracer_target_resolves_to_a_callable(key):
    module_name, path, _ = TARGETS[key]
    assert callable(_resolve(module_name, path))


# (module that binds the name, name, module that defines it)
REBOUND_NAMES = [
    ("reidtai.cli", "prop_prod_check", "reidtai.monomial"),
    ("reidtai.cli", "classify_pairs", "reidtai.search"),
    ("reidtai.torus", "cyclotomic_spectrum", "reidtai.lattice"),
    ("reidtai.torus", "mat_mul", "reidtai.lattice"),
    ("reidtai.torus", "saturate", "reidtai.lattice"),
    ("reidtai.torus", "snf", "reidtai.lattice"),
]


@pytest.mark.parametrize("binder, name, definer", REBOUND_NAMES, ids=[f"{b}.{n}" for b, n, _ in REBOUND_NAMES])
def test_bench_name_bound_to_the_defining_object(binder, name, definer):
    assert _resolve(binder, name) is _resolve(definer, name)

