"""Exact-arithmetic toolkit for the Reid-Tai age criterion.

Roots of unity and their Galois orbits, ages of finite-order elements,
machine searches classifying exceptional eigenvalue data, exact integer
lattice computations deciding Kodaira verdicts for finite quotients of
tori, imprimitive monomial group scans, and numeric deviation bounds for
unitary operators.

The names below are loaded from their submodule on first access (PEP 562),
so ``import reidtai`` costs nothing until a name is used, and only the
deviation names load numpy.
"""

import importlib

_EXPORTS = {
    "roots": ("RootOfUnity", "UnitClasses", "unit_classes"),
    "spectra": ("Spectrum", "satisfies_rt"),
    "lattice": (
        "IntMatrix",
        "SmithDecomposition",
        "Sublattice",
        "cyclotomic_spectrum",
        "hnf",
        "matrix_order",
        "saturate",
        "snf",
        "solve_torus_congruence",
        "sublattice_from_rows",
    ),
    "search": (
        "MODE_ORBIT_SETS",
        "MODE_VALUE_UNION",
        "av_orbit_feasibility",
        "classify_pairs",
        "enumerate_exceptional_multisets",
        "feasible_orders",
        "min_age_same_order",
        "min_halforbit_sum",
        "simple_av_screen",
        "table1",
    ),
    "monomial": (
        "GGroup",
        "MonomialElement",
        "MonomialGroup",
        "g_group",
        "monomial_closure",
        "normal_closure",
        "prop_prod_check",
        "spectrum_of",
    ),
    "imprimitive": ("imprimitive_classification",),
    "torus": (
        "KODAIRA_ZERO",
        "RATIONALLY_CONNECTED",
        "UNIRULED_NOT_RC",
        "AffineTorusMap",
        "TorusAction",
        "closure",
        "exceptional_elements",
        "filtration",
        "rt_tangent_sublattice",
    ),
    "deviation": (
        "deviation_wrt_basis",
        "eigenbasis_deviation",
        "extraspecial_bound",
        "extraspecial_scan",
        "invariant_dimension",
        "product_bound_check",
        "tensor_perm_trace_check",
    ),
}
# name -> the submodule that defines it
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
# the submodules an import of the package makes reachable as attributes
_SUBMODULES = frozenset({*_EXPORTS, "groups"})

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SOURCE:
        return getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
