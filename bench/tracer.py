"""In-process tracer for the per-layer run.

While installed, it replaces selected `reidtai` functions and methods with
wrappers, in every module namespace that binds them (`reidtai.cli` binds
`prop_prod_check`, `reidtai.torus` binds `cyclotomic_spectrum`, and so
on), so calls through any of those names are seen.  Three kinds of target:

* span: timed, and each call is kept in memory as a span with its parent;
* aggregate: timed and counted, without spans (hot element arithmetic);
* count: counted only, its time stays with the caller.

Self time is a call's duration minus the duration of the traced calls it
made.  `uninstall` puts every original back, so nothing is wrapped while
the end-to-end runs are timed.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

SPAN, AGGREGATE, COUNT = "span", "aggregate", "count"

# metric key -> (module, attribute path, kind)
TARGETS = {
    "cli.main": ("reidtai.cli", "main", SPAN),
    "elem.monomial_compose": ("reidtai.monomial", "MonomialElement.compose", AGGREGATE),
    "elem.monomial_inverse": ("reidtai.monomial", "MonomialElement.inverse", AGGREGATE),
    "elem.torus_compose": ("reidtai.torus", "AffineTorusMap.compose", AGGREGATE),
    "elem.spectrum_of": ("reidtai.monomial", "spectrum_of", AGGREGATE),
    "elem.unit_classes": ("reidtai.roots", "unit_classes", AGGREGATE),
    "monomial.g_group": ("reidtai.monomial", "g_group", SPAN),
    "monomial.monomial_closure": ("reidtai.monomial", "monomial_closure", SPAN),
    "monomial.conjugacy_class": ("reidtai.monomial", "conjugacy_class", SPAN),
    "monomial.normal_closure": ("reidtai.monomial", "normal_closure", SPAN),
    "monomial.prop_prod_check": ("reidtai.monomial", "prop_prod_check", SPAN),
    "torus.closure": ("reidtai.torus", "closure", SPAN),
    "torus.exceptional_elements": ("reidtai.torus", "exceptional_elements", SPAN),
    "torus.rt_tangent_sublattice": ("reidtai.torus", "rt_tangent_sublattice", SPAN),
    "torus.filtration": ("reidtai.torus", "filtration", SPAN),
    "lattice.hnf": ("reidtai.lattice", "hnf", SPAN),
    "lattice.snf": ("reidtai.lattice", "snf", SPAN),
    "lattice.charpoly": ("reidtai.lattice", "charpoly", SPAN),
    "lattice.matrix_order": ("reidtai.lattice", "matrix_order", SPAN),
    "lattice.cyclotomic_spectrum": ("reidtai.lattice", "cyclotomic_spectrum", SPAN),
    "lattice.solve_torus_congruence": ("reidtai.lattice", "solve_torus_congruence", SPAN),
    "lattice.saturate": ("reidtai.lattice", "saturate", SPAN),
    "lattice.mat_mul": ("reidtai.lattice", "mat_mul", COUNT),
    "search.feasible_orders": ("reidtai.search", "feasible_orders", SPAN),
    "search.classify_pairs": ("reidtai.search", "classify_pairs", SPAN),
    "search.enumerate_exceptional_multisets": ("reidtai.search", "enumerate_exceptional_multisets", SPAN),
    "search.av_orbit_feasibility": ("reidtai.search", "av_orbit_feasibility", SPAN),
    "search.min_halforbit_sum": ("reidtai.search", "min_halforbit_sum", SPAN),
}

# Calls of a target counted separately while one of these span targets is
# running, for the waste ratios.
WITHIN = {
    "monomial.monomial_closure": ("monomial.normal_closure",),
    "elem.monomial_compose": ("monomial.monomial_closure",),
    "elem.torus_compose": ("torus.closure",),
    "lattice.charpoly": ("lattice.cyclotomic_spectrum",),
    "search.av_orbit_feasibility": ("search.classify_pairs", "search.enumerate_exceptional_multisets"),
}

# What a call produced, summed per target (and per WITHIN ancestor).
MEASURES = {
    "monomial.monomial_closure": lambda group: group.order - 1,  # elements beyond the identity
    "torus.closure": lambda action: action.order - 1,
    "search.av_orbit_feasibility": lambda result: int(result.feasible),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.measured = Counter()
        self.within_calls = Counter()  # (ancestor, key)
        self.within_measured = Counter()
        self.spans: list[dict] = []
        self._active = Counter()
        self._stack = [[0.0, None]]  # [time spent in traced children, span id]
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "reidtai" or name.startswith("reidtai."))]
        for key, (module_name, path, kind) in TARGETS.items():
            owner = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            wrapper = self._wrap(key, kind, original)
            if classes:
                self._replace(owner, attr, original, wrapper)
            else:
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._replace(module, name, original, wrapper)

    def _replace(self, owner, name: str, original, wrapper) -> None:
        self._restore.append((owner, name, original))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, key: str, kind: str, fn):
        ancestors = WITHIN.get(key, ())
        measure = MEASURES.get(key)

        def account(result) -> None:
            value = measure(result) if measure else 0
            self.measured[key] += value
            for anc in ancestors:
                if self._active[anc]:
                    self.within_calls[anc, key] += 1
                    self.within_measured[anc, key] += value

        if kind == COUNT:
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.calls[key] += 1
                account(result)
                return result
        else:
            record = kind == SPAN

            def wrapper(*args, **kwargs):
                stack = self._stack
                frame = [0.0, None]
                if record:
                    self._next_id += 1
                    frame[1] = self._next_id
                    parent = stack[-1][1]
                    self._active[key] += 1
                stack.append(frame)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    duration = end - start
                    stack[-1][0] += duration
                    self.calls[key] += 1
                    self.self_s[key] += duration - frame[0]
                    if record:
                        self._active[key] -= 1
                        self.spans.append({"id": frame[1], "parent": parent, "name": key,
                                           "start": start, "end": end})
                account(result)
                return result

        functools.update_wrapper(wrapper, fn)
        wrapper.bench_trace_key = key
        return wrapper

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """`<layer>.<fn>.calls` and `.self_s` for every target, then the waste ratios."""
        out: dict[str, float] = {}
        for key, (_, _, kind) in TARGETS.items():
            out[f"{key}.calls"] = self.calls[key]
            if kind != COUNT:
                out[f"{key}.self_s"] = self.self_s[key]
        out["monomial.normal_closure.closures_per_call"] = _ratio(
            self.within_calls["monomial.normal_closure", "monomial.monomial_closure"],
            self.calls["monomial.normal_closure"])
        out["monomial.closure.elements_per_compose"] = _ratio(
            self.measured["monomial.monomial_closure"],
            self.within_calls["monomial.monomial_closure", "elem.monomial_compose"])
        out["torus.closure.elements_per_compose"] = _ratio(
            self.measured["torus.closure"], self.within_calls["torus.closure", "elem.torus_compose"])
        out["lattice.charpoly.calls_per_spectrum"] = _ratio(
            self.within_calls["lattice.cyclotomic_spectrum", "lattice.charpoly"],
            self.calls["lattice.cyclotomic_spectrum"])
        for name, anc in (("search.pairs.feasible_ratio", "search.classify_pairs"),
                          ("search.multisets.kept_ratio", "search.enumerate_exceptional_multisets")):
            pair = (anc, "search.av_orbit_feasibility")
            out[name] = _ratio(self.within_measured[pair], self.within_calls[pair])
        return out

