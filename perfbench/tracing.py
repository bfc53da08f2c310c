"""Per-layer instrumentation, installed from outside the program.

Layers are the modules of dualis.  ``SpanTracer`` wraps chosen public
functions and methods of each module in spans timed with thread CPU time
(``time.thread_time``), because the suite's thread pool interleaves threads
on the interpreter lock.  A span's self time is its duration minus its child
spans; a layer's self time is the sum over its spans.  Time spent in helpers
that are not wrapped (private functions, ``Field`` arithmetic, accessors such
as ``FinAlgebra.multiply``) counts towards the nearest wrapped caller.

``Counters`` counts calls too frequent to time: ``Field`` arithmetic and the
template walk steps.  It runs in a pass of its own, since its cost would
distort the span timings and press on criterion 6's 60 s budget.

A name imported with ``from .x import y`` is a second reference to the same
function, so every dualis module holding the original is rebound to the
wrapper; methods are wrapped once on their class.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time

from dualis import combinat, fields, suite


# (layer, span name, owner, attributes, cells).  The owner is a module or a
# "module:Class" path; the span name defaults to the layer.  cells maps a
# call's arguments to the size of the matrix it hands to elimination.
SPANS = [
    ("linalg", None, "dualis.linalg:SparseMatrix", ("rank", "kernel_basis"),
     lambda a: a[0].rows * a[0].cols),
    ("linalg", None, "dualis.linalg:SparseMatrix", ("solve",),
     lambda a: a[0].rows * (a[0].cols + 1)),
    ("linalg", None, "dualis.linalg:SparseMatrix", ("inverse",),
     lambda a: a[0].rows * 2 * a[0].cols),
    ("linalg", None, "dualis.linalg:SparseMatrix", ("__matmul__", "tensor"), None),
    ("linalg", None, "dualis.linalg:RowSpace", ("add", "contains", "residual", "coords"),
     lambda a: (a[0].dim + 1) * a[0].ambient),
    ("linalg", None, "dualis.linalg", ("span_basis", "intersect_spans"), None),
    ("algebra", "algebra.assoc", "dualis.algebra", ("check_associative",), None),
    ("algebra", "algebra.morphism", "dualis.algebra:AlgebraMorphism", ("__post_init__",), None),
    ("algebra", None, "dualis.algebra:FinAlgebra", ("__post_init__",), None),
    ("algebra", None, "dualis.algebra",
     ("matrix_algebra", "compose", "unitalize", "unitalize_morphism",
      "regular_matrix_embedding", "ideal_closure", "quotient_algebra",
      "cofinite_two_sided_inside", "radical"), None),
    ("coalgebra", "coalgebra.validate", "dualis.coalgebra:FinCoalgebra", ("__post_init__",), None),
    ("coalgebra", "coalgebra.validate", "dualis.coalgebra:CoalgebraMorphism",
     ("__post_init__",), None),
    ("coalgebra", None, "dualis.coalgebra",
     ("compose_coalgebra", "counitalize", "counital_lift", "dual_algebra",
      "dual_coalgebra", "dual_unitalization_iso", "comatrix", "comatrix_cover",
      "subcoalgebra_on_span", "subcoalgebra_generated", "coradical"), None),
    ("comodule", None, "dualis.comodule:FinComodule", ("__post_init__",), None),
    ("comodule", None, "dualis.comodule:FinModule", ("__post_init__",), None),
    ("comodule", None, "dualis.comodule",
     ("comodule_counitalize", "comodule_to_dual_module", "module_to_comodule",
      "is_subcomodule", "is_submodule", "subcomodule_on_span",
      "subcomodule_generated", "lattice_agreement_check"), None),
    ("finite_dual", "finite_dual.linrec", "dualis.finite_dual", ("linrec_analyze",), None),
    ("finite_dual", None, "dualis.finite_dual:GradedAlgebra",
     ("__post_init__", "as_fin_algebra"), None),
    ("finite_dual", None, "dualis.finite_dual:FinBialgebra", ("__post_init__",), None),
    ("finite_dual", None, "dualis.finite_dual",
     ("polynomial_algebra", "seq_functional", "translate_span", "membership_bounded",
      "delta_of_functional", "coefficient_functions", "finite_dual_findim",
      "unital_dual_compat", "bialgebra_dual", "group_bialgebra"), None),
    ("combinat", "combinat.posets", "dualis.combinat", ("all_posets_up_to_iso",), None),
    ("combinat", None, "dualis.combinat",
     ("paths_by_length", "path_algebra", "path_coalgebra", "verify_pathdual_iso",
      "incidence_algebra", "incidence_coalgebra", "verify_incidencedual_iso",
      "make_template", "semiperfect_check"), None),
    ("idempotents", None, "dualis.idempotents",
     ("min_poly_in_corner", "split_semisimple_unit", "newton_lift",
      "complete_primitive_idempotents", "verify_family"), None),
    # sympy is a layer of its own, so idempotents' self time excludes it
    ("sympy", "idempotents.factor", "sympy:Poly", ("factor_list",), None),
    ("reflexivity", "reflexivity.decompose", "dualis.reflexivity",
     ("decompose_injectives",), None),
    ("reflexivity", None, "dualis.reflexivity",
     ("counit_from_decomposition", "rat_dual", "phi_l", "left_coreflexive_check",
      "rat_module_to_comodule", "hopf_selfdual_check", "rat_dual_template",
      "semiperfect_iff_injective_harness"), None),
    ("randgen", None, "dualis.randgen",
     ("rand_invertible", "conjugate_coalgebra", "conjugate_algebra",
      "divided_power_coalgebra", "grouplike_coalgebra", "direct_sum_coalgebra",
      "direct_sum_algebra", "truncated_poly_algebra", "rand_coalgebra",
      "rand_algebra", "rand_comodule", "rand_morphism_triple",
      "rand_acyclic_quiver", "rand_poset", "hopf_instances", "rand_subspace"), None),
    ("specdoc", "specdoc.parse", "dualis.specdoc", ("parse_spec",), None),
    ("specdoc", None, "dualis.specdoc", ("run_check",), None),
    ("report", "report.canonical", "dualis.report:Report", ("canonical_json",), None),
    ("report", None, "dualis.report:Report", ("payload", "to_text"), None),
]

FIELD_OPS = ("add", "sub", "mul", "neg", "inv", "div")
TEMPLATES = ("FiniteTemplate", "LineTemplate", "RayTemplate", "StarTemplate", "LoopTemplate")


def _owner(path: str):
    mod, _, cls = path.partition(":")
    obj = importlib.import_module(mod)
    return getattr(obj, cls) if cls else obj


def _rebind(orig, wrapped):
    """Point every dualis module's reference to orig at wrapped."""
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "dualis" or name.startswith("dualis.")):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)


class _ThreadStats:
    def __init__(self):
        self.stack: list = []
        self.calls: dict = {}
        self.total: dict = {}
        self.self_time: dict = {}
        self.layer_self: dict = {}
        self.cells = 0


class SpanTracer:
    """Spans around the functions in SPANS and around each suite criterion."""

    def __init__(self):
        self._local = threading.local()
        self._threads: list = []

    def _stats(self) -> _ThreadStats:
        st = getattr(self._local, "stats", None)
        if st is None:
            st = self._local.stats = _ThreadStats()
            self._threads.append(st)
        return st

    def wrap(self, fn, layer: str, name: str, cells=None):
        clock = time.thread_time
        stats = self._stats

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = stats()
            size = cells(args) if cells is not None else 0
            st.stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = st.stack.pop()
                if st.stack:
                    st.stack[-1] += dt
                own = dt - child
                st.calls[name] = st.calls.get(name, 0) + 1
                st.total[name] = st.total.get(name, 0.0) + dt
                st.self_time[name] = st.self_time.get(name, 0.0) + own
                st.layer_self[layer] = st.layer_self.get(layer, 0.0) + own
                st.cells += size

        return traced

    def install(self):
        for layer, name, owner_path, attrs, cells in SPANS:
            owner = _owner(owner_path)
            for attr in attrs:
                orig = getattr(owner, attr)
                wrapped = self.wrap(orig, layer, name or layer, cells)
                if isinstance(owner, type):
                    setattr(owner, attr, wrapped)
                else:
                    _rebind(orig, wrapped)
        for i, (cname, fn) in enumerate(suite.CRITERIA):
            tag = fn.__name__.split("_", 1)[0]
            suite.CRITERIA[i] = (cname, self.wrap(fn, "suite", f"suite.criterion.{tag}"))

    def totals(self) -> dict:
        """Merged per-thread figures: calls, total and self seconds per span
        name, self seconds per layer, and linalg cells."""
        out = {"calls": {}, "total": {}, "self": {}, "layer_self": {}, "cells": 0}
        for st in self._threads:
            for key, part in (("calls", st.calls), ("total", st.total),
                              ("self", st.self_time), ("layer_self", st.layer_self)):
                for k, v in part.items():
                    out[key][k] = out[key].get(k, 0) + v
            out["cells"] += st.cells
        return out


def _counted(fn, counter):
    @functools.wraps(fn)
    def counting(*args, **kwargs):
        next(counter)  # itertools.count is atomic under the interpreter lock
        return fn(*args, **kwargs)

    return counting


class Counters:
    """Call counts of ``Field`` arithmetic and template ``out_arrows`` /
    ``in_arrows`` (one walk step each)."""

    def __init__(self):
        self.field_ops = itertools.count()
        self.hops = itertools.count()

    def install(self):
        for attr in FIELD_OPS:
            setattr(fields.Field, attr, _counted(getattr(fields.Field, attr), self.field_ops))
        for cls_name in TEMPLATES:
            cls = getattr(combinat, cls_name)
            for attr in ("out_arrows", "in_arrows"):
                setattr(cls, attr, _counted(getattr(cls, attr), self.hops))

    def totals(self) -> dict:
        return {"fields.ops": next(self.field_ops), "combinat.hops": next(self.hops)}

