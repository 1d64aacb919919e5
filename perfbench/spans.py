"""Spans around the package's layer boundaries, recorded from outside the package.

A traced run replaces each public function of a layer, in every module of the
package that holds a reference to it, with a wrapper that records one span:
its name, start, end, parent span and op id. Methods are wrapped on their
class. Nothing in the package's source changes, and everything is restored
when tracing stops. Spans stay in memory until the run writes them out.

The span stack is shared by all threads. That is exact as long as one thread
at a time runs package code, which holds for every workload here: the verify
commands pass ``--threads 1``, so the suite's single worker runs while the
calling thread waits.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array

import numpy as np


def _size_of_first(args, kwargs, result):
    return float(np.size(args[0]))


def _iterations(args, kwargs, result):
    est = result[0] if isinstance(result, tuple) else result
    return float(est.iterations)


def _entries(args, kwargs, result):
    return float(len(result.entries))


# (span name, module, attribute, meter). A dotted attribute is a method on a
# class. The first dotted component of a span name is its layer.
TARGETS = [
    ("kernels.down_sum", "twoweight._kernels", "down_sum", _size_of_first),
    ("kernels.down_max", "twoweight._kernels", "down_max", _size_of_first),
    ("kernels.up_sum", "twoweight._kernels", "up_sum", _size_of_first),
    ("kernels.down_sum_batch", "twoweight._kernels", "down_sum_batch", _size_of_first),
    ("kernels.up_sum_batch", "twoweight._kernels", "up_sum_batch", _size_of_first),
    ("grid.build", "twoweight.grid", "DyadicGrid.__init__", None),
    ("grid.subtree_cube_mask", "twoweight.grid", "DyadicGrid.subtree_cube_mask", None),
    ("grid.subtree_leaf_mask", "twoweight.grid", "DyadicGrid.subtree_leaf_mask", None),
    ("grid.ancestor_indices", "twoweight.grid", "DyadicGrid.ancestor_indices", None),
    ("grid.leaf_ancestor_matrix", "twoweight.grid", "DyadicGrid.leaf_ancestor_matrix", None),
    ("grid.measure", "twoweight.grid", "Measure.__init__", None),
    ("grid.cube_integrals", "twoweight.grid", "cube_integrals", None),
    ("grid.cube_averages", "twoweight.grid", "cube_averages", None),
    ("operators.apply_T", "twoweight.operators", "apply_T", None),
    ("operators.apply_T_restricted", "twoweight.operators", "apply_T_restricted", None),
    ("operators.maximal", "twoweight.operators", "maximal", None),
    ("constants.compute_testing_report", "twoweight.constants", "compute_testing_report", None),
    ("constants.testing_constants_22", "twoweight.constants", "testing_constants_22", None),
    ("constants.carleson", "twoweight.constants", "carleson_norm", None),
    ("constants.carleson", "twoweight.constants", "weighted_carleson_norm", None),
    ("extremal.cet", "twoweight.extremal", "carleson_embedding_constant", _iterations),
    ("extremal.strong", "twoweight.extremal", "strong_norm_lower", _iterations),
    ("extremal.weak", "twoweight.extremal", "weak_norm_lower", None),
    ("extremal.exact", "twoweight.extremal", "exact_norm_22", _iterations),
    ("prooflab.audit_decomposition", "twoweight.prooflab", "audit_decomposition", None),
    ("prooflab.whitney_layers", "twoweight.prooflab", "whitney_layers", None),
    ("prooflab.classify_cubes", "twoweight.prooflab", "classify_cubes", _entries),
    ("prooflab.corridor_sets", "twoweight.prooflab", "corridor_sets", None),
    ("prooflab.neighbor_sets", "twoweight.prooflab", "neighbor_sets", None),
    ("prooflab.occurrence_audit", "twoweight.prooflab", "occurrence_audit", None),
    ("prooflab.max_principle_audit", "twoweight.prooflab", "max_principle_audit", None),
    ("prooflab.principal_cubes", "twoweight.prooflab", "principal_cubes", None),
    ("prooflab.geometric_sum_audit", "twoweight.prooflab", "geometric_sum_audit", None),
    ("prooflab.carleson_of_principal", "twoweight.prooflab", "carleson_of_principal", None),
    ("harness.gen_instance", "twoweight.harness", "gen_instance", None),
    ("harness.instance_f", "twoweight.harness", "instance_f", None),
    ("harness.run_suite", "twoweight.harness", "run_suite", None),
    ("cli.main", "twoweight.cli", "main", None),
]

# per-layer metric -> (unit, better, how it is read from the span table)
PER_LAYER = {
    "kernels.calls": ("count", "lower", ("calls", "kernels.")),
    "kernels.cells": ("count", "lower", ("meter", "kernels.")),
    "kernels.self_s": ("s", "lower", ("self", "kernels.")),
    "grid.build_s": ("s", "lower", ("self", "grid.build")),
    "grid.measure.calls": ("count", "lower", ("calls", "grid.measure")),
    "grid.measure.self_s": ("s", "lower", ("self", "grid.measure")),
    "grid.subtree_cube_mask.calls": ("count", "lower", ("calls", "grid.subtree_cube_mask")),
    "grid.ancestor_indices.calls": ("count", "lower", ("calls", "grid.ancestor_indices")),
    "grid.self_s": ("s", "lower", ("self", "grid.")),
    "operators.apply_T.calls": ("count", "lower", ("calls", "operators.apply_T")),
    "operators.apply_T_restricted.calls": (
        "count", "lower", ("calls", "operators.apply_T_restricted"),
    ),
    "operators.self_s": ("s", "lower", ("self", "operators.")),
    "constants.compute_testing_report.self_s": (
        "s", "lower", ("self", "constants.compute_testing_report"),
    ),
    "constants.testing_constants_22.self_s": (
        "s", "lower", ("self", "constants.testing_constants_22"),
    ),
    "constants.carleson.self_s": ("s", "lower", ("self", "constants.carleson")),
    "extremal.cet.self_s": ("s", "lower", ("self", "extremal.cet")),
    "extremal.cet.iterations": ("count", "lower", ("meter", "extremal.cet")),
    "extremal.strong.self_s": ("s", "lower", ("self", "extremal.strong")),
    "extremal.strong.iterations": ("count", "lower", ("meter", "extremal.strong")),
    "extremal.weak.self_s": ("s", "lower", ("self", "extremal.weak")),
    "extremal.exact.self_s": ("s", "lower", ("self", "extremal.exact")),
    "extremal.exact.iterations": ("count", "lower", ("meter", "extremal.exact")),
    "prooflab.whitney_layers.self_s": ("s", "lower", ("self", "prooflab.whitney_layers")),
    "prooflab.classify_cubes.self_s": ("s", "lower", ("self", "prooflab.classify_cubes")),
    "prooflab.neighbor_sets.calls": ("count", "lower", ("calls", "prooflab.neighbor_sets")),
    "prooflab.neighbor_sets.self_s": ("s", "lower", ("self", "prooflab.neighbor_sets")),
    "prooflab.max_principle_audit.self_s": (
        "s", "lower", ("self", "prooflab.max_principle_audit"),
    ),
    "prooflab.principal_cubes.self_s": ("s", "lower", ("self", "prooflab.principal_cubes")),
    "prooflab.entries": ("count", "higher", ("meter", "prooflab.classify_cubes")),
    "prooflab.self_s": ("s", "lower", ("self", "prooflab.")),
    "harness.gen_instance.self_s": ("s", "lower", ("self", "harness.gen_instance")),
    "harness.run_suite.self_s": ("s", "lower", ("self", "harness.run_suite")),
    "cli.self_s": ("s", "lower", ("self", "cli.")),
}


class Tracer:
    """Records spans while installed; ``op_id`` tags the spans of the current op."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.meter = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.op_id = -1
        self.paused = False
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, span_name, fn, meter):
        if span_name not in self._name_ids:
            self._name_ids[span_name] = len(self.names)
            self.names.append(span_name)
        nid = self._name_ids[span_name]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.parent.append(stack[-1] if stack else -1)
            self.name.append(nid)
            self.op.append(self.op_id)
            self.meter.append(0.0)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if meter is not None:
                self.meter[idx] = meter(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def pause(self):
        """Record no spans inside this block (the benchmark's own checks run here)."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("twoweight") and m]
        for span_name, mod_name, attr, meter in TARGETS:
            mod = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(span_name, orig, meter))
                continue
            orig = getattr(mod, attr)
            traced = self._wrap(span_name, orig, meter)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        self._patches.append((holder, key, orig))
                        setattr(holder, key, traced)

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._patches):
            setattr(holder, key, orig)
        self._patches.clear()

    def table(self) -> dict:
        """Per span name: calls, total seconds, self seconds and summed meter."""
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        end = np.frombuffer(self.end, dtype=np.float64, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        name = np.frombuffer(self.name, dtype=np.int64, count=n)
        meter = np.frombuffer(self.meter, dtype=np.float64, count=n)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        k = len(self.names)
        return {
            self.names[i]: {"calls": int(c), "total": float(t), "self": float(s), "meter": float(m)}
            for i, (c, t, s, m) in enumerate(
                zip(
                    np.bincount(name, minlength=k),
                    np.bincount(name, weights=dur, minlength=k),
                    np.bincount(name, weights=own, minlength=k),
                    np.bincount(name, weights=meter, minlength=k),
                )
            )
        }

    def per_layer(self) -> dict:
        table = self.table()
        out = {}
        for metric, (unit, _better, (field, prefix)) in PER_LAYER.items():
            if prefix.endswith("."):
                rows = [row for key, row in table.items() if key.startswith(prefix)]
            else:
                rows = [table[prefix]] if prefix in table else []
            value = sum(row[field] for row in rows)
            out[metric] = {"value": int(value) if unit == "count" else value, "unit": unit}
        return out

    def write(self, path: str) -> None:
        n = len(self.start)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=np.float64, count=n),
            end=np.frombuffer(self.end, dtype=np.float64, count=n),
            parent=np.frombuffer(self.parent, dtype=np.int64, count=n),
            name=np.frombuffer(self.name, dtype=np.int64, count=n),
            op=np.frombuffer(self.op, dtype=np.int64, count=n),
            meter=np.frombuffer(self.meter, dtype=np.float64, count=n),
        )
