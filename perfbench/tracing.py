"""Spans around calls into cosetx's public functions, recorded from outside.

``Tracer.install()`` replaces each target function with a wrapper at every
module attribute and class attribute inside ``cosetx`` that binds it (a
kernel is bound in the backend module, in ``cosetx._kernels`` and in every
module that imported it by name), and ``restore()`` puts the originals
back.  Nothing under ``src/`` is edited.  A target that a later version of
the package no longer has is skipped, and its metrics read 0.

A span is (name, start, end, parent).  A layer's self time is the sum over
its spans of duration minus the time covered by their child spans, so self
times of nested layers add up without double counting.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np


def _arg(sig, args, kwargs, name):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _closure_counts(sig, args, kwargs, out):
    gens = np.atleast_2d(np.asarray(_arg(sig, args, kwargs, "gens")))
    # every element is a BFS frontier exactly once and meets every generator
    return {"elements": len(out), "candidates": len(out) * len(gens)}


def _matmul_counts(sig, args, kwargs, out):
    return {"rows": len(out)}


def _keyindex_counts(sig, args, kwargs, out):
    return {"keys": len(np.asarray(_arg(sig, args, kwargs, "keys")))}


def _cosets_counts(sig, args, kwargs, out):
    gens = _arg(sig, args, kwargs, "sub_generators")
    if gens is None:
        gens = np.unique(np.asarray(_arg(sig, args, kwargs, "sub_indices")))
    return {"orbit_generators": len(gens)}


def _assemble_counts(sig, args, kwargs, out):
    return {"rows_in": _arg(sig, args, kwargs, "G").size, "faces_out": len(out.max_faces)}


def _eig_counts(sig, args, kwargs, out):
    return {"max_vertices": _arg(sig, args, kwargs, "M").vertex_count}


def _report_counts(sig, args, kwargs, out):
    solvers = [e.solver for e in _arg(sig, args, kwargs, "entries")]
    return {"links_reused": solvers.count("reused"),
            "links_solved": len(solvers) - solvers.count("reused") - solvers.count("none")}


def _verify_counts(sig, args, kwargs, out):
    return {"relations": out.checked}


# (module, attribute path, span name, counters from (signature, args, kwargs, result))
TARGETS = [
    ("cosetx.ring", "RingTable.__init__", "ring.tables", None),
    # the selected backend's kernels, as re-exported by the dispatch module
    ("cosetx._kernels", "closure_bfs", "kernels.closure", _closure_counts),
    ("cosetx._kernels", "matmul_batch", "kernels.matmul", _matmul_counts),
    ("cosetx._kernels.common", "KeyIndex.__init__", "kernels.keyindex.build", _keyindex_counts),
    ("cosetx._kernels.common", "KeyIndex.lookup", "kernels.keyindex.lookup", None),
    ("cosetx.groups", "MatrixGroup.right_mult_table", "groups.mult_table", None),
    # exact coefficient arithmetic on single matrices, no ring tables
    ("cosetx.groups", "MatElement.__matmul__", "groups.exact", None),
    ("cosetx.groups", "MatElement.inverse", "groups.exact", None),
    ("cosetx.groups", "cosets", "groups.cosets", _cosets_counts),
    ("cosetx.complexes", "coset_complex", "complexes.assemble", _assemble_counts),
    ("cosetx.complexes", "SimplicialComplex._table", "complexes.face_tables", None),
    ("cosetx.complexes", "link", "complexes.link", None),
    ("cosetx.complexes", "is_isomorphic_partite", "complexes.iso", None),
    ("cosetx.spectral", "walk_matrix", "spectral.walk", None),
    ("cosetx.spectral", "second_eigenvalue", "spectral.eig", _eig_counts),
    ("cosetx.spectral", "_finish_report", "spectral.report", _report_counts),
    ("cosetx.cohomology", "h1_trivial", "cohomology.h1", None),
    ("cosetx.cohomology", "h1_class_census", "cohomology.h1", None),
    ("cosetx.cohomology", "expansion_h0", "cohomology.h1", None),
    ("cosetx.cohomology", "expansion_h1", "cohomology.h1", None),
    ("cosetx.presentations", "verify_relations", "presentations.verify", _verify_counts),
    ("cosetx.roots", "verify_propagation", "roots.propagate", None),
    ("cosetx.roots", "propagate_stage", "roots.propagate", None),
]

# per-layer metric -> (span name, field); field is "calls", "self_s" or a counter
METRICS = {
    "ring.tables_s": ("ring.tables", "self_s"),
    "kernels.closure.calls": ("kernels.closure", "calls"),
    "kernels.closure.self_s": ("kernels.closure", "self_s"),
    "kernels.closure.elements": ("kernels.closure", "elements"),
    "kernels.closure.candidates": ("kernels.closure", "candidates"),
    "kernels.matmul.calls": ("kernels.matmul", "calls"),
    "kernels.matmul.rows": ("kernels.matmul", "rows"),
    "kernels.matmul.self_s": ("kernels.matmul", "self_s"),
    "kernels.keyindex.build_s": ("kernels.keyindex.build", "self_s"),
    "kernels.keyindex.lookup_s": ("kernels.keyindex.lookup", "self_s"),
    "kernels.keyindex.keys": ("kernels.keyindex.build", "keys"),
    "groups.mult_table.calls": ("groups.mult_table", "calls"),
    "groups.mult_table.self_s": ("groups.mult_table", "self_s"),
    "groups.exact.calls": ("groups.exact", "calls"),
    "groups.exact.self_s": ("groups.exact", "self_s"),
    "groups.cosets.calls": ("groups.cosets", "calls"),
    "groups.cosets.orbit_generators": ("groups.cosets", "orbit_generators"),
    "groups.cosets.self_s": ("groups.cosets", "self_s"),
    "complexes.assemble.self_s": ("complexes.assemble", "self_s"),
    "complexes.assemble.rows_in": ("complexes.assemble", "rows_in"),
    "complexes.assemble.faces_out": ("complexes.assemble", "faces_out"),
    "complexes.face_tables_s": ("complexes.face_tables", "self_s"),
    "complexes.link.calls": ("complexes.link", "calls"),
    "complexes.link.self_s": ("complexes.link", "self_s"),
    "complexes.iso.calls": ("complexes.iso", "calls"),
    "complexes.iso.self_s": ("complexes.iso", "self_s"),
    "spectral.walk_s": ("spectral.walk", "self_s"),
    "spectral.eig.calls": ("spectral.eig", "calls"),
    "spectral.eig.self_s": ("spectral.eig", "self_s"),
    "spectral.eig.max_vertices": ("spectral.eig", "max_vertices"),
    "spectral.links_solved": ("spectral.report", "links_solved"),
    "spectral.links_reused": ("spectral.report", "links_reused"),
    "cohomology.h1.calls": ("cohomology.h1", "calls"),
    "cohomology.h1.self_s": ("cohomology.h1", "self_s"),
    "presentations.verify.calls": ("presentations.verify", "calls"),
    "presentations.verify.self_s": ("presentations.verify", "self_s"),
    "presentations.verify.relations": ("presentations.verify", "relations"),
    "roots.propagate_s": ("roots.propagate", "self_s"),
}


def _resolve(module: str, path: str):
    """The function at ``module.path``, or None when the target is gone."""
    try:
        owner = importlib.import_module(module)
    except ModuleNotFoundError:
        return None
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    return vars(owner).get(attr)


def _bindings(original):
    """Every (owner, attribute) inside cosetx whose value is ``original``."""
    out = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "cosetx" or modname.startswith("cosetx.")):
            continue
        for name, val in list(vars(mod).items()):
            if val is original:
                out.append((mod, name))
            elif isinstance(val, type) and val.__module__ == modname:
                out += [(val, k) for k, v in vars(val).items() if v is original]
    return out


class Tracer:
    """Records spans while installed; aggregates them into layer metrics."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counters: dict[str, dict[str, float]] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent)

    def _count(self, name: str, values: dict) -> None:
        # counters add up over calls, except "max_*" ones, which keep the largest
        acc = self.counters.setdefault(name, {})
        for k, v in values.items():
            acc[k] = max(acc.get(k, 0), v) if k.startswith("max_") else acc.get(k, 0) + v

    def _wrap(self, original, name: str, counts):
        sig = inspect.signature(original) if counts is not None else None
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                out = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counts is not None:
                tracer._count(name, counts(sig, args, kwargs, out))
            return out

        return wrapper

    # -- install / restore ----------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        # resolve every target first: a wrapper must never be mistaken for an original
        found = [(_resolve(mod, path), name, counts) for mod, path, name, counts in TARGETS]
        for original, name, counts in found:
            if original is None:
                continue
            wrapper = self._wrap(original, name, counts)
            for owner, attr in _bindings(original):
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- aggregation -----------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s, plus its counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            acc = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += 1
            acc["self_s"] += (end - start) - inner
        for name, values in self.counters.items():
            out.setdefault(name, {"calls": 0, "self_s": 0.0}).update(values)
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Every metric in METRICS, 0 where its layer did no work."""
        totals = self.layer_totals()
        out = {m: totals.get(span, {}).get(field, 0) for m, (span, field) in METRICS.items()}
        cand = out["kernels.closure.candidates"]
        out["kernels.closure.useful_ratio"] = (
            max(out["kernels.closure.elements"] - out["kernels.closure.calls"], 0) / cand
            if cand else 0.0)
        return out
