"""Call-boundary spans for the benchmark's traced run.

The traced run wraps public functions of each ``sepcert`` layer from here,
without editing the package.  A function is wrapped wherever a caller looks
it up: ``from .cutset import is_star_cutset`` binds the name inside
``search.py``, so every ``sepcert.*`` module attribute bound to the original
function object is replaced by the wrapper.  Functions that a module imports
lazily (``from .search import search_star_cutsets`` inside a function body)
read the patched module attribute at call time.

Spans stay in memory as ``[name, parent, start_ns, end_ns]`` and are
summarised once the traced process ends.  A span's self time is its
duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

#: Per-layer metric prefix -> (module, attribute).  The attribute may be
#: private when the issue names it (``_subdivision_distances``).
LAYER_FUNCTIONS = {
    "datasets.f090a": ("sepcert.datasets", "f090a"),
    "graph.parse_graph": ("sepcert.graph", "parse_graph"),
    "graph.distances": ("sepcert.graph", "distances"),
    "graph.girth": ("sepcert.graph", "girth"),
    "graph.component_labels": ("sepcert.graph", "component_labels"),
    "aut.automorphism_group": ("sepcert.aut", "automorphism_group"),
    "aut.orbit_of_vertex_set": ("sepcert.aut", "orbit_of_vertex_set"),
    "aut.is_distance_transitive": ("sepcert.aut", "is_distance_transitive"),
    "cutset.is_cutset": ("sepcert.cutset", "is_cutset"),
    "cutset.is_sigma_separated": ("sepcert.cutset", "is_sigma_separated"),
    "cutset.is_star_cutset": ("sepcert.cutset", "is_star_cutset"),
    "cutset.is_minimal_cutset": ("sepcert.cutset", "is_minimal_cutset"),
    "cutset.complement_labels": ("sepcert.cutset", "complement_labels"),
    "cutset.subdivision_distances": ("sepcert.cutset", "_subdivision_distances"),
    "search.search_star_cutsets": ("sepcert.search", "search_star_cutsets"),
    "certify.certify_star_separated": ("sepcert.certify", "certify_star_separated"),
    "certify.certify_triangle_link": ("sepcert.certify", "certify_triangle_link"),
    "gluing.verify_gluing": ("sepcert.gluing", "verify_gluing"),
    "gluing.solve_gluing": ("sepcert.gluing", "solve_gluing"),
    "complexes.parse_complex": ("sepcert.complexes", "parse_complex"),
    "complexes.check_gromov": ("sepcert.complexes", "check_gromov"),
    "complexes.link": ("sepcert.complexes", "link"),
    "complexes.trace_hypergraph": ("sepcert.complexes", "trace_hypergraph"),
    "complexes.hypergraph_checks": ("sepcert.complexes", "hypergraph_checks"),
    "complexes.wall_cut": ("sepcert.complexes", "wall_cut"),
    "complexes.separation_check": ("sepcert.complexes", "separation_check"),
    "pipeline.run_f090a": ("sepcert.pipeline", "run_f090a"),
}

#: ``pipeline._ALL_STAGES`` name -> the ``sepcert.pipeline`` attribute that
#: runs it.  Stage spans wrap the layer spans, so a stage's time is read
#: inclusive of the layers it calls.
PIPELINE_STAGES = {
    "structure": "_structure_stage",
    "automorphisms": "_aut_stage",
    "seed-cutsets": "_seed_stage",
    "neighbor-splits-at-v1": "_split_stage",
    "orbit-closure": "_closure_stage",
    "star-separated": "certify_star_separated",
    "pair-separations": "_pairs_stage",
    "triangle-link": "certify_triangle_link",
}

#: ``functools.lru_cache`` objects whose ``cache_info()`` is snapshot at exit.
CACHES = {
    "complement_labels": ("sepcert.cutset", "_complement_labels_cached"),
    "subdivision_distances": ("sepcert.cutset", "_subdivision_distances"),
}

#: Modules imported before patching, so that every binding site exists.
_MODULES = (
    "sepcert.graph",
    "sepcert.datasets",
    "sepcert.aut",
    "sepcert.cutset",
    "sepcert.search",
    "sepcert.certify",
    "sepcert.gluing",
    "sepcert.complexes",
    "sepcert.pipeline",
    "sepcert.report",
    "sepcert.cli",
)


def _count_search(result, counters: dict) -> None:
    for key in ("nodes", "leaves", "rejected_at_emission"):
        counters[f"search.{key}"] = counters.get(f"search.{key}", 0) + result.stats[key]
    counters["search.cutsets"] = counters.get("search.cutsets", 0) + len(result.cutsets)


def _count_equations(cert, counters: dict) -> None:
    eqs = sum((c.witness or {}).get("equations", 0) for c in cert.checks)
    counters["gluing.equations"] = counters.get("gluing.equations", 0) + eqs


def _count_segments(h, counters: dict) -> None:
    counters["complexes.segments"] = counters.get("complexes.segments", 0) + len(h.segments)


#: Counters read from a layer's return value, at the same call boundary.
_AFTER = {
    "search.search_star_cutsets": _count_search,
    "gluing.verify_gluing": _count_equations,
    "complexes.trace_hypergraph": _count_segments,
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._caches: dict[str, object] = {}

    def wrap(self, name: str, fn, after=None):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if after is not None:
                after(result, counters)
            return result

        return traced

    def install(self) -> None:
        """Import the package and patch every binding site of each layer
        function.  A function the package no longer has is recorded in
        ``missing`` and its metrics read 0."""
        for mod in _MODULES:
            importlib.import_module(mod)
        for key, (mod, attr) in CACHES.items():
            self._caches[key] = getattr(sys.modules[mod], attr, None)
        for name, (mod, attr) in LAYER_FUNCTIONS.items():
            orig = getattr(sys.modules[mod], attr, None)
            if orig is None:
                self.missing.append(name)
                continue
            self._rebind(orig, self.wrap(name, orig, _AFTER.get(name)))
        pipeline = sys.modules["sepcert.pipeline"]
        for stage, attr in PIPELINE_STAGES.items():
            inner = getattr(pipeline, attr, None)
            if inner is None or stage not in getattr(pipeline, "_ALL_STAGES", ()):
                self.missing.append(f"pipeline.stage.{stage}")
                continue
            setattr(pipeline, attr, self.wrap(f"pipeline.stage.{stage}", inner))

    @staticmethod
    def _rebind(orig, wrapper) -> None:
        for name, mod in list(sys.modules.items()):
            if not (name == "sepcert" or name.startswith("sepcert.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)

    def summary(self) -> dict:
        """Per-function calls, inclusive and self seconds; per-call
        durations of the functions whose percentiles are reported; cache
        hits and misses; counters."""
        child = [0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        functions: dict[str, dict] = {}
        durations: dict[str, list[float]] = {"complexes.trace_hypergraph": []}
        for i, (name, _parent, start, end) in enumerate(self.spans):
            f = functions.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            f["calls"] += 1
            f["incl_s"] += (end - start) / 1e9
            f["self_s"] += (end - start - child[i]) / 1e9
            if name in durations:
                durations[name].append((end - start) / 1e9)
        caches = {}
        for key, fn in self._caches.items():
            info = fn.cache_info() if hasattr(fn, "cache_info") else None
            caches[key] = [info.hits, info.misses] if info else [0, 0]
        return {
            "functions": functions,
            "durations": durations,
            "counters": dict(self.counters),
            "caches": caches,
            "missing": self.missing,
        }
