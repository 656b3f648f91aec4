"""Per-layer metrics from the traced run, and the layer-to-workload map.

``.s`` is self time in seconds summed over calls (a span's duration minus
its direct children's), except ``pipeline.stage.*.s``, which is the stage's
whole duration.  ``.calls`` counts calls at the wrapped binding sites.
"""
from __future__ import annotations

import statistics

from spans import LAYER_FUNCTIONS

S, COUNT = "s", "count"

#: (metric, unit, better) in report order.
PER_LAYER = [
    ("aut.automorphism_group.s", S, "lower"),
    ("aut.automorphism_group.calls", COUNT, "lower"),
    ("aut.orbit_of_vertex_set.s", S, "lower"),
    ("aut.is_distance_transitive.s", S, "lower"),
    ("cutset.is_sigma_separated.s", S, "lower"),
    ("cutset.is_sigma_separated.calls", COUNT, "lower"),
    ("cutset.is_star_cutset.s", S, "lower"),
    ("cutset.is_star_cutset.calls", COUNT, "lower"),
    ("cutset.is_minimal_cutset.s", S, "lower"),
    ("cutset.is_minimal_cutset.calls", COUNT, "lower"),
    ("cutset.complement_labels.s", S, "lower"),
    ("cutset.complement_labels.calls", COUNT, "lower"),
    ("cutset.complement_labels.hit_ratio", "ratio", "higher"),
    ("cutset.subdivision_distances.s", S, "lower"),
    ("cutset.subdivision_distances.misses", COUNT, "lower"),
    ("search.search_star_cutsets.s", S, "lower"),
    ("search.nodes", COUNT, "lower"),
    ("search.leaves", COUNT, "lower"),
    ("search.rejected_at_emission", COUNT, "lower"),
    ("search.yield", "ratio", "higher"),
    ("search.nodes_per_s", "1/s", "higher"),
    ("certify.certify_star_separated.s", S, "lower"),
    ("certify.certify_star_separated.calls", COUNT, "lower"),
    ("certify.certify_triangle_link.s", S, "lower"),
    ("gluing.verify_gluing.s", S, "lower"),
    ("gluing.verify_gluing.calls", COUNT, "lower"),
    ("gluing.equations", COUNT, "lower"),
    ("gluing.solve_gluing.s", S, "lower"),
    ("complexes.check_gromov.s", S, "lower"),
    ("complexes.link.s", S, "lower"),
    ("complexes.link.calls", COUNT, "lower"),
    ("complexes.trace_hypergraph.s", S, "lower"),
    ("complexes.trace_hypergraph.p50_ms", "ms", "lower"),
    ("complexes.trace_hypergraph.max_ms", "ms", "lower"),
    ("complexes.hypergraph_checks.s", S, "lower"),
    ("complexes.wall_cut.s", S, "lower"),
    ("complexes.separation_check.s", S, "lower"),
    ("complexes.segments", COUNT, "lower"),
    ("graph.distances.s", S, "lower"),
    ("graph.girth.s", S, "lower"),
    ("graph.component_labels.calls", COUNT, "lower"),
    ("pipeline.stage.structure.s", S, "lower"),
    ("pipeline.stage.automorphisms.s", S, "lower"),
    ("pipeline.stage.seed-cutsets.s", S, "lower"),
    ("pipeline.stage.neighbor-splits-at-v1.s", S, "lower"),
    ("pipeline.stage.orbit-closure.s", S, "lower"),
    ("pipeline.stage.star-separated.s", S, "lower"),
    ("pipeline.stage.pair-separations.s", S, "lower"),
    ("pipeline.stage.triangle-link.s", S, "lower"),
    ("datasets.f090a.s", S, "lower"),
    ("graph.parse_graph.s", S, "lower"),
    ("complexes.parse_complex.s", S, "lower"),
    ("proc.import_s", S, "lower"),
    ("report.bytes", "B", "lower"),
    ("proc.cpu_s", S, "lower"),
    ("proc.tracing_overhead_s", S, "lower"),
]
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}

F090A, STAR, GRID, LINK = "f090a", "star-enum", "grid-walls", "link-solve"

#: Wrapped function -> (workloads it should be busy on, workloads it
#: should never be called on).  The selftest checks both against the
#: call counts of a traced pass.
LAYER_MAP = {
    "aut.automorphism_group": ({F090A, LINK}, {STAR, GRID}),
    "aut.orbit_of_vertex_set": ({F090A, LINK}, {STAR, GRID}),
    "aut.is_distance_transitive": ({F090A}, {STAR, GRID}),
    # Vertex-kind wall traces test cutsets of each 4-vertex link through
    # is_cutset and is_sigma_separated, so these three are called on
    # grid-walls too (measured; they were first predicted idle there).
    "cutset.is_sigma_separated": ({STAR, F090A, GRID}, set()),
    "cutset.complement_labels": ({STAR, F090A, GRID}, set()),
    "cutset.subdivision_distances": ({STAR, F090A, GRID}, set()),
    "cutset.is_star_cutset": ({STAR, F090A}, {GRID}),
    "cutset.is_minimal_cutset": ({STAR, F090A}, {GRID}),
    "search.search_star_cutsets": ({STAR, LINK}, {F090A, GRID}),
    "certify.certify_star_separated": ({F090A, LINK}, {STAR, GRID}),
    "certify.certify_triangle_link": ({F090A, LINK}, {STAR, GRID}),
    "gluing.verify_gluing": ({F090A, LINK}, {STAR, GRID}),
    "gluing.solve_gluing": ({LINK}, {F090A, STAR, GRID}),
    **{
        f"complexes.{fn}": ({GRID}, {F090A, STAR, LINK})
        for fn in (
            "parse_complex",
            "check_gromov",
            "link",
            "trace_hypergraph",
            "hypergraph_checks",
            "wall_cut",
            "separation_check",
        )
    },
    "graph.distances": ({F090A, GRID}, set()),
    "graph.girth": ({F090A, GRID}, set()),
    "graph.component_labels": ({F090A, GRID}, set()),
    "pipeline.run_f090a": ({F090A}, {STAR, GRID, LINK}),
    **{
        f"pipeline.stage.{stage}": ({F090A}, {STAR, GRID, LINK})
        for stage in (
            "structure",
            "automorphisms",
            "seed-cutsets",
            "neighbor-splits-at-v1",
            "orbit-closure",
            "star-separated",
            "pair-separations",
            "triangle-link",
        )
    },
}


def merge(summaries: list[dict]) -> dict:
    """Sum the span summaries of a pass's traced processes."""
    functions: dict[str, dict] = {}
    durations: dict[str, list[float]] = {}
    counters: dict[str, int] = {}
    caches: dict[str, list[int]] = {}
    import_s = 0.0
    for s in summaries:
        for name, f in s["functions"].items():
            acc = functions.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += f[k]
        for name, ds in s["durations"].items():
            durations.setdefault(name, []).extend(ds)
        for name, v in s["counters"].items():
            counters[name] = counters.get(name, 0) + v
        for name, (hits, misses) in s["caches"].items():
            acc = caches.setdefault(name, [0, 0])
            acc[0] += hits
            acc[1] += misses
        import_s += s["import_s"]
    return {
        "functions": functions,
        "durations": durations,
        "counters": counters,
        "caches": caches,
        "import_s": import_s,
    }


def per_layer_metrics(summaries: list[dict]) -> dict:
    """Every PER_LAYER metric except the three the driver measures itself
    (``report.bytes``, ``proc.cpu_s``, ``proc.tracing_overhead_s``)."""
    m = merge(summaries)
    fns, counters, caches = m["functions"], m["counters"], m["caches"]

    def fn(name: str, key: str):
        return fns.get(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})[key]

    out: dict = {}
    for metric, _unit, _better in PER_LAYER:
        base, _, key = metric.rpartition(".")
        if metric.startswith("pipeline.stage."):
            out[metric] = fn(base, "incl_s")
        elif key == "s" and base in LAYER_FUNCTIONS:
            out[metric] = fn(base, "self_s")
        elif key == "calls":
            out[metric] = fn(base, "calls")
    hits, misses = caches.get("complement_labels", [0, 0])
    out["cutset.complement_labels.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["cutset.subdivision_distances.misses"] = caches.get("subdivision_distances", [0, 0])[1]
    for key in ("nodes", "leaves", "rejected_at_emission"):
        out[f"search.{key}"] = counters.get(f"search.{key}", 0)
    leaves = out["search.leaves"]
    out["search.yield"] = counters.get("search.cutsets", 0) / leaves if leaves else 0.0
    search_s = fn("search.search_star_cutsets", "incl_s")
    out["search.nodes_per_s"] = out["search.nodes"] / search_s if search_s else 0.0
    out["gluing.equations"] = counters.get("gluing.equations", 0)
    out["complexes.segments"] = counters.get("complexes.segments", 0)
    traces = m["durations"].get("complexes.trace_hypergraph", [])
    out["complexes.trace_hypergraph.p50_ms"] = statistics.median(traces) * 1e3 if traces else 0.0
    out["complexes.trace_hypergraph.max_ms"] = max(traces) * 1e3 if traces else 0.0
    out["proc.import_s"] = m["import_s"]
    return out


def call_counts(summaries: list[dict]) -> dict[str, int]:
    """Calls per wrapped function over a pass (0 for functions not called)."""
    fns = merge(summaries)["functions"]
    return {name: fns.get(name, {"calls": 0})["calls"] for name in LAYER_MAP}

