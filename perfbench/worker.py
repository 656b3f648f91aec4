"""One fresh process of a benchmark pass.

    worker.py setup ITEM...                import sepcert.cli, load each input:
                                           f090a, graph=FILE, family=FILE, complex=FILE
    worker.py [--trace OUT] cli ARGS...    run ``sepcert ARGS...``
    worker.py [--trace OUT] grid DIR       run the grid-walls plan in DIR

Untraced CLI passes do not come through here: the driver starts
``python3 -m sepcert.cli`` itself.  With ``--trace OUT`` the layer functions
are wrapped before the work starts (see spans.py) and the span summary is
written to OUT as JSON.  The exit status is the CLI's, or 0 for a finished
grid plan.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def _setup(items: list[str]) -> int:
    import sepcert.cli  # noqa: F401  (the import is part of what is timed)
    from sepcert.complexes import parse_complex
    from sepcert.cutset import parse_family
    from sepcert.datasets import f090a
    from sepcert.graph import parse_graph

    loaders = {"graph": parse_graph, "family": parse_family, "complex": parse_complex}
    for item in items:
        if item == "f090a":
            f090a()
        else:
            kind, path = item.split("=", 1)
            loaders[kind](Path(path).read_text())
    return 0


def _grid(workdir: str) -> int:
    """Curvature check, then every planned wall: trace, checks, cut and one
    separation query.  Results go to ``grid_out.json`` for the driver to
    check against the plan's geometry."""
    from sepcert import complexes as cx

    d = Path(workdir)
    plan = json.loads((d / "plan.json").read_text())
    x = cx.parse_complex((d / "grid.json").read_text())
    gromov = cx.check_gromov(x)
    walls = []
    for wall in plan["walls"]:
        if wall["kind"] == "edge":
            v0 = cx.edge_midpoint_id(x, tuple(wall["edge"]))
            atoms = x.edge_faces[tuple(wall["edge"])]
        else:
            v0 = wall["vertex"]
            lk = cx.link(x, v0)
            atoms = tuple(lk.vertex_id(tuple(e)) for e in wall["edges"])
        h = cx.trace_hypergraph(x, v0, atoms, kind=wall["kind"])
        checks = cx.hypergraph_checks(x, h)
        cut = cx.wall_cut(x, h)
        p, q = wall["pair"]
        walls.append(
            {
                "segments": len(h.segments),
                "conflicts": len(h.conflicts),
                "checks_ok": checks.ok,
                "primary_sides": sorted(sorted(b) for b in cut.primary_blocks() if b),
                "separated": cx.separation_check(x, h, p, q),
            }
        )
    out = {
        "links": x.n,
        "link_failures": sum(1 for c in gromov.checks if not c.ok),
        "walls": walls,
    }
    (d / "grid_out.json").write_text(json.dumps(out, sort_keys=True) + "\n")
    return 0


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace"]:
        trace_out, argv = argv[1], argv[2:]
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        return _setup(rest)
    tracer = None
    t0 = time.perf_counter()
    import sepcert.cli

    import_s = time.perf_counter() - t0
    if trace_out is not None:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if mode == "cli":
            status = sepcert.cli.main(rest)
        elif mode == "grid":
            status = _grid(rest[0])
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        if tracer is not None:
            summary = tracer.summary()
            summary["import_s"] = import_s
            Path(trace_out).write_text(json.dumps(summary, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
