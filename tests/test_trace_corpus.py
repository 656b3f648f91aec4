"""A pinned corpus of hypergraph traces beyond the 5x5 grid.

Every 2- and 3-subset of link vertex ids (vertex kind) or of faces (edge
kind) at every vertex and edge midpoint of six small complexes is tried as
a seed, together with a few out-of-range seeds.  Each outcome is recorded
from public data only: the segments, the paired vertices, the frontier,
the conflicts, the hypergraph check verdicts and witnesses, and the wall
cut, or the ``ComplexError`` message of a rejected seed.  The digest of the
records is pinned per complex, so a change to how local pairs are stored
must leave every trace exactly as it was.
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations

import pytest

from sepcert.complexes import (
    PolygonalComplex,
    cone_complex,
    grid_complex,
    hypergraph_checks,
    link,
    trace_hypergraph,
    wall_cut,
)
from sepcert.datasets import named_graph
from sepcert.errors import ComplexError
from sepcert.report import jsonable


def fan(k: int) -> PolygonalComplex:
    """k triangles around a hub (vertex 1), ring 2..k+1."""
    ring = list(range(2, k + 2))
    return PolygonalComplex(k + 1, [(1, ring[i], ring[(i + 1) % k]) for i in range(k)])


def triangulated_grid(rows: int, cols: int) -> PolygonalComplex:
    """Square grid with every square cut along its descending diagonal."""

    def vid(r: int, c: int) -> int:
        return r * cols + c + 1

    faces = []
    for r in range(rows - 1):
        for c in range(cols - 1):
            faces.append((vid(r, c), vid(r, c + 1), vid(r + 1, c + 1)))
            faces.append((vid(r, c), vid(r + 1, c + 1), vid(r + 1, c)))
    return PolygonalComplex(rows * cols, faces)


def hexagon_strip() -> PolygonalComplex:
    """Three hexagons in a row, each sharing an edge with the next."""
    return PolygonalComplex(
        14, [(1, 2, 3, 4, 5, 6), (4, 3, 7, 8, 9, 10), (9, 8, 11, 12, 13, 14)]
    )


COMPLEXES = {
    "fan-5": lambda: fan(5),
    "fan-7": lambda: fan(7),
    "grid-4x6": lambda: grid_complex(4, 6),
    "triangulated-5x5": lambda: triangulated_grid(5, 5),
    "hexagon-strip": hexagon_strip,
    "cone-c8": lambda: cone_complex(named_graph("c8")),
}


def seeds(x: PolygonalComplex):
    """(kind, seed vertex, atoms) for every 2- and 3-subset at every vertex
    and midpoint, then a few seeds that must be rejected."""
    for v in range(1, x.n + 1):
        for r in (2, 3):
            for atoms in combinations(range(1, link(x, v).graph.n + 1), r):
                yield "vertex", v, atoms
            for atoms in combinations(x.faces_at(v), r):
                yield "edge", v, atoms
    for i, e in enumerate(x.edges):
        for r in (2, 3):
            for atoms in combinations(x.edge_faces[e], r):
                yield "edge", x.n + 1 + i, atoms
    far = x.n + len(x.edges) + 1
    yield "vertex", x.n + 1, (1, 2)
    yield "vertex", 1, (1, link(x, 1).graph.n + 1)
    yield "edge", far, (0, 1)
    yield "edge", 1, (0, len(x.faces))
    yield "edge", x.n + 1, tuple(x.edge_faces[x.edges[0]]) + (len(x.faces),)


def record(x: PolygonalComplex, kind: str, v0: int, atoms) -> dict:
    try:
        h = trace_hypergraph(x, v0, atoms, kind=kind)
    except ComplexError as exc:
        return {"seed": (kind, v0, atoms), "error": str(exc)}
    cut = wall_cut(x, h)
    return {
        "seed": (kind, v0, atoms),
        "segments": [s.key() for s in h.segments],
        "paired": [v for v, _ in h.pairs],
        "frontier": h.frontier,
        "conflicts": [(seg.key(), v, reason) for seg, v, reason in h.conflicts],
        "checks": hypergraph_checks(x, h),
        "removed": cut.removed,
        "blocks": cut.blocks,
    }


#: name -> (seeds, traced, rejected, sha256 of the records)
PINNED = {
    "fan-5": (75, 5, 70, "bf0d79b39827ce7a45f4559fa2786dde7a46a83628df28b5180ced19e97d888f"),
    "fan-7": (159, 21, 138, "1c38dcdb167ee392aebdf5d010297ee91f1281add0764f822ff1ed34707693b9"),
    "grid-4x6": (251, 54, 197, "ec580a17893b8202d211e72c4b3cfb151c2662bf64095945e81e4ba95af8c700"),
    "triangulated-5x5": (855, 94, 761, "f34232649b70035c5978ab6a2a5142a47fe18c1cd3e52991742a4852efea5ab0"),
    "hexagon-strip": (37, 2, 35, "f0f0d3740358b26c0c3d6a590298b096b1e9feda433f143e008cb72e95c2c85f"),
    "cone-c8": (221, 32, 189, "3e4774d70fccc181459e91325bdb8420446ec7e33a76638afd837bcfb298ca0c"),
}


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_trace_corpus(name):
    x = COMPLEXES[name]()
    records = [record(x, *seed) for seed in seeds(x)]
    text = json.dumps(jsonable(records), sort_keys=True)
    rejected = sum("error" in r for r in records)
    got = (len(records), len(records) - rejected, rejected, hashlib.sha256(text.encode()).hexdigest())
    assert got == PINNED[name]
