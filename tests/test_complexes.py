"""Polygonal complexes: parsing, links, curvature checks, antipodal graphs,
hypergraph tracing, and walls, mostly on the 5x5 square grid."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

import sepcert.complexes as complexes
from sepcert.complexes import (
    PI,
    _pairs_at,
    antipodal_graph,
    check_gromov,
    cone_complex,
    edge_midpoint_id,
    format_complex,
    grid_complex,
    hypergraph_checks,
    link,
    opposite_pair_seeds,
    parse_complex,
    separation_check,
    trace_hypergraph,
    wall_cut,
)
from sepcert.datasets import named_graph
from sepcert.errors import ComplexError
from sepcert.graph import edge_key, girth


@pytest.fixture(scope="module")
def grid():
    return grid_complex(5, 5)


def fan(k: int):
    """k triangles around a central hub (vertex 1), ring 2..k+1."""
    ring = list(range(2, k + 2))
    faces = [(1, ring[i], ring[(i + 1) % k]) for i in range(k)]
    return parse_complex(json.dumps({"vertices": k + 1, "faces": faces}))


# -------------------------------------------------------------- parsing --


def test_grid_shape(grid):
    assert (grid.n, grid.m, len(grid.faces)) == (25, 40, 16)
    assert grid.shapes() == (4,)
    assert grid.max_circumference() == 4


def test_parse_format_round_trip(grid):
    assert parse_complex(format_complex(grid)) == grid


def test_parse_validates_edges_key(grid):
    doc = json.loads(format_complex(grid))
    doc["edges"] = [list(e) for e in grid.edges]
    assert parse_complex(json.dumps(doc)) == grid
    doc["edges"] = doc["edges"][:-1]
    with pytest.raises(ComplexError, match="undeclared edge"):
        parse_complex(json.dumps(doc))
    doc["edges"].append([1, 25])
    with pytest.raises(ComplexError, match="bounds no face"):
        parse_complex(json.dumps(doc))


@pytest.mark.parametrize(
    "doc",
    [
        {"vertices": 3, "faces": []},  # no faces
        {"vertices": 3, "faces": [[1, 2]]},  # degenerate face
        {"vertices": 3, "faces": [[1, 2, 4]]},  # vertex out of range
        {"vertices": 4, "faces": [[1, 2, 3]]},  # isolated vertex 4
        {"vertices": 3, "faces": [[1, 2, 1]]},  # repeated vertex
        {"vertices": 3, "faces": [["a", 2, 3]]},  # non-integer face vertex
        {"vertices": "3", "faces": [[1, 2, 3]]},  # non-integer vertex count
    ],
)
def test_parse_rejects_bad_complexes(doc):
    with pytest.raises(ComplexError):
        parse_complex(json.dumps(doc))


def test_cone_complex_shape():
    for name, shape in (("c4", (5, 8, 4)), ("f090a", (91, 225, 135))):
        cone = cone_complex(named_graph(name))
        assert (cone.n, cone.m, len(cone.faces)) == shape
        assert cone.shapes() == (3,)


# ---------------------------------------------------------------- links --


def test_interior_square_link_is_four_cycle(grid):
    lk = link(grid, 13)
    assert lk.graph.n == 4  # four edges at the vertex
    assert girth(lk.graph) == 4
    for e in lk.graph.edges():
        assert lk.metric.edge_length(e) == Fraction(1, 2)


def test_corner_link_is_single_edge(grid):
    lk = link(grid, 1)
    assert lk.graph.n == 2 and lk.graph.m == 1


def test_triangle_links_have_short_corners():
    cone = cone_complex(named_graph("c4"))
    lk = link(cone, 5)  # the apex: one corner per triangle
    assert lk.graph.n == 4
    for e in lk.graph.edges():
        assert lk.metric.edge_length(e) == Fraction(1, 3)


def test_link_rejects_parallel_corners():
    # two triangles on the same three vertices form parallel corners
    doc = {"vertices": 3, "faces": [[1, 2, 3], [1, 3, 2]]}
    with pytest.raises(ComplexError, match="parallel corners"):
        link(parse_complex(json.dumps(doc)), 1)


def test_vertex_id_round_trip(grid):
    lk = link(grid, 13)
    for e in ((8, 13), (12, 13), (13, 14), (13, 18)):
        assert lk.edges_at[lk.vertex_id(e) - 1] == e


# ------------------------------------------------------------- curvature --


def test_grid_satisfies_gromov(grid):
    cert = check_gromov(grid)
    assert cert.ok
    shapes = cert.check("shapes").witness
    assert shapes["side_counts"] == (4,)


def test_cone_over_short_cycle_fails_gromov():
    cert = check_gromov(cone_complex(named_graph("c4")))
    assert not cert.ok
    failing = cert.check("link-girth-5")
    assert not failing.ok
    assert failing.witness["girth_pi_units"] == Fraction(4, 3)
    assert failing.witness["required"] == 2


@pytest.mark.parametrize(
    "make, check, cycle",
    [
        (lambda: cone_complex(named_graph("c4")), "link-girth-5", (1, 4, 3, 2)),
        (lambda: fan(5), "link-girth-1", (1, 5, 4, 3, 2)),
        # the apex link is K4: the path 1-3-2 ties with 1-4-2, and ties keep
        # the first parent found
        (lambda: cone_complex(named_graph("k4")), "link-girth-5", (1, 3, 2)),
    ],
    ids=["cone-c4", "fan-5", "cone-k4"],
)
def test_gromov_failure_witness_is_a_shortest_cycle(make, check, cycle):
    x = make()
    failing = check_gromov(x).check(check)
    assert failing.witness["cycle"] == cycle
    lk = link(x, int(check.rsplit("-", 1)[1]))
    closed = list(zip(cycle, cycle[1:])) + [(cycle[-1], cycle[0])]
    assert all(lk.graph.has_edge(u, v) for u, v in closed)
    assert sum(lk.metric.edge_length(e) for e in closed) == failing.witness["girth_pi_units"]


def test_fan_of_six_triangles_is_flat():
    assert check_gromov(fan(6)).ok
    assert not check_gromov(fan(5)).ok


# ------------------------------------------------------- antipodal graph --


def test_square_antipodes(grid):
    antip = antipodal_graph(grid)
    face0 = grid.faces[0]  # vertices 1, 2, 7, 6
    segs = antip.at(1)
    diag = antip.through(1, 0)
    assert diag.face == 0
    assert {diag.a, diag.b} == {1, 7}  # vertex-to-vertex diagonal
    mid12 = edge_midpoint_id(grid, (1, 2))
    mid16 = edge_midpoint_id(grid, (1, 6))
    opposite = antip.through(mid12, 0)
    assert {opposite.a, opposite.b} == {mid12, edge_midpoint_id(grid, (6, 7))}
    assert mid16 != mid12
    assert len([s for s in antip.boundaries[0] if s <= grid.n]) == 4


def test_triangle_antipodes():
    cone = cone_complex(named_graph("c4"))
    antip = antipodal_graph(cone)
    seg = antip.through(5, 0)
    a, b = sorted((seg.a, seg.b))
    assert a == 5 and b > cone.n  # apex pairs with the opposite edge midpoint


def test_opposite_pair_seeds_are_interior(grid):
    seeds = opposite_pair_seeds(grid)
    assert len(seeds) == 24
    for mid, faces in seeds:
        assert mid > grid.n
        assert len(faces) == 2


# ------------------------------------------------------------- incidence --


@pytest.mark.parametrize(
    "make",
    [lambda: grid_complex(5, 7), lambda: fan(5), lambda: cone_complex(named_graph("f090a"))],
    ids=["grid-5x7", "fan-5", "cone-f090a"],
)
def test_incidence_index_matches_scans(make):
    x = make()
    for v in range(1, x.n + 1):
        assert x.faces_at(v) == tuple(i for i, f in enumerate(x.faces) if v in f)
        incident = tuple(e for e in x.edges if v in e)
        assert x.edges_at(v) == incident
        assert link(x, v).edges_at == incident
    assert x.faces_at(0) == x.faces_at(x.n + 1) == ()
    assert x.edges_at(0) == x.edges_at(x.n + 1) == ()
    mid_of = antipodal_graph(x).mid_of
    for e in x.edges:
        assert edge_midpoint_id(x, e) == x.n + 1 + x.edges.index(e) == mid_of[e]
        assert edge_midpoint_id(x, e[::-1]) == edge_midpoint_id(x, e)
    non_edge = next(
        (u, v) for u in range(1, x.n + 1) for v in range(u + 1, x.n + 1) if (u, v) not in x.edge_faces
    )
    with pytest.raises(ComplexError, match="not an edge"):
        edge_midpoint_id(x, non_edge)


# ----------------------------------------------------------------- traces --


def test_midline_trace(grid):
    mid = edge_midpoint_id(grid, (7, 8))
    h = trace_hypergraph(grid, mid, grid.edge_faces[(7, 8)], kind="edge")
    assert len(h.segments) == 4
    assert len(h.vertices()) == 5
    assert {reason for _, reason in h.frontier} == {"no-pair"}
    assert not h.conflicts
    assert hypergraph_checks(grid, h).ok


def test_diagonal_trace(grid):
    # faces 5 and 10 meet vertex 13 in opposite corners: the main diagonal
    h = trace_hypergraph(grid, 13, (5, 10), kind="edge")
    keys = sorted(s.key() for s in h.segments)
    assert keys == [(1, 7, 0), (7, 13, 5), (13, 19, 10), (19, 25, 15)]
    assert dict(h.frontier) == {1: "no-pair", 25: "no-pair"}
    assert hypergraph_checks(grid, h).ok


def vertical_atoms_at(cplx, v, above, below):
    lk = link(cplx, v)
    return (lk.vertex_id(edge_key(above, v)), lk.vertex_id(edge_key(v, below)))


def test_vertex_line_trace(grid):
    h = trace_hypergraph(grid, 13, vertical_atoms_at(grid, 13, 8, 18), kind="vertex")
    assert sorted(v for v, _ in h.pairs) == [8, 13, 18]
    assert sorted(h.frontier) == [(3, "no-pair"), (23, "no-pair")]
    assert sorted((s.a, s.b) for s in h.segments) == [(3, 8), (8, 13), (13, 18), (18, 23)]
    assert all(s.face is None for s in h.segments)
    assert hypergraph_checks(grid, h).ok


def test_trace_rejects_bad_seeds(grid):
    boundary_mid = edge_midpoint_id(grid, (1, 2))
    with pytest.raises(ComplexError, match="seed pair invalid"):
        trace_hypergraph(grid, boundary_mid, (0, 1), kind="edge")
    with pytest.raises(ComplexError, match="seed pair invalid"):
        trace_hypergraph(grid, 13, (1, 2), kind="vertex")  # perpendicular, not pi apart
    with pytest.raises(ComplexError, match="seed pair invalid"):
        trace_hypergraph(grid, 13, (8, 18), kind="vertex")  # ambient ids, not link ids
    with pytest.raises(ComplexError, match="seed pair invalid"):
        trace_hypergraph(grid, 13, (1,), kind="vertex")
    with pytest.raises(ComplexError):
        trace_hypergraph(grid, 13, (1, 4), kind="diagonal")


def test_seed_blocks_group_link_components():
    # six squares around vertex 1: its link is a hexagon of right angles,
    # and every second link vertex cuts it into three components
    x = parse_complex(
        json.dumps({"vertices": 13, "faces": [(1, 2 + i, 8 + i, 2 + (i + 1) % 6) for i in range(6)]})
    )
    assert len(wall_cut(x, trace_hypergraph(x, 1, (1, 3, 5))).blocks) == 3


def test_local_pair_enumeration_guard():
    big = fan(17)  # hub link is a 17-cycle, past the enumeration limit
    with pytest.raises(ComplexError, match="refusing to enumerate"):
        _pairs_at(big, "vertex", 1)
    ring = link(big, 2)
    assert ring.graph.n <= 3  # ring vertices stay well under the limit


# ------------------------------------------------------------------ walls --


def test_midline_wall_splits_grid(grid):
    mid = edge_midpoint_id(grid, (7, 8))
    h = trace_hypergraph(grid, mid, grid.edge_faces[(7, 8)], kind="edge")
    cut = wall_cut(grid, h)
    sizes = sorted(len(b) for b in cut.primary_blocks())
    assert sizes == [10, 15]
    assert separation_check(grid, h, 1, 5)
    assert not separation_check(grid, h, 1, 6)
    with pytest.raises(ComplexError, match="lies on the hypergraph"):
        separation_check(grid, h, (7, 8), 1)


def test_wall_cut_repeats_on_one_subdivision(monkeypatch):
    x = grid_complex(5, 5)  # a fresh complex, so nothing is cached yet
    built = []
    real = complexes.subdivision_graph
    monkeypatch.setattr(complexes, "subdivision_graph", lambda g: built.append(g) or real(g))
    for kind, v0, atoms in (
        ("edge", edge_midpoint_id(x, (7, 8)), x.edge_faces[(7, 8)]),
        ("vertex", 13, vertical_atoms_at(x, 13, 8, 18)),
    ):
        h = trace_hypergraph(x, v0, atoms, kind=kind)
        first = wall_cut(x, h)
        assert wall_cut(x, h) == first
        assert separation_check(x, h, 1, 5) is separation_check(x, h, 1, 5) is True
        assert separation_check(x, h, 1, 6) is separation_check(x, h, 1, 6) is False
    assert built == [x.skeleton]


def test_diagonal_wall_splits_grid(grid):
    h = trace_hypergraph(grid, 13, (5, 10), kind="edge")
    cut = wall_cut(grid, h)
    blocks = sorted((sorted(b) for b in cut.primary_blocks()), key=len)
    assert blocks[0] == [2, 3, 4, 5, 8, 9, 10, 14, 15, 20]
    assert blocks[1] == [6, 11, 12, 16, 17, 18, 21, 22, 23, 24]


def test_vertex_line_wall_removes_the_line(grid):
    h = trace_hypergraph(grid, 13, vertical_atoms_at(grid, 13, 8, 18), kind="vertex")
    cut = wall_cut(grid, h)
    line = {3, 8, 13, 18, 23}
    for block in cut.primary_blocks():
        assert not (set(block) & line)
    assert sorted(len(b) for b in cut.primary_blocks()) == [10, 10]
