"""Polygonal complexes: parsing, links, curvature checks, antipodes,
hypergraph tracing, and walls, mostly on the 5x5 square grid."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

import sepcert.complexes as complexes
from _oracles import brute_link_cutsets, fresh_link
from sepcert.complexes import (
    PI,
    PolygonalComplex,
    _antipode,
    _face_boundary,
    _pairs_at,
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
from sepcert.graph import INF, Graph, edge_key, girth, shortest_cycle, subdivision_graph
from test_search import F090A_STAR_CUTSETS, F090A_STAR_SHA256, _family_sha256
from test_trace_corpus import COMPLEXES


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


@pytest.mark.parametrize("bad", [[1.9, 2], "23", [True, 3], [2, 2], [1, 2, 3]])
def test_parse_rejects_malformed_declared_edges(bad):
    """Declared edges are two distinct integer vertex ids, as face vertices
    are integers: no truncating 1.9, reading "23" as 2-3 or true as 1."""
    doc = {"vertices": 3, "faces": [[1, 2, 3]], "edges": [[1, 3], [2, 3], bad]}
    with pytest.raises(ComplexError, match="bad edge list"):
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


def test_equal_link_shapes_share_one_graph():
    # corner, top, bottom, side and interior vertices: five labelled shapes
    x = grid_complex(6, 6)
    shared = {}
    for v in range(1, x.n + 1):
        lk = link(x, v)
        graph, metric = shared.setdefault((lk.graph, lk.metric), (lk.graph, lk.metric))
        assert graph is lk.graph and metric is lk.metric
    assert len(shared) == 5


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


def test_gromov_decides_each_shape_once_and_keeps_no_links(monkeypatch):
    x = grid_complex(6, 6)
    decided = []
    monkeypatch.setattr(complexes, "girth", lambda g, m: decided.append((g, m)) or girth(g, m))
    assert check_gromov(x).ok
    assert len(decided) == len(set(decided)) == 5
    assert not [key for key in x._cache if key[0] == "link"]
    assert not [val for val in x._cache.values() if isinstance(val, complexes.Link)]
    assert len(x._cache["shapes"]) == 5


def test_gromov_reaches_parallel_corners_past_vertex_one():
    # both squares turn from edge 2-3 to edge 3-4 at vertex 3
    x = parse_complex(json.dumps({"vertices": 5, "faces": [[1, 2, 3, 4], [5, 2, 3, 4]]}))
    with pytest.raises(ComplexError, match="^faces 0 and 1 form parallel corners at vertex 3; links must be simple$"):
        check_gromov(x)


def per_vertex_gromov(x):
    """check_gromov's link checks, from a fresh link at every vertex."""
    out = []
    for v in range(1, x.n + 1):
        g, metric, _ = fresh_link(x, v)
        got = girth(g, metric)
        witness = {"girth_pi_units": got, "required": 2}
        if got is not INF and got < 2:
            witness["cycle"] = shortest_cycle(g, metric)[1]
        out.append((f"link-girth-{v}", got is INF or got >= 2, witness))
    return out


def per_vertex_pairs(x, kind, v):
    """_pairs_at from a fresh link: the star search's two-sided cutsets of
    at least two elements, sorted by their atoms at v."""
    from sepcert.search import two_sided_cutsets

    g, metric, face_of = fresh_link(x, v)
    found = [c for c in two_sided_cutsets(g, metric, kind, PI) if len(c) >= 2]
    if kind == "vertex":
        return sorted(found, key=lambda c: c.sorted_elements())
    return sorted(found, key=lambda c: sorted(face_of[e] for e in c.elements))


def cone_c4_beside_four_squares():
    """The cone over C4 beside four squares around vertex 10: both centres
    have the labelled link 1-2-3-4-1, of pi/3 corners at the apex 5 and of
    right angles at 10, so only the angles tell their shapes apart."""
    squares = [(10, 6 + i, 11 + i, 6 + (i + 1) % 4) for i in range(4)]
    return PolygonalComplex(14, [*cone_complex(named_graph("c4")).faces, *squares])


SHAPE_COMPLEXES = {
    **COMPLEXES,
    "cone-c4": lambda: cone_complex(named_graph("c4")),
    "cone-k4": lambda: cone_complex(named_graph("k4")),
    "fan-6": lambda: fan(6),
    "cone-c4-beside-squares": cone_c4_beside_four_squares,
}


@pytest.mark.parametrize("name", sorted(SHAPE_COMPLEXES))
def test_shared_shapes_match_a_fresh_link_per_vertex(name):
    x = SHAPE_COMPLEXES[name]()
    cert = check_gromov(x)
    assert [(c.name, c.ok, c.witness) for c in cert.checks[1:]] == per_vertex_gromov(x)
    for kind in ("vertex", "edge"):
        for v in range(1, x.n + 1):
            assert list(_pairs_at(x, kind, v)) == per_vertex_pairs(x, kind, v), (kind, v)


def test_fresh_links_reach_failing_witnesses():
    failing = {
        name: [check[0] for check in per_vertex_gromov(SHAPE_COMPLEXES[name]()) if not check[1]]
        for name in ("cone-c4", "cone-k4", "fan-5", "fan-6", "cone-c4-beside-squares")
    }
    assert failing == {
        "cone-c4": ["link-girth-5"],
        "cone-k4": ["link-girth-5"],
        "fan-5": ["link-girth-1"],
        "fan-6": [],
        "cone-c4-beside-squares": ["link-girth-5"],
    }


def test_fan_of_six_triangles_is_flat():
    assert check_gromov(fan(6)).ok
    assert not check_gromov(fan(5)).ok


# ------------------------------------------------------------- antipodes --


def test_square_antipodes(grid):
    face0 = grid.faces[0]  # vertices 1, 2, 7, 6
    diag = _antipode(grid, 1, 0)
    assert diag.face == 0
    assert {diag.a, diag.b} == {1, 7}  # vertex-to-vertex diagonal
    mid12 = edge_midpoint_id(grid, (1, 2))
    mid16 = edge_midpoint_id(grid, (1, 6))
    opposite = _antipode(grid, mid12, 0)
    assert {opposite.a, opposite.b} == {mid12, edge_midpoint_id(grid, (6, 7))}
    assert mid16 != mid12
    assert len([s for s in _face_boundary(grid, 0) if s <= grid.n]) == 4


def test_triangle_antipodes():
    cone = cone_complex(named_graph("c4"))
    seg = _antipode(cone, 5, 0)
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
    for e in x.edges:
        assert edge_midpoint_id(x, e) == x.n + 1 + x.edges.index(e)
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
    # perpendicular, not pi apart; the witness distance is in units of pi
    with pytest.raises(ComplexError, match=r"^seed pair invalid: not pi-separated: pair 1-2 at distance 1/2 pi$"):
        trace_hypergraph(grid, 13, (1, 2), kind="vertex")
    with pytest.raises(ComplexError, match=r"pair \(1, 2\)-\(1, 3\) at distance 1/2 pi$"):
        trace_hypergraph(grid, 13, (5, 6), kind="edge")
    with pytest.raises(ComplexError, match="seed pair invalid"):
        trace_hypergraph(grid, 13, (8, 18), kind="vertex")  # ambient ids, not link ids
    with pytest.raises(ComplexError, match="seed pair invalid"):
        trace_hypergraph(grid, 13, (1,), kind="vertex")
    with pytest.raises(ComplexError):
        trace_hypergraph(grid, 13, (1, 4), kind="diagonal")


def squares_around_one():
    """Six squares around vertex 1: its link is a hexagon of right angles."""
    faces = [(1, 2 + i, 8 + i, 2 + (i + 1) % 6) for i in range(6)]
    return parse_complex(json.dumps({"vertices": 13, "faces": faces}))


def test_seed_blocks_group_link_components():
    # every second link vertex cuts the hexagon into three components
    x = squares_around_one()
    assert len(wall_cut(x, trace_hypergraph(x, 1, (1, 3, 5))).blocks) == 3


def _two_sided(lk, kind, most=None):
    """The oracle's pi-separated cutsets of a link with exactly two
    components that are minimal."""
    found = brute_link_cutsets(lk.graph, lk.metric, kind, most)
    return {c for c, (count, minimal) in found.items() if count == 2 and minimal}


def test_local_pairs_have_exactly_two_sides():
    # (1, 3, 5) and (2, 4, 6) are pi-separated but cut the hexagon three
    # ways, as faces (0, 2, 4) and (1, 3, 5) do in edge kind: a local pair
    # has exactly two sides, so these are no local pairs, though they
    # still seed a trace (test_seed_blocks_group_link_components)
    x = squares_around_one()
    pinned = {
        "vertex": [(1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (2, 6), (3, 5), (3, 6), (4, 6)],
        "edge": [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 5)],
    }
    three_way = {"vertex": [(1, 3, 5), (2, 4, 6)], "edge": [(0, 2, 4), (1, 3, 5)]}
    lk = link(x, 1)
    for kind in ("vertex", "edge"):
        assert [complexes._atoms(x, kind, 1, c) for c in _pairs_at(x, kind, 1)] == pinned[kind]
        cutting = brute_link_cutsets(lk.graph, lk.metric, kind)
        assert len(cutting) == 11
        for atoms in three_way[kind]:
            assert cutting[complexes._validated_pair(x, kind, 1, atoms).elements][0] == 3


def test_local_pairs_past_sixteen_link_vertices():
    # the hub's link is a 17-cycle of pi/3 corners: its local pairs are the
    # two link vertices at least three steps apart around it
    big = fan(17)
    hub = [c.sorted_elements() for c in _pairs_at(big, "vertex", 1)]
    assert hub == [(i, j) for i in range(1, 18) for j in range(i + 3, i + 15) if j <= 17]
    assert {frozenset(p) for p in hub} == _two_sided(link(big, 1), "vertex", most=5)


def hexagons_around_one():
    """Three hexagons in a row around vertex 1: its link is a path of three
    corners of 2/3 pi, where cutting an end and the vertex after next
    leaves two components but is not minimal."""
    faces = [(1, 2, 3, 4, 5, 6), (1, 6, 7, 8, 9, 10), (1, 10, 11, 12, 13, 14)]
    return parse_complex(json.dumps({"vertices": 14, "faces": faces}))


ORACLE_COMPLEXES = {
    **COMPLEXES,
    "squares-around-1": squares_around_one,
    "hexagons-around-1": hexagons_around_one,
    "fan-17": lambda: fan(17),
}


@pytest.mark.parametrize("kind", ["vertex", "edge"])
@pytest.mark.parametrize("name", sorted(ORACLE_COMPLEXES))
def test_local_pairs_match_the_subset_oracle(name, kind):
    x = ORACLE_COMPLEXES[name]()
    # a 17-cycle of pi/3 corners holds no pi-separated set of more than 5
    most = 5 if name == "fan-17" else None
    for v in range(1, x.n + 1):
        got = [c.elements for c in _pairs_at(x, kind, v)]
        assert len(set(got)) == len(got)
        assert set(got) == _two_sided(link(x, v), kind, most), v


def test_local_pairs_are_searched_once_per_shape_and_kind(monkeypatch):
    import sepcert.search as search

    x = grid_complex(6, 6)
    searched = []
    real = search.two_sided_cutsets
    monkeypatch.setattr(
        search, "two_sided_cutsets", lambda g, m, kind, s: searched.append((g, m, kind)) or real(g, m, kind, s)
    )
    for kind in ("vertex", "edge"):
        for v in range(1, x.n + 1):
            _pairs_at(x, kind, v)
    assert len(searched) == 10
    assert len(set(searched)) == 10


@pytest.mark.slow
def test_apex_pairs_of_the_f090a_cone_are_its_star_census():
    # link vertex i of the apex is F090A vertex i, and pi-separation at
    # pi/3 corners is combinatorial distance at least 3
    pairs = _pairs_at(cone_complex(named_graph("f090a")), "vertex", 91)
    assert len(pairs) == F090A_STAR_CUTSETS
    assert _family_sha256(pairs, range(1, 91)) == F090A_STAR_SHA256


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


def test_separation_check_rejects_bad_points(grid):
    mid = edge_midpoint_id(grid, (7, 8))
    h = trace_hypergraph(grid, mid, grid.edge_faces[(7, 8)], kind="edge")
    last = grid.n + grid.m  # 25 vertices, then 40 edge midpoints
    assert separation_check(grid, h, 1, last) is True
    for p, message in (
        (0, "point 0 outside the subdivided range"),
        (last + 1, "point 66 outside the subdivided range"),
        ((7, 1), r"\(1, 7\) is not an edge of the complex"),
        (mid, f"point {mid} lies on the hypergraph"),
    ):
        with pytest.raises(ComplexError, match=message):
            separation_check(grid, h, 1, p)


def test_wall_cut_repeats_on_one_subdivision(monkeypatch):
    x = grid_complex(5, 5)  # a fresh complex, so nothing is cached yet
    built, cut = [], []
    real = complexes.subdivision_graph
    monkeypatch.setattr(complexes, "subdivision_graph", lambda g: built.append(g) or real(g))
    real_labels = complexes.component_labels
    monkeypatch.setattr(complexes, "component_labels", lambda g, **kw: cut.append(g) or real_labels(g, **kw))
    for kind, v0, atoms in (
        ("edge", edge_midpoint_id(x, (7, 8)), x.edge_faces[(7, 8)]),
        ("vertex", 13, vertical_atoms_at(x, 13, 8, 18)),
    ):
        h = trace_hypergraph(x, v0, atoms, kind=kind)
        cut.clear()
        first = wall_cut(x, h)
        assert separation_check(x, h, 1, 5) is True
        assert separation_check(x, h, 1, 6) is False
        assert cut == [complexes._subdivided_skeleton(x)[0]]
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


def _assert_same_graph(derived, n, edges):
    """A derived graph equals the one ``Graph.__init__`` builds from the
    same edges: order, edges, every neighbour row and hash."""
    built = Graph(n, edges)
    assert derived == built and derived.n == built.n and derived.edges() == built.edges()
    assert [derived.neighbors(v) for v in built.vertices()] == [built.neighbors(v) for v in built.vertices()]
    assert hash(derived) == hash(built)


@pytest.mark.parametrize(
    "x",
    [grid_complex(48, 48), cone_complex(named_graph("f090a")), *(make() for make in COMPLEXES.values())],
    ids=["grid48", "cone-f090a", *COMPLEXES],
)
def test_derived_skeleton_and_subdivision_equal_validated_graphs(x):
    _assert_same_graph(x.skeleton, x.n, x.edges)
    sub, mid = subdivision_graph(x.skeleton)
    halves = [(e[i], m) for e, m in mid.items() for i in (0, 1)]
    _assert_same_graph(sub, x.n + len(mid), halves)


def test_equal_corner_patterns_of_other_face_sizes_get_their_own_shapes():
    # vertex 1 has two triangles, vertex 5 two squares, both at degree 3
    # with corners on link edges (1, 2) and (2, 3)
    x = PolygonalComplex(8, [(1, 2, 3), (1, 3, 4), (5, 6, 7, 8), (5, 3, 2, 6)])
    (tri_graph, tri_metric), _ = complexes._link_shape(x, 1)
    (sq_graph, sq_metric), _ = complexes._link_shape(x, 5)
    assert tri_graph == sq_graph
    assert set(tri_metric.lengths().values()) == {Fraction(1, 3)}
    assert set(sq_metric.lengths().values()) == {Fraction(1, 2)}
    assert len(x._cache["shapes"]) == 2


def _link_cycle_in_complex(x, v, cycle, name=int):
    """A link cycle at v as the named neighbours of v it visits (link vertex
    i is the i-th smallest edge at v), up to rotation and direction."""
    around = [name(a + b - v) for a, b in x.edges_at(v)]
    walk = [around[i - 1] for i in cycle]
    turns = [walk[i:] + walk[:i] for i in range(len(walk))]
    return min(turns + [t[::-1] for t in turns])


@pytest.mark.parametrize(
    "make", [lambda: grid_complex(6, 6), lambda: cone_complex(named_graph("c4"))], ids=["grid6", "cone-c4"]
)
def test_gromov_verdict_and_witnesses_survive_relabelling(make):
    x = make()
    cert = check_gromov(x)
    for seed in (0, 1, 2):
        perm = list(range(1, x.n + 1))
        random.Random(seed).shuffle(perm)
        to = dict(zip(range(1, x.n + 1), perm))
        back = {w: v for v, w in to.items()}
        y = PolygonalComplex(x.n, [tuple(to[v] for v in face) for face in x.faces])
        moved = check_gromov(y)
        assert moved.ok == cert.ok
        for v in range(1, x.n + 1):
            was, now = cert.check(f"link-girth-{v}"), moved.check(f"link-girth-{to[v]}")
            assert now.ok == was.ok
            assert (now.witness["girth_pi_units"], now.witness["required"]) == (was.witness["girth_pi_units"], 2)
            assert ("cycle" in now.witness) == ("cycle" in was.witness)
            if "cycle" in was.witness:
                assert _link_cycle_in_complex(x, v, was.witness["cycle"]) == _link_cycle_in_complex(
                    y, to[v], now.witness["cycle"], back.get
                )
        # shapes are labelled links, so their count follows the labelling
        # (the 6x6 grid's 5 become 7 under these shuffles); it is always the
        # number of distinct fresh labelled links
        assert len(y._cache["shapes"]) == len({fresh_link(y, v)[:2] for v in range(1, y.n + 1)})
