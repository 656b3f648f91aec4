"""Finite polygonal complexes: links, curvature, hypergraphs.

A complex is a vertex count plus a list of faces, each face a cyclic sequence
of distinct vertices.  Every face is treated as a regular polygon with unit
sides, so a k-gon contributes corners of angle (k-2)/k in units of pi.  On
top of that the module builds vertex links with their angular metrics, checks
the curvature condition (every link has angular girth at least 2 pi),
traces separating hypergraphs outward from a seeded cutset, and computes
the two-sided cut such a hypergraph induces on the subdivided 1-skeleton.

Each complex builds its vertex -> faces and vertex -> edges incidence in one
pass, and its subdivided 1-skeleton once, both on first use and kept with
the complex; links, midpoint ids and wall cuts read them from there, so a
pass over every vertex stays linear in the size of the complex.  Links
share shapes: a link's graph and angular metric are interned per complex
under its degree and corners with their face sizes, integers all, and built
once per new shape, so girth is decided once per shape (``check_gromov``
keeps no link), and local pairs are listed once per shape and kind, then
sorted by each vertex's atoms.

Local pairs and tracing conventions
-----------------------------------

A traced hypergraph assigns to each visited vertex v a *local pair*: a
``Cutset`` of the graph local to v whose two sides are the two components
of its complement.  At a complex vertex that graph is the link; the cutset
is a set of link vertices in vertex kind and a set of corners (link edges)
in edge kind, of at least two elements, pi-separated, with exactly two
components, and minimal: the star conjunction at pi, which
``search.two_sided_cutsets`` lists.  A seed pair need only be pi-separated
and cut the link, into any number of sides.  An edge midpoint, visited by
edge-kind traces only, has a fixed *cage*: two vertices, the directions
toward the lower (1) and the higher (2) end of the edge, joined by one
corner that stands for every face through the edge.  Its only pair cuts
that corner, and exists when at least two faces meet at the edge.

Local direction d at a walkway vertex v is v's d-th neighbour in the
subdivided 1-skeleton: the midpoint of the d-th incident edge at a complex
vertex (link vertex d), the lower or higher end of the edge at a midpoint.
A trace is locally geodesic at v when its traced elements there, as a
cutset of the local graph, pass ``cutset.is_sigma_separated`` at pi (the
traced directions at an edge midpoint are always exactly pi apart).

Seeds and segment order use *atoms*, the cutset in local coordinates:

* vertex kind: the trace walks the 1-skeleton; atoms are link vertex ids
  (one per incident edge, in sorted edge order);
* edge kind: the trace walks antipodal segments, each from a point of a
  face's subdivided boundary across the face to the point opposite it;
  atoms are face indices (each face names its corner at v and the segment
  across it from v; at a midpoint, the atoms are all faces through the edge).

Two pairs at the ends of a segment are compared by the partitions they
induce (``cutset.induced_partition``) on the directions around the
segment, keyed by what both ends share: the faces on the walked edge in
vertex kind, the two boundary arcs of the crossed face in edge kind.
Extension picks, at every newly reached vertex, the local pair with the
least atoms that contains the arriving element and induces the same
partition as the pair it came from.  Vertices where no such pair exists
become frontier vertices; the trace stops there rather than failing.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

from .cutset import Cutset, complement_labels, induced_partition, is_sigma_separated
from .errors import ComplexError
from .graph import (
    INF,
    Edge,
    Graph,
    Metric,
    component_labels,
    edge_key,
    girth,
    shortest_cycle,
    subdivision_graph,
    union_labels,
)
from .report import Certificate

__all__ = [
    "PI",
    "PolygonalComplex",
    "Link",
    "Segment",
    "Hypergraph",
    "WallCut",
    "parse_complex",
    "format_complex",
    "grid_complex",
    "cone_complex",
    "link",
    "check_gromov",
    "edge_midpoint_id",
    "opposite_pair_seeds",
    "trace_hypergraph",
    "hypergraph_checks",
    "wall_cut",
    "separation_check",
]

#: Separation threshold on links, in units of pi.
PI = Fraction(1)

#: The local graph at an edge midpoint, its one cut element and its one
#: pair: two directions, toward the lower (1) and the higher (2) end of the
#: edge, joined by one corner that stands for every face through the edge.
_CAGE = Graph(2, [(1, 2)])
_CAGE_CUT = (1, 2)
_CAGE_PAIR = Cutset.of_edges([_CAGE_CUT])


class PolygonalComplex:
    """Immutable 2-complex on vertices 1..n with polygonal faces.

    Edges are derived from face boundaries; every edge bounds at least one
    face and every vertex lies on at least one face.  Faces may not revisit
    a vertex, which keeps links and antipodal pairings unambiguous.
    """

    __slots__ = ("n", "faces", "edges", "edge_faces", "skeleton", "_cache")

    def __init__(self, n: int, faces: Iterable[Sequence[int]]):
        if n < 1:
            raise ComplexError(f"vertex count must be positive, got {n}")
        walks: list[tuple[int, ...]] = []
        edge_faces: dict[Edge, list[int]] = {}
        for idx, face in enumerate(faces):
            walk = tuple(int(v) for v in face)
            if len(walk) < 3:
                raise ComplexError(f"face {idx} has {len(walk)} vertices, needs at least 3")
            if len(set(walk)) != len(walk):
                raise ComplexError(f"face {idx} revisits a vertex: {walk}")
            for v in walk:
                if not 1 <= v <= n:
                    raise ComplexError(f"face {idx} uses vertex {v}, outside 1..{n}")
            for i, u in enumerate(walk):
                e = edge_key(u, walk[(i + 1) % len(walk)])
                edge_faces.setdefault(e, []).append(idx)
            walks.append(walk)
        if not walks:
            raise ComplexError("a complex needs at least one face")
        covered = {v for walk in walks for v in walk}
        for v in range(1, n + 1):
            if v not in covered:
                raise ComplexError(f"vertex {v} lies on no face")
        self.n = n
        self.faces = tuple(walks)
        self.edges = tuple(sorted(edge_faces))
        self.edge_faces = {e: tuple(fs) for e, fs in edge_faces.items()}
        rows: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            rows[u - 1].append(v)
            rows[v - 1].append(u)
        self.skeleton = Graph._derived([tuple(row) for row in rows], self.edges)
        self._cache: dict = {}

    @property
    def m(self) -> int:
        return len(self.edges)

    def shapes(self) -> tuple[int, ...]:
        """Distinct face side counts, ascending."""
        return tuple(sorted({len(f) for f in self.faces}))

    def max_circumference(self) -> int:
        """Longest face boundary (faces have unit sides)."""
        return max(len(f) for f in self.faces)

    def _incidence(self) -> tuple[tuple, tuple]:
        """Vertex -> faces and vertex -> incident edges (both ascending,
        indexed by vertex id, slot 0 empty); built in one pass over faces
        and edges on first use."""
        index = self._cache.get("incidence")
        if index is None:
            faces_at: list[list[int]] = [[] for _ in range(self.n + 1)]
            for i, walk in enumerate(self.faces):
                for v in walk:
                    faces_at[v].append(i)
            edges_at: list[list[Edge]] = [[] for _ in range(self.n + 1)]
            for e in self.edges:
                edges_at[e[0]].append(e)
                edges_at[e[1]].append(e)
            index = (tuple(map(tuple, faces_at)), tuple(map(tuple, edges_at)))
            self._cache["incidence"] = index
        return index

    def faces_at(self, v: int) -> tuple[int, ...]:
        """Indices of the faces whose boundary passes through v."""
        return self._incidence()[0][v] if 1 <= v <= self.n else ()

    def edges_at(self, v: int) -> tuple[Edge, ...]:
        """Edges incident to v, in sorted edge order."""
        return self._incidence()[1][v] if 1 <= v <= self.n else ()

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, PolygonalComplex):
            return NotImplemented
        return self.n == other.n and self.faces == other.faces

    def __hash__(self) -> int:
        return hash((self.n, self.faces))

    def __repr__(self) -> str:
        return f"PolygonalComplex(n={self.n}, faces={len(self.faces)})"


def parse_complex(text: str) -> PolygonalComplex:
    """Read a JSON document ``{"vertices": n, "faces": [[v, ...], ...]}``.

    An optional ``"edges"`` list is cross-checked against the edges derived
    from the faces: an edge on no face, or a face side missing from the list,
    is an error.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ComplexError(f"bad complex document: {exc}") from None
    if not isinstance(doc, dict) or "vertices" not in doc or "faces" not in doc:
        raise ComplexError('a complex document needs "vertices" and "faces"')
    n, faces = doc["vertices"], doc["faces"]
    if type(n) is not int:
        raise ComplexError(f'"vertices" must be an integer, got {n!r}')
    if not isinstance(faces, list) or not all(
        isinstance(f, list) and all(type(v) is int for v in f) for f in faces
    ):
        raise ComplexError('"faces" must be a list of lists of integer vertex ids')
    x = PolygonalComplex(n, faces)
    if "edges" in doc:
        edges = doc["edges"] if isinstance(doc["edges"], list) else [doc["edges"]]
        for e in edges:
            if not (isinstance(e, list) and len(e) == 2 and all(type(v) is int for v in e) and e[0] != e[1]):
                raise ComplexError(f"bad edge list: {e!r} is not two distinct integer vertex ids")
        declared = {edge_key(*e) for e in edges}
        derived = set(x.edges)
        for e in sorted(declared - derived):
            raise ComplexError(f"declared edge {e} bounds no face")
        for e in sorted(derived - declared):
            raise ComplexError(f"face uses undeclared edge {e}")
    return x


def format_complex(x: PolygonalComplex) -> str:
    """JSON document for a complex; inverse of parse_complex."""
    doc = {"vertices": x.n, "faces": [list(f) for f in x.faces]}
    return json.dumps(doc, indent=2) + "\n"


def grid_complex(rows: int, cols: int) -> PolygonalComplex:
    """Square grid with rows x cols vertices, numbered row-major."""
    if rows < 2 or cols < 2:
        raise ComplexError(f"a grid needs at least 2x2 vertices, got {rows}x{cols}")

    def vid(r: int, c: int) -> int:
        return r * cols + c + 1

    faces = []
    for r in range(rows - 1):
        for c in range(cols - 1):
            faces.append((vid(r, c), vid(r, c + 1), vid(r + 1, c + 1), vid(r + 1, c)))
    return PolygonalComplex(rows * cols, faces)


def cone_complex(g: Graph) -> PolygonalComplex:
    """Cone over a graph: one apex vertex n+1, one triangle per edge."""
    if g.m == 0:
        raise ComplexError("cannot cone over an edgeless graph")
    apex = g.n + 1
    return PolygonalComplex(apex, [(u, v, apex) for u, v in g.edges()])


class Link:
    """The link of a complex vertex, with its angular metric.

    Link vertex i stands for the i-th smallest incident edge (``edges_at``
    maps ids back); each face corner at the vertex contributes one link edge
    of length (k-2)/k, labelled by the face (``face_of_corner`` /
    ``corner_of_face``).
    """

    __slots__ = ("vertex", "graph", "metric", "edges_at", "face_of_corner", "corner_of_face", "_ids")

    def __init__(self, vertex, graph, metric, edges_at, face_of_corner):
        self.vertex = vertex
        self.graph = graph
        self.metric = metric
        self.edges_at = edges_at
        self.face_of_corner = dict(face_of_corner)
        self.corner_of_face = {f: le for le, f in self.face_of_corner.items()}
        self._ids = {e: i + 1 for i, e in enumerate(edges_at)}

    def vertex_id(self, e: Edge) -> int:
        """Link vertex standing for the ambient edge e."""
        key = edge_key(*e)
        if key not in self._ids:
            raise ComplexError(f"edge {key} is not incident to vertex {self.vertex}")
        return self._ids[key]

    def __repr__(self) -> str:
        return f"Link(vertex={self.vertex}, n={self.graph.n}, m={self.graph.m})"


@lru_cache(maxsize=None)
def _corner_angle(k: int) -> Fraction:
    """Corner angle of a regular k-gon in units of pi, one object per k so
    that equal link metrics compare by identity."""
    return Fraction(k - 2, k)


def _link_shape(x: PolygonalComplex, v: int) -> tuple[tuple[Graph, Metric], dict[Edge, int]]:
    """The link of v as its shape (graph, angular metric) and the face of
    each corner.  The corner loop runs at every call; the shape is interned
    per complex under (degree, corners with their face sizes), so vertices
    with equal links share one graph and one metric, built once per shape."""
    incident = x.edges_at(v)
    ids = {a + b - v: i for i, (a, b) in enumerate(incident, start=1)}  # neighbour -> link vertex
    corners: list[tuple[int, int, int]] = []
    face_of: dict[Edge, int] = {}
    for idx in x.faces_at(v):
        walk = x.faces[idx]
        k = len(walk)
        p = walk.index(v)
        a, b = ids[walk[p - 1]], ids[walk[(p + 1) % k]]
        le = (a, b) if a < b else (b, a)
        if le in face_of:
            raise ComplexError(
                f"faces {face_of[le]} and {idx} form parallel corners at vertex {v};"
                f" links must be simple"
            )
        face_of[le] = idx
        corners.append((*le, k))
    shapes = x._cache.setdefault("shapes", {})
    key = (len(incident), tuple(sorted(corners)))
    shape = shapes.get(key)
    if shape is None:
        lengths = {(a, b): _corner_angle(k) for a, b, k in key[1]}
        shape = shapes[key] = (Graph(len(incident), lengths), Metric.angular(lengths))
    return shape, face_of


def link(x: PolygonalComplex, v: int) -> Link:
    """Build the link of vertex v with corner angles as edge lengths."""
    if not 1 <= v <= x.n:
        raise ComplexError(f"vertex {v} outside 1..{x.n}")
    key = ("link", v)
    if key not in x._cache:
        (graph, metric), face_of = _link_shape(x, v)
        x._cache[key] = Link(v, graph, metric, x.edges_at(v), face_of)
    return x._cache[key]


def check_gromov(x: PolygonalComplex) -> Certificate:
    """Certify the link condition: every link has angular girth >= 2 pi.

    One check per vertex; failures carry a shortest offending cycle.  The
    girth is decided once per link shape and no link is kept.  The leading
    shapes check records the side counts and the maximal face circumference
    for scale.
    """
    cert = Certificate("gromov-link-condition")
    cert.add(
        "shapes",
        True,
        {"side_counts": x.shapes(), "max_circumference": x.max_circumference()},
    )
    decided: dict[tuple[Graph, Metric], tuple[bool, dict]] = {}
    for v in range(1, x.n + 1):
        shape = _link_shape(x, v)[0]
        if shape not in decided:
            got = girth(*shape)
            ok = got is INF or got >= 2
            witness = {"girth_pi_units": got, "required": 2}
            if not ok:
                found = shortest_cycle(*shape)
                if found is not None:
                    witness["cycle"] = found[1]
            decided[shape] = (ok, witness)
        cert.add(f"link-girth-{v}", *decided[shape])
    return cert


@dataclass(frozen=True)
class Segment(object):
    """One traced 1-cell: an edge of the walkway graph.

    Vertex hypergraphs walk the 1-skeleton, so ``face`` is None and (a, b)
    is an edge of the complex.  Edge hypergraphs walk antipodal segments,
    so (a, b) are subdivided ids and ``face`` names the face the segment
    crosses (the canonical map sends it to the geodesic inside that face).
    """

    a: int
    b: int
    face: int | None = None

    def __post_init__(self):
        if self.a > self.b:
            lo, hi = self.b, self.a
            object.__setattr__(self, "a", lo)
            object.__setattr__(self, "b", hi)

    def key(self) -> tuple[int, int, int]:
        return (self.a, self.b, -1 if self.face is None else self.face)

    def ends(self) -> tuple[int, int]:
        return (self.a, self.b)

    def other(self, v: int) -> int:
        if v == self.a:
            return self.b
        if v == self.b:
            return self.a
        raise ComplexError(f"vertex {v} is not an end of segment {self}")


def _subdivided_skeleton(x: PolygonalComplex) -> tuple[Graph, dict[Edge, int]]:
    """The subdivided 1-skeleton and its edge -> midpoint map, built once per
    complex: the one place midpoint ids are assigned (n+1.. in sorted edge
    order, ``graph.subdivision_graph``)."""
    if "subdivision" not in x._cache:
        x._cache["subdivision"] = subdivision_graph(x.skeleton)
    return x._cache["subdivision"]


def _face_boundary(x: PolygonalComplex, face: int) -> tuple[int, ...]:
    """The subdivided boundary cycle of a face: each corner followed by the
    midpoint of the side after it."""
    walk = x.faces[face]
    mid = _subdivided_skeleton(x)[1]
    cycle: list[int] = []
    for u, w in zip(walk, walk[1:] + walk[:1]):
        cycle += (u, mid[edge_key(u, w)])
    return tuple(cycle)


def _antipode(x: PolygonalComplex, v: int, face: int) -> Segment:
    """The segment from v across a face to the point opposite v on its
    subdivided boundary."""
    cycle = _face_boundary(x, face) if 0 <= face < len(x.faces) else ()
    if v not in cycle:
        raise ComplexError(f"face {face} has no antipodal edge at vertex {v}")
    return Segment(v, cycle[(cycle.index(v) + len(cycle) // 2) % len(cycle)], face)


def edge_midpoint_id(x: PolygonalComplex, e: Edge) -> int:
    """Subdivided id of an edge midpoint (n+1.. in sorted edge order)."""
    key = edge_key(*e)
    _, mid = _subdivided_skeleton(x)
    if key not in mid:
        raise ComplexError(f"{key} is not an edge of the complex")
    return mid[key]


@dataclass(frozen=True)
class Hypergraph:
    """A traced hypergraph: segments, the pair used at each visited vertex,
    and the frontier vertices where tracing stopped (with reasons).

    ``conflicts`` records segments whose far end already carried a pair that
    does not match the arriving one; a clean trace has none.
    """

    kind: str
    seed_vertex: int
    segments: tuple[Segment, ...]
    pairs: tuple[tuple[int, Cutset], ...]
    frontier: tuple[tuple[int, str], ...]
    conflicts: tuple[tuple[Segment, int, str], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(sorted(self.segments, key=Segment.key)))
        object.__setattr__(self, "pairs", tuple(sorted(self.pairs)))
        object.__setattr__(self, "frontier", tuple(sorted(self.frontier)))

    @cached_property
    def _pair_index(self) -> dict[int, Cutset]:
        return dict(self.pairs)

    @cached_property
    def _segment_index(self) -> dict[int, tuple[Segment, ...]]:
        index: dict[int, list[Segment]] = {}
        for seg in self.segments:
            for v in seg.ends():
                index.setdefault(v, []).append(seg)
        return {v: tuple(segs) for v, segs in index.items()}

    def pair_at(self, v: int) -> Cutset | None:
        return self._pair_index.get(v)

    def vertices(self) -> tuple[int, ...]:
        """All segment endpoints, ascending."""
        return tuple(sorted(self._segment_index))

    def segments_at(self, v: int) -> tuple[Segment, ...]:
        return self._segment_index.get(v, ())

    def degree(self, v: int) -> int:
        return len(self.segments_at(v))


def _midpoint_edge(x: PolygonalComplex, v: int) -> Edge:
    """The edge whose midpoint has subdivided id v (n+1.. in sorted edge
    order).  Ids of traced segment ends are always in range, so only a seed
    can fail the check."""
    if not x.n < v <= x.n + len(x.edges):
        raise ComplexError(f"seed vertex {v} outside the subdivided range")
    return x.edges[v - x.n - 1]


def _local_graph(x: PolygonalComplex, kind: str, v: int) -> Graph:
    """The graph a local pair at v cuts: the link of a vertex, or the cage
    at an edge midpoint."""
    if kind == "edge" and v > x.n:
        return _CAGE
    return link(x, v).graph


def _atoms(x: PolygonalComplex, kind: str, v: int, pair: Cutset) -> tuple[int, ...]:
    """A pair's cutset in local coordinates, ascending: link vertex ids in
    vertex kind, the faces of the cut corners in edge kind (every face
    through the edge at a midpoint)."""
    if kind == "vertex":
        return pair.sorted_elements()
    if v > x.n:
        return tuple(sorted(x.edge_faces[_midpoint_edge(x, v)]))
    face_of = link(x, v).face_of_corner
    return tuple(sorted(face_of[c] for c in pair.elements))


def _pairs_at(x: PolygonalComplex, kind: str, u: int) -> tuple[Cutset, ...]:
    """All local pairs at a walkway vertex, sorted by their atoms: the
    cutsets of the link with at least two elements that are pi-separated,
    have exactly two components and are minimal, from the star search
    (``search.two_sided_cutsets``), run once per link shape and kind; at an
    edge midpoint, the cage pair when at least two faces meet there."""
    if kind == "edge" and u > x.n:
        return (_CAGE_PAIR,) if len(x.edge_faces[_midpoint_edge(x, u)]) >= 2 else ()
    lk = link(x, u)
    key = ("pairs", kind, lk.graph, lk.metric)
    if key not in x._cache:
        from .search import two_sided_cutsets

        found = two_sided_cutsets(lk.graph, lk.metric, kind, PI)
        x._cache[key] = tuple(c for c in found if len(c) >= 2)
    return tuple(sorted(x._cache[key], key=lambda c: _atoms(x, kind, u, c)))


def _validated_pair(
    x: PolygonalComplex,
    kind: str,
    v0: int,
    atoms: Iterable[int],
) -> Cutset:
    """Check a seed against the local graph at v0 and return its cutset,
    the seed pair."""
    atoms = tuple(sorted(set(int(a) for a in atoms)))
    if len(atoms) < 2:
        raise ComplexError(f"seed pair invalid: needs at least two atoms, got {atoms}")
    if kind == "edge" and v0 > x.n:
        e = _midpoint_edge(x, v0)
        fs = tuple(sorted(x.edge_faces[e]))
        if atoms != fs:
            raise ComplexError(
                f"seed pair invalid: the only cutset at an edge midpoint is the"
                f" full set of faces {fs}, got {atoms}"
            )
        return _CAGE_PAIR
    if not 1 <= v0 <= x.n:
        raise ComplexError(f"seed vertex {v0} outside 1..{x.n}")
    lk = link(x, v0)
    if kind == "vertex":
        for a in atoms:
            if not 1 <= a <= lk.graph.n:
                raise ComplexError(f"seed pair invalid: {a} is not a link vertex of {v0}")
        c = Cutset.of_vertices(atoms)
    else:
        for f in atoms:
            if f not in lk.corner_of_face:
                raise ComplexError(f"seed pair invalid: face {f} has no corner at vertex {v0}")
        c = Cutset.of_edges(lk.corner_of_face[f] for f in atoms)
    if complement_labels(lk.graph, c)[1] < 2:
        raise ComplexError(f"seed pair invalid: atoms do not cut the link of {v0}")
    sep = is_sigma_separated(lk.graph, lk.metric, c, PI)
    if not sep.ok:
        (a, b), d = sep.witness["pair"], sep.witness["distance"]
        raise ComplexError(f"seed pair invalid: not pi-separated: pair {a}-{b} at distance {d} pi")
    return c


def _element_at(x: PolygonalComplex, kind: str, seg: Segment, v: int):
    """The cut element a segment occupies at one of its ends: a link vertex
    in vertex kind, a link corner (the cage edge at a midpoint) in edge
    kind."""
    if kind == "vertex":
        return link(x, v).vertex_id((seg.a, seg.b))
    if v > x.n:
        return _CAGE_CUT
    return link(x, v).corner_of_face[seg.face]


def _segments_for(x: PolygonalComplex, kind: str, v: int, pair: Cutset) -> list[Segment]:
    """Walkway edges named by a pair's atoms at v, in atom order."""
    if kind == "vertex":
        lk = link(x, v)
        return [Segment(*lk.edges_at[a - 1]) for a in _atoms(x, kind, v, pair)]
    return [_antipode(x, v, f) for f in _atoms(x, kind, v, pair)]


def _germ_keys(x: PolygonalComplex, kind: str, seg: Segment, v: int) -> dict[int, object]:
    """Map each local direction at v around seg to a shared matching key.

    Vertex kind keys are the faces containing the walked edge; edge kind
    keys are the two boundary arcs of the crossed face between the segment's
    ends.  Both ends of a segment see the same key space, which is what
    makes the induced partitions comparable.
    """
    if kind == "vertex":
        lk = link(x, v)
        c = lk.vertex_id((seg.a, seg.b))
        return {n: lk.face_of_corner[edge_key(c, n)] for n in lk.graph.neighbors(c)}
    cycle = _face_boundary(x, seg.face)
    k = len(cycle) // 2
    pos = cycle.index(v)
    arc_one = frozenset(cycle[(pos + i) % (2 * k)] for i in range(1, k))
    arc_two = frozenset(cycle[(pos + k + i) % (2 * k)] for i in range(1, k))

    def arc_of(node: int) -> frozenset:
        if node in arc_one:
            return arc_one
        if node in arc_two:
            return arc_two
        raise ComplexError(f"node {node} not on the boundary arcs of face {seg.face}")

    nodes = _subdivided_skeleton(x)[0].neighbors(v)
    return {d: arc_of(nodes[d - 1]) for d in _element_at(x, kind, seg, v)}


def _equatable(x: PolygonalComplex, kind: str, seg: Segment, pairs: dict[int, Cutset]) -> bool:
    """Do the pairs at the two ends of seg induce the same partition of the
    directions around it?"""
    a, b = (
        induced_partition(_local_graph(x, kind, v), pairs[v], _germ_keys(x, kind, seg, v))
        for v in seg.ends()
    )
    return a == b


def trace_hypergraph(
    x: PolygonalComplex,
    v0: int,
    atoms: Iterable[int],
    kind: str = "vertex",
) -> Hypergraph:
    """Trace a hypergraph outward from a seeded local pair.

    Vertex hypergraphs walk the 1-skeleton (atoms are link vertex ids of
    Lk(v0)); edge hypergraphs walk antipodal segments (atoms are face
    indices, v0 may be a primary vertex or an edge midpoint id).  Extension
    is breadth-first: at every newly reached vertex the lexicographically
    least equatable pair containing the arriving element continues the
    trace, and vertices with no such pair are recorded as frontier.
    """
    if kind not in ("vertex", "edge"):
        raise ComplexError(f"unknown hypergraph kind {kind!r}")
    seed = _validated_pair(x, kind, v0, atoms)
    pairs: dict[int, Cutset] = {v0: seed}
    frontier: dict[int, str] = {}
    traced: dict[tuple, Segment] = {}
    conflicts: list[tuple[Segment, int, str]] = []
    queue: deque[tuple[Segment, int]] = deque()
    for seg in _segments_for(x, kind, v0, seed):
        queue.append((seg, v0))
    while queue:
        seg, src = queue.popleft()
        if seg.key() in traced:
            continue
        traced[seg.key()] = seg
        dst = seg.other(src)
        arriving = pairs[src]
        element = _element_at(x, kind, seg, dst)
        standing = pairs.get(dst)
        if standing is not None:
            if element not in standing:
                conflicts.append((seg, dst, "element-missing"))
            elif not _equatable(x, kind, seg, {src: arriving, dst: standing}):
                conflicts.append((seg, dst, "not-equatable"))
            continue
        if dst in frontier:
            continue
        candidates = [p for p in _pairs_at(x, kind, dst) if element in p]
        if not candidates:
            frontier[dst] = "no-pair"
            continue
        chosen = None
        for p in candidates:
            if _equatable(x, kind, seg, {src: arriving, dst: p}):
                chosen = p
                break
        if chosen is None:
            frontier[dst] = "no-equatable"
            continue
        pairs[dst] = chosen
        for nxt in _segments_for(x, kind, dst, chosen):
            if nxt.key() not in traced:
                queue.append((nxt, dst))
    return Hypergraph(
        kind=kind,
        seed_vertex=v0,
        segments=tuple(traced.values()),
        pairs=tuple(pairs.items()),
        frontier=tuple(frontier.items()),
        conflicts=tuple(conflicts),
    )


def opposite_pair_seeds(x: PolygonalComplex) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Edge-kind seeds at every interior edge midpoint.

    Each seed is (midpoint id, face indices); the faces name the antipodal
    edges to the opposite-edge midpoints, the only pi-separated cutset a
    cage link carries.  Boundary edges (a single face) yield no seed.
    """
    out = []
    for i, e in enumerate(x.edges):
        fs = x.edge_faces[e]
        if len(fs) >= 2:
            out.append((x.n + 1 + i, tuple(sorted(fs))))
    return tuple(out)


def _geodesy_at(x: PolygonalComplex, h: Hypergraph, v: int) -> tuple[bool, dict]:
    """Are the traced directions at v pairwise at angular distance >= pi?"""
    segs = h.segments_at(v)
    if len(segs) < 2:
        return True, {"segments": len(segs)}
    if h.kind == "edge" and v > x.n:
        # all corners of a cage have midpoint distance exactly pi
        return True, {"segments": len(segs), "min_distance_pi_units": PI}
    lk = link(x, v)
    traced = Cutset(h.kind, frozenset(_element_at(x, h.kind, s, v) for s in segs))
    sep = is_sigma_separated(lk.graph, lk.metric, traced, PI)
    worst = sep.witness["min_distance" if sep.ok else "distance"]
    return sep.ok, {"segments": len(segs), "min_distance_pi_units": worst}


def hypergraph_checks(x: PolygonalComplex, h: Hypergraph) -> Certificate:
    """Certify the finite-scale tree properties of a traced hypergraph.

    Checks: the traced segments form a forest (acyclic); every leaf is a
    frontier vertex; at every interior vertex the traced directions are
    pairwise at least pi apart; and every segment is compatible along its
    ends (pairs contain the segment and induce equal direction partitions,
    with frontier ends exempt).
    """
    cert = Certificate("hypergraph")
    verts = h.vertices()
    index = {v: i for i, v in enumerate(verts)}
    labels = union_labels(len(verts), ((index[s.a], index[s.b]) for s in h.segments))
    components = len(set(labels))
    cert.add(
        "acyclic",
        len(h.segments) == len(verts) - components,
        {"segments": len(h.segments), "vertices": len(verts), "components": components},
    )

    frontier_set = {v for v, _ in h.frontier}
    leaves = [v for v in verts if h.degree(v) == 1]
    stray = [v for v in leaves if v not in frontier_set]
    cert.add(
        "leaves-on-frontier",
        not stray,
        {"leaves": tuple(leaves), "frontier": tuple(sorted(frontier_set)), "stray": tuple(stray)},
    )

    offenders = []
    worst = None
    for v, _pair in h.pairs:
        ok, info = _geodesy_at(x, h, v)
        d = info.get("min_distance_pi_units")
        if d is not None and (worst is None or d < worst):
            worst = d
        if not ok:
            offenders.append({"vertex": v, **info})
    cert.add(
        "locally-geodesic",
        not offenders,
        {"threshold_pi_units": PI, "min_distance_pi_units": worst, "offenders": offenders},
    )

    bad = []
    for seg in h.segments:
        for end in seg.ends():
            pair = h.pair_at(end)
            if pair is None:
                if end not in frontier_set:
                    bad.append({"segment": seg.key(), "vertex": end, "reason": "unvisited-end"})
                continue
            if _element_at(x, h.kind, seg, end) not in pair:
                bad.append({"segment": seg.key(), "vertex": end, "reason": "element-missing"})
        a_pair, b_pair = h.pair_at(seg.a), h.pair_at(seg.b)
        if a_pair is not None and b_pair is not None:
            if not _equatable(x, h.kind, seg, {seg.a: a_pair, seg.b: b_pair}):
                bad.append({"segment": seg.key(), "vertex": seg.b, "reason": "not-equatable"})
    for seg, v, reason in h.conflicts:
        bad.append({"segment": seg.key(), "vertex": v, "reason": reason})
    cert.add("compatible", not bad, {"violations": bad})
    return cert


@dataclass(frozen=True)
class WallCut:
    """The two-sided (or many-sided) cut a hypergraph makes in the
    subdivided 1-skeleton: removed nodes and the surviving node blocks,
    with components merged when one side of a local pair joins them."""

    n_primary: int
    removed: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]

    def primary_blocks(self) -> tuple[tuple[int, ...], ...]:
        """The blocks restricted to primary (complex) vertices."""
        return tuple(tuple(v for v in blk if v <= self.n_primary) for blk in self.blocks)

    def side_of(self, node: int) -> int:
        for i, blk in enumerate(self.blocks):
            if node in blk:
                return i
        raise ComplexError(f"node {node} is removed or unknown")


def wall_cut(x: PolygonalComplex, h: Hypergraph) -> WallCut:
    """Cut the subdivided 1-skeleton along a hypergraph.

    Vertex hypergraphs remove their closed edges (both endpoints and the
    midpoint); edge hypergraphs remove the crossed subdivided vertices.
    Components are then grouped: at every visited vertex, components touched
    by directions that enter one side of the local pair belong to the same
    side.  The complex keeps the last hypergraph and its cut, so a
    separation query after the cut does not cut again.
    """
    last = x._cache.get("wall")
    if last is not None and last[0] is h:
        return last[1]
    g2, mid = _subdivided_skeleton(x)
    removed: set[int] = set()
    if h.kind == "vertex":
        for seg in h.segments:
            removed.update((seg.a, seg.b, mid[edge_key(seg.a, seg.b)]))
    else:
        for seg in h.segments:
            removed.update(seg.ends())
    labels, count = component_labels(g2, removed_vertices=frozenset(removed))
    merges = []
    for v, pair in h.pairs:
        # the subdivided node each surviving local direction at v points at
        nodes = {d: w for d, w in enumerate(g2.neighbors(v), start=1) if d not in pair}
        for blk in induced_partition(_local_graph(x, h.kind, v), pair, nodes):
            touched = [labels[node - 1] for node in sorted(blk) if labels[node - 1] is not None]
            merges.extend((touched[0], lab) for lab in touched[1:])
    side = union_labels(count, merges)
    sides: dict[int, list[int]] = {}
    for node in range(1, g2.n + 1):
        lab = labels[node - 1]
        if lab is None:
            continue
        sides.setdefault(side[lab], []).append(node)
    blocks = tuple(sorted(tuple(nodes) for nodes in sides.values()))
    cut = WallCut(x.n, tuple(sorted(removed)), blocks)
    x._cache["wall"] = (h, cut)
    return cut


def separation_check(x: PolygonalComplex, h: Hypergraph, p, q) -> bool:
    """Do two points (vertices or edge midpoints) lie on opposite sides?

    Points may be vertex ids or edges (for their midpoints); a point on the
    hypergraph itself is an error.
    """
    cut = wall_cut(x, h)
    nodes = []
    for pt in (p, q):
        if isinstance(pt, int):
            if not 1 <= pt <= x.n + len(x.edges):
                raise ComplexError(f"point {pt} outside the subdivided range")
            node = pt
        else:
            node = edge_midpoint_id(x, pt)
        if node in cut.removed:
            raise ComplexError(f"point {pt} lies on the hypergraph")
        nodes.append(node)
    return cut.side_of(nodes[0]) != cut.side_of(nodes[1])
