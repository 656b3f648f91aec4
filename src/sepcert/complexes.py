"""Finite polygonal complexes: links, curvature, antipodal graph, hypergraphs.

A complex is a vertex count plus a list of faces, each face a cyclic sequence
of distinct vertices.  Every face is treated as a regular polygon with unit
sides, so a k-gon contributes corners of angle (k-2)/k in units of pi.  On
top of that the module builds vertex links with their angular metrics, checks
the curvature condition (every link has angular girth at least 2 pi),
constructs the antipodal graph, traces separating hypergraphs outward from a
seeded cutset-partition, and computes the two-sided cut such a hypergraph
induces on the subdivided 1-skeleton.

Local pairs and tracing conventions
-----------------------------------

A traced hypergraph assigns to each visited vertex a *local pair*: a
pi-separated cutset of that vertex's link together with a partition of the
complement components.  Local coordinates keep the two hypergraph kinds
uniform:

* vertex kind: the trace walks the 1-skeleton; cutset atoms are link vertex
  ids (one per incident edge, in sorted edge order);
* edge kind: the trace walks the antipodal graph; cutset atoms are face
  indices (each face names the unique antipodal edge through it at a given
  vertex).

Extension picks, at every newly reached vertex, the lexicographically least
local pair that contains the arriving element and induces the same partition
of the directions around the arriving segment as the pair it came from.
Vertices where no such pair exists become frontier vertices; the trace stops
there rather than failing.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations
from typing import Iterable, Sequence

from .cutset import (
    Cutset,
    canonical_partition,
    components_of_complement,
    is_cutset,
    is_sigma_separated,
    midpoint_distance,
)
from .errors import ComplexError
from .graph import (
    INF,
    Edge,
    Graph,
    Metric,
    component_labels,
    distances,
    edge_key,
    girth,
    subdivide,
)
from .report import Certificate

__all__ = [
    "PI",
    "PolygonalComplex",
    "Link",
    "AntipodalGraph",
    "Segment",
    "TracedPair",
    "Hypergraph",
    "WallCut",
    "parse_complex",
    "format_complex",
    "grid_complex",
    "cone_complex",
    "link",
    "check_gromov",
    "antipodal_graph",
    "edge_midpoint_id",
    "opposite_pair_seeds",
    "trace_hypergraph",
    "hypergraph_checks",
    "wall_cut",
    "separation_check",
]

#: Separation threshold on links, in units of pi.
PI = Fraction(1)

#: Largest link (elements of the relevant kind) we will enumerate cutsets on.
_ENUM_LIMIT = 16


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
        self.skeleton = Graph(n, self.edges)
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

    def faces_at(self, v: int) -> tuple[int, ...]:
        """Indices of the faces whose boundary passes through v."""
        key = ("faces_at", v)
        if key not in self._cache:
            self._cache[key] = tuple(i for i, f in enumerate(self.faces) if v in f)
        return self._cache[key]

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
        try:
            declared = {edge_key(int(u), int(v)) for u, v in doc["edges"]}
        except (TypeError, ValueError) as exc:
            raise ComplexError(f"bad edge list: {exc}") from None
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


def link(x: PolygonalComplex, v: int) -> Link:
    """Build the link of vertex v with corner angles as edge lengths."""
    if not 1 <= v <= x.n:
        raise ComplexError(f"vertex {v} outside 1..{x.n}")
    key = ("link", v)
    if key in x._cache:
        return x._cache[key]
    incident = tuple(e for e in x.edges if v in e)
    ids = {e: i + 1 for i, e in enumerate(incident)}
    lengths: dict[Edge, Fraction] = {}
    face_of: dict[Edge, int] = {}
    for idx in x.faces_at(v):
        walk = x.faces[idx]
        k = len(walk)
        p = walk.index(v)
        before = edge_key(v, walk[p - 1])
        after = edge_key(v, walk[(p + 1) % k])
        le = edge_key(ids[before], ids[after])
        if le in lengths:
            raise ComplexError(
                f"faces {face_of[le]} and {idx} form parallel corners at vertex {v};"
                f" links must be simple"
            )
        lengths[le] = Fraction(k - 2, k)
        face_of[le] = idx
    lk = Link(v, Graph(len(incident), lengths), Metric.angular(lengths), incident, face_of)
    x._cache[key] = lk
    return lk


def _dijkstra_path(g: Graph, metric: Metric, source: int, target: int, skip: Edge):
    """Shortest path source -> target avoiding one edge; (length, vertices)."""
    skip = edge_key(*skip)
    dist = {source: Fraction(0)}
    parent: dict[int, int] = {}
    heap: list[tuple[Fraction, int]] = [(Fraction(0), source)]
    done: set[int] = set()
    while heap:
        d, u = heappop(heap)
        if u in done:
            continue
        if u == target:
            path = [u]
            while path[-1] != source:
                path.append(parent[path[-1]])
            return d, tuple(reversed(path))
        done.add(u)
        for w in g.neighbors(u):
            if edge_key(u, w) == skip:
                continue
            nd = d + metric.edge_length((u, w))
            if w not in dist or nd < dist[w]:
                dist[w] = nd
                parent[w] = u
                heappush(heap, (nd, w))
    return INF, ()


def _shortest_cycle(g: Graph, metric: Metric):
    """A minimum-length cycle as (length, vertex tuple); None if acyclic."""
    best = None
    for e in g.edges():
        u, v = e
        d, path = _dijkstra_path(g, metric, u, v, skip=e)
        if d is INF:
            continue
        total = d + metric.edge_length(e)
        if best is None or total < best[0]:
            best = (total, path)
    return best


def check_gromov(x: PolygonalComplex) -> Certificate:
    """Certify the link condition: every link has angular girth >= 2 pi.

    One check per vertex; failures carry a shortest offending cycle.  The
    leading shapes check records the side counts and the maximal face
    circumference for scale.
    """
    cert = Certificate("gromov-link-condition")
    cert.add(
        "shapes",
        True,
        {"side_counts": x.shapes(), "max_circumference": x.max_circumference()},
    )
    for v in range(1, x.n + 1):
        lk = link(x, v)
        got = girth(lk.graph, lk.metric)
        ok = got is INF or got >= 2
        witness = {"girth_pi_units": got, "required": 2}
        if not ok:
            found = _shortest_cycle(lk.graph, lk.metric)
            if found is not None:
                witness["cycle"] = found[1]
        cert.add(f"link-girth-{v}", ok, witness)
    return cert


@dataclass(frozen=True)
class Segment(object):
    """One traced 1-cell: an edge of the walkway graph.

    Vertex hypergraphs walk the 1-skeleton, so ``face`` is None and (a, b)
    is an edge of the complex.  Edge hypergraphs walk the antipodal graph,
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


def _segment(a: int, b: int, face: int | None = None) -> Segment:
    return Segment(min(a, b), max(a, b), face)


class AntipodalGraph:
    """Antipodal graph of a complex: subdivided vertices, one edge per
    antipodal boundary pair of each face, labelled by the face.

    Vertices 1..n are the complex's own (primary); n+1.. are edge midpoints
    (secondary), numbered in sorted edge order.  ``boundaries[f]`` is face
    f's subdivided boundary cycle.
    """

    __slots__ = ("n_primary", "n_total", "mid_of", "edge_of_mid", "edges", "boundaries", "_at", "_through")

    def __init__(self, x: PolygonalComplex):
        self.n_primary = x.n
        self.mid_of = {e: x.n + 1 + i for i, e in enumerate(x.edges)}
        self.edge_of_mid = {m: e for e, m in self.mid_of.items()}
        self.n_total = x.n + len(x.edges)
        boundaries = []
        records: list[Segment] = []
        for idx, walk in enumerate(x.faces):
            k = len(walk)
            cycle: list[int] = []
            for i, u in enumerate(walk):
                cycle.append(u)
                cycle.append(self.mid_of[edge_key(u, walk[(i + 1) % k])])
            boundaries.append(tuple(cycle))
            for i in range(k):
                records.append(_segment(cycle[i], cycle[i + k], idx))
        self.boundaries = tuple(boundaries)
        self.edges = tuple(sorted(records, key=Segment.key))
        at: dict[int, list[Segment]] = {}
        through: dict[tuple[int, int], Segment] = {}
        for seg in self.edges:
            for end in seg.ends():
                at.setdefault(end, []).append(seg)
                through[(end, seg.face)] = seg
        self._at = {v: tuple(segs) for v, segs in at.items()}
        self._through = through

    def at(self, v: int) -> tuple[Segment, ...]:
        """Antipodal edges incident to a subdivided vertex."""
        return self._at.get(v, ())

    def through(self, v: int, face: int) -> Segment:
        """The unique antipodal edge at v crossing the given face."""
        try:
            return self._through[(v, face)]
        except KeyError:
            raise ComplexError(f"face {face} has no antipodal edge at vertex {v}") from None

    def __repr__(self) -> str:
        return f"AntipodalGraph(n={self.n_total}, m={len(self.edges)})"


def antipodal_graph(x: PolygonalComplex) -> AntipodalGraph:
    """Build (and cache) the antipodal graph of a complex."""
    if "antipodal" not in x._cache:
        x._cache["antipodal"] = AntipodalGraph(x)
    return x._cache["antipodal"]


def edge_midpoint_id(x: PolygonalComplex, e: Edge) -> int:
    """Subdivided id of an edge midpoint (n+1.. in sorted edge order)."""
    key = edge_key(*e)
    if key not in x.edge_faces:
        raise ComplexError(f"{key} is not an edge of the complex")
    return x.n + 1 + x.edges.index(key)


@dataclass(frozen=True)
class TracedPair:
    """A local pair: cutset atoms plus a partition of local directions.

    Atoms are link vertex ids for vertex hypergraphs and face indices for
    edge hypergraphs.  Blocks group the surviving local directions — link
    vertex ids, except at an edge midpoint where the two directions are the
    endpoint vertices of the underlying edge.
    """

    atoms: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(sorted(set(self.atoms))))
        object.__setattr__(
            self, "blocks", tuple(sorted(tuple(sorted(set(b))) for b in self.blocks))
        )
        if len(self.atoms) < 2:
            raise ComplexError(f"a local pair needs at least two atoms, got {self.atoms}")
        if len(self.blocks) < 2:
            raise ComplexError("a local pair needs at least two partition blocks")
        seen: set[int] = set()
        for b in self.blocks:
            if not b:
                raise ComplexError("empty partition block in local pair")
            if seen.intersection(b):
                raise ComplexError("overlapping partition blocks in local pair")
            seen.update(b)

    def sort_key(self) -> tuple:
        return (self.atoms, self.blocks)

    def block_of(self, direction: int) -> tuple[int, ...]:
        for b in self.blocks:
            if direction in b:
                return b
        raise ComplexError(f"direction {direction} lies in no partition block")


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
    pairs: tuple[tuple[int, TracedPair], ...]
    frontier: tuple[tuple[int, str], ...]
    conflicts: tuple[tuple[Segment, int, str], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(sorted(self.segments, key=Segment.key)))
        object.__setattr__(self, "pairs", tuple(sorted(self.pairs)))
        object.__setattr__(self, "frontier", tuple(sorted(self.frontier)))

    def pair_at(self, v: int) -> TracedPair | None:
        for u, pair in self.pairs:
            if u == v:
                return pair
        return None

    def frontier_reason(self, v: int) -> str | None:
        for u, reason in self.frontier:
            if u == v:
                return reason
        return None

    def vertices(self) -> tuple[int, ...]:
        """All segment endpoints, ascending."""
        out: set[int] = set()
        for seg in self.segments:
            out.update(seg.ends())
        return tuple(sorted(out))

    def segments_at(self, v: int) -> tuple[Segment, ...]:
        return tuple(s for s in self.segments if v in s.ends())

    def degree(self, v: int) -> int:
        return len(self.segments_at(v))


def _pairs_at(x: PolygonalComplex, kind: str, u: int) -> tuple[TracedPair, ...]:
    """All local pairs at a walkway vertex, lexicographically sorted.

    Cutsets are enumerated exhaustively over the link (pi-separated, at
    least two elements, with the canonical partition); edge midpoints have
    the single full-cage pair when at least two faces meet there.
    """
    key = ("pairs", kind, u)
    if key in x._cache:
        return x._cache[key]
    if kind == "edge" and u > x.n:
        e = x.edges[u - x.n - 1]
        fs = x.edge_faces[e]
        if len(fs) < 2:
            out: tuple[TracedPair, ...] = ()
        else:
            a, b = e
            out = (TracedPair(tuple(fs), ((a,), (b,))),)
        x._cache[key] = out
        return out
    lk = link(x, u)
    if kind == "vertex":
        universe: list = list(lk.graph.vertices())
    else:
        universe = sorted(lk.face_of_corner)
    if len(universe) > _ENUM_LIMIT:
        raise ComplexError(
            f"link of vertex {u} has {len(universe)} {kind} elements;"
            f" refusing to enumerate cutsets beyond {_ENUM_LIMIT}"
        )
    found: list[TracedPair] = []
    for r in range(2, len(universe) + 1):
        for sel in combinations(universe, r):
            c = Cutset.of_vertices(sel) if kind == "vertex" else Cutset.of_edges(sel)
            if not is_cutset(lk.graph, c).ok:
                continue
            if not is_sigma_separated(lk.graph, lk.metric, c, PI).ok:
                continue
            part = canonical_partition(lk.graph, c)
            comps = components_of_complement(lk.graph, c)
            blocks = []
            expressible = True
            for blk in part.blocks:
                members: list[int] = []
                for ci in sorted(blk):
                    ids = [p for p in comps[ci] if isinstance(p, int)]
                    if not ids:
                        expressible = False
                    members.extend(ids)
                blocks.append(tuple(members))
            if not expressible:
                continue
            if kind == "vertex":
                atoms = sel
            else:
                atoms = tuple(lk.face_of_corner[le] for le in sel)
            found.append(TracedPair(tuple(atoms), tuple(blocks)))
    found.sort(key=TracedPair.sort_key)
    out = tuple(found)
    x._cache[key] = out
    return out


def _validated_pair(
    x: PolygonalComplex,
    kind: str,
    v0: int,
    atoms: Iterable[int],
    blocks: Sequence[Iterable[int]] | None,
) -> TracedPair:
    """Check a seed against the link of v0 and normalise it to a TracedPair."""
    atoms = tuple(sorted(set(int(a) for a in atoms)))
    if len(atoms) < 2:
        raise ComplexError(f"seed pair invalid: needs at least two atoms, got {atoms}")
    antip = antipodal_graph(x) if kind == "edge" else None
    if kind == "edge" and v0 > x.n:
        if v0 > antip.n_total:
            raise ComplexError(f"seed vertex {v0} outside the subdivided range")
        e = antip.edge_of_mid[v0]
        fs = tuple(sorted(x.edge_faces[e]))
        if atoms != fs:
            raise ComplexError(
                f"seed pair invalid: the only cutset at an edge midpoint is the"
                f" full set of faces {fs}, got {atoms}"
            )
        a, b = e
        pair = TracedPair(atoms, ((a,), (b,)))
        if blocks is not None and TracedPair(atoms, tuple(tuple(b) for b in blocks)) != pair:
            raise ComplexError("seed pair invalid: an edge midpoint admits only the two-sided partition")
        return pair
    if not 1 <= v0 <= x.n:
        raise ComplexError(f"seed vertex {v0} outside 1..{x.n}")
    lk = link(x, v0)
    if kind == "vertex":
        for a in atoms:
            if not 1 <= a <= lk.graph.n:
                raise ComplexError(f"seed pair invalid: {a} is not a link vertex of {v0}")
        c = Cutset.of_vertices(atoms)
    else:
        corners = []
        for f in atoms:
            if f not in lk.corner_of_face:
                raise ComplexError(f"seed pair invalid: face {f} has no corner at vertex {v0}")
            corners.append(lk.corner_of_face[f])
        c = Cutset.of_edges(corners)
    verdict = is_cutset(lk.graph, c)
    if not verdict.ok:
        raise ComplexError(f"seed pair invalid: atoms do not cut the link of {v0}")
    sep = is_sigma_separated(lk.graph, lk.metric, c, PI)
    if not sep.ok:
        raise ComplexError(f"seed pair invalid: not pi-separated ({sep.witness})")
    comps = components_of_complement(lk.graph, c)
    comp_ids = [tuple(p for p in comp if isinstance(p, int)) for comp in comps]
    if blocks is None:
        chosen = tuple(ids for ids in comp_ids)
    else:
        chosen = tuple(tuple(sorted(set(int(d) for d in b))) for b in blocks)
        union = [d for b in chosen for d in b]
        allowed = sorted(d for ids in comp_ids for d in ids)
        if sorted(union) != allowed:
            raise ComplexError(
                f"seed pair invalid: blocks must partition the surviving directions {allowed}"
            )
        for ids in comp_ids:
            owners = {i for i, b in enumerate(chosen) if set(ids) & set(b)}
            if len(owners) != 1:
                raise ComplexError(
                    f"seed pair invalid: component {ids} is split across partition blocks"
                )
    return TracedPair(atoms, chosen)


def _element_at(x: PolygonalComplex, kind: str, seg: Segment, v: int) -> int:
    """The local atom a segment occupies at one of its ends."""
    if kind == "vertex":
        return link(x, v).vertex_id((seg.a, seg.b))
    return seg.face


def _segments_for(x: PolygonalComplex, kind: str, v: int, pair: TracedPair) -> list[Segment]:
    """Walkway edges named by a pair's atoms at v, in atom order."""
    out = []
    if kind == "vertex":
        lk = link(x, v)
        for a in pair.atoms:
            u, w = lk.edges_at[a - 1]
            out.append(_segment(u, w))
    else:
        antip = antipodal_graph(x)
        for f in pair.atoms:
            out.append(antip.through(v, f))
    return out


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
    antip = antipodal_graph(x)
    cycle = antip.boundaries[seg.face]
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

    if v <= x.n:
        lk = link(x, v)
        corner = lk.corner_of_face[seg.face]
        out = {}
        for d in corner:
            out[d] = arc_of(antip.mid_of[lk.edges_at[d - 1]])
        return out
    a, b = antip.edge_of_mid[v]
    return {a: arc_of(a), b: arc_of(b)}


def _induced(pair: TracedPair, dirkeys: dict[int, object]) -> frozenset:
    """Partition of the matching keys induced by the pair's blocks."""
    grouped: dict[tuple, set] = {}
    for d, key in dirkeys.items():
        grouped.setdefault(pair.block_of(d), set()).add(key)
    return frozenset(frozenset(v) for v in grouped.values())


def _equatable(
    x: PolygonalComplex, kind: str, seg: Segment, src: int, src_pair: TracedPair, dst: int, dst_pair: TracedPair
) -> bool:
    return _induced(src_pair, _germ_keys(x, kind, seg, src)) == _induced(
        dst_pair, _germ_keys(x, kind, seg, dst)
    )


def trace_hypergraph(
    x: PolygonalComplex,
    v0: int,
    atoms: Iterable[int],
    kind: str = "vertex",
    blocks: Sequence[Iterable[int]] | None = None,
) -> Hypergraph:
    """Trace a hypergraph outward from a seeded local pair.

    Vertex hypergraphs walk the 1-skeleton (atoms are link vertex ids of
    Lk(v0)); edge hypergraphs walk the antipodal graph (atoms are face
    indices, v0 may be a primary vertex or an edge midpoint id).  Extension
    is breadth-first: at every newly reached vertex the lexicographically
    least equatable pair containing the arriving element continues the
    trace, and vertices with no such pair are recorded as frontier.
    """
    if kind not in ("vertex", "edge"):
        raise ComplexError(f"unknown hypergraph kind {kind!r}")
    seed = _validated_pair(x, kind, v0, atoms, blocks)
    pairs: dict[int, TracedPair] = {v0: seed}
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
            if element not in standing.atoms:
                conflicts.append((seg, dst, "element-missing"))
            elif not _equatable(x, kind, seg, src, arriving, dst, standing):
                conflicts.append((seg, dst, "not-equatable"))
            continue
        if dst in frontier:
            continue
        candidates = [p for p in _pairs_at(x, kind, dst) if element in p.atoms]
        if not candidates:
            frontier[dst] = "no-pair"
            continue
        chosen = None
        for p in candidates:
            if _equatable(x, kind, seg, src, arriving, dst, p):
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
    worst = None
    if h.kind == "vertex":
        table = distances(lk.graph, lk.metric)
        ids = [lk.vertex_id((s.a, s.b)) for s in segs]
        for p, q in combinations(ids, 2):
            d = table.get(p, q)
            if worst is None or d < worst:
                worst = d
    else:
        corners = [lk.corner_of_face[s.face] for s in segs]
        for p, q in combinations(corners, 2):
            d = midpoint_distance(lk.graph, lk.metric, p, q)
            if worst is None or d < worst:
                worst = d
    return worst >= PI, {"segments": len(segs), "min_distance_pi_units": worst}


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
    parent = list(range(len(verts)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    cycles = 0
    for seg in h.segments:
        ra, rb = find(index[seg.a]), find(index[seg.b])
        if ra == rb:
            cycles += 1
        else:
            parent[ra] = rb
    components = len({find(i) for i in range(len(verts))}) if verts else 0
    cert.add(
        "acyclic",
        cycles == 0,
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
            if _element_at(x, h.kind, seg, end) not in pair.atoms:
                bad.append({"segment": seg.key(), "vertex": end, "reason": "element-missing"})
        a_pair, b_pair = h.pair_at(seg.a), h.pair_at(seg.b)
        if a_pair is not None and b_pair is not None:
            if not _equatable(x, h.kind, seg, seg.a, a_pair, seg.b, b_pair):
                bad.append({"segment": seg.key(), "vertex": seg.b, "reason": "not-equatable"})
    for seg, v, reason in h.conflicts:
        bad.append({"segment": seg.key(), "vertex": v, "reason": reason})
    cert.add("compatible", not bad, {"violations": bad})
    return cert


@dataclass(frozen=True)
class WallCut:
    """The two-sided (or many-sided) cut a hypergraph makes in the
    subdivided 1-skeleton: removed nodes and the surviving node blocks,
    with components merged when a local partition block joins them."""

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


def _direction_node(x: PolygonalComplex, mid: dict[Edge, int], kind: str, v: int, d: int):
    """Subdivided node a local direction points at (None if inexpressible)."""
    if kind == "edge" and v > x.n:
        return d
    lk = link(x, v)
    if d < 1 or d > lk.graph.n:
        return None
    return mid[lk.edges_at[d - 1]]


def wall_cut(x: PolygonalComplex, h: Hypergraph) -> WallCut:
    """Cut the subdivided 1-skeleton along a hypergraph.

    Vertex hypergraphs remove their closed edges (both endpoints and the
    midpoint); edge hypergraphs remove the crossed subdivided vertices.
    Components are then grouped: at every visited vertex, components touched
    by directions in one partition block belong to the same side.
    """
    g2, _, mid = subdivide(x.skeleton)
    removed: set[int] = set()
    if h.kind == "vertex":
        for seg in h.segments:
            removed.update((seg.a, seg.b, mid[edge_key(seg.a, seg.b)]))
    else:
        for seg in h.segments:
            removed.update(seg.ends())
    labels, count = component_labels(g2, removed_vertices=frozenset(removed))
    parent = list(range(count))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for v, pair in h.pairs:
        for blk in pair.blocks:
            touched = []
            for d in blk:
                node = _direction_node(x, mid, h.kind, v, d)
                if node is None or node in removed:
                    continue
                lab = labels[node - 1]
                if lab is not None:
                    touched.append(lab)
            for lab in touched[1:]:
                ra, rb = find(touched[0]), find(lab)
                if ra != rb:
                    parent[ra] = rb
    sides: dict[int, list[int]] = {}
    for node in range(1, g2.n + 1):
        lab = labels[node - 1]
        if lab is None:
            continue
        sides.setdefault(find(lab), []).append(node)
    blocks = tuple(sorted(tuple(nodes) for nodes in sides.values()))
    return WallCut(x.n, tuple(sorted(removed)), blocks)


def separation_check(x: PolygonalComplex, h: Hypergraph, p, q) -> bool:
    """Do two points (vertices or edge midpoints) lie on opposite sides?

    Points may be vertex ids or edges (for their midpoints); a point on the
    hypergraph itself is an error.
    """
    cut = wall_cut(x, h)
    _, _, mid = subdivide(x.skeleton)
    nodes = []
    for pt in (p, q):
        if isinstance(pt, int):
            if not 1 <= pt <= x.n + len(x.edges):
                raise ComplexError(f"point {pt} outside the subdivided range")
            node = pt
        else:
            key = edge_key(*pt)
            if key not in mid:
                raise ComplexError(f"{key} is not an edge of the complex")
            node = mid[key]
        if node in cut.removed:
            raise ComplexError(f"point {pt} lies on the hypergraph")
        nodes.append(node)
    return cut.side_of(nodes[0]) != cut.side_of(nodes[1])
