"""Cutset predicates: properness, sigma-separation, minimality and the
star conjunction.

Removal is topological. Deleting a vertex deletes the closed star around it,
so an edge joining two deleted vertices survives as a free open arc; deleting
an edge deletes the open edge, midpoint included, while its endpoints stay.
Both cases reduce to vertex deletion on the barycentric subdivision: the
cutset's own vertices in the vertex case, the midpoint vertices in the edge
case. All component bookkeeping below works on that subdivision; distances
between the elements' points are read from the graph's own table.

A cutset is also the local pair of the gluing checks and of traced
hypergraphs: its sides are the components of its complement, one side per
component, read from `complement_labels`, so no grouping of sides is
stored.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, repeat
from typing import Iterable, Mapping, Sequence

from .errors import CutsetError
from .graph import (
    INF,
    Edge,
    Graph,
    Metric,
    component_labels,
    distances,
    edge_key,
    is_connected,
    subdivision_graph,
)

@dataclass(frozen=True)
class Verdict:
    """Boolean outcome plus a witness dict explaining it."""

    ok: bool
    witness: Mapping | None = None

    def __bool__(self) -> bool:
        return self.ok


def _passed(**witness) -> Verdict:
    return Verdict(True, witness or None)


def _failed(**witness) -> Verdict:
    return Verdict(False, witness or None)


@dataclass(frozen=True)
class Cutset:
    """Nonempty homogeneous set of vertices or of edges."""

    kind: str
    elements: frozenset

    def __post_init__(self):
        if self.kind not in ("vertex", "edge"):
            raise CutsetError(f"unknown cutset kind {self.kind!r}")
        if not self.elements:
            raise CutsetError("empty cutset")
        if self.kind == "vertex":
            if not all(map(isinstance, self.elements, repeat(int))):
                raise CutsetError("vertex cutset elements must be vertex ids")
        else:
            norm = frozenset(edge_key(*e) for e in self.elements)
            object.__setattr__(self, "elements", norm)

    @classmethod
    def of_vertices(cls, vs: Iterable[int]) -> "Cutset":
        return cls("vertex", frozenset(vs))

    @classmethod
    def of_edges(cls, es: Iterable[Edge]) -> "Cutset":
        return cls("edge", frozenset(tuple(e) for e in es))

    def validate_for(self, g: Graph) -> None:
        if self.kind == "vertex":
            for v in self.elements:
                if not 1 <= v <= g.n:
                    raise CutsetError(f"cutset vertex {v} not in graph")
        else:
            for e in self.elements:
                if not g.has_edge(*e):
                    raise CutsetError(f"cutset edge {e} not in graph")

    def sorted_elements(self) -> tuple:
        return tuple(sorted(self.elements))

    def key(self) -> tuple:
        """Canonical sortable identity, for dedup and deterministic output."""
        return (self.kind, self.sorted_elements())

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, item) -> bool:
        if self.kind == "edge" and isinstance(item, tuple):
            return edge_key(*item) in self.elements
        return item in self.elements


@lru_cache(maxsize=16)
def _subdivision(g: Graph):
    return subdivision_graph(g)


def _point_distances(g: Graph, metric: Metric, kind: str):
    """Distances between the points of elements of ``kind``, read from
    ``distances(g, metric)``: a denominator, and a function giving the
    distances from one element to each of a list of others as integers over
    it. A vertex is its own point, over the table's denominator. An edge's
    point is its midpoint, over twice it: a path between the midpoints of e
    and f leaves each through one end of its edge, so they are |e|/2 + |f|/2
    plus the least d(x, y) over x in e, y in f apart. An unreachable pair is
    ``INF`` itself, never a sum with it, which would be a new float."""
    table = distances(g, metric)
    if kind == "vertex":
        return table.denominator, lambda x, ys: [row[y - 1] for row in [table.scaled_row(x)] for y in ys]
    half = {e: int(metric.edge_length(e) * table.denominator) for e in g.edges()}

    def from_point(e: Edge, fs) -> list:
        rows = [table.scaled_row(x) for x in e]
        ds = [min([row[y - 1] for row in rows for y in f]) for f in fs]
        return [d if d is INF else half[e] + half[f] + 2 * d for d, f in zip(ds, fs)]

    return 2 * table.denominator, from_point


@lru_cache(maxsize=65536)
def _complement_labels_cached(g: Graph, kind: str, elements: frozenset):
    Cutset(kind, elements).validate_for(g)
    g2, mid = _subdivision(g)
    if kind == "vertex":
        removed = elements
    else:
        removed = frozenset(mid[e] for e in elements)
    return component_labels(g2, removed_vertices=removed)


def complement_labels(g: Graph, c: Cutset):
    """Component index of every subdivision vertex once c is deleted
    (None on deleted ones), with the component count. Components are
    numbered by least surviving subdivision vertex.

    c is validated against g on the cache miss only; an invalid c raises
    on every call, since the cache keeps no exceptions."""
    return _complement_labels_cached(g, c.kind, c.elements)


def induced_partition(g: Graph, c: Cutset, keys: Mapping[int, object]) -> frozenset:
    """The partition of a set of directions induced by the cutset c, such as
    the neighbours of a cut element.

    ``keys`` maps each direction, a vertex of g outside c, to its key.
    Directions are grouped by the component of the complement of c that
    they enter, one side per component, and each group is returned as the
    set of its keys."""
    labels, _ = complement_labels(g, c)
    grouped: dict[int, set] = {}
    for d, key in keys.items():
        grouped.setdefault(labels[d - 1], set()).add(key)
    return frozenset(frozenset(b) for b in grouped.values())


def image_elements(kind: str, perm: tuple[int, ...], elements) -> frozenset:
    """Image of a cutset's elements under a vertex permutation."""
    if kind == "vertex":
        return frozenset([perm[v - 1] for v in elements])
    return frozenset([edge_key(perm[u - 1], perm[v - 1]) for u, v in elements])


def components_of_complement(g: Graph, c: Cutset) -> tuple[tuple, ...]:
    """Components of the cut-open graph, canonically ordered.

    Each component lists its vertices; a free arc (an edge both of whose
    endpoints were deleted) has no vertices and is listed as its edge.
    """
    labels, count = complement_labels(g, c)
    _, mid = _subdivision(g)
    comps: list[list] = [[] for _ in range(count)]
    for v in g.vertices():
        if labels[v - 1] is not None:
            comps[labels[v - 1]].append(v)
    for e, m in mid.items():  # in sorted edge order
        if labels[m - 1] is not None and not comps[labels[m - 1]]:
            comps[labels[m - 1]].append(e)
    return tuple(tuple(comp) for comp in comps)


def is_cutset(g: Graph, c: Cutset) -> Verdict:
    """Does deleting c disconnect the space? Witness carries the component
    count and the canonically ordered components."""
    comps = components_of_complement(g, c)
    return Verdict(len(comps) >= 2, {"component_count": len(comps), "components": comps})


def _require_cutset(g: Graph, c: Cutset) -> tuple:
    labels, count = complement_labels(g, c)
    if count < 2:
        raise CutsetError(f"{c.sorted_elements()} is not a cutset: complement has {count} component(s)")
    return labels, count


def is_proper(g: Graph, c: Cutset) -> Verdict:
    """Vertex kind: every two distinct neighbors of each cut vertex must land
    in distinct components. Edge kind: each cut edge's endpoints must land in
    distinct components."""
    labels, _ = _require_cutset(g, c)
    if c.kind == "vertex":
        for u in c.sorted_elements():
            for v, w in combinations(g.neighbors(u), 2):
                lv = labels[v - 1]
                lw = labels[w - 1]
                if lv is None or lw is None or lv == lw:
                    return _failed(cut_vertex=u, pair=(v, w))
        return _passed()
    for e in c.sorted_elements():
        a, b = e
        if labels[a - 1] == labels[b - 1]:
            return _failed(edge=e, component=labels[a - 1])
    return _passed()


def is_sigma_separated(g: Graph, metric: Metric, c: Cutset, sigma) -> Verdict:
    """Are all distinct element midpoints pairwise at distance >= sigma,
    measured in the ambient graph? Witness reports the closest pair (the
    first one in sorted element order) with its exact distance, a
    ``Fraction`` on every metric."""
    c.validate_for(g)
    den, from_point = _point_distances(g, metric, c.kind)
    elems = c.sorted_elements()
    closest = None
    best = INF
    for i in range(len(elems) - 1):
        ds = from_point(elems[i], elems[i + 1 :])
        d = min(ds)
        if d < best or closest is None:
            closest, best = (i, i + 1 + ds.index(d)), d
    if closest is None:
        return _passed(pairs=0)
    i, j = closest
    d = best if best is INF else Fraction(best, den)
    if best < sigma * den:
        return _failed(pair=(elems[i], elems[j]), distance=d)
    return _passed(min_distance=d)


def is_minimal_cutset(g: Graph, c: Cutset) -> Verdict:
    """No single element can be dropped: deleting c minus one element must
    leave the space connected.

    Restoring element w rejoins exactly the components its subdivision
    neighbors lie in, so the complement of c - {w} has k - t + 1 components,
    k the component count of the complement of c and t the number of distinct
    components around w.
    """
    labels, count = _require_cutset(g, c)
    g2, mid = _subdivision(g)
    for e in c.sorted_elements():
        node = e if c.kind == "vertex" else mid[e]
        around = {labels[x - 1] for x in g2.neighbors(node)}
        around.discard(None)
        if count - len(around) + 1 >= 2:
            return _failed(removable=e, components_after=count - len(around) + 1)
    return _passed()


@lru_cache(maxsize=16)
def _cubic_problem(g: Graph) -> str | None:
    if not is_connected(g):
        return "graph is not connected"
    bad = next((v for v in g.vertices() if g.degree(v) != 3), None)
    if bad is not None:
        return f"graph is not trivalent: vertex {bad} has degree {g.degree(bad)}"
    return None


def require_cubic(g: Graph) -> None:
    """Raise unless g is connected and trivalent; the verdict is computed
    once per graph, since searches ask at every leaf."""
    problem = _cubic_problem(g)
    if problem is not None:
        raise CutsetError(problem)


def is_star_cutset(g: Graph, c: Cutset) -> Verdict:
    """Conjunction for vertex cutsets of trivalent graphs: pairwise
    combinatorial distance >= 3, exactly two components, minimal. Each clause
    is reported separately in the witness."""
    require_cubic(g)
    if c.kind != "vertex":
        raise CutsetError("star predicates apply to vertex cutsets")
    c.validate_for(g)
    _, count = complement_labels(g, c)
    sep = is_sigma_separated(g, Metric.combinatorial(), c, 3)
    clauses: dict = {
        "three_separated": sep.ok,
        "two_components": count == 2,
        "component_count": count,
    }
    if not sep.ok:
        clauses["closest_pair"] = sep.witness
    if count >= 2:
        mini = is_minimal_cutset(g, c)
        clauses["minimal"] = mini.ok
        if not mini.ok:
            clauses["removable"] = mini.witness["removable"]
    else:
        clauses["minimal"] = None
    ok = sep.ok and count == 2 and clauses["minimal"] is True
    return Verdict(ok, clauses)


def parse_family(text: str) -> list[Cutset]:
    """Family file: one cutset per line, ``C: 1 4 9`` for vertices or
    ``C: 1-2 4-5`` for edges; '#' starts a comment."""
    out: list[Cutset] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.startswith("C:"):
            raise CutsetError(f"line {lineno}: expected 'C:' prefix, got {raw!r}")
        tokens = line[2:].split()
        if not tokens:
            raise CutsetError(f"line {lineno}: empty cutset")
        kinds = {("edge" if "-" in t else "vertex") for t in tokens}
        if len(kinds) != 1:
            raise CutsetError(f"line {lineno}: mixed vertex and edge elements")
        try:
            if kinds == {"edge"}:
                elems = [tuple(int(s) for s in t.split("-")) for t in tokens]
                if any(len(e) != 2 for e in elems):
                    raise ValueError
                out.append(Cutset.of_edges(elems))
            else:
                out.append(Cutset.of_vertices(int(t) for t in tokens))
        except ValueError as exc:
            raise CutsetError(f"line {lineno}: bad element in {raw!r}") from exc
    return out


def vertex_set_key(s: Iterable[int]) -> str:
    """The sorted-id key of a vertex set: ``chr(v)`` for each vertex v, in
    ascending order, as ``format_family`` reads it."""
    return "".join(map(chr, sorted(s)))


def format_family(keys: Sequence[str]) -> str:
    """Family file of vertex cutsets given as sorted-id keys
    (``vertex_set_key``), one ``C: v1 v2 ...`` line per key in the
    given order; a family with no members is one empty line. A key is
    already sorted, so its line is one ``str.translate`` through a table
    writing ``chr(v)`` as ``" v"``; ``parse_family`` reads the file back."""
    if not keys:
        return "\n"
    spaced = {v: f" {v}" for v in range(1, ord(max([key[-1] for key in keys])) + 1)}
    return "".join(["C:" + key.translate(spaced) + "\n" for key in keys])
