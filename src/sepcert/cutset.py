"""Cutset predicates: properness, sigma-separation, minimality and the
star conjunction.

Removal is topological. Deleting a vertex deletes the closed star around it,
so an edge joining two deleted vertices survives as a free open arc; deleting
an edge deletes the open edge, midpoint included, while its endpoints stay.
Both cases reduce to vertex deletion on the barycentric subdivision: the
cutset's own vertices in the vertex case, the midpoint vertices in the edge
case. All component bookkeeping below works on that subdivision.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Mapping

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
    subdivide,
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
            if not all(isinstance(v, int) for v in self.elements):
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


@dataclass(frozen=True)
class Partition:
    """Grouping of the component indices of a cut-open graph."""

    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        blocks = tuple(frozenset(b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if len(blocks) < 2:
            raise CutsetError("a partition needs at least two blocks")
        if any(not b for b in blocks):
            raise CutsetError("empty partition block")
        seen: set[int] = set()
        for b in blocks:
            if seen & b:
                raise CutsetError("partition blocks overlap")
            seen |= b

    def validate_for_count(self, count: int) -> None:
        covered = frozenset().union(*self.blocks)
        if covered != frozenset(range(count)):
            raise CutsetError(
                f"partition covers {sorted(covered)}, expected all of 0..{count - 1}"
            )

    def block_of(self, comp: int) -> int:
        for i, b in enumerate(self.blocks):
            if comp in b:
                return i
        raise CutsetError(f"component {comp} in no block")

    def key(self) -> tuple:
        return tuple(sorted(tuple(sorted(b)) for b in self.blocks))


@dataclass(frozen=True)
class CutsetPartition:
    cutset: Cutset
    partition: Partition

    def __hash__(self) -> int:
        # Pairs key the class and weight tables of the gluing checks, one
        # lookup per pair and element; cache the hash so those stay cheap.
        h = self.__dict__.get("_cached_hash")
        if h is None:
            h = hash((self.cutset, self.partition))
            object.__setattr__(self, "_cached_hash", h)
        return h

    def validate_for(self, g: Graph) -> None:
        self.cutset.validate_for(g)
        _, count = complement_labels(g, self.cutset)
        self.partition.validate_for_count(count)


@lru_cache(maxsize=16)
def _subdivision(g: Graph, metric: Metric):
    return subdivide(g, metric)


@lru_cache(maxsize=16)
def _subdivision_distances(g: Graph, metric: Metric):
    g2, m2, _ = _subdivision(g, metric)
    return distances(g2, m2)


@lru_cache(maxsize=65536)
def _complement_labels_cached(g: Graph, kind: str, elements: frozenset):
    Cutset(kind, elements).validate_for(g)
    g2, _, mid = _subdivision(g, Metric.combinatorial())
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


def induced_partition(g: Graph, cp: CutsetPartition, keys: Mapping[int, object]) -> frozenset:
    """Partition of a set of directions induced by cp, such as the
    neighbours of a cut element.

    ``keys`` maps each direction, a vertex of g outside the cutset, to its
    key. Directions are grouped by the partition block of the component
    they enter, and each group is returned as the set of its keys."""
    labels, _ = complement_labels(g, cp.cutset)
    grouped: dict[int, set] = {}
    for d, key in keys.items():
        grouped.setdefault(cp.partition.block_of(labels[d - 1]), set()).add(key)
    return frozenset(frozenset(b) for b in grouped.values())


def image_elements(kind: str, perm: tuple[int, ...], elements) -> frozenset:
    """Image of a cutset's elements under a vertex permutation."""
    if kind == "vertex":
        return frozenset([perm[v - 1] for v in elements])
    return frozenset([edge_key(perm[u - 1], perm[v - 1]) for u, v in elements])


def is_discrete(p: Partition) -> bool:
    """Is every block of p a single component? A graph automorphism maps
    such a partition to one of the image with the same `Partition.key`."""
    return all(len(b) == 1 for b in p.blocks)


def act_on_pair(g: Graph, perm: tuple[int, ...], cp: CutsetPartition) -> CutsetPartition:
    """Image of a (cutset, partition) pair under a graph automorphism; the
    partition's component indices are rebased to the image components."""
    c = cp.cutset
    c2 = Cutset(c.kind, image_elements(c.kind, perm, c.elements))
    labels2, _ = complement_labels(g, c2)
    image_label = []
    for p in component_points(g, c):
        if isinstance(p, int):
            image_label.append(labels2[perm[p - 1] - 1])
        else:  # a midpoint: locate its image edge's midpoint label
            e2 = edge_key(perm[p[0] - 1], perm[p[1] - 1])
            image_label.append(labels2[point_node(g, e2) - 1])
    blocks = sorted(
        (frozenset(image_label[i] for i in blk) for blk in cp.partition.blocks), key=sorted
    )
    return CutsetPartition(c2, Partition(tuple(blocks)))


def components_of_complement(g: Graph, c: Cutset) -> tuple[tuple, ...]:
    """Components of the cut-open graph, canonically ordered.

    Each component lists its vertices; a free arc (an edge both of whose
    endpoints were deleted) has no vertices and is listed as its edge.
    """
    labels, count = complement_labels(g, c)
    _, _, mid = _subdivision(g, Metric.combinatorial())
    comps: list[list] = [[] for _ in range(count)]
    for v in g.vertices():
        if labels[v - 1] is not None:
            comps[labels[v - 1]].append(v)
    for e, m in mid.items():  # in sorted edge order
        if labels[m - 1] is not None and not comps[labels[m - 1]]:
            comps[labels[m - 1]].append(e)
    return tuple(tuple(comp) for comp in comps)


def component_points(g: Graph, c: Cutset) -> tuple:
    """One point in each component of the complement of c, in label order:
    the least subdivision vertex of the component, given as a vertex or as
    the edge whose midpoint it is."""
    labels, count = complement_labels(g, c)
    nodes: list[int] = []
    for node, label in enumerate(labels, start=1):
        if label == len(nodes):  # labels first appear in increasing order
            nodes.append(node)
            if len(nodes) == count:
                break
    g2, _, _ = _subdivision(g, Metric.combinatorial())
    return tuple(node if node <= g.n else g2.neighbors(node) for node in nodes)


def point_node(g: Graph, p) -> int:
    """Subdivision vertex standing for a point: m(v)=v, m(e)=its midpoint."""
    _, _, mid = _subdivision(g, Metric.combinatorial())
    if isinstance(p, int):
        if not 1 <= p <= g.n:
            raise CutsetError(f"vertex {p} not in graph")
        return p
    e = edge_key(*p)
    if e not in mid:
        raise CutsetError(f"edge {e} not in graph")
    return mid[e]


def is_cutset(g: Graph, c: Cutset) -> Verdict:
    """Does deleting c disconnect the space? Witness carries the component
    count and the canonically ordered components."""
    comps = components_of_complement(g, c)
    return Verdict(len(comps) >= 2, {"component_count": len(comps), "components": comps})


def _require_cutset(g: Graph, c: Cutset) -> tuple:
    labels, count = complement_labels(g, c)
    if count < 2:
        raise CutsetError(f"not a cutset: complement has {count} component(s)")
    return labels, count


def canonical_partition(g: Graph, c: Cutset) -> Partition:
    """Finest admissible partition: one block per component."""
    _, count = _require_cutset(g, c)
    return Partition(tuple(frozenset([i]) for i in range(count)))


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


def midpoint_distance(g: Graph, metric: Metric, a, b):
    """Exact distance between m(a) and m(b) in the ambient graph."""
    table = _subdivision_distances(g, metric)
    return table.get(point_node(g, a), point_node(g, b))


def is_sigma_separated(g: Graph, metric: Metric, c: Cutset, sigma) -> Verdict:
    """Are all distinct element midpoints pairwise at distance >= sigma,
    measured in the ambient graph? Witness reports the closest pair (the
    first one in sorted element order) with its exact distance."""
    c.validate_for(g)
    table = _subdivision_distances(g, metric)
    elems = c.sorted_elements()
    if c.kind == "vertex":
        nodes = elems
    else:
        _, _, mid = _subdivision(g, Metric.combinatorial())
        nodes = [mid[e] for e in elems]
    cols = [x - 1 for x in nodes]
    closest = None
    best = INF
    for i in range(len(cols) - 1):
        row = table.scaled_row(nodes[i])
        ds = [row[k] for k in cols[i + 1 :]]
        d = min(ds)
        if d < best or closest is None:
            closest, best = (i, i + 1 + ds.index(d)), d
    if closest is None:
        return _passed(pairs=0)
    i, j = closest
    d = table.get(nodes[i], nodes[j])
    if best < sigma * table.denominator:
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
    g2, _, mid = _subdivision(g, Metric.combinatorial())
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


def format_family(family: Iterable[Cutset]) -> str:
    lines = []
    for c in family:
        if c.kind == "vertex":
            body = " ".join(str(v) for v in c.sorted_elements())
        else:
            body = " ".join(f"{a}-{b}" for a, b in c.sorted_elements())
        lines.append(f"C: {body}")
    return "\n".join(lines) + "\n"
