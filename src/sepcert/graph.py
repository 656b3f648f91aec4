"""Finite graphs with exact metrics.

Vertices are integers 1..n. Edges are unordered pairs stored as sorted tuples.
Two metrics are supported: the combinatorial metric (every edge has length 1)
and angular metrics, where each edge carries a positive rational length
understood as that multiple of pi.

Distances are integers over one common denominator D, the least common
multiple of the edge-length denominators (1 for the combinatorial metric, 2
for a subdivided one): BFS when every scaled length is the same, integer
Dijkstra otherwise. Values are exact at the API: an ``int`` for the
combinatorial metric, a ``Fraction`` for angular ones, and ``INF`` for
disconnected pairs, the only non-rational value that can appear.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import inf as INF, lcm
from typing import Iterable, Mapping, Sequence

from .errors import GraphFormatError, MetricError

Edge = tuple[int, int]


def edge_key(u: int, v: int) -> Edge:
    """Canonical (sorted) form of an edge."""
    if u == v:
        raise GraphFormatError(f"loop edge at vertex {u}")
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple undirected graph on vertices 1..n."""

    __slots__ = ("n", "_adj", "_edges", "_hash")

    def __init__(self, n: int, edges: Iterable[Edge]):
        if n < 0:
            raise GraphFormatError(f"negative vertex count {n}")
        seen: set[Edge] = set()
        adj: list[list[int]] = [[] for _ in range(n)]
        for e in edges:
            u, v = edge_key(*e)
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphFormatError(f"edge {u}-{v} out of range 1..{n}")
            if (u, v) in seen:
                raise GraphFormatError(f"duplicate edge {u}-{v}")
            seen.add((u, v))
            adj[u - 1].append(v)
            adj[v - 1].append(u)
        self.n = n
        self._adj = tuple(tuple(sorted(row)) for row in adj)
        self._edges = tuple(sorted(seen))
        self._hash: int | None = None

    @classmethod
    def from_adjacency(cls, rows: Mapping[int, Iterable[int]]) -> "Graph":
        """Build from vertex -> neighbors rows; rows must be symmetric."""
        n = max(rows) if rows else 0
        edges = set()
        for v, nbrs in rows.items():
            for w in nbrs:
                edges.add(edge_key(v, w))
        g = cls(n, edges)
        for v, nbrs in rows.items():
            if tuple(sorted(set(nbrs))) != g.neighbors(v):
                raise GraphFormatError(f"adjacency rows not symmetric at vertex {v}")
        return g

    @property
    def m(self) -> int:
        return len(self._edges)

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def edges(self) -> tuple[Edge, ...]:
        return self._edges

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v - 1]

    def degree(self, v: int) -> int:
        return len(self._adj[v - 1])

    def has_edge(self, u: int, v: int) -> bool:
        return 1 <= u <= self.n and v in self._adj[u - 1]

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Image graph under vertex map v -> perm[v-1]."""
        return Graph(self.n, ((perm[u - 1], perm[v - 1]) for u, v in self._edges))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._edges == other._edges

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self._edges))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Metric:
    """Edge-length assignment: combinatorial, or rational multiples of pi."""

    kind: str  # "combinatorial" | "angular"
    _lengths: tuple[tuple[Edge, Fraction], ...] = ()

    def __hash__(self) -> int:
        # Hashing the length table is linear in its size; cache the result so
        # repeated cache lookups keyed on a metric stay cheap.
        h = self.__dict__.get("_cached_hash")
        if h is None:
            h = hash((self.kind, self._lengths))
            object.__setattr__(self, "_cached_hash", h)
        return h

    @classmethod
    def combinatorial(cls) -> "Metric":
        return _COMBINATORIAL

    @classmethod
    def angular(cls, lengths: Mapping[Edge, Fraction]) -> "Metric":
        items = []
        for e, q in lengths.items():
            if not isinstance(q, Fraction):
                q = Fraction(q)
            if q <= 0:
                raise MetricError(f"non-positive length {q} on edge {e}")
            items.append((edge_key(*e), q))
        return cls("angular", tuple(sorted(items)))

    @property
    def units(self) -> str:
        """Unit of distances: edge counts, or multiples of pi."""
        return "edges" if self.kind == "combinatorial" else "pi"

    def lengths(self) -> dict[Edge, Fraction]:
        return dict(self._lengths)

    def edge_length(self, e: Edge):
        if self.kind == "combinatorial":
            return 1
        try:
            return _length_table(self)[edge_key(*e)]
        except KeyError:
            raise MetricError(f"no length assigned to edge {e}") from None

    def validate_for(self, g: Graph) -> None:
        if self.kind == "combinatorial":
            return
        table = _length_table(self)
        for e in g.edges():
            if e not in table:
                raise MetricError(f"no length assigned to edge {e}")


_COMBINATORIAL = Metric("combinatorial")


@lru_cache(maxsize=16)
def _length_table(metric: Metric) -> dict[Edge, Fraction]:
    return dict(metric._lengths)


class DistanceTable:
    """All-pairs shortest-path distances.

    Entries are stored as integers over one common denominator, ``INF`` for
    unreachable pairs. Lookups return the exact value: an ``int`` for the
    combinatorial metric, a ``Fraction`` (multiples of pi) for angular ones.
    """

    __slots__ = ("units", "denominator", "_rows")

    def __init__(self, units: str, denominator: int, rows: Sequence[Sequence]):
        self.units = units
        self.denominator = denominator
        self._rows = tuple(tuple(r) for r in rows)

    def _exact(self, d):
        if d is INF or self.units == "edges":
            return d
        return Fraction(d, self.denominator)

    def get(self, u: int, v: int):
        return self._exact(self._rows[u - 1][v - 1])

    def scaled_row(self, u: int) -> tuple:
        """Row of u as integers over ``denominator`` (``INF`` if unreachable)."""
        return self._rows[u - 1]

    def diameter(self):
        worst = max((max(row) for row in self._rows), default=0)
        return worst if worst == 0 else self._exact(worst)


def _scaled_lengths(g: Graph, metric: Metric) -> tuple[int, dict[Edge, int]]:
    """Common denominator D of the edge lengths of g, and each length times D."""
    if metric.kind == "combinatorial":
        return 1, dict.fromkeys(g.edges(), 1)
    table = _length_table(metric)
    denom = lcm(*(table[e].denominator for e in g.edges()))
    return denom, {e: table[e].numerator * (denom // table[e].denominator) for e in g.edges()}


def _uniform_step(lengths: Mapping[Edge, int]) -> int | None:
    """The common scaled length when all edges have the same one (1 when
    there are no edges), else None."""
    steps = set(lengths.values())
    if len(steps) > 1:
        return None
    return steps.pop() if steps else 1


def _bfs_row(g: Graph, source: int) -> list:
    adj = g._adj
    dist = [INF] * (g.n + 1)
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for w in adj[u - 1]:
                if dist[w] is INF:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist[1:]


def _dijkstra(
    g: Graph,
    lengths: Mapping[Edge, int],
    source: int,
    skip_edge: Edge | None = None,
    target: int | None = None,
) -> tuple[list, list[int]]:
    """Integer Dijkstra over scaled edge lengths, optionally avoiding one edge
    and stopping once ``target`` is settled. Returns (dist, parent), both
    indexed by vertex (slot 0 unused); heap ties break on (distance, vertex)
    and a parent changes only on a strict improvement."""
    dist: list = [INF] * (g.n + 1)
    parent = [0] * (g.n + 1)
    dist[source] = 0
    heap = [(0, source)]
    done = [False] * (g.n + 1)
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        if u == target:
            break
        done[u] = True
        for w in g.neighbors(u):
            e = (u, w) if u < w else (w, u)
            if e == skip_edge:
                continue
            nd = d + lengths[e]
            if nd < dist[w]:
                dist[w] = nd
                parent[w] = u
                heapq.heappush(heap, (nd, w))
    return dist, parent


def distances(g: Graph, metric: Metric | None = None) -> DistanceTable:
    """All-pairs exact distances: BFS per vertex when every edge has the same
    length, integer Dijkstra otherwise."""
    metric = metric or Metric.combinatorial()
    metric.validate_for(g)
    denom, lengths = _scaled_lengths(g, metric)
    step = _uniform_step(lengths)
    if step is None:
        rows = [_dijkstra(g, lengths, s)[0][1:] for s in g.vertices()]
    else:
        rows = [_bfs_row(g, s) for s in g.vertices()]
        if step != 1:
            rows = [[d if d is INF else d * step for d in row] for row in rows]
    return DistanceTable(metric.units, denom, rows)


def _bfs_girth(g: Graph):
    """Fewest edges on a cycle: one BFS per root, taking the best cycle
    closed by a non-tree edge."""
    best = INF
    for r in g.vertices():
        dist = [INF] * (g.n + 1)
        parent = [0] * (g.n + 1)
        dist[r] = 0
        frontier = [r]
        while frontier:
            nxt = []
            for u in frontier:
                for w in g.neighbors(u):
                    if dist[w] is INF:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif w != parent[u] and dist[w] >= dist[u]:
                        cand = dist[u] + dist[w] + 1
                        if cand < best:
                            best = cand
            if best is not INF and nxt and 2 * dist[nxt[0]] >= best:
                break
            frontier = nxt
    return best


def _shortest_cycle(g: Graph, lengths: Mapping[Edge, int]):
    """(scaled length, vertex path) of a shortest cycle, None for forests.

    Each edge (u, v), in sorted order, closes a shortest u-v path avoiding
    it; the first edge giving a strictly shorter cycle wins, and the path
    runs from u to v.
    """
    best = None
    for u, v in g.edges():
        dist, parent = _dijkstra(g, lengths, u, skip_edge=(u, v), target=v)
        if dist[v] is INF:
            continue
        total = dist[v] + lengths[(u, v)]
        if best is None or total < best[0]:
            path = [v]
            while path[-1] != u:
                path.append(parent[path[-1]])
            best = (total, tuple(reversed(path)))
    return best


def _exact_length(d, metric: Metric, denom: int):
    if d is INF or metric.kind == "combinatorial":
        return d
    return Fraction(d, denom)


def girth(g: Graph, metric: Metric | None = None):
    """Length of a shortest cycle; ``INF`` for forests.

    When every edge has the same length: the fewest edges on a cycle (BFS)
    times that length. Otherwise the length of ``shortest_cycle``.
    """
    metric = metric or Metric.combinatorial()
    metric.validate_for(g)
    denom, lengths = _scaled_lengths(g, metric)
    step = _uniform_step(lengths)
    if step is not None:
        best = _bfs_girth(g)
        if best is not INF:
            best *= step
    else:
        found = _shortest_cycle(g, lengths)
        best = INF if found is None else found[0]
    return _exact_length(best, metric, denom)


def shortest_cycle(g: Graph, metric: Metric | None = None):
    """A shortest cycle as (length, vertex path), None for forests: for each
    edge in sorted order, its length plus a shortest path between its ends
    that avoids it. The path lists the cycle's vertices from the smaller end
    of its closing edge to the larger one."""
    metric = metric or Metric.combinatorial()
    metric.validate_for(g)
    denom, lengths = _scaled_lengths(g, metric)
    found = _shortest_cycle(g, lengths)
    if found is None:
        return None
    return _exact_length(found[0], metric, denom), found[1]


def components(
    g: Graph,
    removed_vertices: Iterable[int] = (),
    removed_edges: Iterable[Edge] = (),
) -> tuple[tuple[int, ...], ...]:
    """Connected components after deleting vertices (with their incident
    edges) and/or edges. Components and their members are sorted."""
    labels, count = component_labels(g, removed_vertices, removed_edges)
    comps: list[list[int]] = [[] for _ in range(count)]
    for v in g.vertices():
        c = labels[v - 1]
        if c is not None:
            comps[c].append(v)
    return tuple(tuple(c) for c in comps)


def component_labels(
    g: Graph,
    removed_vertices: Iterable[int] = (),
    removed_edges: Iterable[Edge] = (),
) -> tuple[tuple, int]:
    """Per-vertex component index (None for removed vertices) and the
    component count. Components are numbered by least surviving vertex."""
    gone_v = set(removed_vertices)
    gone_e = {edge_key(*e) for e in removed_edges}
    for v in gone_v:
        if not 1 <= v <= g.n:
            raise GraphFormatError(f"removed vertex {v} out of range")
    for e in gone_e:
        if not g.has_edge(*e):
            raise GraphFormatError(f"removed edge {e} not in graph")
    labels: list = [None] * g.n
    count = 0
    for s in g.vertices():
        if s in gone_v or labels[s - 1] is not None:
            continue
        labels[s - 1] = count
        stack = [s]
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w in gone_v or labels[w - 1] is not None:
                    continue
                if gone_e and edge_key(u, w) in gone_e:
                    continue
                labels[w - 1] = count
                stack.append(w)
        count += 1
    return tuple(labels), count


def union_labels(size: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Classes of the points 0..size-1 under the equivalence the pairs
    generate, by union-find: entry x is the least point of x's class."""
    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return [find(x) for x in range(size)]


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    return all(d is not INF for d in _bfs_row(g, 1))


def bipartition(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Two-coloring classes, or None if an odd cycle exists."""
    color = [None] * (g.n + 1)
    for s in g.vertices():
        if color[s] is not None:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if color[w] is None:
                    color[w] = 1 - color[u]
                    stack.append(w)
                elif color[w] == color[u]:
                    return None
    side0 = tuple(v for v in g.vertices() if color[v] == 0)
    side1 = tuple(v for v in g.vertices() if color[v] == 1)
    return side0, side1


def structural_report(g: Graph, metric: Metric | None = None) -> dict:
    """Order, size, degree histogram, connectivity, bipartiteness, girth,
    diameter. Exact values; INF is rendered by the report layer."""
    metric = metric or Metric.combinatorial()
    hist: dict[int, int] = {}
    for v in g.vertices():
        d = g.degree(v)
        hist[d] = hist.get(d, 0) + 1
    table = distances(g, metric)
    return {
        "vertices": g.n,
        "edges": g.m,
        "degree_histogram": dict(sorted(hist.items())),
        "connected": is_connected(g),
        "bipartite": bipartition(g) is not None,
        "girth": girth(g, metric),
        "diameter": table.diameter() if g.n else 0,
        "metric": metric.units,
    }


def subdivision_graph(g: Graph) -> tuple[Graph, dict[Edge, int]]:
    """The graph and edge -> midpoint map of ``subdivide``, without a metric."""
    mid: dict[Edge, int] = {}
    edges2: list[Edge] = []
    for m, e in enumerate(g.edges(), start=g.n + 1):
        mid[e] = m
        u, v = e
        edges2.append((u, m))
        edges2.append((v, m))
    return Graph(g.n + len(mid), edges2), mid


def subdivide(g: Graph, metric: Metric | None = None) -> tuple[Graph, Metric, dict[Edge, int]]:
    """Barycentric subdivision of the 1-skeleton: one new vertex per edge
    midpoint. Returns (graph, metric, edge -> midpoint id). Midpoints are
    numbered n+1.. in sorted edge order; half-edges carry half the length."""
    metric = metric or Metric.combinatorial()
    metric.validate_for(g)
    g2, mid = subdivision_graph(g)
    lengths2: dict[Edge, Fraction] = {}
    for e, m in mid.items():
        half = Fraction(metric.edge_length(e), 2)
        for end in e:
            lengths2[(end, m)] = half
    return g2, Metric.angular(lengths2), mid


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise GraphFormatError(f"bad rational {text!r}") from exc


def parse_graph(text: str) -> tuple[Graph, Metric]:
    """Parse the edge-list format.

    Lines hold ``u v`` or ``u v p/q`` (length as a rational multiple of pi);
    ``#`` starts a comment; an optional header ``p <n> <m>`` pins the vertex
    and edge counts. Rows must either all carry lengths or none.
    """
    header: tuple[int, int] | None = None
    edges: list[Edge] = []
    lengths: dict[Edge, Fraction] = {}
    plain = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "p":
            if header is not None or edges:
                raise GraphFormatError(f"line {lineno}: stray header")
            if len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: header needs 'p <n> <m>'")
            try:
                header = (int(parts[1]), int(parts[2]))
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno}: header counts must be integers") from exc
            continue
        if len(parts) not in (2, 3):
            raise GraphFormatError(f"line {lineno}: expected 'u v' or 'u v p/q'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: bad vertex id") from exc
        e = edge_key(u, v)
        edges.append(e)
        if len(parts) == 3:
            lengths[e] = parse_rational(parts[2])
        else:
            plain += 1
    if lengths and plain:
        raise GraphFormatError("mixed rows: some edges carry lengths, some do not")
    n = header[0] if header else max((v for e in edges for v in e), default=0)
    g = Graph(n, edges)
    if header and header[1] != g.m:
        raise GraphFormatError(f"header claims {header[1]} edges, file has {g.m}")
    metric = Metric.angular(lengths) if lengths else Metric.combinatorial()
    return g, metric


def format_graph(g: Graph, metric: Metric | None = None) -> str:
    lines = [f"p {g.n} {g.m}"]
    for u, v in g.edges():
        if metric is not None and metric.kind == "angular":
            lines.append(f"{u} {v} {metric.edge_length((u, v))}")
        else:
            lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"
