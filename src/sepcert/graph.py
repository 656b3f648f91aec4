"""Finite graphs with exact metrics.

Vertices are integers 1..n. Edges are unordered pairs stored as sorted tuples.
Two metrics are supported: the combinatorial metric (every edge has length 1)
and angular metrics, where each edge carries a positive rational length
understood as that multiple of pi.

Distances are integers over one common denominator D, the least common
multiple of the edge-length denominators (1 for the combinatorial metric):
BFS when every scaled length is the same, integer Dijkstra otherwise.
Girth and a shortest cycle are read from that one distance table, and so
are the distances between edge midpoints that ``cutset`` measures. Values
are exact at the API: an ``int`` for the combinatorial metric, a
``Fraction`` for angular ones, and ``INF`` for disconnected pairs, the only
non-rational value that can appear.
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
    def _derived(cls, rows: Sequence[tuple[int, ...]], edges: tuple[Edge, ...]) -> "Graph":
        """A graph derived from one already validated, from its ascending
        neighbour rows (row v - 1 for vertex v) and its sorted edges, with
        none of ``__init__``'s checks: its builder made every edge in range,
        simple and once. Outside input (parsed files, builtins, link shapes)
        always goes through ``__init__``."""
        g = cls.__new__(cls)
        g.n, g._adj, g._edges, g._hash = len(rows), tuple(rows), edges, None
        return g

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


def _dijkstra(g: Graph, lengths: Mapping[Edge, int], source: int) -> list:
    """Integer Dijkstra over scaled edge lengths: the row of ``source``."""
    dist: list = [INF] * (g.n + 1)
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for w in g.neighbors(u):
            nd = d + lengths[(u, w) if u < w else (w, u)]
            if nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist[1:]


def distances(g: Graph, metric: Metric | None = None) -> DistanceTable:
    """All-pairs exact distances: BFS per vertex when every edge has the same
    length, integer Dijkstra otherwise; memoised per graph and metric."""
    return _distance_table(g, metric or Metric.combinatorial())


@lru_cache(maxsize=16)
def _distance_table(g: Graph, metric: Metric) -> DistanceTable:
    metric.validate_for(g)
    denom, lengths = _scaled_lengths(g, metric)
    steps = set(lengths.values())
    if len(steps) > 1:
        rows = [_dijkstra(g, lengths, s) for s in g.vertices()]
    else:
        step = steps.pop() if steps else 1
        rows = [_bfs_row(g, s) for s in g.vertices()]
        if step != 1:
            rows = [[d if d is INF else d * step for d in row] for row in rows]
    return DistanceTable(metric.units, denom, rows)


def girth(g: Graph, metric: Metric | None = None):
    """Length of a shortest cycle; ``INF`` for forests. Read, with
    ``shortest_cycle``, from one memoised scan of ``distances(g, metric)``."""
    found = _shortest_cycle(g, metric or Metric.combinatorial())
    return INF if found is None else found[0]


def shortest_cycle(g: Graph, metric: Metric | None = None):
    """A shortest cycle as (length, vertex path), None for forests. The path
    starts at the least vertex on any shortest cycle and ends at the smaller
    of that vertex's two neighbours on the cycle."""
    return _shortest_cycle(g, metric or Metric.combinatorial())


@lru_cache(maxsize=16)
def _shortest_cycle(g: Graph, metric: Metric):
    """One scan of the distance table, after Itai and Rodeh, "Finding a
    minimum circuit in a graph", SIAM J. Comput. 7 (1978).

    For each root r, ascending, and each edge uw in sorted order: an edge on
    no shortest path from r closes a walk of length d(r,u) + |uw| + d(r,w),
    and a vertex w that a second shortest-path edge enters closes a walk of
    length 2 d(r,w). The least of these candidates is the girth:

    * Each candidate walk runs out from r and back along shortest paths and
      uses one edge (the closing edge, or the second edge into w) once, so
      it holds a cycle and is no shorter than the girth.
    * A shortest cycle C is isometric. From any r on C, the point of C
      opposite r lies inside an edge on no shortest path from r, or is a
      vertex that both arcs of C enter along shortest-path edges; either
      way some candidate equals |C|.
    * At the minimum the walk is C itself, because every length is positive.

    So the girth is first reached at the least vertex r on any shortest
    cycle, and walking back to r along shortest-path edges (least
    predecessor first) gives that cycle.
    """
    table = distances(g, metric)
    _, lengths = _scaled_lengths(g, metric)
    best, found = INF, None
    for r in g.vertices():
        row = table.scaled_row(r)
        entered = [0] * (g.n + 1)  # vertex -> tail of its first shortest-path edge
        for (u, w), step in lengths.items():
            du, dw = row[u - 1], row[w - 1]
            if dw - du == step:
                tail, head, d = u, w, dw
            elif du - dw == step:
                tail, head, d = w, u, du
            else:  # uw is on no shortest path from r; outside r's component, INF never wins
                if du + step + dw < best:
                    best, found = du + step + dw, (r, u, (), w)
                continue
            if not entered[head]:
                entered[head] = tail
            elif 2 * d < best:
                best, found = 2 * d, (r, entered[head], (head,), tail)
    if found is None:
        return None
    r, a, middle, b = found
    row = table.scaled_row(r)

    def back_to_root(x: int) -> list[int]:
        path = []
        while x != r:
            path.append(x)
            d = row[x - 1]
            x = next(p for p in g.neighbors(x) if row[p - 1] + lengths[edge_key(p, x)] == d)
        return path

    cycle = [r, *reversed(back_to_root(a)), *middle, *back_to_root(b)]
    if cycle[1] < cycle[-1]:
        cycle[1:] = reversed(cycle[1:])
    return table._exact(best), tuple(cycle)


def components(g: Graph, removed_vertices: Iterable[int] = ()) -> tuple[tuple[int, ...], ...]:
    """Connected components after deleting vertices (with their incident
    edges). Components and their members are sorted."""
    labels, count = component_labels(g, removed_vertices)
    comps: list[list[int]] = [[] for _ in range(count)]
    for v in g.vertices():
        c = labels[v - 1]
        if c is not None:
            comps[c].append(v)
    return tuple(tuple(c) for c in comps)


def component_labels(g: Graph, removed_vertices: Iterable[int] = ()) -> tuple[tuple, int]:
    """Per-vertex component index once the removed vertices and their
    edges are deleted (None on removed ones), and the component count.
    Components are numbered by least surviving vertex."""
    gone_v = set(removed_vertices)
    for v in gone_v:
        if not 1 <= v <= g.n:
            raise GraphFormatError(f"removed vertex {v} out of range")
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
    """Barycentric subdivision of the 1-skeleton: one new vertex per edge
    midpoint. Returns (graph, edge -> midpoint id), midpoints numbered
    n+1.. in sorted edge order, built by ``Graph._derived``: a vertex row is
    its ascending midpoints, a midpoint row the ends (u, v) of its edge."""
    mid = {e: m for m, e in enumerate(g.edges(), start=g.n + 1)}
    rows: list[list[int]] = [[] for _ in g.vertices()]
    for (u, v), m in mid.items():
        rows[u - 1].append(m)
        rows[v - 1].append(m)
    edges = tuple((v, m) for v, row in enumerate(rows, start=1) for m in row)
    return Graph._derived([*map(tuple, rows), *mid], edges), mid


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
