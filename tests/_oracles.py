"""Slow reference implementations the test suite checks the library against.

Everything here favors obviousness over speed and shares no code paths with
the package: distances come from matrix powers, automorphisms from filtered
permutations or natural-order backtracking, cutsets and local pairs from
subset enumeration.
Gluing balance rows are written at every germ, member and element; only the
class of one pair at one element comes from the package.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import networkx as nx
import numpy as np

from sepcert.cutset import induced_partition
from sepcert.graph import Graph, Metric


def nx_graph(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.vertices())
    h.add_edges_from(g.edges())
    return h


def brute_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Filter all n! permutations; use only for n <= 8."""
    assert g.n <= 8, "factorial filter is for tiny graphs"
    edges = {frozenset(e) for e in g.edges()}
    out = []
    for perm in itertools.permutations(range(1, g.n + 1)):
        if all(frozenset((perm[u - 1], perm[v - 1])) in edges for u, v in g.edges()):
            out.append(perm)
    return out


def natural_order_aut_count(g: Graph) -> int:
    """Count automorphisms by mapping vertices 1..n in natural order,
    checking full consistency against every earlier vertex."""
    n = g.n
    adj = [frozenset()] + [frozenset(g.neighbors(v)) for v in g.vertices()]
    deg = [0] + [g.degree(v) for v in g.vertices()]
    img = [0] * (n + 1)
    used = [False] * (n + 1)
    count = 0

    def rec(v: int) -> None:
        nonlocal count
        if v > n:
            count += 1
            return
        if v > 1 and v in adj[v - 1]:
            pool = adj[img[v - 1]]
        else:
            pool = range(1, n + 1)
        for c in pool:
            if used[c] or deg[c] != deg[v]:
                continue
            if any((u in adj[v]) != (img[u] in adj[c]) for u in range(1, v)):
                continue
            img[v] = c
            used[c] = True
            rec(v + 1)
            used[c] = False
            img[v] = 0

    rec(1)
    return count


def numpy_distances(g: Graph) -> dict[tuple[int, int], float]:
    """All-pairs distances from boolean adjacency powers."""
    n = g.n
    a = np.zeros((n, n), dtype=bool)
    for u, v in g.edges():
        a[u - 1, v - 1] = a[v - 1, u - 1] = True
    dist = np.full((n, n), math.inf)
    np.fill_diagonal(dist, 0.0)
    reach = np.eye(n, dtype=bool)
    for d in range(1, n):
        reach = reach @ a
        newly = reach & np.isinf(dist)
        if not newly.any():
            break
        dist[newly] = float(d)
    return {
        (u, v): dist[u - 1, v - 1] for u in g.vertices() for v in g.vertices()
    }


def nx_angular_distances(g: Graph, metric: Metric) -> dict[tuple[int, int], Fraction | float]:
    """All-pairs distances by networkx Dijkstra on exact ``Fraction``
    weights; unreachable pairs are ``math.inf``."""
    h = nx_graph(g)
    for u, v in g.edges():
        h[u][v]["w"] = metric.edge_length((u, v))
    found = dict(nx.all_pairs_dijkstra_path_length(h, weight="w"))
    return {
        (u, v): found[u].get(v, math.inf) for u in g.vertices() for v in g.vertices()
    }


def half_length_subdivision(g: Graph, metric: Metric) -> tuple[Graph, Metric, dict]:
    """The barycentric subdivision of g whose half-edges carry half their
    edge's length, for ``nx_angular_distances``: (graph, metric, edge ->
    midpoint id), midpoints numbered n+1.. in sorted edge order."""
    mid = {e: m for m, e in enumerate(sorted(g.edges()), start=g.n + 1)}
    halves = {(x, m): Fraction(metric.edge_length(e), 2) for e, m in mid.items() for x in e}
    return Graph(g.n + g.m, halves), Metric.angular(halves), mid


def brute_girth(g: Graph) -> float:
    """Shortest cycle length: for each edge, shortest path between its ends
    avoiding the edge, plus one."""
    h = nx_graph(g)
    best = math.inf
    for u, v in g.edges():
        h.remove_edge(u, v)
        try:
            best = min(best, nx.shortest_path_length(h, u, v) + 1)
        except nx.NetworkXNoPath:
            pass
        h.add_edge(u, v)
    return best


def brute_angular_girth(g: Graph, metric: Metric) -> Fraction | float:
    h = nx_graph(g)
    for u, v in g.edges():
        h[u][v]["w"] = metric.edge_length((u, v))
    best: Fraction | float = math.inf
    for u, v in g.edges():
        w = h[u][v]["w"]
        h.remove_edge(u, v)
        try:
            best = min(best, nx.shortest_path_length(h, u, v, weight="w") + w)
        except nx.NetworkXNoPath:
            pass
        h.add_edge(u, v, w=w)
    return best


def simple_cycle_girth(g: Graph, metric: Metric) -> tuple[Fraction | int | float, list[list[int]]]:
    """Girth by listing every simple cycle (``networkx.simple_cycles``): the
    least cycle length (``math.inf`` for forests) and the cycles of that
    length, as vertex lists. Exponential; small graphs only."""
    best: Fraction | int | float = math.inf
    shortest: list[list[int]] = []
    for cycle in nx.simple_cycles(nx_graph(g)):
        length = sum(metric.edge_length((u, v)) for u, v in zip(cycle, cycle[1:] + cycle[:1]))
        if length < best:
            best, shortest = length, []
        if length == best:
            shortest.append(cycle)
    return best, shortest


def fresh_link(x, v: int) -> tuple[Graph, Metric, dict[tuple[int, int], int]]:
    """The link of vertex v of a polygonal complex, built afresh from the
    face walks at every call: link vertex i is the i-th smallest edge at v,
    and each face through v adds the edge between its two sides at v, of
    length (k-2)/k pi, labelled by the face index."""
    corners = []
    for idx, walk in enumerate(x.faces):
        if v in walk:
            p, k = walk.index(v), len(walk)
            sides = [tuple(sorted((v, w))) for w in (walk[p - 1], walk[(p + 1) % k])]
            corners.append((idx, k, sides))
    ids = {e: i for i, e in enumerate(sorted({e for _, _, sides in corners for e in sides}), start=1)}
    lengths, face_of = {}, {}
    for idx, k, sides in corners:
        corner = tuple(sorted(ids[e] for e in sides))
        lengths[corner] = Fraction(k - 2, k)
        face_of[corner] = idx
    return Graph(len(ids), lengths), Metric.angular(lengths), face_of


def brute_star_cutsets(g: Graph) -> set[frozenset[int]]:
    """All cutsets that are pairwise at distance >= 3, leave exactly two
    components, and have no proper subset that disconnects. Exponential in
    both the vertex count and cutset size; n <= 14 or so."""
    assert g.n <= 14, "subset enumeration is for small graphs"
    h = nx_graph(g)
    dist = dict(nx.all_pairs_shortest_path_length(h))
    verts = list(g.vertices())
    found: set[frozenset[int]] = set()

    def disconnects(sub: frozenset[int]) -> bool:
        rest = h.subgraph(v for v in verts if v not in sub)
        return rest.number_of_nodes() > 0 and not nx.is_connected(rest)

    for r in range(1, g.n - 1):
        for combo in itertools.combinations(verts, r):
            c = frozenset(combo)
            if any(
                dist[u].get(v, math.inf) < 3 for u, v in itertools.combinations(combo, 2)
            ):
                continue
            rest = h.subgraph(v for v in verts if v not in c)
            if rest.number_of_nodes() == 0:
                continue
            if nx.number_connected_components(rest) != 2:
                continue
            if any(
                disconnects(frozenset(s))
                for k in range(1, r)
                for s in itertools.combinations(combo, k)
            ):
                continue
            found.add(c)
    return found


def brute_link_cutsets(g: Graph, metric: Metric, kind: str, most: int | None = None) -> dict:
    """Every set of at least two and at most ``most`` vertices (vertex kind)
    or edges (edge kind) of g that is pi-separated and cuts g, mapped to its
    component count and whether it is minimal. Removal and distances are
    taken on the subdivision, whose half-edges carry half the length; a
    cut-open edge is a component of its own. Exponential in the size of g."""
    h = nx.Graph()
    h.add_nodes_from(g.vertices())
    for u, v in g.edges():
        half = Fraction(metric.edge_length((u, v)), 2)
        h.add_edge(u, (u, v), w=half)
        h.add_edge(v, (u, v), w=half)
    universe = list(g.vertices()) if kind == "vertex" else list(g.edges())
    dist = {x: nx.single_source_dijkstra_path_length(h, x, weight="w") for x in universe}

    def count(removed) -> int:
        return nx.number_connected_components(h.subgraph(x for x in h if x not in removed))

    found = {}
    for r in range(2, min(len(universe), most or len(universe)) + 1):
        for combo in itertools.combinations(universe, r):
            if any(dist[a].get(b, math.inf) < 1 for a, b in itertools.combinations(combo, 2)):
                continue
            k = count(combo)
            if k >= 2:
                minimal = all(count(set(combo) - {x}) < 2 for x in combo)
                found[frozenset(combo)] = (k, minimal)
    return found


def separates(g: Graph, c: frozenset[int], x: int, y: int) -> bool:
    """Do x and y land in different pieces once c is deleted?"""
    h = nx_graph(g)
    rest = h.subgraph(v for v in g.vertices() if v not in c)
    if x in c or y in c:
        return False
    return y not in nx.node_connected_component(rest, x)



def brute_unsplit_pairs(g: Graph, cutsets, n: int) -> tuple[list, list]:
    """The pairs that no cutset separates, from the components of G - C
    for every cutset and every pair: each neighbour pair w < w2 of each
    vertex v as (v, w, w2), and each pair u < v at distance >= n as
    (u, v), in vertex order."""
    h = nx_graph(g)
    sides = []
    for c in cutsets:
        rest = h.subgraph(v for v in g.vertices() if v not in c)
        sides.append({v: k for k, part in enumerate(nx.connected_components(rest)) for v in part})

    def split(x: int, y: int) -> bool:
        return any(x in side and y in side and side[x] != side[y] for side in sides)

    dist = dict(nx.all_pairs_shortest_path_length(h))
    neighbour = [
        (v, w, w2)
        for v in g.vertices()
        for w, w2 in itertools.combinations(sorted(g.neighbors(v)), 2)
        if not split(w, w2)
    ]
    distant = [
        (u, v)
        for u, v in itertools.combinations(g.vertices(), 2)
        if dist[u].get(v, math.inf) >= n and not split(u, v)
    ]
    return neighbour, distant

def frozenset_closure(generators, s) -> set[frozenset[int]]:
    """Every image of a vertex set under the group the generators make:
    a search over frozensets, each image built vertex by vertex."""
    start = frozenset(s)
    seen = {start}
    queue = [start]
    while queue:
        cur = queue.pop()
        for p in generators:
            nxt = frozenset(p[v - 1] for v in cur)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def set_orbits(perms, sets) -> set[frozenset[frozenset[int]]]:
    """Orbits of vertex sets under a group listed element by element: every
    element is applied to each set not yet placed in an orbit."""
    remaining = {frozenset(s) for s in sets}
    orbits = set()
    while remaining:
        s = min(remaining, key=sorted)
        orbit = frozenset(frozenset(p[v - 1] for v in s) for p in perms)
        orbits.add(orbit)
        remaining -= orbit
    return orbits


def _least_labels(n: int, perms) -> list[int]:
    """Entry x - 1 is the least point of x's orbit under the permutations
    of 1..n, by repeated relabelling to the least neighbour."""
    label = list(range(1, n + 1))
    changed = True
    while changed:
        changed = False
        for p in perms:
            for x in range(1, n + 1):
                a, b = label[x - 1], label[p[x - 1] - 1]
                if a != b:
                    label[x - 1] = label[p[x - 1] - 1] = min(a, b)
                    changed = True
    return label


def schreier_pair_orbits(n: int, gens) -> tuple[tuple, tuple, dict]:
    """The fields (rep, to_rep, stab) of ``aut.PairOrbits`` from the
    generators alone: for each vertex orbit, a breadth-first transversal
    u_x of its least vertex r (generators tried in order, u_y = p u_x for
    the first p with p(x) = y), to_rep the inverse of u_x, and the
    Stab(r)-orbits under the Schreier generators u_{p(x)}^-1 p u_x over
    every orbit point x and generator p."""
    one = tuple(range(1, n + 1))

    def compose(p, q):
        return tuple(p[x - 1] for x in q)

    def inverse(p):
        out = [0] * n
        for v, w in enumerate(p, 1):
            out[w - 1] = v
        return tuple(out)

    rep, to_rep, stab = list(one), [None] * n, {}
    for x0 in one:
        if rep[x0 - 1] != x0 or not gens:
            continue
        reps = {x0: one}
        queue = [x0]
        for x in queue:
            for p in gens:
                if p[x - 1] not in reps:
                    reps[p[x - 1]] = compose(p, reps[x])
                    queue.append(p[x - 1])
        for x, u in reps.items():
            rep[x - 1] = x0
            to_rep[x - 1] = None if x == x0 else inverse(u)
        schreier = {
            compose(inverse(reps[p[x - 1]]), compose(p, u)) for x, u in reps.items() for p in gens
        } - {one}
        if schreier:
            stab[x0] = tuple(_least_labels(n, schreier))
    return tuple(rep), tuple(to_rep), stab


def generator_member_orbits(fam) -> tuple[int, ...]:
    """``orbit_of`` of a family with a group, by union-find over every
    member and its image under every generator (``fam.image``): entry i is
    the first member of member i's orbit."""
    parent = list(range(len(fam.members)))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for i in range(len(fam.members)):
        for p in fam.group.generators:
            a, b = find(i), find(fam.image(p, i))
            parent[max(a, b)] = min(a, b)
    return tuple(find(i) for i in range(len(fam.members)))


def brute_split_counts(g: Graph, cutsets) -> dict[tuple[int, int, int], int]:
    """Same-side counts with multiplicity, from the components of G - C.

    For each cutset as given (repeats count again) and each cut vertex v
    whose ascending neighbours w1, w2, w3 all survive, the pairs (i, j) with
    w_i, w_j in one component are counted when exactly one pair or all three
    pairs are."""
    h = nx_graph(g)
    pairs = ((1, 2), (1, 3), (2, 3))
    counts = {(v, i, j): 0 for v in g.vertices() for i, j in pairs}
    for c in cutsets:
        rest = h.subgraph(v for v in g.vertices() if v not in c)
        comp = {v: k for k, part in enumerate(nx.connected_components(rest)) for v in part}
        for v in c:
            w = sorted(g.neighbors(v))
            if any(x in c for x in w):
                continue
            same = [(i, j) for i, j in pairs if comp[w[i - 1]] == comp[w[j - 1]]]
            if len(same) in (1, 3):
                for i, j in same:
                    counts[(v, i, j)] += 1
    return counts


def distance_transitivity(g: Graph, generators) -> tuple[bool, dict | None]:
    """Transitivity on the ordered pairs at each distance, from orbits of
    all n² ordered pairs found by union-find over every generator. Returns
    (flag, witness) as ``aut.is_distance_transitive`` does: the first pair,
    per distance in string order, that lies outside the orbit of the first
    pair at that distance."""
    n = g.n
    parent = list(range(n * n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in generators:
        for u in range(n):
            for v in range(n):
                a, b = find(u * n + v), find((p[u] - 1) * n + p[v] - 1)
                if a != b:
                    parent[max(a, b)] = min(a, b)
    dist = dict(nx.all_pairs_shortest_path_length(nx_graph(g)))
    pairs_by_d: dict = {}
    for u in g.vertices():
        for v in g.vertices():
            if u != v:
                pairs_by_d.setdefault(dist[u].get(v, math.inf), []).append((u, v))
    for d in sorted(pairs_by_d, key=str):
        (u0, v0), *rest = pairs_by_d[d]
        for u, v in rest:
            if find((u - 1) * n + v - 1) != find((u0 - 1) * n + v0 - 1):
                return False, {"distance": d, "pair": (u, v), "unreachable_from": (u0, v0)}
    return True, None



def balance_rows(structure) -> set[tuple[int, ...]]:
    """Every balance equation of a gluing structure as a row over its orbit
    unknowns (the order of ``structure.unknowns()``): lhs − rhs with its
    first nonzero entry positive, equations that every weighting satisfies
    dropped. Every germ is read in both directions, and every member at
    every element of its cutset against its least element. Each pair's
    class at an element comes straight from ``induced_partition``, with no
    moves by the group."""
    unknowns = structure.unknowns()
    k = len(unknowns)
    column = {}
    for j, (_, li, orbit) in enumerate(unknowns):
        for c in orbit:
            column[li.name, c.key()] = j
    seen = {}

    def at(li, x) -> tuple[dict, dict[frozenset, list[int]]]:
        """The class at x of each pair containing x, and the sum of the
        unknowns over each class."""
        if (li.name, x) not in seen:
            directions = li.graph.neighbors(x) if li.kind == "vertex" else x
            class_of, sums = {}, {}
            for c in li.members:
                if x in c.elements:
                    cls = class_of[c] = induced_partition(li.graph, c, {d: d for d in directions})
                    sums.setdefault(cls, [0] * k)[column[li.name, c.key()]] += 1
            seen[li.name, x] = class_of, sums
        return seen[li.name, x]

    rows = set()

    def add(lhs, rhs) -> None:
        row = [a - b for a, b in zip(lhs, rhs)]
        if any(row):
            sign = 1 if next(c for c in row if c) > 0 else -1
            rows.add(tuple(sign * c for c in row))

    for germ in structure.germs:
        forward = dict(germ.bijection)
        backward = {b: a for a, b in germ.bijection}
        ends = (germ.start, germ.element_a), (germ.end, germ.element_b)
        for (li, x), (lj, y), m in ((*ends, forward), (*ends[::-1], backward)):
            _, there = at(lj, y)
            for cls, lhs in at(li, x)[1].items():
                image = frozenset(frozenset(m[d] for d in block) for block in cls)
                add(lhs, there.get(image, [0] * k))
    for li in structure.instances:
        for c in li.members:
            first, *rest = sorted(c.elements)
            class_of, sums = at(li, first)
            for x in rest:
                class_x, sums_x = at(li, x)
                add(sums[class_of[c]], sums_x[class_x[c]])
    return rows
