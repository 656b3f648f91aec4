"""Backtracking search for two-sided cutsets: sigma-separated, with exactly
two components, minimal. On the vertices of a trivalent graph at distance
3 they are the star cutsets (``cutset.is_star_cutset``) that
``search_star_cutsets`` enumerates; ``two_sided_cutsets`` lists them at any
degree, metric and kind, as for the local pairs on a link at pi.

The search colors nodes side-A / side-B / cut from a root's seeds. In
vertex kind the nodes are the vertices; in edge kind they are the nodes of
the subdivision, and only midpoints may be cut. Propagation enforces what
can be decided locally: no cut node in the ball of another (the cuttable
nodes closer than sigma, measured as ``cutset.is_sigma_separated``
measures, from the distance table of g), no A-B edge, and every cut
node's neighborhood meeting both sides. Each color is one bit, and each
undecided node keeps a mask of the colors still open to it: coloring a
node clears a bit in the masks of its ball or of its neighbors, a mask
left with one bit queues that color for its node, and an empty one is a
contradiction. The colors and masks are copied before each branching and
written back after each child. Connectivity of the sides cannot be
decided locally, so a leaf is decided in one place, ``_Family.admit``: its
complement in the colored graph must have exactly two components. Every
reported cutset has passed that count, or is the image of one that has
under a checked automorphism.

The search is exact when no neighbor of a cut node can be cut: in vertex
kind when every edge is shorter than sigma, so that a node's neighbors lie
in its ball, and in edge kind always, since a midpoint's neighbors are
vertices. Trivalent graphs at distance 3 meet it, and so do links at pi,
whose corner angles (k-2)/k pi are below pi. Let C be sigma-separated, with
exactly two complement components X and Y, and minimal. Restoring a node of
C that touches only one of them would leave two components, so every node
of C touches both, and coloring C cut, X one side and Y the other breaks no
rule: a root that admits C reaches it as a leaf. Conversely, at a leaf no
two cut nodes are closer than sigma, no edge joins A to B and every cut
node touches both sides, so neither side is empty. Two components are then
A and B, and restoring any cut node joins them, so C is minimal. In vertex
kind this counts on g, and ``cutset`` on the subdivision; they agree as no
edge joins two cut vertices. Without the precondition they do not: on q3
at sigma = 1 an edge between cut vertices is a free arc that g does not
see, and the count on g gives 16 sets where 8 are two-sided. So
``two_sided_cutsets`` refuses vertex kind there.

``search_star_cutsets`` with a ``split`` (v, i, j) searches one root: v
is cut, and its i-th and j-th neighbors in ascending order go to sides A
and B. Without one it enumerates every cutset: it roots the search at
orbits, two levels deep, and closes the validated leaves under a group:
Aut(g) for the star census, once each generator is checked to map the edge
set onto itself, and the trivial group in ``two_sided_cutsets``.

The first level follows the orbits of the group, in the order of
``vertex_orbits()``. Under orbit i, the least node r is cut, every node of
orbits 1..i-1 is kept out of the cut, and the least neighbor of r is put
on side A: swapping the sides keeps the cut set, and a cut node's
neighbors are never cut. A cutset C meets some first orbit i, at a node u;
an automorphism maps u to r, and the image of C still avoids orbits
1..i-1. Nothing here depends on sigma or on the degree.

The second level follows the orbits of the stabilizer Stab(r), read from
``PermutationGroup.pair_orbits``: the transversal elements below the
first level of a checked stabilizer chain whose first base point is r
generate Stab(r). It takes only the orbits O_1, O_2, ... of two or more
vertices that lie outside the ball of r and outside orbits 1..i-1, in
order of least vertex: a cutset through r cuts nothing in the ball or in
those orbits, and a one-vertex orbit removes no symmetry. Sub-root j also
cuts s_j = min O_j and keeps O_1..O_{j-1} out of the cut; a last sub-root
keeps every O_j out of it. Take a cutset C' through r that avoids orbits
1..i-1. If it meets no O_j, the last sub-root finds it. Otherwise let O_j
be the first it meets, at w, and let h in Stab(r) map w to s_j. Then h(C')
contains r and s_j, avoids O_1..O_{j-1} and still avoids orbits 1..i-1, so
sub-root j finds it. When Stab(r) is trivial there is no O_j, and r is
searched from one root, as at the first level alone. So closing the leaves
under the group recovers every cutset; under the trivial group each one is
found once, from its least node.

An orbit is closed as soon as its first leaf passes the star conjunction,
on sorted-id keys (``aut.vertex_set_key``), through the stabilizer chain
of Aut(g) that Schreier–Sims has checked complete
(``aut.vertex_set_closure``): the leaf is moved by the inverses of the
transversal elements, depth first through the levels, and each of those
is the inverse of a product of checked generators, so an automorphism
too. The star conjunction is Aut-invariant, so a later leaf whose cut is
already in the family is admitted without deciding it again: it is the
image of a validated leaf under such an automorphism, so it passes, and
the family already holds it, so its verdict could not change the output.
Without a group every leaf is decided. The least key of each closure
represents its orbit (``SearchResult.orbits``):
``certify.SeparatedFamily.from_orbits`` rebuilds the family from them,
through the same kernel.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import inf

from .aut import (
    PermutationGroup,
    automorphism_group,
    is_automorphism,
    vertex_set_closure,
    vertex_set_key,
)
from .cutset import Cutset, require_cubic
from .cutset import _point_distances, _subdivision
from .errors import SearchError
from .graph import Graph, Metric, component_labels

UNDECIDED, SIDE_A, SIDE_B, CUT = 0, 1, 2, 4
_COLOR_ORDER = (CUT, SIDE_A, SIDE_B)
_COUNTERS = (
    "nodes", "prune_ball", "prune_edge", "prune_mask_empty", "prune_conflict",
    "prune_cut_neighborhood", "leaves", "rejected_at_emission",
)


@dataclass(frozen=True)
class SearchResult:
    """The cutsets found, as ascending sorted-id keys
    (``aut.vertex_set_key``), the order of their sorted vertex lists, from
    which ``cutset.format_family`` writes the family file; ``cutsets``
    holds them as vertex cutsets, in the same order, built on first use.
    ``orbits`` holds the least key of each orbit, ascending, from which
    ``certify.SeparatedFamily.from_orbits`` rebuilds the family; a split
    search has no group, so every key is its own orbit. ``exhausted`` is
    True when no node was left unexplored; ``stats`` holds the counters."""

    keys: tuple[str, ...]
    orbits: tuple[str, ...]
    exhausted: bool
    stats: dict

    @cached_property
    def cutsets(self) -> tuple[Cutset, ...]:
        return tuple(Cutset.of_vertices(map(ord, key)) for key in self.keys)


@dataclass(frozen=True)
class _Root:
    """Where one subtree of the search starts: seed assignments, and the
    nodes kept out of the cut."""

    seeds: tuple[tuple[int, int], ...]
    not_cut: tuple[int, ...] = ()


class _Coloring:
    """Mutable search state. In vertex kind the nodes are the vertices of
    g; in edge kind they are the nodes of its subdivision, and only
    midpoints may be cut. Each color is its own bit, SIDE_A 1, SIDE_B 2 and
    CUT 4, and ``mask[v]`` holds the bits of the colors still open to an
    undecided v; a decided node's mask is no longer read. ``element`` maps
    each cuttable node, ascending, to the cutset element it stands for,
    ``nbrs[v]`` holds v's neighbors, and ``ball[v]`` the cuttable nodes
    closer than sigma to a cuttable v, in ascending node order, measured
    between their elements' points from the distance table of g
    (``cutset._point_distances``); ``graph`` is the graph colored, g or its
    subdivision. ``mark`` copies ``color`` and ``mask``, and ``undo`` writes
    such a copy back."""

    __slots__ = ("graph", "element", "nbrs", "ball", "color", "mask", "stats")

    def __init__(self, g: Graph, metric: Metric, kind: str, sigma):
        den, from_point = _point_distances(g, metric, kind)
        if kind == "vertex":
            self.element = {v: v for v in g.vertices()}
        else:
            g, mid = _subdivision(g)
            self.element = {m: e for e, m in mid.items()}
        self.graph = g
        bound = sigma * den
        self.nbrs = [()] + [g.neighbors(v) for v in g.vertices()]
        self.mask = [SIDE_A | SIDE_B] * (g.n + 1)
        self.ball = [()] * (g.n + 1)
        for v, x in self.element.items():
            self.mask[v] = SIDE_A | SIDE_B | CUT
            ds = from_point(x, self.element.values())
            self.ball[v] = tuple(frozenset([u for u, d in zip(self.element, ds) if u != v and d < bound]))
        self.color = [UNDECIDED] * (g.n + 1)
        self.stats = dict.fromkeys(_COUNTERS, 0)

    def mark(self) -> tuple[list[int], list[int]]:
        return self.color[:], self.mask[:]

    def undo(self, mark: tuple[list[int], list[int]]) -> None:
        self.color[:], self.mask[:] = mark

    def assign(self, v: int, c: int) -> bool:
        """Set v to c and propagate; False on contradiction (state is then
        partially updated and must be rolled back via undo). A color bit
        taken from an undecided node's mask that leaves it one color
        queues that color for it."""
        color, mask, nbrs, ball, stats = self.color, self.mask, self.nbrs, self.ball, self.stats
        queue = [(v, c)]
        while queue:
            v, c = queue.pop()
            cur = color[v]
            if cur:
                if cur != c:
                    stats["prune_conflict"] += 1
                    return False
                continue
            if not c & mask[v]:
                stats["prune_mask_empty"] += 1
                return False
            color[v] = c
            # a cut node bars cuts from its ball, a side the other side
            # from its neighbors: the barred color is the bit cleared
            if c == CUT:
                row, bit, clash = ball[v], CUT, "prune_ball"
            else:
                row, bit, clash = nbrs[v], c ^ (SIDE_A | SIDE_B), "prune_edge"
            for u in row:
                cu = color[u]
                if cu == bit:
                    stats[clash] += 1
                    return False
                if not cu and mask[u] & bit:
                    m = mask[u] = mask[u] ^ bit
                    if not m:
                        stats["prune_mask_empty"] += 1
                        return False
                    if m & (m - 1) == 0:
                        queue.append((u, m))
            if c == CUT:
                if not self._force_split(v, queue):
                    stats["prune_cut_neighborhood"] += 1
                    return False
            else:
                # a cut neighbor left with one open neighbor may force it
                for u in row:
                    if color[u] == CUT and not self._force_split(u, queue):
                        stats["prune_cut_neighborhood"] += 1
                        return False
        return True

    def _force_split(self, u: int, queue: list) -> bool:
        """Cut node u needs both sides around it: a side it cannot reach
        fails, and one undecided neighbor left to reach a missing side is
        pushed to it."""
        color = self.color
        sides = 0
        free = None
        for w in self.nbrs[u]:
            c = color[w]
            if not c:
                if free is not None:
                    return True  # two undecided neighbors can still reach both sides
                free = w
            elif c != CUT:
                sides |= c
        if sides == SIDE_A | SIDE_B:
            return True
        if free is None or not sides:
            return False
        missing = sides ^ (SIDE_A | SIDE_B)
        m = self.mask[free]
        if m & missing != m:
            m = self.mask[free] = m & missing
            if not m:
                self.stats["prune_mask_empty"] += 1
                return False
            queue.append((free, m))
        return True


def _split_root(g: Graph, v: int, i: int, j: int) -> _Root:
    if not 1 <= v <= g.n:
        raise SearchError(f"goal vertex {v} not in graph")
    if i == j or not {i, j} <= {1, 2, 3}:
        raise SearchError(f"bad neighbor positions {i},{j}")
    triple = g.neighbors(v)
    return _Root(((v, CUT), (triple[i - 1], SIDE_A), (triple[j - 1], SIDE_B)))


def _orbit_roots(state: _Coloring, grp: PermutationGroup | None) -> list[_Root]:
    """Roots for every cutset, two levels deep, as the module docstring
    sets out; no group stands for the trivial one on the cuttable nodes."""
    roots = []
    earlier: list[int] = []
    orbits = [(v,) for v in state.element] if grp is None else grp.vertex_orbits()
    for orbit in orbits:
        r = orbit[0]
        seeds = ((r, CUT), (state.nbrs[r][0], SIDE_A))
        stab_orbits: dict[int, list[int]] = {}  # by least vertex, ascending
        for v, least in enumerate(grp.pair_orbits.stab.get(r, ()) if grp is not None else (), start=1):
            stab_orbits.setdefault(least, []).append(v)
        subs = [
            sub
            for sub in stab_orbits.values()
            if len(sub) > 1 and sub[0] not in state.ball[r] and sub[0] not in earlier
        ]
        not_cut = tuple(earlier)
        for sub in subs:
            roots.append(_Root(seeds + ((sub[0], CUT),), not_cut))
            not_cut += tuple(sub)
        roots.append(_Root(seeds, not_cut))
        earlier.extend(orbit)
    return roots


def _branch_vertex(state: _Coloring) -> int | None:
    """The least undecided node next to a decided one, else the least
    undecided node; None at a leaf."""
    color, nbrs = state.color, state.nbrs
    best = None
    for v in range(1, len(color)):
        if color[v]:
            continue
        for w in nbrs[v]:
            if color[w]:
                return v
        if best is None:
            best = v
    return best


def search_star_cutsets(g: Graph, split: tuple[int, int, int] | None = None, node_budget=inf) -> SearchResult:
    """The star cutsets of the trivalent graph g, closed under Aut(g); with
    ``split`` = (v, i, j) those through v that put its i-th and j-th
    neighbors in ascending order (positions 1..3) in different components.
    At most ``node_budget`` nodes are charged; ``math.inf`` is no budget."""
    require_cubic(g)
    state = _Coloring(g, Metric.combinatorial(), "vertex", 3)
    if split is None:
        grp = automorphism_group(g)
        for p in grp.generators:
            if not is_automorphism(g, p):
                raise SearchError("a group generator does not map the edge set onto itself")
        roots = _orbit_roots(state, grp)
    else:
        grp, roots = None, [_split_root(g, *split)]

    family = _Family(grp)
    exhausted = True
    for root in roots:
        exhausted &= _search_root(state, root, node_budget, family)
    if grp is not None:
        state.stats["orbits"] = len(family.orbits)
    return SearchResult(tuple(sorted(family.keys)), tuple(sorted(family.orbits)), exhausted, state.stats)


def two_sided_cutsets(g: Graph, metric: Metric, kind: str, sigma) -> tuple[Cutset, ...]:
    """Every cutset of g of the given kind that is sigma-separated, leaves
    exactly two components and is minimal, in the order of their sorted
    search nodes. Vertex kind needs every edge of g shorter than sigma, as
    on a link at sigma = pi, and raises SearchError otherwise."""
    if kind == "vertex" and any(metric.edge_length(e) >= sigma for e in g.edges()):
        raise SearchError(f"vertex-kind search needs every edge shorter than sigma = {sigma}")
    state = _Coloring(g, metric, kind, sigma)
    family = _Family(None)
    for root in _orbit_roots(state, None):
        _search_root(state, root, inf, family)
    return tuple(Cutset(kind, frozenset([state.element[ord(v)] for v in key])) for key in sorted(family.keys))


class _Family:
    """The cutsets found so far, as sorted-id keys (``aut.vertex_set_key``)
    of their nodes, each admitted when its complement in the colored graph
    has two components, and the least key of each orbit. With a group, an
    admitted leaf brings in its whole orbit, and a later leaf already in the
    family is admitted without being decided again; without one, each key
    is its own orbit."""

    __slots__ = ("grp", "keys", "orbits")

    def __init__(self, grp: PermutationGroup | None):
        self.grp = grp
        self.keys: set[str] = set()
        self.orbits: set[str] = set()

    def admit(self, colored: Graph, cut: list[int]) -> bool:
        key = vertex_set_key(cut)
        if self.grp is not None and key in self.keys:
            return True
        if component_labels(colored, removed_vertices=cut)[1] != 2:
            return False
        orbit = {key} if self.grp is None else vertex_set_closure(self.grp, key)
        self.keys |= orbit
        self.orbits.add(min(orbit))
        return True


def _search_root(state: _Coloring, root: _Root, node_budget, family: _Family) -> bool:
    """Depth-first search below one root, leaving the state as it found
    it. Every child of a branching is charged to ``stats["nodes"]``, which
    never passes ``node_budget``; True when no child was left unexplored,
    so that whether a search is exhausted does not depend on machine speed."""
    stats = state.stats

    def rec() -> bool:
        v = _branch_vertex(state)
        if v is None:  # a leaf: color[0] is padding, never CUT
            stats["leaves"] += 1
            if not family.admit(state.graph, [u for u, c in enumerate(state.color) if c == CUT]):
                stats["rejected_at_emission"] += 1
            return True
        mark = state.mark()
        for c in _COLOR_ORDER:
            if not c & state.mask[v]:
                continue
            if stats["nodes"] >= node_budget:
                return False
            stats["nodes"] += 1
            complete = not state.assign(v, c) or rec()
            state.undo(mark)
            if not complete:
                return False
        return True

    mark = state.mark()
    for v in root.not_cut:
        state.mask[v] &= SIDE_A | SIDE_B
    complete = not all(state.assign(v, c) for v, c in root.seeds) or rec()
    state.undo(mark)
    return complete
