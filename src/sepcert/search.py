"""Backtracking search for star cutsets: vertex cutsets of a trivalent
graph, 3-separated, with two components, minimal (``cutset.is_star_cutset``).

The star search colors vertices side-A / side-B / cut, growing outward from
a root's seed assignments. Propagation enforces what can be decided
locally: cut vertices pairwise at distance >= 3 (their closed 1-balls are
disjoint), no A-B edge, and every cut vertex's neighborhood meeting both
sides. Connectivity of the sides cannot be decided locally, so candidate
leaves are validated through the cutset predicates before emission; every
reported cutset has passed them, or is the image of one that has under a
checked automorphism.

A neighbor-split goal is searched from one root: v is cut, and its i-th
and j-th neighbors in ascending order go to sides A and B. Enumerating every
star cutset instead roots the search at orbits, two levels deep, and then
closes the validated leaves under Aut(g), once each generator is checked
to map the edge set onto itself.

The first level follows the orbits of Aut(g) on vertices, in the order of
``vertex_orbits()``. Under orbit i, the least vertex r is cut, every vertex
of orbits 1..i-1 is kept out of the cut, and the least neighbor of r is put
on side A: swapping the sides keeps the cut set, and a cut vertex's
neighbors are never cut. A star cutset C meets some first orbit i, at a
vertex u; an automorphism maps u to r, and the image of C still avoids
orbits 1..i-1.

The second level follows the orbits of the stabilizer Stab(r), read from
``PermutationGroup.pair_orbits``: the transversal elements below the
first level of a checked stabilizer chain whose first base point is r
generate Stab(r). It takes only the orbits
O_1, O_2, ... of two or more vertices that lie outside the 2-ball of r and
outside orbits 1..i-1, in order of least vertex: a star cutset through r
cuts nothing in the 2-ball or in those orbits, and a one-vertex orbit
removes no symmetry. Sub-root j also cuts s_j = min O_j and keeps
O_1..O_{j-1} out of the cut; a last sub-root keeps every O_j out of it.
Take a star cutset C' through r that avoids orbits 1..i-1. If it meets no
O_j, the last sub-root finds it. Otherwise let O_j be the first it meets,
at w, and let h in Stab(r) map w to s_j. Then h(C') contains r and s_j,
avoids O_1..O_{j-1} and still avoids orbits 1..i-1, so sub-root j finds it.
When Stab(r) is trivial there is no O_j, and r is searched from one root,
as at the first level alone.

So closing the leaves under the group recovers every star cutset. The star
conjunction is Aut-invariant, so every image of a validated leaf is a star
cutset. With a trivial group every vertex is its own orbit, and each
cutset is found once, from its least vertex.

An orbit is closed as soon as its first leaf passes the star conjunction,
on sorted-id keys (``aut.vertex_set_key``), through the stabilizer chain
of Aut(g) that Schreier–Sims has checked complete
(``aut.vertex_set_closure``): the leaf is moved by the inverses of the
transversal elements, level by level, and each of those is the inverse of
a product of checked generators, so an automorphism too. A later leaf
whose cut is already in the family is admitted without deciding it again:
it is the image of a validated leaf under such an automorphism, so by the
same invariance it passes, and the family already holds it, so its
verdict could not change the output. A neighbor-split goal has no group,
and every one of its leaves is decided.

The roots are searched depth-first in order, every child of a branching is
charged to one node budget that the search never overruns, and
``exhausted`` holds exactly when no child was left unexplored, so a verdict
does not depend on machine speed.

The result is the family's sorted-id keys, in ascending order, which is
the order of the members' sorted vertex lists. A ``Cutset`` is built only
for a leaf that is decided; ``SearchResult.cutsets`` builds one per member
on first use, and ``cutset.format_family`` writes the family file from the
keys alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .aut import (
    PermutationGroup,
    automorphism_group,
    is_automorphism,
    vertex_set_closure,
    vertex_set_key,
)
from .cutset import Cutset, is_star_cutset, require_cubic
from .errors import SearchError
from .graph import Graph

UNDECIDED, SIDE_A, SIDE_B, CUT = 0, 1, 2, 3
_BIT = {SIDE_A: 1, SIDE_B: 2, CUT: 4}
_ALL = 7
_COLOR_ORDER = (CUT, SIDE_A, SIDE_B)
_OTHER_SIDE = {SIDE_A: SIDE_B, SIDE_B: SIDE_A}


@dataclass(frozen=True)
class NeighborSplitGoal:
    """Find cutsets through v putting its i-th and j-th neighbors, in
    ascending order (positions 1..3), in different components."""

    v: int
    i: int
    j: int


@dataclass(frozen=True)
class CoverAllGoal:
    """Enumerate every star cutset of the graph."""


@dataclass(frozen=True)
class SearchTask:
    graph: Graph
    goal: object = CoverAllGoal()
    node_budget: int = 10_000_000


@dataclass(frozen=True)
class SearchResult:
    """The cutsets found, as ascending sorted-id keys
    (``aut.vertex_set_key``); ``cutsets`` holds them as vertex cutsets, in
    the same order, and is built on first use."""

    keys: tuple[str, ...]
    exhausted: bool
    stats: dict

    @cached_property
    def cutsets(self) -> tuple[Cutset, ...]:
        return tuple(Cutset.of_vertices(map(ord, key)) for key in self.keys)


@dataclass(frozen=True)
class _Root:
    """Where one subtree of the search starts: seed assignments, and the
    vertices kept out of the cut."""

    seeds: tuple[tuple[int, int], ...]
    not_cut: tuple[int, ...] = ()


def _ball2(g: Graph) -> list[frozenset[int]]:
    out: list[frozenset[int]] = [frozenset()]
    for v in g.vertices():
        near = set()
        for w in g.neighbors(v):
            near.add(w)
            near.update(g.neighbors(w))
        near.discard(v)
        out.append(frozenset(near))
    return out


class _Coloring:
    """Mutable search state with an undo trail."""

    __slots__ = ("g", "ball2", "color", "mask", "trail", "stats")

    def __init__(self, g: Graph, ball2: Sequence[frozenset[int]], stats: dict):
        self.g = g
        self.ball2 = ball2
        self.color = [UNDECIDED] * (g.n + 1)
        self.mask = [_ALL] * (g.n + 1)
        self.trail: list[tuple] = []
        self.stats = stats

    def mark(self) -> int:
        return len(self.trail)

    def undo(self, mark: int) -> None:
        while len(self.trail) > mark:
            kind, v, old = self.trail.pop()
            if kind == 0:
                self.color[v] = UNDECIDED
            else:
                self.mask[v] = old

    def _restrict(self, v: int, bits: int, queue: list) -> bool:
        old = self.mask[v]
        new = old & bits
        if new == old:
            return True
        self.trail.append((1, v, old))
        self.mask[v] = new
        if self.color[v] != UNDECIDED:
            return _BIT[self.color[v]] & new != 0
        if new == 0:
            self.stats["prune_mask_empty"] += 1
            return False
        if new in (1, 2, 4):
            queue.append((v, {1: SIDE_A, 2: SIDE_B, 4: CUT}[new]))
        return True

    def assign(self, v: int, c: int) -> bool:
        """Set v to c and propagate; False on contradiction (state is then
        partially updated and must be rolled back via undo)."""
        queue = [(v, c)]
        while queue:
            v, c = queue.pop()
            cur = self.color[v]
            if cur != UNDECIDED:
                if cur != c:
                    self.stats["prune_conflict"] += 1
                    return False
                continue
            if not _BIT[c] & self.mask[v]:
                self.stats["prune_mask_empty"] += 1
                return False
            self.trail.append((0, v, UNDECIDED))
            self.color[v] = c
            if c == CUT:
                for u in self.ball2[v]:
                    if self.color[u] == CUT:
                        self.stats["prune_ball"] += 1
                        return False
                    if not self._restrict(u, _ALL ^ _BIT[CUT], queue):
                        return False
                if not self._force_split(v, queue):
                    self.stats["prune_cut_neighborhood"] += 1
                    return False
            else:
                other = _OTHER_SIDE[c]
                for u in self.g.neighbors(v):
                    if self.color[u] == other:
                        self.stats["prune_edge"] += 1
                        return False
                    if not self._restrict(u, _ALL ^ _BIT[other], queue):
                        return False
                # a cut neighbor with two same-side neighbors forces the third
                for u in self.g.neighbors(v):
                    if self.color[u] == CUT and not self._force_split(u, queue):
                        self.stats["prune_cut_neighborhood"] += 1
                        return False
        return True

    def _force_split(self, u: int, queue: list) -> bool:
        """Cut vertex u needs both sides around it: three neighbors on one
        side fail, and two on one side push an undecided third to the
        other."""
        on_a = on_b = 0
        third = None
        for w in self.g.neighbors(u):
            c = self.color[w]
            if c == SIDE_A:
                on_a += 1
            elif c == SIDE_B:
                on_b += 1
            elif c == UNDECIDED:
                third = w
        if on_a == 3 or on_b == 3:
            return False
        if third is not None and on_a == 2:
            return self._restrict(third, _BIT[SIDE_B], queue)
        if third is not None and on_b == 2:
            return self._restrict(third, _BIT[SIDE_A], queue)
        return True


def _fresh_stats() -> dict:
    return {
        "nodes": 0,
        "prune_ball": 0,
        "prune_edge": 0,
        "prune_mask_empty": 0,
        "prune_conflict": 0,
        "prune_cut_neighborhood": 0,
        "leaves": 0,
        "rejected_at_emission": 0,
    }


def _goal_root(task: SearchTask) -> _Root:
    g = task.graph
    goal = task.goal
    if not isinstance(goal, NeighborSplitGoal):
        raise SearchError(f"unknown goal {goal!r}")
    if not 1 <= goal.v <= g.n:
        raise SearchError(f"goal vertex {goal.v} not in graph")
    if goal.i == goal.j or not {goal.i, goal.j} <= {1, 2, 3}:
        raise SearchError(f"bad neighbor positions {goal.i},{goal.j}")
    triple = g.neighbors(goal.v)
    return _Root(((goal.v, CUT), (triple[goal.i - 1], SIDE_A), (triple[goal.j - 1], SIDE_B)))


def _orbit_roots(g: Graph, grp: PermutationGroup, ball2) -> list[_Root]:
    """Roots for every star cutset, two levels deep. Under each vertex
    orbit's least vertex r, cut with its least neighbor on side A and the
    earlier orbits kept out of the cut, one root per eligible orbit of
    Stab(r) with two or more vertices also cuts that orbit's least vertex
    and keeps the earlier such orbits out of the cut; a last root keeps
    all of them out of it."""
    roots = []
    earlier: list[int] = []
    done: set[int] = set()
    for orbit in grp.vertex_orbits():
        r = orbit[0]
        seeds = ((r, CUT), (g.neighbors(r)[0], SIDE_A))
        stab_orbits: dict[int, list[int]] = {}  # by least vertex, ascending
        for v, least in enumerate(grp.pair_orbits.stab.get(r, ()), start=1):
            stab_orbits.setdefault(least, []).append(v)
        subs = [
            sub
            for sub in stab_orbits.values()
            if len(sub) > 1 and sub[0] not in ball2[r] and sub[0] not in done
        ]
        not_cut = tuple(earlier)
        for sub in subs:
            roots.append(_Root(seeds + ((sub[0], CUT),), not_cut))
            not_cut += tuple(sub)
        roots.append(_Root(seeds, not_cut))
        earlier.extend(orbit)
        done.update(orbit)
    return roots


def _branch_vertex(state: _Coloring) -> int | None:
    """The least undecided vertex next to a decided one, else the least
    undecided vertex; None at a leaf. The graph is cubic."""
    g = state.g
    color = state.color
    best = None
    for v in g.vertices():
        if color[v] != UNDECIDED:
            continue
        x, y, z = g.neighbors(v)
        if color[x] != UNDECIDED or color[y] != UNDECIDED or color[z] != UNDECIDED:
            return v
        if best is None:
            best = v
    return best


def search_star_cutsets(task: SearchTask) -> SearchResult:
    g = task.graph
    require_cubic(g)
    ball2 = _ball2(g)
    if isinstance(task.goal, CoverAllGoal):
        grp = automorphism_group(g)
        for p in grp.generators:
            if not is_automorphism(g, p):
                raise SearchError("a group generator does not map the edge set onto itself")
        roots = _orbit_roots(g, grp, ball2)
    else:
        grp, roots = None, [_goal_root(task)]

    stats = _fresh_stats()
    family = _Family(grp)
    exhausted = True
    for root in roots:
        exhausted &= _search_root(g, ball2, root, task.node_budget, family, stats)
    if grp is not None:
        stats["orbits"] = family.orbits
    return SearchResult(tuple(sorted(family.keys)), exhausted, stats)


class _Family:
    """The cutsets found so far, as sorted-id keys (``aut.vertex_set_key``).
    With a group, a leaf that passes the star conjunction brings in its
    whole orbit, and a later leaf already in the family is admitted
    without being decided again."""

    __slots__ = ("grp", "keys", "orbits")

    def __init__(self, grp: PermutationGroup | None):
        self.grp = grp
        self.keys: set[str] = set()
        self.orbits = 0

    def admit(self, g: Graph, cut: list[int]) -> bool:
        key = vertex_set_key(cut)
        if self.grp is not None and key in self.keys:
            return True
        if not is_star_cutset(g, Cutset.of_vertices(cut)).ok:
            return False
        if self.grp is None:
            self.keys.add(key)
        else:
            self.keys |= vertex_set_closure(self.grp, key)
            self.orbits += 1
        return True


def _emit_leaf(g: Graph, state: _Coloring, family: _Family, stats: dict) -> None:
    stats["leaves"] += 1
    cut = []
    seen = 0
    for v, color in enumerate(state.color):  # color[0] is padding, UNDECIDED
        if color == CUT:
            cut.append(v)
        else:
            seen |= color
    if not (cut and seen == SIDE_A | SIDE_B and family.admit(g, cut)):
        stats["rejected_at_emission"] += 1


def _search_root(g, ball2, root: _Root, node_budget: int, family, stats) -> bool:
    """Depth-first search below one root. Every child of a branching is
    charged to ``stats["nodes"]``, which never passes ``node_budget``;
    True when no child was left unexplored."""
    state = _Coloring(g, ball2, stats)
    for v in root.not_cut:
        state.mask[v] &= _ALL ^ _BIT[CUT]
    for v, c in root.seeds:
        if not state.assign(v, c):
            return True

    def rec() -> bool:
        v = _branch_vertex(state)
        if v is None:
            _emit_leaf(g, state, family, stats)
            return True
        for c in _COLOR_ORDER:
            if not _BIT[c] & state.mask[v]:
                continue
            if stats["nodes"] >= node_budget:
                return False
            stats["nodes"] += 1
            mark = state.mark()
            complete = not state.assign(v, c) or rec()
            state.undo(mark)
            if not complete:
                return False
        return True

    return rec()
