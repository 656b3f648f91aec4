"""Backtracking search for star cutsets: vertex cutsets of a trivalent
graph, 3-separated, with two components, minimal (``cutset.is_star_cutset``).

The star search colors vertices side-A / side-B / cut, growing outward from
a root's seed assignments. Propagation enforces what can be decided
locally: cut vertices pairwise at distance >= 3 (their closed 1-balls are
disjoint), no A-B edge, and every cut vertex's neighborhood meeting both
sides. Connectivity of the sides cannot be decided locally, so candidate
leaves are validated through the cutset predicates before emission; every
reported cutset has passed them.

A neighbor-split goal is searched from one root: v is cut, and its i-th
and j-th neighbors in ascending order go to sides A and B. Enumerating every
star cutset instead roots the search at orbits, two levels deep, and then
closes the validated leaves under the generators of Aut(g), once each
generator is checked to map the edge set onto itself.

The first level follows the orbits of Aut(g) on vertices, in the order of
``vertex_orbits()``. Under orbit i, the least vertex r is cut, every vertex
of orbits 1..i-1 is kept out of the cut, and the least neighbor of r is put
on side A: swapping the sides keeps the cut set, and a cut vertex's
neighbors are never cut. A star cutset C meets some first orbit i, at a
vertex u; an automorphism maps u to r, and the image of C still avoids
orbits 1..i-1.

The second level follows the orbits of the stabilizer Stab(r), with
Schreier generators built from the generators of Aut(g)
(``PermutationGroup.stabilizer_generators``). It takes only the orbits
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

Work is split deterministically: the roots are expanded breadth-first into
a fixed number of decision prefixes, each prefix is searched under its own
share of the node budget, and results merge in prefix order. Searches stop
on node budgets only, so a verdict does not depend on machine speed.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .aut import PermutationGroup, automorphism_group, is_automorphism, orbits_under, vertex_set_closure
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
    cutsets: tuple[Cutset, ...]
    exhausted: bool
    stats: dict


@dataclass(frozen=True)
class _Root:
    """Where one subtree of the search starts: seed assignments, and the
    vertices kept out of the cut."""

    seeds: tuple[tuple[int, int], ...]
    not_cut: tuple[int, ...] = ()
    #: Only ``not_cut[:upto]`` is kept out of the cut, so the roots under
    #: one vertex can share a single ``not_cut`` tuple.
    upto: int | None = None


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
        sides = {SIDE_A: [], SIDE_B: [], UNDECIDED: [], CUT: []}
        for w in self.g.neighbors(u):
            sides[self.color[w]].append(w)
        for s in (SIDE_A, SIDE_B):
            if len(sides[s]) == 3:
                return False
            if len(sides[s]) == 2 and sides[UNDECIDED]:
                third = sides[UNDECIDED][0]
                if not self._restrict(third, _BIT[_OTHER_SIDE[s]], queue):
                    return False
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
    all of them out of it. The roots under r share one ``not_cut``."""
    roots = []
    earlier: list[int] = []
    done: set[int] = set()
    for orbit in grp.vertex_orbits():
        r = orbit[0]
        seeds = ((r, CUT), (g.neighbors(r)[0], SIDE_A))
        subs = [
            sub
            for sub in orbits_under(g.n, grp.stabilizer_generators(r))
            if len(sub) > 1 and sub[0] not in ball2[r] and sub[0] not in done
        ]
        not_cut = tuple(earlier) + tuple(v for sub in subs for v in sub)
        upto = len(earlier)
        for sub in subs:
            roots.append(_Root(seeds + ((sub[0], CUT),), not_cut, upto))
            upto += len(sub)
        roots.append(_Root(seeds, not_cut))
        earlier.extend(orbit)
        done.update(orbit)
    return roots


def _branch_vertex(state: _Coloring) -> int | None:
    g = state.g
    best = None
    for v in g.vertices():
        if state.color[v] != UNDECIDED:
            continue
        if any(state.color[w] != UNDECIDED for w in g.neighbors(v)):
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
    found: list[Cutset] = []
    prefixes, spent, truncated = _expand_prefixes(task, roots, ball2, found, stats, target=64)
    per_budget = max(0, task.node_budget - spent) // max(1, len(prefixes))
    exhausted = not truncated
    for root, decisions in prefixes:
        sub_exhausted = _search_subtree(g, ball2, root, decisions, per_budget, found, stats)
        exhausted = exhausted and sub_exhausted
    stats["subtasks"] = len(prefixes)

    family = {c.elements for c in found}
    if grp is not None:
        family, stats["orbits"] = _close_under(grp, family)
    cutsets = tuple(Cutset.of_vertices(c) for c in sorted(family, key=sorted))
    return SearchResult(cutsets, exhausted, stats)


def _close_under(grp: PermutationGroup, family: set[frozenset[int]]) -> tuple[set[frozenset[int]], int]:
    """Every image of the family under the group; also how many orbits it
    falls into."""
    closed: set[frozenset[int]] = set()
    orbits = 0
    for start in family:
        if start not in closed:
            orbits += 1
            closed |= vertex_set_closure(grp, start)
    return closed, orbits


def _replay(g: Graph, ball2, root: _Root, decisions, stats) -> _Coloring | None:
    state = _Coloring(g, ball2, stats)
    for v in root.not_cut[: root.upto]:
        state.mask[v] &= _ALL ^ _BIT[CUT]
    for v, c in root.seeds + decisions:
        if not state.assign(v, c):
            return None
    return state


def _emit_leaf(g: Graph, state: _Coloring, found: list[Cutset], stats: dict) -> None:
    stats["leaves"] += 1
    cut = []
    seen = 0
    for v, color in enumerate(state.color):  # color[0] is padding, UNDECIDED
        if color == CUT:
            cut.append(v)
        else:
            seen |= color
    if cut and seen == SIDE_A | SIDE_B:
        c = Cutset.of_vertices(cut)
        if is_star_cutset(g, c).ok:
            found.append(c)
            return
    stats["rejected_at_emission"] += 1


def _expand_prefixes(task, roots, ball2, found, stats, target: int):
    """Breadth-first expansion of (root, decisions) prefixes until at least
    `target` live subtrees exist. Depends only on the task. Leaves met along
    the way are emitted here; branching charges the node budget just as the
    depth-first stage does."""
    g = task.graph
    queue: deque[tuple[_Root, tuple[tuple[int, int], ...]]] = deque((r, ()) for r in roots)
    spent = 0
    while queue and len(queue) < target:
        if spent >= task.node_budget:
            return list(queue), spent, True
        root, decisions = queue.popleft()
        state = _replay(g, ball2, root, decisions, stats)
        if state is None:
            continue
        v = _branch_vertex(state)
        if v is None:
            _emit_leaf(g, state, found, stats)
            continue
        for c in _COLOR_ORDER:
            if _BIT[c] & state.mask[v]:
                spent += 1
                stats["nodes"] += 1
                queue.append((root, decisions + ((v, c),)))
    return list(queue), spent, False


def _search_subtree(g, ball2, root, decisions, node_budget, found, stats) -> bool:
    """Depth-first search below one prefix; True when it ran to the end."""
    state = _replay(g, ball2, root, decisions, stats)
    if state is None:
        return True
    budget_left = [node_budget]
    exhausted = [True]

    def rec() -> None:
        v = _branch_vertex(state)
        if v is None:
            _emit_leaf(g, state, found, stats)
            return
        if budget_left[0] <= 0:
            exhausted[0] = False
            return
        for c in _COLOR_ORDER:
            if not _BIT[c] & state.mask[v]:
                continue
            budget_left[0] -= 1
            stats["nodes"] += 1
            mark = state.mark()
            if state.assign(v, c):
                rec()
            state.undo(mark)
            if budget_left[0] <= 0:
                exhausted[0] = False
                return

    rec()
    return exhausted[0]
