"""Backtracking searches for separated cutsets.

The star search colors vertices side-A / side-B / cut, growing outward from
the goal's seed assignments. Propagation enforces what can be decided
locally: cut vertices pairwise at distance >= 3 (their closed 1-balls are
disjoint), no A-B edge, and every cut vertex's neighborhood meeting both
sides. Connectivity of the sides cannot be decided locally, so candidate
leaves are validated through the cutset predicates before emission; every
reported cutset has passed them.

Work is split deterministically: the tree is expanded breadth-first into a
fixed number of decision prefixes, each prefix is searched under its own
share of the node budget, and results merge in prefix order.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cutset import Cutset, NeighborOrdering, is_star_cutset, require_cubic
from .errors import SearchError
from .graph import Graph

UNDECIDED, SIDE_A, SIDE_B, CUT = 0, 1, 2, 3
_BIT = {SIDE_A: 1, SIDE_B: 2, CUT: 4}
_ALL = 7
_COLOR_ORDER = (CUT, SIDE_A, SIDE_B)
_OTHER_SIDE = {SIDE_A: SIDE_B, SIDE_B: SIDE_A}


@dataclass(frozen=True)
class NeighborSplitGoal:
    """Find cutsets through v putting its i-th and j-th neighbors (per the
    task's neighbor ordering) in different components."""

    v: int
    i: int
    j: int


@dataclass(frozen=True)
class PairGoal:
    """Find cutsets putting x and y in different components."""

    x: int
    y: int


@dataclass(frozen=True)
class CoverAllGoal:
    """Enumerate every star cutset of the graph."""


Goal = "NeighborSplitGoal | PairGoal | CoverAllGoal"


@dataclass(frozen=True)
class SearchTask:
    graph: Graph
    goal: object = CoverAllGoal()
    sigma: Fraction | int = 3
    kind: str = "vertex"
    node_budget: int = 10_000_000
    time_budget_s: float | None = 600.0
    ordering: NeighborOrdering | None = None


@dataclass(frozen=True)
class SearchResult:
    cutsets: tuple[Cutset, ...]
    exhausted: bool
    stats: dict


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


def _seed_assignments(task: SearchTask) -> list[tuple[int, int]]:
    g = task.graph
    goal = task.goal
    if isinstance(goal, NeighborSplitGoal):
        ordering = task.ordering or NeighborOrdering.ascending(g)
        ordering.validate_for(g)
        if goal.i == goal.j or not {goal.i, goal.j} <= {1, 2, 3}:
            raise SearchError(f"bad neighbor positions {goal.i},{goal.j}")
        triple = ordering.at(goal.v)
        return [(goal.v, CUT), (triple[goal.i - 1], SIDE_A), (triple[goal.j - 1], SIDE_B)]
    if isinstance(goal, PairGoal):
        if goal.x == goal.y:
            raise SearchError("pair goal needs two distinct vertices")
        return [(goal.x, SIDE_A), (goal.y, SIDE_B)]
    if isinstance(goal, CoverAllGoal):
        return []
    raise SearchError(f"unknown goal {goal!r}")


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
    if task.kind != "vertex":
        raise SearchError("star search applies to vertex cutsets")
    if Fraction(task.sigma) != 3:
        raise SearchError("star cutsets are defined at sigma = 3")
    seeds = _seed_assignments(task)
    for v, _ in seeds:
        if not 1 <= v <= g.n:
            raise SearchError(f"goal vertex {v} not in graph")
    ball2 = _ball2(g)
    deadline = (
        time.monotonic() + task.time_budget_s if task.time_budget_s is not None else None
    )

    stats = _fresh_stats()
    found0: list[Cutset] = []
    prefixes, spent, truncated = _expand_prefixes(
        task, seeds, ball2, found0, stats, deadline, target=64
    )
    per_budget = max(0, task.node_budget - spent) // max(1, len(prefixes))

    outcomes = [_search_subtree(task, seeds, ball2, p, per_budget, deadline) for p in prefixes]

    merged: dict[frozenset[int], Cutset] = {}
    for c in found0:
        merged.setdefault(c.elements, c)
    exhausted = not truncated
    for found, sub_exhausted, sub_stats in outcomes:
        exhausted = exhausted and sub_exhausted
        for k in stats:
            stats[k] += sub_stats[k]
        for c in found:
            merged.setdefault(c.elements, c)
    stats["subtasks"] = len(prefixes)
    cutsets = tuple(sorted(merged.values(), key=Cutset.key))
    return SearchResult(cutsets, exhausted, stats)


def _symmetry_mask(task: SearchTask, state: _Coloring) -> None:
    # enumerating everything: sides are interchangeable, so pin vertex 1
    # to side A or cut
    if isinstance(task.goal, CoverAllGoal) and state.g.n >= 1:
        state.mask[1] &= _ALL ^ _BIT[SIDE_B]


def _replay(task: SearchTask, seeds, ball2, prefix, stats) -> _Coloring | None:
    state = _Coloring(task.graph, ball2, stats)
    _symmetry_mask(task, state)
    for v, c in seeds:
        if not state.assign(v, c):
            return None
    for v, c in prefix:
        if state.color[v] == c:
            continue
        if not state.assign(v, c):
            return None
    return state


def _emit_leaf(g: Graph, state: _Coloring, found: list[Cutset], stats: dict) -> None:
    stats["leaves"] += 1
    cut = frozenset(v for v in g.vertices() if state.color[v] == CUT)
    sides_ok = (
        cut
        and any(state.color[v] == SIDE_A for v in g.vertices())
        and any(state.color[v] == SIDE_B for v in g.vertices())
    )
    if sides_ok:
        c = Cutset.of_vertices(cut)
        if is_star_cutset(g, c).ok:
            found.append(c)
            return
    stats["rejected_at_emission"] += 1


def _expand_prefixes(task, seeds, ball2, found, stats, deadline, target: int):
    """Breadth-first expansion of decision prefixes until at least `target`
    live subtrees exist. Depends only on the task. Leaves met along the way are emitted here; branching charges the node
    budget just as the depth-first stage does."""
    from collections import deque

    g = task.graph
    queue: deque[tuple[tuple[int, int], ...]] = deque([()])
    spent = 0
    while queue and len(queue) < target:
        if spent >= task.node_budget or (
            deadline is not None and time.monotonic() > deadline
        ):
            return list(queue), spent, True
        prefix = queue.popleft()
        state = _replay(task, seeds, ball2, prefix, stats)
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
                queue.append(prefix + ((v, c),))
    return list(queue), spent, False


def _search_subtree(task, seeds, ball2, prefix, node_budget, deadline):
    stats = _fresh_stats()
    found: list[Cutset] = []
    state = _replay(task, seeds, ball2, prefix, stats)
    if state is None:
        return found, True, stats
    g = task.graph
    budget_left = [node_budget]
    exhausted = [True]

    def rec() -> None:
        v = _branch_vertex(state)
        if v is None:
            _emit_leaf(g, state, found, stats)
            return
        if budget_left[0] <= 0 or (
            deadline is not None and time.monotonic() > deadline
        ):
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
            if budget_left[0] <= 0 or (
                deadline is not None and time.monotonic() > deadline
            ):
                exhausted[0] = False
                return

    rec()
    return found, exhausted[0], stats
