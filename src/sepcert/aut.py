"""Automorphism groups and orbits.

Permutations are tuples of images: ``p[v-1]`` is the image of vertex v.
``automorphism_group`` finds a Sims stabilizer chain: one automorphism per
point of each basic orbit, not one search leaf per group element. The
group keeps that chain, so its order and point stabilizers come from the
transversals; orbit closures only ever need the generators, and the element
list is built only on request. `PairOrbits` takes generators of the
stabilizer of each orbit representative r by Schreier's lemma, from the
generators alone (Seress, *Permutation Group Algorithms*, ch. 4): with
``u_x`` mapping r to x, the elements ``u_{p(x)}^-1 p u_x`` over orbit
points x and generators p generate Stab(r). It labels the orbits on
ordered vertex pairs with them: the representative r of x's orbit and the
least point of the Stab(r)-orbit of u_x^-1(y).

Orbits of vertex sets are closed on sorted-id keys (`vertex_set_key`): a
string holding ``chr(v)`` for each vertex v, in ascending order, so keys
compare as the sorted vertex lists do. Each generator is kept as a
``str.translate`` table, so the image of a set is one ``translate`` and a
sort, and a key hashes and compares faster than a frozenset of ints.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Callable, Iterable, Sequence

from .errors import GroupError
from .graph import Graph, distances, edge_key, union_labels

Permutation = tuple[int, ...]


def identity(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Apply q first, then p."""
    return tuple(p[x - 1] for x in q)


def inverse(p: Permutation) -> Permutation:
    out = [0] * len(p)
    for v, w in enumerate(p, 1):
        out[w - 1] = v
    return tuple(out)


def is_automorphism(g: Graph, p: Permutation) -> bool:
    """Does p map the edge set of g onto itself?"""
    edges = set(g.edges())
    return {edge_key(p[u - 1], p[v - 1]) for u, v in edges} == edges


def cycle_notation(p: Permutation) -> str:
    seen = [False] * len(p)
    out = []
    for v in range(1, len(p) + 1):
        if seen[v - 1] or p[v - 1] == v:
            seen[v - 1] = True
            continue
        cyc = [v]
        w = p[v - 1]
        seen[v - 1] = True
        while w != v:
            cyc.append(w)
            seen[w - 1] = True
            w = p[w - 1]
        out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out) or "()"


@dataclass(frozen=True)
class PermutationGroup:
    """A vertex-permutation group as a stabilizer chain.

    ``transversals[i]`` holds one element for each point of the orbit of
    ``base[i]`` under the pointwise stabilizer of ``base[:i]``, so every
    element is uniquely a product ``u_0 u_1 ... u_k`` with ``u_i`` from
    ``transversals[i]``. Base points with a trivial basic orbit are left out.
    """

    n: int
    generators: tuple[Permutation, ...]
    base: tuple[int, ...]
    transversals: tuple[tuple[Permutation, ...], ...]

    @property
    def order(self) -> int:
        return prod(len(reps) for reps in self.transversals)

    def elements(self) -> tuple[Permutation, ...]:
        """Every element, sorted; there are ``order`` of them."""
        elements = [identity(self.n)]
        for reps in reversed(self.transversals):
            elements = [compose(u, h) for u in reps for h in elements]
        return tuple(sorted(elements))

    def vertex_orbits(self) -> tuple[tuple[int, ...], ...]:
        return orbits_under(self.n, self.generators)

    def orbit_of_vertex(self, v: int) -> tuple[int, ...]:
        for orb in self.vertex_orbits():
            if v in orb:
                return orb
        raise GroupError(f"vertex {v} out of range")

    def stabilizer_order(self, v: int) -> int:
        """How many elements fix v: v is pushed through the transversals
        from the deepest up, counting the products that send it to each
        point, so no element list and no orbit is needed."""
        counts = {v: 1}
        for reps in reversed(self.transversals):
            pushed: dict[int, int] = {}
            for x, k in counts.items():
                for u in reps:
                    pushed[u[x - 1]] = pushed.get(u[x - 1], 0) + k
            counts = pushed
        return counts.get(v, 0)

    @cached_property
    def pair_orbits(self) -> "PairOrbits":
        """`PairOrbits` of the group, computed once."""
        return pair_orbits(self.n, self.generators)

    @cached_property
    def translation_tables(self) -> tuple[str, ...]:
        """Each generator p as a ``str.translate`` table for sorted-id
        keys: the character at position v is ``chr(p(v))``."""
        return tuple("\0" + "".join(map(chr, p)) for p in self.generators)


@dataclass(frozen=True)
class PairOrbits:
    """Orbits of a group on the vertices and on ordered vertex pairs.

    Each vertex x has the least vertex r of its orbit as representative,
    and ``to_rep[x-1]`` maps x to r: the inverse of the transversal element
    u_x, or None when x is r. The orbit of the ordered pair (x, y) is
    labelled by r and the least vertex of the Stab(r)-orbit of u_x^-1(y);
    two pairs share an orbit exactly when they share a label. ``stab[r]``
    gives that least vertex for every vertex, and is missing when Stab(r)
    is trivial. Built from no generators, every vertex and every pair is
    its own orbit."""

    rep: tuple[int, ...]
    to_rep: tuple[Permutation | None, ...]
    stab: dict[int, tuple[int, ...]]

    def reps(self) -> tuple[int, ...]:
        """The representatives, in increasing order."""
        return tuple(x for x, r in enumerate(self.rep, 1) if x == r)

    def to_rep_image(self, x: int, y: int) -> int:
        """u_x^-1(y): the image of y under the element taking x to its
        representative."""
        back = self.to_rep[x - 1]
        return y if back is None else back[y - 1]

    def label(self, x: int, y: int) -> tuple[int, int]:
        r = self.rep[x - 1]
        y = self.to_rep_image(x, y)
        least = self.stab.get(r)
        return r, y if least is None else least[y - 1]


def pair_orbits(n: int, gens: Sequence[Permutation]) -> PairOrbits:
    """`PairOrbits` of the group generated by ``gens`` on 1..n: one
    transversal per vertex orbit, and the Stab(r)-orbits from the Schreier
    generators of each representative r."""
    rep = list(range(1, n + 1))
    to_rep: list[Permutation | None] = [None] * n
    stab: dict[int, tuple[int, ...]] = {}
    if gens:
        for orbit in orbits_under(n, gens):
            r = orbit[0]
            reps = _transversal(n, r, gens)
            back = {x: inverse(u) for x, u in reps.items()}
            for x in orbit:
                rep[x - 1] = r
                if x != r:
                    to_rep[x - 1] = back[x]
            # the Schreier generators u_{p(x)}^-1 p u_x, deduplicated
            schreier = dict.fromkeys(
                compose(back[p[x - 1]], compose(p, u)) for x, u in reps.items() for p in gens
            )
            schreier.pop(identity(n), None)
            if schreier:
                least = orbit_labels(n, tuple(schreier), lambda p, x: p[x] - 1)
                stab[r] = tuple(v + 1 for v in least)
    return PairOrbits(tuple(rep), tuple(to_rep), stab)


def orbits_under(n: int, gens: Sequence[Permutation]) -> tuple[tuple[int, ...], ...]:
    """Orbits of the vertices 1..n under the generators, each sorted,
    in order of least vertex."""
    label = orbit_labels(n, gens, lambda p, x: p[x] - 1)
    buckets: dict[int, list[int]] = {}
    for v in range(1, n + 1):
        buckets.setdefault(label[v - 1], []).append(v)
    return tuple(tuple(b) for _, b in sorted(buckets.items()))


def orbit_labels(
    size: int, gens: Sequence[Permutation], image: Callable[[Permutation, int], int]
) -> list[int]:
    """Orbits of the points 0..size-1 under the generator images
    ``image(p, x)``, each point moved once by each generator, in point
    order: entry x is the least point of x's orbit."""
    return union_labels(size, ((x, image(p, x)) for x in range(size) for p in gens))


def _refinement_signature(g: Graph, colors: Sequence[int]) -> list:
    return [
        (colors[v - 1], tuple(sorted(colors[w - 1] for w in g.neighbors(v))))
        for v in g.vertices()
    ]


def refinement_colors(g: Graph) -> tuple[int, ...]:
    """Stable vertex coloring: iterate degree-within-cell refinement to a
    fixed point. Color ranks are isomorphism-invariant."""
    colors = (0,) * g.n
    while True:
        sig = _refinement_signature(g, colors)
        ranks = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = tuple(ranks[s] for s in sig)
        if new == colors:
            return colors
        colors = new


def _search_order(g: Graph, colors: Sequence[int]) -> list[int]:
    """Visit order for backtracking. Each next vertex maximizes the number of
    already-placed neighbors, so candidate images are pinned down by several
    adjacency constraints at once; ties go to rare colors, then low ids."""
    count: dict[int, int] = {}
    for c in colors:
        count[c] = count.get(c, 0) + 1
    placed = [False] * (g.n + 1)
    placed_nbrs = [0] * (g.n + 1)
    order: list[int] = []
    for _ in range(g.n):
        v = min(
            (v for v in g.vertices() if not placed[v]),
            key=lambda v: (-placed_nbrs[v], count[colors[v - 1]], colors[v - 1], v),
        )
        placed[v] = True
        order.append(v)
        for w in g.neighbors(v):
            placed_nbrs[w] += 1
    return order


def automorphism_group(g: Graph) -> PermutationGroup:
    """Aut(g) as a stabilizer chain, by coset-pruned anchored backtracking.

    ``_search_order`` is both the visit order and the base b_0, b_1, ...:
    each non-root vertex has an already-mapped neighbor (its anchor), so
    candidate images come from the anchor image's neighborhood, and must pull
    their mapped neighborhood back exactly onto the vertex's.

    Levels run from the deepest up to 0. At level i, b_0..b_{i-1} are fixed,
    and each candidate image of b_i outside the orbit of b_i under the
    generators found so far gets one search for its first leaf. A hit is a
    strong generator; a miss exhausts the subtree, proving that no
    automorphism fixing b_0..b_{i-1} maps b_i there. So the generators
    always generate the whole group, and the transversals of the basic
    orbits are the chain that ``PermutationGroup`` keeps.
    """
    n = g.n
    if n == 0:
        return PermutationGroup(0, (), (), ())
    colors = refinement_colors(g)
    order = _search_order(g, colors)
    pos = {v: k for k, v in enumerate(order)}
    earlier = [
        tuple(w for w in g.neighbors(v) if pos[w] < k) for k, v in enumerate(order)
    ]
    by_color: dict[int, list[int]] = {}
    for v in g.vertices():
        by_color.setdefault(colors[v - 1], []).append(v)
    adjset = [frozenset()] + [frozenset(g.neighbors(v)) for v in g.vertices()]

    img = [0] * (n + 1)
    inv = [0] * (n + 1)
    mapped_nbrs = [0] * (n + 1)  # how many mapped neighbors each image vertex has

    def assign(v: int, c: int) -> None:
        img[v] = c
        inv[c] = v
        for x in adjset[c]:
            mapped_nbrs[x] += 1

    def unassign(v: int) -> None:
        c = img[v]
        img[v] = 0
        inv[c] = 0
        for x in adjset[c]:
            mapped_nbrs[x] -= 1

    def candidates(k: int) -> list[int]:
        anchors = earlier[k]
        cv = colors[order[k] - 1]
        pool = adjset[img[anchors[0]]] if anchors else by_color[cv]
        return [
            c for c in sorted(pool)
            if not inv[c] and colors[c - 1] == cv and mapped_nbrs[c] == len(anchors)
            and all(img[w] in adjset[c] for w in anchors)
        ]

    def first_leaf(start: int) -> Permutation | None:
        """Depth-first from level ``start`` with order[:start] mapped; the
        first complete automorphism, or None. An explicit stack of untried
        candidates per level keeps deep searches off the call stack."""
        if start == n:
            return tuple(img[1:])
        stack = [candidates(start)[::-1]]
        while stack:
            v = order[start + len(stack) - 1]
            if img[v]:
                unassign(v)
            if not stack[-1]:
                stack.pop()
                continue
            assign(v, stack[-1].pop())
            if start + len(stack) == n:
                leaf = tuple(img[1:])
                for w in order[start:]:
                    unassign(w)
                return leaf
            stack.append(candidates(start + len(stack))[::-1])
        return None

    gens: list[Permutation] = []
    base: list[int] = []
    transversals: list[tuple[Permutation, ...]] = []
    for v in order:
        assign(v, v)
    for k in reversed(range(n)):
        b = order[k]
        unassign(b)
        reps = _transversal(n, b, gens)
        for c in candidates(k):
            if c in reps:
                continue
            assign(b, c)
            hit = first_leaf(k + 1)
            unassign(b)
            if hit is not None:
                gens.append(hit)
                reps = _transversal(n, b, gens)
        if len(reps) > 1:
            base.append(b)
            transversals.append(tuple(reps.values()))
    return PermutationGroup(n, tuple(gens), tuple(reversed(base)), tuple(reversed(transversals)))


def _transversal(n: int, b: int, gens: Sequence[Permutation]) -> dict[int, Permutation]:
    """For each point c of the orbit of b, a group element mapping b to c."""
    reps = {b: identity(n)}
    queue = [b]
    for x in queue:
        for p in gens:
            y = p[x - 1]
            if y not in reps:
                reps[y] = compose(p, reps[x])
                queue.append(y)
    return reps


def vertex_set_key(s: Iterable[int]) -> str:
    """The sorted-id key of a vertex set: ``chr(v)`` for each vertex v, in
    ascending order."""
    return "".join(map(chr, sorted(s)))


def vertex_set_closure(grp: PermutationGroup, key: str) -> set[str]:
    """Every image of a vertex set under the group, found by search over
    the generators. The set and its images are sorted-id keys."""
    seen = {key}
    queue = [key]
    tables = grp.translation_tables
    for cur in queue:
        for table in tables:
            nxt = "".join(sorted(cur.translate(table)))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def orbit_of_vertex_set(grp: PermutationGroup, s: Iterable[int]) -> tuple[frozenset[int], ...]:
    """Closure of a vertex set under the group, canonically ordered."""
    return tuple(frozenset(map(ord, k)) for k in sorted(vertex_set_closure(grp, vertex_set_key(s))))


def is_distance_transitive(g: Graph, grp: PermutationGroup):
    """True iff for every d, the group is transitive on ordered pairs at
    distance d. Returns (flag, witness): the witness names two unmatched
    pairs when the check fails.

    Orbits on ordered pairs are the `PairOrbits` labels, from the
    generators alone, with no element list. This is transitivity on pairs,
    which is strictly stronger than the counting form of
    distance-regularity.
    """
    orbits = grp.pair_orbits
    table = distances(g)
    pairs_by_d: dict = {}
    for u in g.vertices():
        for v in g.vertices():
            if u == v:
                continue
            pairs_by_d.setdefault(table.get(u, v), []).append((u, v))
    for d in sorted(pairs_by_d, key=str):
        pairs = pairs_by_d[d]
        u0, v0 = pairs[0]
        root = orbits.label(u0, v0)
        for u, v in pairs:
            if orbits.label(u, v) != root:
                return False, {"distance": d, "pair": (u, v), "unreachable_from": (u0, v0)}
    return True, None
