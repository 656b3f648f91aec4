"""Automorphism groups and orbits.

Permutations are tuples of images: ``p[v-1]`` is the image of vertex v.
A `PermutationGroup` is a stabilizer chain that Schreier–Sims has checked
complete (Seress, *Permutation Group Algorithms*, ch. 4): one element per
point of each basic orbit, not one per group element. Order, point
stabilizers and orbits of vertex sets come from the transversals; the
element list is built only on request. `PairOrbits` reads the same chain:
re-based when needed so that its first base point is an orbit
representative r, the level-0 transversal maps r to each point of its
orbit, and the transversal elements of the levels below generate Stab(r),
whose orbits label the ordered vertex pairs.

Orbits of vertex sets are closed on sorted-id keys (`cutset.vertex_set_key`):
a string holding ``chr(v)`` for each vertex v, in ascending order, so keys
compare as the sorted vertex lists do. The inverse of each transversal
element is kept as a ``str.translate`` table, so the image of a set is one
``translate`` and a sort, and a key hashes and compares faster than a
frozenset of ints.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Iterable, Sequence

from .cutset import vertex_set_key
from .errors import GroupError
from .graph import Graph, distances, edge_key, union_labels

Permutation = tuple[int, ...]


def identity(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Apply q first, then p."""
    return tuple([p[x - 1] for x in q])


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
    ``transversals[i]``, whose first element is the identity. Base points
    with a trivial basic orbit are left out. `generated_by` builds it.
    """

    n: int
    generators: tuple[Permutation, ...]
    base: tuple[int, ...]
    transversals: tuple[tuple[Permutation, ...], ...]

    @classmethod
    def generated_by(cls, n: int, gens: Sequence[Permutation], base: Sequence[int] = ()) -> PermutationGroup:
        """The group on 1..n generated by ``gens``, by deterministic
        Schreier–Sims from ``base``. Level i's transversal is the orbit of
        ``base[i]`` under the strong generators that fix ``base[:i]``.
        Levels are checked from the deepest up: every Schreier generator
        u_{s(x)}^-1 s u_x of a level is sifted through the levels below,
        and a non-identity residue becomes a strong generator (with a new
        base point, its least moved point, if it fixes every base point so
        far); the levels it joins are rebuilt and checked again. The
        residues only feed the transversals: ``generators`` stays ``gens``.
        """
        one = identity(n)
        strong = [p for p in gens if p != one]
        base = list(base)

        def extend_base(p: Permutation) -> None:
            if all(p[b - 1] == b for b in base):
                base.append(next(x for x, y in enumerate(p, 1) if x != y))

        def level(k: int) -> tuple[list[Permutation], dict[int, Permutation], dict[int, Permutation]]:
            fixing = [p for p in strong if all(p[b - 1] == b for b in base[:k])]
            reps = _transversal(n, base[k], fixing)
            return fixing, reps, {x: inverse(u) for x, u in reps.items()}

        def residue(i: int) -> tuple[Permutation, int] | None:
            """The first Schreier generator of level i that does not sift
            to the identity, and the level where its sift stopped."""
            fixing, reps, backs = levels[i]
            for u in reps.values():
                for s in fixing:
                    back = backs[s[u[base[i] - 1] - 1]]
                    h = tuple([back[s[x - 1] - 1] for x in u])  # u_{s(x)}^-1 s u_x in one pass
                    for k in range(i + 1, len(base)):
                        x = h[base[k] - 1]
                        if x != base[k]:
                            if x not in levels[k][2]:
                                return h, k
                            h = compose(levels[k][2][x], h)
                    if h != one:
                        return h, len(base)
            return None

        for p in strong:
            extend_base(p)
        levels = [level(k) for k in range(len(base))]
        i = len(base) - 1
        while i >= 0:
            found = residue(i)
            if found is None:
                i -= 1
                continue
            h, j = found
            strong.append(h)
            extend_base(h)
            levels[i + 1:j + 1] = [level(k) for k in range(i + 1, j + 1)]
            i = j
        kept = [(b, tuple(reps.values())) for b, (_, reps, _) in zip(base, levels) if len(reps) > 1]
        return cls(n, tuple(gens), tuple(b for b, _ in kept), tuple(reps for _, reps in kept))

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
        """Orbits of the vertices, each sorted, in order of least vertex."""
        return self._vertex_orbits

    @cached_property
    def _vertex_orbits(self) -> tuple[tuple[int, ...], ...]:
        orbits: dict[int, list[int]] = {}
        for v, r in enumerate(_least_points(self.n, self.generators), 1):
            orbits.setdefault(r, []).append(v)
        return tuple(map(tuple, orbits.values()))

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
        """`PairOrbits` of the group. Each orbit representative r that is
        not fixed is read from a chain with first base point r: this one,
        or the one `generated_by` builds on the base (r,). The levels below
        r generate Stab(r)."""
        n = self.n
        rep = list(range(1, n + 1))
        to_rep: list[Permutation | None] = [None] * n
        stab: dict[int, tuple[int, ...]] = {}
        for orbit in self.vertex_orbits():
            r = orbit[0]
            below = self.transversals
            if len(orbit) > 1:
                chain = self if self.base[0] == r else PermutationGroup.generated_by(n, self.generators, (r,))
                below = chain.transversals[1:]
                for u, back in zip(chain.transversals[0][1:], chain.inverses[0][1:]):
                    rep[u[r - 1] - 1], to_rep[u[r - 1] - 1] = r, back
            if below:
                stab[r] = tuple(_least_points(n, [u for reps in below for u in reps[1:]]))
        return PairOrbits(tuple(rep), tuple(to_rep), stab)

    @cached_property
    def inverses(self) -> tuple[tuple[Permutation, ...], ...]:
        """The inverse of each transversal element, level by level."""
        return tuple(tuple(map(inverse, reps)) for reps in self.transversals)

    @cached_property
    def inverse_tables(self) -> tuple[tuple[str, ...], ...]:
        """The inverse of each transversal element but the identity, level
        by level, as a ``str.translate`` table for sorted-id keys: the
        character at position v is ``chr(p^-1(v))``."""
        return tuple(tuple("\0" + "".join(map(chr, p)) for p in backs[1:]) for backs in self.inverses)


@dataclass(frozen=True)
class PairOrbits:
    """Orbits of a group on the vertices and on ordered vertex pairs.

    Each vertex x has the least vertex r of its orbit as representative,
    and ``to_rep[x-1]`` maps x to r: the inverse of the transversal element
    u_x, or None when x is r. The orbit of the ordered pair (x, y) is
    labelled by r and the least vertex of the Stab(r)-orbit of u_x^-1(y);
    two pairs share an orbit exactly when they share a label. ``stab[r]``
    gives that least vertex for every vertex, and is missing when Stab(r)
    is trivial. Under the trivial group every vertex and every pair is its
    own orbit."""

    rep: tuple[int, ...]
    to_rep: tuple[Permutation | None, ...]
    stab: dict[int, tuple[int, ...]]

    def reps(self) -> tuple[int, ...]:
        """The representatives, in increasing order."""
        return tuple(x for x, r in enumerate(self.rep, 1) if x == r)

    def label(self, x: int, y: int) -> tuple[int, int]:
        """The label of the orbit of (x, y), itself a pair of that orbit."""
        r, back = self.rep[x - 1], self.to_rep[x - 1]
        if back is not None:
            y = back[y - 1]
        least = self.stab.get(r)
        return r, y if least is None else least[y - 1]


def _least_points(n: int, perms: Sequence[Permutation]) -> list[int]:
    """Entry v - 1 is the least point of v's orbit under the permutations."""
    return [x + 1 for x in union_labels(n, ((x, p[x] - 1) for p in perms for x in range(n)))]


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
    always generate the whole group, and the basic orbits are those of
    the chain: `PermutationGroup.generated_by` on the search's base rebuilds
    the transversals from the generators, and its sift only verifies them.
    """
    n = g.n
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
    return PermutationGroup.generated_by(n, gens, base[::-1])


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


def vertex_set_closure(grp: PermutationGroup, key: str) -> set[str]:
    """Every image of a vertex set under the group, as sorted-id keys.
    Every element is one product u_0 u_1 ... u_k of transversal elements,
    so its inverse is u_k^-1 ... u_0^-1, and the orbit of a key under
    G^(i), the stabilizer of the first i base points, is the union of the
    G^(j+1)-orbits of the key and of its images under level j's inverse
    transversal, for j from the deepest level up to i. The closure walks
    that depth first: a walk moves its key by those levels, deepest first,
    and finishes a walk from each new image of level j, which starts at
    level j + 1, before it builds the next image. Whenever level j moves a
    key, the set is a union of G^(j+1)-orbits: it was one without the key
    when the key was found (empty for the first), and since then the key's
    walk has added its G^(j+1)-orbit and one for each new image of level
    j. So an image already in the set is not walked from. Each walk under
    way starts deeper than the one that found it: at most base length + 1
    are under way. No key is moved by an element outside the chain."""
    levels = grp.inverse_tables
    keys = {key}

    def images(k: str, i: int):
        for j in range(len(levels) - 1, i - 1, -1):
            for t in levels[j]:
                yield "".join(sorted(k.translate(t))), j + 1

    stack = [images(key, 0)]
    while stack:
        for image, i in stack[-1]:
            if image not in keys:
                keys.add(image)
                stack.append(images(image, i))
                break
        else:
            stack.pop()
    return keys


def orbit_of_vertex_set(grp: PermutationGroup, s: Iterable[int]) -> tuple[frozenset[int], ...]:
    """Closure of a vertex set under the group, canonically ordered."""
    return tuple(frozenset(map(ord, k)) for k in sorted(vertex_set_closure(grp, vertex_set_key(s))))


def is_distance_transitive(g: Graph, grp: PermutationGroup):
    """True iff for every d, the group is transitive on ordered pairs at
    distance d. Returns (flag, witness): the witness names two unmatched
    pairs when the check fails.

    Orbits on ordered pairs are the `PairOrbits` labels, read from the
    stabilizer chain, with no element list. This is transitivity on pairs,
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
