"""Automorphism groups, orbits and canonical forms.

Permutations are tuples of images: ``p[v-1]`` is the image of vertex v.
``automorphism_group`` finds a Sims stabilizer chain: one automorphism per
point of each basic orbit, not one search leaf per group element. The
group keeps that chain, so its order and point stabilizers come from the
transversals; orbit closures only ever need the generators, and the element
list is built only on request. ``canonical_form`` prunes its
individualization-refinement tree with the same generators.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Callable, Iterable, Sequence

from .errors import GroupError
from .graph import Graph, distances

Permutation = tuple[int, ...]


def identity(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Apply q first, then p."""
    return tuple(p[x - 1] for x in q)


def apply_to_vertex_set(p: Permutation, s: Iterable[int]) -> frozenset[int]:
    return frozenset(p[v - 1] for v in s)


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
        label = _orbit_labels(self.n, self.generators, lambda p, x: p[x] - 1)
        buckets: dict[int, list[int]] = {}
        for v in range(1, self.n + 1):
            buckets.setdefault(label[v - 1], []).append(v)
        return tuple(tuple(b) for _, b in sorted(buckets.items()))

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


def _orbit_labels(
    size: int, gens: Iterable[Permutation], image: Callable[[Permutation, int], int]
) -> list[int]:
    """Orbits of the points 0..size-1 by union-find over the generator images
    ``image(p, x)``: entry x is the least point of x's orbit."""
    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in gens:
        for x in range(size):
            a, b = find(x), find(image(p, x))
            if a != b:
                parent[max(a, b)] = min(a, b)
    return [find(x) for x in range(size)]


def _refinement_signature(g: Graph, colors: Sequence[int]) -> list:
    return [
        (colors[v - 1], tuple(sorted(colors[w - 1] for w in g.neighbors(v))))
        for v in g.vertices()
    ]


def refinement_colors(g: Graph, seed: Sequence[int] | None = None) -> tuple[int, ...]:
    """Stable vertex coloring: iterate degree-within-cell refinement to a
    fixed point. Color ranks are isomorphism-invariant."""
    colors = tuple(seed) if seed is not None else (0,) * g.n
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


def orbit_of_vertex_set(grp: PermutationGroup, s: Iterable[int]) -> tuple[frozenset[int], ...]:
    """Closure of a vertex set under the group, canonically ordered."""
    start = frozenset(s)
    seen = {start}
    queue = [start]
    while queue:
        cur = queue.pop()
        for p in grp.generators:
            nxt = apply_to_vertex_set(p, cur)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return tuple(sorted(seen, key=sorted))


def is_distance_transitive(g: Graph, grp: PermutationGroup):
    """True iff for every d, the group is transitive on ordered pairs at
    distance d. Returns (flag, witness): the witness names two unmatched
    pairs when the check fails.

    Orbits on ordered pairs come from the generators alone, with no
    element list. This is transitivity on pairs, which is strictly
    stronger than the counting form of distance-regularity.
    """
    n = g.n
    label = _orbit_labels(n * n, grp.generators, lambda p, x: (p[x // n] - 1) * n + p[x % n] - 1)
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
        root = label[(u0 - 1) * n + v0 - 1]
        for u, v in pairs:
            if label[(u - 1) * n + v - 1] != root:
                return False, {"distance": d, "pair": (u, v), "unreachable_from": (u0, v0)}
    return True, None


@dataclass(frozen=True)
class CanonicalForm:
    labeling: tuple[int, ...]  # labeling[v-1] = canonical position of v (1-based)
    certificate: str


class _Best:
    __slots__ = ("trace", "cert", "labeling")

    def __init__(self):
        self.trace = None
        self.cert = None
        self.labeling = None


def canonical_form(g: Graph) -> CanonicalForm:
    """Canonical labeling by individualization-refinement.

    The search minimizes (node-invariant trace, adjacency encoding) over all
    refinement leaves. At each node, only one cell vertex per orbit of the
    generators of Aut(g) that fix the individualized vertices is tried:
    those generators map the node to itself, so siblings in one orbit root
    isomorphic subtrees. Certificates of two graphs are equal iff the graphs
    are isomorphic.
    """
    n = g.n
    if n == 0:
        return CanonicalForm((), "n=0;m=0;")

    def node_key(colors: tuple[int, ...]):
        sizes: dict[int, int] = {}
        for c in colors:
            sizes[c] = sizes.get(c, 0) + 1
        epairs: dict[tuple[int, int], int] = {}
        for u, v in g.edges():
            cu, cv = colors[u - 1], colors[v - 1]
            key = (cu, cv) if cu <= cv else (cv, cu)
            epairs[key] = epairs.get(key, 0) + 1
        return (
            tuple(sizes[c] for c in sorted(sizes)),
            tuple(sorted(epairs.items())),
        )

    def individualize(colors: tuple[int, ...], c: int) -> tuple[int, ...]:
        seed = tuple(
            (colors[v - 1], 0 if v == c else 1) for v in g.vertices()
        )
        ranks = {s: i for i, s in enumerate(sorted(set(seed)))}
        return refinement_colors(g, tuple(ranks[s] for s in seed))

    def leaf_cert(colors: tuple[int, ...]) -> tuple[str, tuple[int, ...]]:
        lab = tuple(c + 1 for c in colors)
        edges = sorted(
            (min(lab[u - 1], lab[v - 1]), max(lab[u - 1], lab[v - 1]))
            for u, v in g.edges()
        )
        body = ",".join(f"{a}-{b}" for a, b in edges)
        return f"n={n};m={g.m};{body}", lab

    best = _Best()
    gens = automorphism_group(g).generators

    def rec(colors: tuple[int, ...], depth: int, trace: tuple, base: tuple[int, ...]) -> None:
        key = node_key(colors)
        trace = trace + (key,)
        if best.cert is not None:
            bt = best.trace
            if depth >= len(bt):
                return
            if key < bt[depth]:
                best.trace = best.cert = best.labeling = None
            elif key > bt[depth]:
                return
        cells: dict[int, list[int]] = {}
        for v in g.vertices():
            cells.setdefault(colors[v - 1], []).append(v)
        if len(cells) == n:
            cert, lab = leaf_cert(colors)
            if best.cert is None or trace < best.trace or (
                trace == best.trace and cert < best.cert
            ):
                best.trace, best.cert, best.labeling = trace, cert, lab
            return
        ordered = sorted(cells.items())
        size = max(len(cell) for _, cell in ordered if len(cell) > 1)
        target = next(cell for _, cell in ordered if len(cell) == size)
        fixing = [p for p in gens if all(p[b - 1] == b for b in base)]
        label = _orbit_labels(n, fixing, lambda p, x: p[x] - 1)
        tried: set[int] = set()
        for c in target:
            if label[c - 1] in tried:
                continue
            tried.add(label[c - 1])
            rec(individualize(colors, c), depth + 1, trace, base + (c,))

    rec(refinement_colors(g), 0, (), ())
    return CanonicalForm(best.labeling, best.cert)


def canonical_certificate(g: Graph) -> str:
    return canonical_form(g).certificate
