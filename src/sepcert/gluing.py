"""Equatable partitions along glued edges and the weight-balance equations.

A structure is a finite quotient picture of a complex whose links are all
drawn from a fixed list: each `LinkInstance` is one link with its family of
(cutset, partition) pairs, and each `EdgeGerm` identifies an element of one
link with an element of another, together with a bijection of the local
directions around them. A weight assignment gives every pair a strictly
positive integer; it verifies when equivalence-class sums balance across
every germ and across the elements of every cutset, and (when link
automorphism groups are supplied) when weights are constant on orbits.

The solver works per orbit with exact rationals: all-ones first, then the
nullspace of the balance system, then a bounded positive-combination scan,
and finally Fourier-Motzkin elimination of the positivity constraints, which
either constructs a rational positive point or certifies none exists.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .aut import Permutation, PermutationGroup, _orbit_labels
from .cutset import (
    Cutset,
    CutsetPartition,
    Partition,
    complement_labels,
    components_of_complement,
    is_sigma_separated,
    point_node,
)
from .errors import GluingError
from .graph import Graph, Metric, edge_key
from .report import Certificate


def directions_at(g: Graph, kind: str, x) -> tuple[int, ...]:
    """Local directions around a link element: the neighbors of a link
    vertex, or the two endpoints of a link edge."""
    if kind == "vertex":
        if not (isinstance(x, int) and 1 <= x <= g.n):
            raise GluingError(f"link vertex {x!r} not in graph")
        return g.neighbors(x)
    e = edge_key(*x)
    if e not in set(g.edges()):
        raise GluingError(f"link edge {e} not in graph")
    return e


@dataclass(frozen=True)
class LinkInstance:
    """One link with its family of separated cutsets and chosen partitions."""

    name: str
    graph: Graph
    metric: Metric
    sigma: Fraction
    pairs: tuple[CutsetPartition, ...]

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        object.__setattr__(self, "sigma", Fraction(self.sigma))
        if not self.name:
            raise GluingError("link instance needs a name")
        self.metric.validate_for(self.graph)
        kinds = {cp.cutset.kind for cp in self.pairs}
        if len(kinds) > 1:
            raise GluingError(f"mixed cutset kinds in link {self.name!r}: {sorted(kinds)}")
        for cp in self.pairs:
            cp.validate_for(self.graph)
            if len(cp.cutset) < 2:
                raise GluingError(
                    f"cutset {cp.cutset.sorted_elements()} in link {self.name!r} "
                    "has fewer than two elements"
                )
            sep = is_sigma_separated(self.graph, self.metric, cp.cutset, self.sigma)
            if not sep.ok:
                raise GluingError(
                    f"cutset {cp.cutset.sorted_elements()} in link {self.name!r} "
                    f"is not {self.sigma}-separated: {sep.witness}"
                )

    @property
    def kind(self) -> str:
        return self.pairs[0].cutset.kind if self.pairs else "vertex"

    def pairs_at(self, x) -> tuple[CutsetPartition, ...]:
        """The pairs whose cutset contains the element x."""
        if self.kind == "edge" and isinstance(x, tuple):
            x = edge_key(*x)
        return tuple(cp for cp in self.pairs if x in cp.cutset)


def pair_key(cp: CutsetPartition) -> tuple:
    return (cp.cutset.key(), cp.partition.key())


def induced_star_partition(li: LinkInstance, cp: CutsetPartition, x) -> frozenset:
    """Partition of the directions at x induced by cp's block structure:
    each direction joins the block of the component it enters."""
    kind = cp.cutset.kind
    if kind == "edge" and isinstance(x, tuple):
        x = edge_key(*x)
    if x not in cp.cutset:
        raise GluingError(f"element {x!r} is not in the cutset")
    labels, _ = complement_labels(li.graph, cp.cutset)
    blocks: dict[int, set[int]] = {}
    for d in directions_at(li.graph, kind, x):
        if kind == "vertex" and d in cp.cutset:
            raise GluingError(
                f"direction from {x} toward {d} enters no component: "
                "both are cut elements"
            )
        label = labels[d - 1]
        blocks.setdefault(cp.partition.block_of(label), set()).add(d)
    return frozenset(frozenset(b) for b in blocks.values())


@dataclass(frozen=True)
class EdgeGerm:
    """Identification of an element of one link with an element of another,
    with a bijection of the directions around them."""

    start: LinkInstance
    element_a: object
    end: LinkInstance
    element_b: object
    bijection: tuple[tuple[int, int], ...]

    def __post_init__(self):
        ea = self._norm(self.start, self.element_a)
        eb = self._norm(self.end, self.element_b)
        object.__setattr__(self, "element_a", ea)
        object.__setattr__(self, "element_b", eb)
        bij = tuple(sorted((int(a), int(b)) for a, b in dict(self.bijection).items()))
        object.__setattr__(self, "bijection", bij)
        da = directions_at(self.start.graph, self.start.kind, ea)
        db = directions_at(self.end.graph, self.end.kind, eb)
        if {a for a, _ in bij} != set(da) or {b for _, b in bij} != set(db):
            raise GluingError(
                f"germ bijection domain/range mismatch at {ea!r} -> {eb!r}: "
                f"{bij} vs directions {da} -> {db}"
            )
        if len({b for _, b in bij}) != len(bij):
            raise GluingError("germ bijection is not injective")

    @staticmethod
    def _norm(li: LinkInstance, x):
        return edge_key(*x) if (li.kind == "edge" and isinstance(x, tuple)) else x

    @classmethod
    def identity(cls, start: LinkInstance, end: LinkInstance, element) -> "EdgeGerm":
        ea = cls._norm(start, element)
        dirs = directions_at(start.graph, start.kind, ea)
        return cls(start, ea, end, ea, tuple((d, d) for d in dirs))

    def forward(self, parts: frozenset) -> frozenset:
        m = dict(self.bijection)
        return frozenset(frozenset(m[d] for d in blk) for blk in parts)

    def reversed(self) -> "EdgeGerm":
        return EdgeGerm(
            self.end,
            self.element_b,
            self.start,
            self.element_a,
            tuple((b, a) for a, b in self.bijection),
        )


def equatable_along(germ: EdgeGerm, a: CutsetPartition, b: CutsetPartition) -> bool:
    """Do a (at the germ's start element) and b (at its end element) induce
    matching direction partitions under the germ bijection?"""
    pa = induced_star_partition(germ.start, a, germ.element_a)
    pb = induced_star_partition(germ.end, b, germ.element_b)
    return germ.forward(pa) == pb


def equivalence_classes(li: LinkInstance, x) -> tuple[tuple[CutsetPartition, ...], ...]:
    """Group the pairs whose cutset contains x by their induced direction
    partition at x, deterministically ordered."""
    groups: dict[frozenset, list[CutsetPartition]] = {}
    for cp in sorted(li.pairs_at(x), key=pair_key):
        groups.setdefault(induced_star_partition(li, cp, x), []).append(cp)
    return tuple(
        tuple(members)
        for members in sorted(groups.values(), key=lambda ms: pair_key(ms[0]))
    )


@dataclass(frozen=True)
class GluingStructure:
    instances: tuple[LinkInstance, ...]
    germs: tuple[EdgeGerm, ...]
    groups: tuple[PermutationGroup | None, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "instances", tuple(self.instances))
        object.__setattr__(self, "germs", tuple(self.germs))
        names = [li.name for li in self.instances]
        if len(set(names)) != len(names):
            raise GluingError(f"duplicate link instance names: {names}")
        by_id = {id(li) for li in self.instances}
        for germ in self.germs:
            if id(germ.start) not in by_id or id(germ.end) not in by_id:
                raise GluingError("germ references a link not in the structure")
        if self.groups is not None:
            object.__setattr__(self, "groups", tuple(self.groups))
            if len(self.groups) != len(self.instances):
                raise GluingError("one group (or None) per link instance required")
            for li, grp in zip(self.instances, self.groups):
                if grp is not None and grp.n != li.graph.n:
                    raise GluingError(f"group degree {grp.n} != |{li.name}| = {li.graph.n}")

    @classmethod
    def homogeneous(
        cls, li: LinkInstance, group: PermutationGroup | None = None
    ) -> "GluingStructure":
        """Self-gluing of one link along every element with identity germs:
        the fully symmetric quotient of a complex all of whose links look
        alike."""
        elements = li.graph.vertices() if li.kind == "vertex" else li.graph.edges()
        germs = tuple(EdgeGerm.identity(li, li, x) for x in elements)
        return cls((li,), germs, (group,) if group is not None else None)

    def group_of(self, li: LinkInstance) -> PermutationGroup | None:
        if self.groups is None:
            return None
        return self.groups[self.instances.index(li)]


def act_on_pair(g: Graph, perm: Permutation, cp: CutsetPartition) -> CutsetPartition:
    """Image of a (cutset, partition) pair under a graph automorphism; the
    partition's component indices are rebased to the image components."""
    c = cp.cutset
    if c.kind == "vertex":
        c2 = Cutset.of_vertices(perm[v - 1] for v in c.elements)
    else:
        c2 = Cutset.of_edges(edge_key(perm[u - 1], perm[v - 1]) for u, v in c.elements)
    comps1 = components_of_complement(g, c)
    labels2, _ = complement_labels(g, c2)
    image_label = []
    for comp in comps1:
        rep = comp[0]
        if isinstance(rep, int):
            image_label.append(labels2[perm[rep - 1] - 1])
        else:  # a free arc: locate its image edge's midpoint label
            e2 = edge_key(perm[rep[0] - 1], perm[rep[1] - 1])
            image_label.append(labels2[point_node(g, e2) - 1])
    blocks = tuple(
        sorted(
            (frozenset(image_label[i] for i in blk) for blk in cp.partition.blocks),
            key=sorted,
        )
    )
    return CutsetPartition(c2, Partition(blocks))


@dataclass(frozen=True)
class WeightAssignment:
    """Strictly positive integer weight for every pair of every link."""

    weights: Mapping[tuple[str, tuple], int]

    def __post_init__(self):
        object.__setattr__(self, "weights", dict(self.weights))

    @classmethod
    def all_ones(cls, structure: GluingStructure) -> "WeightAssignment":
        return cls(
            {(li.name, pair_key(cp)): 1 for li in structure.instances for cp in li.pairs}
        )

    def get(self, li: LinkInstance, cp: CutsetPartition) -> int:
        try:
            return self.weights[(li.name, pair_key(cp))]
        except KeyError:
            raise GluingError(
                f"no weight for cutset {cp.cutset.sorted_elements()} in link {li.name!r}"
            ) from None


def _class_sums(li: LinkInstance, x, w: WeightAssignment) -> dict[frozenset, int]:
    sums: dict[frozenset, int] = {}
    for cp in li.pairs_at(x):
        key = induced_star_partition(li, cp, x)
        sums[key] = sums.get(key, 0) + w.get(li, cp)
    return sums


def class_weight(
    li: LinkInstance, w: WeightAssignment, cp: CutsetPartition, x=None
) -> int:
    """Sum of weights over the equivalence class of cp at an element of its
    cutset (any element gives the same value once verify_gluing has passed)."""
    if x is None:
        x = cp.cutset.sorted_elements()[0]
    elif li.kind == "edge" and isinstance(x, tuple):
        x = edge_key(*x)
    if x not in cp.cutset:
        raise GluingError(f"element {x!r} is not in the cutset")
    return _class_sums(li, x, w)[induced_star_partition(li, cp, x)]


def orbits_of_pairs(
    li: LinkInstance, grp: PermutationGroup | None
) -> tuple[tuple[CutsetPartition, ...], ...]:
    """Orbits of the instance's pairs under a link automorphism group
    (singletons when no group is given), deterministically ordered."""
    if grp is None:
        return tuple((cp,) for cp in sorted(li.pairs, key=pair_key))
    index = {pair_key(cp): i for i, cp in enumerate(li.pairs)}

    def image(gen, i: int) -> int:
        img = act_on_pair(li.graph, gen, li.pairs[i])
        k = pair_key(img)
        if k not in index:
            raise GluingError(
                f"family of link {li.name!r} is not closed under its group: "
                f"image {img.cutset.sorted_elements()} missing"
            )
        return index[k]

    label = _orbit_labels(len(li.pairs), grp.generators, image)
    buckets: dict[int, list[CutsetPartition]] = {}
    for i, cp in enumerate(li.pairs):
        buckets.setdefault(label[i], []).append(cp)
    orbits = [tuple(sorted(ms, key=pair_key)) for ms in buckets.values()]
    return tuple(sorted(orbits, key=lambda ms: pair_key(ms[0])))


def verify_gluing(structure: GluingStructure, w: WeightAssignment) -> Certificate:
    """Check a weight assignment exactly: positivity, orbit-constancy when
    groups are supplied, class-sum balance across every germ in both
    directions, and class-sum balance across the elements of every cutset."""
    cert = Certificate("gluing")
    bad_positive = [
        (li.name, pair_key(cp), w.get(li, cp))
        for li in structure.instances
        for cp in li.pairs
        if not (isinstance(w.get(li, cp), int) and w.get(li, cp) >= 1)
    ]
    cert.add(
        "weights-positive",
        not bad_positive,
        {"pairs": sum(len(li.pairs) for li in structure.instances), "violations": bad_positive[:8]},
    )

    if structure.groups is not None and any(g is not None for g in structure.groups):
        bad_orbit = []
        orbit_count = 0
        for li, grp in zip(structure.instances, structure.groups):
            for orbit in orbits_of_pairs(li, grp):
                orbit_count += 1
                vals = {w.get(li, cp) for cp in orbit}
                if len(vals) > 1:
                    bad_orbit.append((li.name, pair_key(orbit[0]), sorted(vals)))
        cert.add(
            "weights-invariant",
            not bad_orbit,
            {"orbits": orbit_count, "violations": bad_orbit[:8]},
        )

    edge_eqs = 0
    edge_bad = []
    for gi, germ in enumerate(structure.germs):
        for direction, (src, dst) in enumerate(
            ((germ, germ.reversed()), (germ.reversed(), germ))
        ):
            sums_here = _class_sums(src.start, src.element_a, w)
            sums_there = _class_sums(src.end, src.element_b, w)
            for key, lhs in sorted(sums_here.items(), key=lambda kv: sorted(map(sorted, kv[0]))):
                edge_eqs += 1
                rhs = sums_there.get(src.forward(key), 0)
                if lhs != rhs:
                    edge_bad.append(
                        {
                            "germ": gi,
                            "reversed": bool(direction),
                            "class": tuple(sorted(map(sorted, key))),
                            "lhs": lhs,
                            "rhs": rhs,
                        }
                    )
    cert.add("edge-balance", not edge_bad, {"equations": edge_eqs, "violations": edge_bad[:8]})

    cross_eqs = 0
    cross_bad = []
    for li in structure.instances:
        sums_at: dict = {}
        for cp in li.pairs:
            elems = cp.cutset.sorted_elements()
            first = None
            for x in elems:
                if x not in sums_at:
                    sums_at[x] = _class_sums(li, x, w)
                val = sums_at[x][induced_star_partition(li, cp, x)]
                if first is None:
                    first = (x, val)
                else:
                    cross_eqs += 1
                    if val != first[1]:
                        cross_bad.append(
                            {
                                "link": li.name,
                                "cutset": cp.cutset.sorted_elements(),
                                "elements": (first[0], x),
                                "sums": (first[1], val),
                            }
                        )
    cert.add(
        "cross-edge-balance", not cross_bad, {"equations": cross_eqs, "violations": cross_bad[:8]}
    )
    return cert


@dataclass(frozen=True)
class GluingInfeasible:
    """No strictly positive rational solution exists; carries the reduced
    equation system over orbit unknowns."""

    equations: tuple[str, ...]
    detail: str


def _rref(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    rows = [r[:] for r in rows]
    lead = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(lead, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[lead], rows[pivot] = rows[pivot], rows[lead]
        rows[lead] = [x / rows[lead][col] for x in rows[lead]]
        for i, r in enumerate(rows):
            if i != lead and r[col] != 0:
                f = r[col]
                rows[i] = [a - f * b for a, b in zip(r, rows[lead])]
        lead += 1
        if lead == len(rows):
            break
    return [r for r in rows if any(x != 0 for x in r)]


def _nullspace(rows: list[list[Fraction]], k: int) -> list[list[Fraction]]:
    red = _rref(rows)
    pivots = {}
    for r in red:
        col = next(i for i, x in enumerate(r) if x != 0)
        pivots[col] = r
    free = [c for c in range(k) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * k
        vec[f] = Fraction(1)
        for col, row in pivots.items():
            vec[col] = -row[f]
        basis.append(vec)
    return basis


def _fourier_motzkin(ineqs: list[list[Fraction]]) -> list[Fraction] | None:
    """Solve {row . lam > 0} by elimination; a satisfying rational point, or
    None when infeasible. Rows have one coefficient per parameter."""
    k = len(ineqs[0]) - 0 if ineqs else 0
    stages: list[tuple[int, list[list[Fraction]]]] = []
    current = [r[:] for r in ineqs]
    for var in range(k - 1, -1, -1):
        lowers = [r for r in current if r[var] > 0]
        uppers = [r for r in current if r[var] < 0]
        rest = [r for r in current if r[var] == 0]
        stages.append((var, lowers + uppers))
        combined = rest
        for lo in lowers:
            for up in uppers:
                row = [lo[j] * (-up[var]) + up[j] * lo[var] for j in range(k)]
                row[var] = Fraction(0)
                combined.append(row)
        current = combined
    if current:  # fully eliminated rows all read "0 > 0"
        return None
    point = [Fraction(0)] * k
    for var, rows in reversed(stages):
        lo_bound: Fraction | None = None
        hi_bound: Fraction | None = None
        for r in rows:
            rest = sum(r[j] * point[j] for j in range(k) if j != var)
            bound = -rest / r[var]
            if r[var] > 0:
                lo_bound = bound if lo_bound is None else max(lo_bound, bound)
            else:
                hi_bound = bound if hi_bound is None else min(hi_bound, bound)
        if lo_bound is None and hi_bound is None:
            point[var] = Fraction(1)
        elif hi_bound is None:
            point[var] = lo_bound + 1
        elif lo_bound is None:
            point[var] = hi_bound - 1
        else:
            if lo_bound >= hi_bound:
                return None
            point[var] = (lo_bound + hi_bound) / 2
    return point


def _balance_equations(structure: GluingStructure, var_of) -> list[tuple[int, ...]]:
    """Coefficient rows (over orbit unknowns) of every germ-balance and
    cross-element equation, deduplicated and sign-normalized."""

    def class_vector(li: LinkInstance, x) -> dict[frozenset, list[int]]:
        out: dict[frozenset, list[int]] = {}
        for cp in li.pairs_at(x):
            key = induced_star_partition(li, cp, x)
            vec = out.setdefault(key, [0] * var_of["count"])
            vec[var_of[(li.name, pair_key(cp))]] += 1
        return out

    rows: set[tuple[int, ...]] = set()

    def push(diff: list[int]) -> None:
        if not any(diff):
            return
        first = next(x for x in diff if x)
        if first < 0:
            diff = [-x for x in diff]
        rows.add(tuple(diff))

    for germ in (g for pair in structure.germs for g in (pair, pair.reversed())):
        here = class_vector(germ.start, germ.element_a)
        there = class_vector(germ.end, germ.element_b)
        for key, vec in here.items():
            other = there.get(germ.forward(key), [0] * var_of["count"])
            push([a - b for a, b in zip(vec, other)])
    for li in structure.instances:
        per_elem: dict = {}
        for cp in li.pairs:
            elems = cp.cutset.sorted_elements()
            for x in elems:
                if x not in per_elem:
                    per_elem[x] = class_vector(li, x)
            base = per_elem[elems[0]][induced_star_partition(li, cp, elems[0])]
            for x in elems[1:]:
                vec = per_elem[x][induced_star_partition(li, cp, x)]
                push([a - b for a, b in zip(base, vec)])
    return sorted(rows)


def solve_gluing(structure: GluingStructure) -> WeightAssignment | GluingInfeasible:
    """Find an orbit-constant strictly positive integer weight assignment, or
    certify that none exists over the rationals. The returned assignment is
    re-verified before being handed back."""
    orbit_lists = [
        (li, orbits_of_pairs(li, structure.group_of(li))) for li in structure.instances
    ]
    var_of: dict = {}
    orbit_vars: list[tuple[LinkInstance, tuple[CutsetPartition, ...]]] = []
    for li, orbits in orbit_lists:
        for orbit in orbits:
            idx = len(orbit_vars)
            orbit_vars.append((li, orbit))
            for cp in orbit:
                var_of[(li.name, pair_key(cp))] = idx
    k = len(orbit_vars)
    var_of["count"] = k
    if k == 0:
        raise GluingError("structure has no pairs to weight")

    def assignment_from(values: list[int]) -> WeightAssignment:
        return WeightAssignment(
            {
                (li.name, pair_key(cp)): values[i]
                for i, (li, orbit) in enumerate(orbit_vars)
                for cp in orbit
            }
        )

    ones = assignment_from([1] * k)
    if verify_gluing(structure, ones).ok:
        return ones

    rows = _balance_equations(structure, var_of)
    pretty = tuple(
        " + ".join(f"{c}*w{j}" for j, c in enumerate(row) if c) + " = 0" for row in rows
    )
    frac_rows = [[Fraction(c) for c in row] for row in rows]
    basis = _nullspace(frac_rows, k)
    if not basis:
        return GluingInfeasible(pretty, "the balance system admits only the zero solution")

    def positive_from_lambda(lam: list[Fraction]) -> WeightAssignment | None:
        weights = [sum(basis[j][i] * lam[j] for j in range(len(basis))) for i in range(k)]
        if any(x <= 0 for x in weights):
            return None
        lcm = 1
        for x in weights:
            lcm = lcm * x.denominator // _gcd(lcm, x.denominator)
        ints = [int(x * lcm) for x in weights]
        g = 0
        for x in ints:
            g = _gcd(g, x)
        cand = assignment_from([x // g for x in ints])
        return cand if verify_gluing(structure, cand).ok else None

    if len(basis) <= 4:
        for combo in itertools.product(range(17), repeat=len(basis)):
            if not any(combo):
                continue
            got = positive_from_lambda([Fraction(c) for c in combo])
            if got is not None:
                return got

    ineqs = [[basis[j][i] for j in range(len(basis))] for i in range(k)]
    lam = _fourier_motzkin(ineqs)
    if lam is None:
        return GluingInfeasible(
            pretty, "positivity is infeasible over the rationals (by elimination)"
        )
    got = positive_from_lambda(lam)
    if got is None:
        raise GluingError("internal solver error: constructed point failed verification")
    return got


def _gcd(a: int, b: int) -> int:
    return math.gcd(a, b)
