"""Equatable partitions along glued edges and the weight-balance equations.

A structure is a finite quotient picture of a complex whose links are all
drawn from a fixed list: each named `SeparatedFamily` is one link with its
cutsets, the local pairs, and each `EdgeGerm` identifies an element of one
link with an element of another, together with a bijection of the local
directions around them. A pair's class at one of its elements groups the
directions there by the component of the cutset's complement they enter.
A weight assignment gives every pair, keyed by `Cutset.key`, a strictly
positive integer; it verifies when equivalence-class sums balance across
every germ and across the elements of every cutset, and (when link
families carry automorphism groups) when weights are constant on orbits.

`verify_gluing` and `solve_gluing` read one enumeration of these
equations. The solver has one unknown per orbit of pairs and tries
all-ones first. Otherwise each equation whose two sides are not the same
sum of unknowns becomes an integer row of B, the cross-element rows of a
vertex-kind family with a group once per member orbit and element orbit.
One exact phase-one simplex (over `Fraction`, Bland's rule) either finds
integer weights w >= 1 with Bw = 0, or reads from its duals an integer y
with yᵀB >= 0 and yᵀB != 0, which by Stiemke's theorem proves that no
w > 0 solves Bw = 0 (`GluingInfeasible.check` replays it in integers).
Every row of B is a row of the full per-element system, so y padded with
zeros certifies that system too.
`certify` imports this module, never the reverse: `SeparatedFamily` is
imported for annotations only, under `typing.TYPE_CHECKING`.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Mapping

from .cutset import Cutset, complement_labels, induced_partition
from .errors import GluingError
from .graph import Graph, edge_key
from .report import Certificate

if TYPE_CHECKING:
    from .certify import SeparatedFamily


def directions_at(g: Graph, kind: str, x) -> tuple[int, ...]:
    """Local directions around a link element: the neighbors of a link
    vertex, or the two endpoints of a link edge."""
    if kind == "vertex":
        if not (isinstance(x, int) and 1 <= x <= g.n):
            raise GluingError(f"link vertex {x!r} not in graph")
        return g.neighbors(x)
    if not (isinstance(x, tuple) and len(x) == 2):
        raise GluingError(f"link edge {x!r} not in graph")
    e = edge_key(*x)
    if not g.has_edge(*e):
        raise GluingError(f"link edge {e} not in graph")
    return e


def _require_components(c: Cutset, x, directions) -> None:
    """Every direction at a cut vertex x must enter a component."""
    if c.kind == "vertex":
        for d in directions:
            if d in c.elements:
                raise GluingError(
                    f"direction from {x} toward {d} enters no component: "
                    "both are cut elements"
                )


def _classes_at(li: SeparatedFamily, x) -> dict[Cutset, frozenset]:
    """The class at x of each pair of li whose cutset contains x: the
    partition of the directions at x that the cutset induces, one block
    per component entered. The class is computed once for all pairs whose
    components the directions enter alike, and equal classes share one
    object."""
    g = li.graph
    directions = directions_at(g, li.kind, x)
    by_entered: dict[tuple, frozenset] = {}
    shared: dict[frozenset, frozenset] = {}  # keep one object per class
    class_of: dict[Cutset, frozenset] = {}
    for c in li.pairs_at(x):
        _require_components(c, x, directions)
        labels, _ = complement_labels(g, c)
        entered = tuple([labels[d - 1] for d in directions])
        if entered not in by_entered:
            cls = induced_partition(g, c, {d: d for d in directions})
            by_entered[entered] = shared.setdefault(cls, cls)
        class_of[c] = by_entered[entered]
    return class_of


@dataclass(frozen=True)
class EdgeGerm:
    """Identification of an element of one link with an element of another,
    with a bijection of the directions around them."""

    start: SeparatedFamily
    element_a: object
    end: SeparatedFamily
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
    def _norm(li: SeparatedFamily, x):
        return edge_key(*x) if (li.kind == "edge" and isinstance(x, tuple)) else x

    @classmethod
    def identity(cls, start: SeparatedFamily, end: SeparatedFamily, element) -> "EdgeGerm":
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


@dataclass(frozen=True)
class GluingStructure:
    """Named link families glued along germs; each family may carry its
    link automorphism group. Each element's classes are computed once for
    every check and solve made on the structure; the orbits and keys of
    each family's pairs are cached on the family."""

    instances: tuple[SeparatedFamily, ...]
    germs: tuple[EdgeGerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "instances", tuple(self.instances))
        object.__setattr__(self, "germs", tuple(self.germs))
        names = [li.name for li in self.instances]
        if not all(names):
            raise GluingError("every link family in a structure needs a name")
        if len(set(names)) != len(names):
            raise GluingError(f"duplicate link instance names: {names}")
        for li in self.instances:
            for c in li.members:
                if len(c) < 2:
                    raise GluingError(
                        f"cutset {c.sorted_elements()} in link {li.name!r} "
                        "has fewer than two elements"
                    )
        by_id = {id(li) for li in self.instances}
        for germ in self.germs:
            if id(germ.start) not in by_id or id(germ.end) not in by_id:
                raise GluingError("germ references a link not in the structure")

    @classmethod
    def homogeneous(cls, li: SeparatedFamily) -> "GluingStructure":
        """Self-gluing of one link along every element with identity germs:
        the fully symmetric quotient of a complex all of whose links look
        alike."""
        elements = li.graph.vertices() if li.kind == "vertex" else li.graph.edges()
        return cls((li,), tuple(EdgeGerm.identity(li, li, x) for x in elements))

    @cached_property
    def _classes(self) -> dict[tuple[str, object], dict]:
        return {}

    def unknowns(self) -> tuple[tuple[str, SeparatedFamily, tuple[Cutset, ...]], ...]:
        """One weight unknown per orbit of pairs, as (id, family, orbit)
        with the id '<link>:<index>', family by family in the order of
        `SeparatedFamily.member_orbits`:
        the solver's w0, w1, ... and the ids of a weights file."""
        return tuple(
            (f"{li.name}:{i}", li, orbit) for li in self.instances for i, orbit in enumerate(li.member_orbits)
        )

    def classes_at(self, li: SeparatedFamily, x) -> dict[Cutset, frozenset]:
        """The class at the element x of each pair of li that contains it."""
        key = (li.name, x)
        if key not in self._classes:
            self._classes[key] = _classes_at(li, x)
        return self._classes[key]


@dataclass(frozen=True)
class WeightAssignment:
    """Strictly positive integer weight for every pair of every link."""

    weights: Mapping[tuple[str, tuple], int]

    def __post_init__(self):
        object.__setattr__(self, "weights", dict(self.weights))

    @classmethod
    def all_ones(cls, structure: GluingStructure) -> "WeightAssignment":
        return cls(
            {(li.name, key): 1 for li in structure.instances for key in li.member_keys.values()}
        )

    def get(self, li: SeparatedFamily, c: Cutset, key: tuple | None = None) -> int:
        """The weight of the pair c of li; ``key`` is its `Cutset.key`, when
        the caller already holds it."""
        try:
            return self.weights[(li.name, c.key() if key is None else key)]
        except KeyError:
            raise GluingError(
                f"no weight for cutset {c.sorted_elements()} in link {li.name!r}"
            ) from None


def _is_identity_self_germ(germ: EdgeGerm) -> bool:
    return (
        germ.start is germ.end
        and germ.element_a == germ.element_b
        and all(a == b for a, b in germ.bijection)
    )


class _Balance:
    """The balance equations of a structure under one weighting, the one
    enumeration that `verify_gluing` decides and `solve_gluing` writes as
    rows. ``weight`` maps each family's name to the weight of each of its
    pairs: integers when weights are checked, or `Counter`s over the orbit
    unknowns when rows are built, with ``zero`` the sum of no weights."""

    def __init__(self, structure: GluingStructure, weight: Mapping[str, Mapping], zero):
        self.structure, self.weight, self.zero = structure, weight, zero
        self._sums: dict[tuple[str, object], dict] = {}  # instance names are unique

    def sums_at(self, li: SeparatedFamily, x) -> dict:
        """The weight sum of each class at the element x, computed once."""
        if (li.name, x) not in self._sums:
            class_of, sums = self.structure.classes_at(li, x), {}
            for c in li.pairs_at(x):
                sums[class_of[c]] = sums.get(class_of[c], self.zero) + self.weight[li.name][c]
            self._sums[li.name, x] = sums
        return self._sums[li.name, x]

    def germ_equations(self, germ: EdgeGerm):
        """(reversed, class, lhs, rhs) for each class at either end of the
        germ: its sum lhs against the sum rhs of its image at the other
        end, in the order of the classes."""
        for src in (germ, germ.reversed()):
            here, there = self.sums_at(src.start, src.element_a), self.sums_at(src.end, src.element_b)
            for key, lhs in sorted(here.items(), key=lambda kv: sorted(map(sorted, kv[0]))):
                yield src is not germ, key, lhs, there.get(src.forward(key), self.zero)

    def unequal(self, li: SeparatedFamily, i: int, reduce: bool) -> list[tuple]:
        """(first, x, base, val) for each element x of member i whose class
        sum val differs from the sum base at its first element. With
        ``reduce`` the sum at x is read at x's representative r, at the
        image of member i under the element taking x to r."""

        def value(x):
            j = i
            if reduce and (r := li.symmetry.rep[x - 1]) != x:
                j, x = li.image(li.symmetry.to_rep[x - 1], i), r
            return self.sums_at(li, x)[self.structure.classes_at(li, x)[li.members[j]]]

        first, *rest = li.members[i].sorted_elements()
        base = value(first)
        return [(first, x, base, val) for x in rest if (val := value(x)) != base]


def verify_gluing(structure: GluingStructure, w: WeightAssignment) -> Certificate:
    """Check a weight assignment exactly: positivity, orbit-constancy when
    a family carries a group, class-sum balance across every germ in both
    directions, and class-sum balance across the elements of every cutset.

    Each pair's weight is looked up once. The pairs at an element come from
    its family's element index, and their classes and the orbits come from
    the structure, which computes them once for all checks and solves.

    An identity germ of a link onto itself matches every class at its
    element with itself, so its equations hold for any weights and are
    only counted, from the classes at the element's representative. When
    a vertex-kind family's weights are constant on its orbits, the
    cross-element equations are decided once per member orbit, and the
    class sums at an element x are read at x's representative r, moved
    there by the element taking x to r; otherwise every member is decided
    with the class sums at every element."""
    cert = Certificate("gluing")
    weight = {li.name: {c: w.get(li, c, key) for c, key in li.member_keys.items()} for li in structure.instances}
    bad_positive = []
    for li in structure.instances:
        for c in li.members:
            value = weight[li.name][c]
            if not (isinstance(value, int) and value >= 1):
                bad_positive.append((li.name, li.member_keys[c], value))
    cert.add(
        "weights-positive",
        not bad_positive,
        {"pairs": sum(len(li.members) for li in structure.instances), "violations": bad_positive[:8]},
    )

    invariant = set()  # names of the families whose weights are constant on orbits
    if any(li.group is not None for li in structure.instances):
        bad_orbit = []
        orbit_count = 0
        for li in structure.instances:
            before = len(bad_orbit)
            for orbit in li.member_orbits:
                orbit_count += 1
                vals = {weight[li.name][c] for c in orbit}
                if len(vals) > 1:
                    bad_orbit.append((li.name, li.member_keys[orbit[0]], sorted(vals)))
            if li.group is not None and len(bad_orbit) == before:
                invariant.add(li.name)
        cert.add(
            "weights-invariant",
            not bad_orbit,
            {"orbits": orbit_count, "violations": bad_orbit[:8]},
        )

    balance = _Balance(structure, weight, 0)
    # each balance witness keeps its first eight violations, so no more
    # are built
    edge_eqs = 0
    edge_bad = []
    for gi, germ in enumerate(structure.germs):
        if _is_identity_self_germ(germ):
            li, x = germ.start, germ.element_a
            if li.kind == "vertex":
                x = li.symmetry.rep[x - 1]
            edge_eqs += 2 * len(set(structure.classes_at(li, x).values()))
            continue
        for rev, key, lhs, rhs in balance.germ_equations(germ):
            edge_eqs += 1
            if lhs != rhs and len(edge_bad) < 8:
                cls = tuple(sorted(map(sorted, key)))
                edge_bad.append({"germ": gi, "reversed": rev, "class": cls, "lhs": lhs, "rhs": rhs})
    cert.add("edge-balance", not edge_bad, {"equations": edge_eqs, "violations": edge_bad})

    cross_eqs = 0
    cross_bad = []
    for li in structure.instances:
        cross_eqs += sum(len(c) - 1 for c in li.members)
        reduce = li.name in invariant and li.kind == "vertex"
        orbit_of = li.orbit_of if reduce else range(len(li.members))
        failed = {i for i, o in enumerate(orbit_of) if i == o and balance.unequal(li, i, reduce)}
        for i in (i for i, o in enumerate(orbit_of) if o in failed):
            cutset = li.members[i].sorted_elements()
            for first, x, base, val in balance.unequal(li, i, reduce)[: 8 - len(cross_bad)]:
                cross_bad.append(
                    {"link": li.name, "cutset": cutset, "elements": (first, x), "sums": (base, val)}
                )
            if len(cross_bad) == 8:
                break
    cert.add("cross-edge-balance", not cross_bad, {"equations": cross_eqs, "violations": cross_bad})
    return cert


@dataclass(frozen=True)
class GluingInfeasible:
    """No strictly positive weights exist. The certificate is Stiemke's
    alternative: an integer vector y over the balance rows B (one column
    per orbit unknown) with yᵀB ≥ 0 and yᵀB ≠ 0. Any w > 0 with Bw = 0
    would give 0 = yᵀBw > 0."""

    rows: tuple[tuple[int, ...], ...]
    y: tuple[int, ...]

    detail = "Stiemke certificate: y^T B >= 0 and y^T B != 0, so no w > 0 solves B w = 0"

    @property
    def equations(self) -> tuple[str, ...]:
        return tuple(
            " + ".join(f"{c}*w{j}" for j, c in enumerate(row) if c) + " = 0" for row in self.rows
        )

    def combination(self) -> tuple[int, ...]:
        """yᵀB, one entry per unknown."""
        width = len(self.rows[0]) if self.rows else 0
        return tuple(sum(yi * row[j] for yi, row in zip(self.y, self.rows)) for j in range(width))

    def check(self) -> bool:
        """Replay the certificate in integer arithmetic."""
        if len(self.y) != len(self.rows) or not all(
            type(v) is int for v in (*self.y, *(c for row in self.rows for c in row))
        ):
            return False
        yb = self.combination()
        return all(c >= 0 for c in yb) and any(yb)


def _integral(values: list[Fraction]) -> tuple[int, ...]:
    """The least positive multiple of a rational vector that is integral."""
    lcm = math.lcm(*(v.denominator for v in values))
    ints = [int(v * lcm) for v in values]
    g = math.gcd(*ints)
    return tuple(v // g for v in ints)


def _positive_kernel(
    rows: tuple[tuple[int, ...], ...], k: int
) -> tuple[int, ...] | GluingInfeasible:
    """Integer w ≥ 1 with Bw = 0, or a Stiemke certificate that none exists.

    Phase one of the simplex method over `Fraction`, with Bland's rule, on
    B u = -B·1, u ≥ 0 (so w = 1 + u): rows are sign-flipped to a
    non-negative right-hand side and each gets an artificial variable,
    whose sum is minimised. A zero optimum gives u. A positive optimum has
    duals z with zᵀ(SB) ≤ 0 and zᵀ(S b) > 0 for the signs S; then y = -Sz
    has yᵀB ≥ 0 and yᵀB·1 > 0.
    """
    m = len(rows)
    signs = [-1 if sum(row) > 0 else 1 for row in rows]  # sign of -B·1, zero as +
    tab = []
    for r, (s, row) in enumerate(zip(signs, rows)):
        unit = [Fraction(0)] * m
        unit[r] = Fraction(1)
        tab.append([Fraction(s * c) for c in row] + unit + [Fraction(-s * sum(row))])
    basis = [k + r for r in range(m)]
    # reduced costs of the phase-one objective, the sum of the artificials;
    # the last entry is minus the objective
    cost = [-sum(t[j] for t in tab) for j in range(k)] + [Fraction(0)] * m
    cost.append(-sum(t[-1] for t in tab))
    while True:
        enter = next((j for j in range(k + m) if cost[j] < 0), None)
        if enter is None:
            break
        leave = min(
            (r for r in range(m) if tab[r][enter] > 0),
            key=lambda r: (tab[r][-1] / tab[r][enter], basis[r]),
        )
        pivot = tab[leave][enter]
        tab[leave] = [v / pivot for v in tab[leave]]
        for row in (*(t for r, t in enumerate(tab) if r != leave), cost):
            f = row[enter]
            if f:
                row[:] = [a - f * b for a, b in zip(row, tab[leave])]
        basis[leave] = enter
    if cost[-1] == 0:
        u = [Fraction(0)] * k
        for r, j in enumerate(basis):
            if j < k:
                u[j] = tab[r][-1]
        return _integral([1 + v for v in u])
    # the reduced cost of artificial r is 1 - z_r
    return GluingInfeasible(rows, _integral([s * (cost[k + r] - 1) for r, s in enumerate(signs)]))


def solve_gluing(structure: GluingStructure) -> WeightAssignment | GluingInfeasible:
    """Find an orbit-constant strictly positive integer weight assignment, or
    a Stiemke certificate that none exists. Tries all-ones first, then one
    exact phase-one simplex. Either answer is checked before it is handed
    back.

    The rows come from `verify_gluing`'s enumeration of the balance
    equations, each side a `Counter` of the unknowns of
    `GluingStructure.unknowns`, first nonzero entry positive. An equation
    with equal sides, such as each of an identity self-germ, gives none. A
    vertex-kind family with a group gives its cross-element rows once per
    member orbit, read at element-orbit representatives. The unknowns make
    the weights constant on orbits, so each such row is a row of the full
    per-element system and the rows decide it: a certificate y, padded
    with zeros, certifies that system too."""
    unknowns = structure.unknowns()
    k = len(unknowns)
    if k == 0:
        raise GluingError("structure has no pairs to weight")
    # equal pairs share one key, so one unknown, as they share one weight
    var_of_key = {(li.name, li.member_keys[c]): j for j, (_, li, orbit) in enumerate(unknowns) for c in orbit}

    def assignment_from(values: list[int]) -> WeightAssignment:
        return WeightAssignment({key: values[j] for key, j in var_of_key.items()})

    ones = assignment_from([1] * k)
    if verify_gluing(structure, ones).ok:
        return ones

    unit = {
        li.name: {c: Counter({var_of_key[li.name, key]: 1}) for c, key in li.member_keys.items()}
        for li in structure.instances
    }
    balance = _Balance(structure, unit, Counter())
    unequal = [
        (lhs, rhs)
        for germ in structure.germs
        if not _is_identity_self_germ(germ)
        for _, _, lhs, rhs in balance.germ_equations(germ)
        if lhs != rhs
    ]
    for li in structure.instances:
        reduce = li.group is not None and li.kind == "vertex"
        for i in li.representatives() if reduce else range(len(li.members)):
            unequal += [(base, val) for _, _, base, val in balance.unequal(li, i, reduce)]
    rows = set()
    for lhs, rhs in unequal:
        diff = [lhs[j] - rhs[j] for j in range(k)]
        sign = 1 if next(c for c in diff if c) > 0 else -1
        rows.add(tuple(sign * c for c in diff))

    got = _positive_kernel(tuple(sorted(rows)), k)
    if isinstance(got, GluingInfeasible):
        if not got.check():
            raise GluingError("internal solver error: infeasibility certificate failed its check")
        return got
    cand = assignment_from(list(got))
    if not verify_gluing(structure, cand).ok:
        raise GluingError("internal solver error: constructed point failed verification")
    return cand
