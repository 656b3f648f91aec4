"""Whole-graph certificates for separation properties.

Each certifier runs a fixed list of named checks and returns a Certificate
whose overall verdict is their conjunction; failing checks carry concrete
witnesses (the offending vertex, pair, or cutset) so a verdict can be
replayed against the base predicates.

A family member is a cutset, whose sides are the components of its
complement. A family may carry a group of automorphisms of its graph.
Construction checks three preconditions on every generator p: p is an
automorphism of the graph, p preserves the metric (each edge keeps its
length), and p maps the member multiset onto itself. The first member of
each orbit is closed once through the group's stabilizer chain, by the
search's kernel (`aut.orbit_of_vertex_set`; an edge set on its midpoint
ids); `SeparatedFamily.from_orbits` takes its members from those closures.
Each component count is found once per orbit. Then p maps the complement
components of a member onto those of its image, and distances onto distances,
so every fact stated in terms of components, distances and family
membership holds at a member, vertex or vertex pair exactly when it holds
at each of its images: the component count, sigma-separation, minimality,
the star conjunction, which pairs a member separates, whether some member
separates a pair, the same-side count of a vertex and two of its
neighbours, the classes a member induces at its elements, and, for weights
constant on orbits, the class sums. The certifiers therefore decide each
such fact once per orbit: at the first member of each member orbit, and at
the least vertex r of each vertex orbit, where vertex pairs (r, y) are
taken one per orbit of the stabilizer Stab(r) (`aut.PairOrbits`). Counts
come from orbit sizes or are counted without deciding, and a failing
orbit's witnesses are the first of its items in the order the unreduced
check lists them, with their details computed for those items only.
Without a group every member, vertex and pair is its own orbit, and the
same code decides each of them.
This module imports `gluing` at its top; the import is one-way, as
`gluing` names `SeparatedFamily` only in annotations.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import InitVar, dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .aut import (
    PairOrbits,
    PermutationGroup,
    automorphism_group,
    cycle_notation,
    is_automorphism,
    orbit_of_vertex_set,
)
from .cutset import (
    Cutset,
    _require_cutset,
    _subdivision,
    complement_labels,
    image_elements,
    is_proper,
    is_sigma_separated,
    is_star_cutset,
)
from .errors import CertifyError, SepcertError
from .gluing import GluingStructure, WeightAssignment, verify_gluing
from .graph import (
    INF,
    Graph,
    Metric,
    bipartition,
    distances,
    edge_key,
    girth,
    is_connected,
)
from .report import Certificate


def _check_group(g: Graph, metric: Metric, grp: PermutationGroup, name: str) -> None:
    """Every generator must be an automorphism of g that keeps each edge
    length of the metric."""
    if grp.n != g.n:
        raise CertifyError(f"group degree {grp.n} != |{name}| = {g.n}")
    for p in grp.generators:
        if not is_automorphism(g, p):
            raise CertifyError(f"generator {cycle_notation(p)} is not an automorphism of link {name!r}")
        if metric.kind != "combinatorial" and any(
            metric.edge_length(edge_key(p[u - 1], p[v - 1])) != metric.edge_length((u, v))
            for u, v in g.edges()
        ):
            raise CertifyError(
                f"generator {cycle_notation(p)} does not preserve the metric of link {name!r}"
            )


def _orbit_closure(g: Graph, kind: str, grp: PermutationGroup):
    """The orbit kernel of the families: the elements of a cutset of
    ``kind`` -> those of each image under ``grp``, sorted as by `Cutset.key`,
    from `aut.orbit_of_vertex_set`. Edge sets are moved as their midpoint
    ids in `graph.subdivision_graph`, in sorted edge order, by the group
    extended to the midpoints; its generators must be automorphisms."""
    if kind == "vertex":
        return lambda elements: orbit_of_vertex_set(grp, elements)
    _, mid = _subdivision(g)
    edge_of = {m: e for e, m in mid.items()}
    gens = [p + tuple(mid[edge_key(p[u - 1], p[v - 1])] for u, v in mid) for p in grp.generators]
    on_midpoints = PermutationGroup.generated_by(g.n + g.m, gens, grp.base)
    return lambda elements: tuple(
        frozenset([edge_of[m] for m in s]) for s in orbit_of_vertex_set(on_midpoints, [mid[e] for e in elements])
    )


@dataclass(frozen=True)
class SeparatedFamily:
    """A named family of separated cutsets of one link, validated on
    construction: sigma must be positive, every member must have the
    family's kind and lie in the graph, and then each member checked must
    be a cutset and be sigma-separated, in that order, with or without a
    group. Each member is one local pair, whose sides are the components
    of its complement. Gluing structures tell their links apart by name.

    Without a group every member is checked. With a ``group``,
    construction also checks that every generator is an automorphism of
    the graph that preserves the metric, closes the first member of each
    orbit once by `_orbit_closure`, and checks that member only (see the
    module docstring); the members given must be closed under the group.
    With ``reps``, as `from_orbits` passes it, they are orbit
    representatives instead, and the members are their images, sorted by
    `Cutset.key`. ``orbit_of[i]`` is the index of the first member of
    member i's orbit; without a group it is i.

    The family computes its index of members by element, their keys and
    their orbits once, for every gluing check that reads them."""

    graph: Graph
    sigma: Fraction
    kind: str
    members: tuple[Cutset, ...]
    metric: Metric = None
    name: str = "link"
    group: PermutationGroup | None = None
    reps: InitVar[bool] = False

    def __post_init__(self, reps: bool):
        object.__setattr__(self, "sigma", Fraction(self.sigma))
        if self.sigma <= 0:
            raise CertifyError(f"separation sigma must be positive, got {self.sigma}")
        object.__setattr__(self, "members", tuple(
            c if isinstance(c, Cutset) else Cutset.of_vertices(c) if self.kind == "vertex" else Cutset.of_edges(c)
            for c in self.members
        ))
        if self.metric is None:
            object.__setattr__(self, "metric", Metric.combinatorial())
        self.metric.validate_for(self.graph)
        if self.kind not in ("vertex", "edge"):
            raise CertifyError(f"unknown cutset kind {self.kind!r}")
        for c in self.members:
            if c.kind != self.kind:
                raise CertifyError(
                    f"member {c.sorted_elements()} has kind {c.kind!r}, family is {self.kind!r}"
                )
            c.validate_for(self.graph)  # images of valid cutsets are valid
        orbit_of = tuple(range(len(self.members))) if self.group is None else self._label_orbits(reps)
        object.__setattr__(self, "orbit_of", orbit_of)
        for i in self.representatives():
            c = self.members[i]
            _require_cutset(self.graph, c)
            sep = is_sigma_separated(self.graph, self.metric, c, self.sigma)
            if not sep.ok:
                raise CertifyError(
                    f"family member {c.sorted_elements()} is not "
                    f"{self.sigma}-separated: {sep.witness}"
                )

    def _label_orbits(self, reps: bool) -> tuple[int, ...]:
        """Check the group's generators, close the first member of each
        orbit not yet labelled, and label each member by the first member
        of its orbit. Unless the members are ``reps``, every image must be
        a member of the same multiplicity; the least missing one is named."""
        _check_group(self.graph, self.metric, self.group, self.name)
        close = _orbit_closure(self.graph, self.kind, self.group)
        times = Counter(c.elements for c in self.members)
        least: dict[frozenset, frozenset] = {}  # each image -> the least image of its orbit
        for c in self.members:
            if c.elements in least:
                continue
            orbit = close(c.elements)
            if not reps:
                missing = next((s for s in orbit if s not in times), None)
                if missing is not None:
                    self._not_closed(f"image {tuple(sorted(missing))} missing")
                other = next((s for s in orbit if times[s] != times[c.elements]), None)
                if other is not None:
                    self._not_closed(f"image {tuple(sorted(other))} has another multiplicity")
            least.update(dict.fromkeys(orbit, orbit[0]))
        if reps:
            object.__setattr__(self, "members", tuple(Cutset(self.kind, s) for s in sorted(least, key=sorted)))
        first: dict[frozenset, int] = {}
        return tuple(first.setdefault(least[c.elements], i) for i, c in enumerate(self.members))

    def _not_closed(self, what: str):
        raise CertifyError(f"family of link {self.name!r} is not closed under its group: {what}")

    @cached_property
    def _index(self) -> dict[frozenset, int]:
        return {c.elements: i for i, c in enumerate(self.members)}

    def image(self, perm, i: int) -> int:
        """The index of a member equal to the image of member i under the
        automorphism perm."""
        elements = image_elements(self.kind, perm, self.members[i].elements)
        j = self._index.get(elements)
        if j is None:
            self._not_closed(f"image {tuple(sorted(elements))} missing")
        return j

    def representatives(self) -> list[int]:
        """The first member of each orbit, as indices in member order."""
        return [i for i, o in enumerate(self.orbit_of) if i == o]

    def members_of_failed(self, failed) -> list[int]:
        """Indices, in member order, of the members whose orbit is in
        ``failed`` (a set of orbit labels)."""
        return [i for i, o in enumerate(self.orbit_of) if o in failed]

    @cached_property
    def member_orbits(self) -> tuple[tuple[Cutset, ...], ...]:
        """The orbits of the members (one per member without a group), each
        sorted by `Cutset.key`, in order of their least members."""
        buckets: dict[int, list[Cutset]] = {}
        for c, o in sorted(zip(self.members, self.orbit_of), key=lambda co: co[0].key()):
            buckets.setdefault(o, []).append(c)
        return tuple(map(tuple, buckets.values()))

    @cached_property
    def symmetry(self) -> PairOrbits:
        """Orbits of the family's group on vertices and vertex pairs."""
        return (self.group or PermutationGroup.generated_by(self.graph.n, ())).pair_orbits

    @classmethod
    def from_cutsets(cls, g: Graph, sigma, cutsets, kind="vertex", metric=None, name="link", group=None):
        """Family of the cutsets, given as `Cutset`s or as collections of
        vertices or edges of ``kind``. With a ``group`` they must be closed
        under it; the constructor closes one cutset per orbit and finds
        each component count once per orbit."""
        return cls(g, sigma, kind, cutsets, metric, name, group)

    @classmethod
    def from_orbits(cls, g: Graph, sigma, reps, group: PermutationGroup, kind="vertex", metric=None, name="link"):
        """Family of the orbits of ``reps`` under ``group``, given as for
        `from_cutsets`: every image of a rep, once, sorted by `Cutset.key`.
        Each orbit is closed once, by the closure that labels it, and reps
        in one orbit give it once."""
        return cls(g, sigma, kind, reps, metric, name, group, True)

    @cached_property
    def _members_at(self) -> dict[object, tuple[Cutset, ...]]:
        index: dict[object, list[Cutset]] = {}
        for c in self.members:
            for x in c.elements:
                index.setdefault(x, []).append(c)
        return {x: tuple(cs) for x, cs in index.items()}

    def pairs_at(self, x) -> tuple[Cutset, ...]:
        """The members whose cutset contains the element x, in member
        order; an edge may be given with its ends in either order."""
        if self.kind == "edge" and isinstance(x, tuple):
            x = edge_key(*x)
        return self._members_at.get(x, ())


def _require_shape(g: Graph, what: str) -> None:
    if not is_connected(g):
        raise CertifyError(f"{what} requires a connected graph")
    bad = next((v for v in g.vertices() if g.degree(v) <= 1), None)
    if bad is not None:
        raise CertifyError(f"{what} requires no degree-1 vertices; vertex {bad} fails")


def _separated_by(labels, u: int, v: int) -> bool:
    lu, lv = labels[u - 1], labels[v - 1]
    return lu is not None and lv is not None and lu != lv


def _splits(g: Graph, cutsets, u: int, v: int) -> bool:
    """Does some member among the cutsets separate u and v?"""
    return any(_separated_by(complement_labels(g, c)[0], u, v) for c in cutsets)


def certify_vertex_separated(fam: SeparatedFamily, n: int) -> Certificate:
    """Vertex n-separation of the family's graph from its members, for an
    integer order n >= 2: girth at least 2n, the members are n-separated in
    the family's metric, they cover the vertices, each has at least two
    elements, every pair of neighbors of every vertex is split by a member,
    and every vertex pair at distance >= n is split by a member.

    Member facts are decided once per member orbit, and the pair facts at
    the vertex-orbit representatives (see the module docstring)."""
    g = fam.graph
    _require_shape(g, "vertex separation certificate")
    if fam.kind != "vertex":
        raise CertifyError("vertex certification needs a vertex-kind family")
    if Fraction(n).denominator != 1:
        raise CertifyError(f"separation order must be an integer, got {n}")
    n = int(n)
    if n < 2:
        raise CertifyError("separation order must be at least 2")
    cert = Certificate(f"vertex-{n}-separated")
    reps = fam.representatives()

    failed = {i for i in reps if complement_labels(g, fam.members[i])[1] < 2}
    bad_valid = [fam.members[i].sorted_elements() for i in fam.members_of_failed(failed)]
    cert.add("members-valid", not bad_valid, {"members": len(fam.members), "violations": bad_valid[:8]})

    failed = {i for i in reps if not is_sigma_separated(g, fam.metric, fam.members[i], Fraction(n)).ok}
    bad_sep = []
    for i in fam.members_of_failed(failed)[:8]:
        c = fam.members[i]
        bad_sep.append({"cutset": c.sorted_elements(), **is_sigma_separated(g, fam.metric, c, Fraction(n)).witness})
    cert.add("members-separated", not bad_sep, {"sigma": Fraction(n), "violations": bad_sep})

    girth_val = girth(g)
    cert.add("girth", girth_val >= 2 * n, {"girth": girth_val, "required": 2 * n})

    covered = frozenset().union(*(c.elements for c in fam.members)) if fam.members else frozenset()
    missing = sorted(set(g.vertices()) - covered)
    cert.add(
        "covering",
        not missing,
        {"covered": len(covered), "vertices": g.n, "missing": missing[:16]},
    )

    small = [c.sorted_elements() for c in fam.members if len(c) < 2]
    cert.add("member-size", not small, {"violations": small[:8]})

    # A member splits two neighbors of r only if it contains r: otherwise
    # the path through r joins them.
    sym = fam.symmetry
    unsplit_at = {
        r: {
            frozenset((a, b))
            for a, b in combinations(g.neighbors(r), 2)
            if not _splits(g, fam.pairs_at(r), a, b)
        }
        for r in sym.reps()
    }
    pair_count = sum(g.degree(v) * (g.degree(v) - 1) // 2 for v in g.vertices())
    unsplit = []
    if any(unsplit_at.values()):
        for v in g.vertices():
            bad = unsplit_at[sym.rep[v - 1]]
            for w, w2 in combinations(g.neighbors(v), 2):
                if frozenset((sym.to_rep_image(v, w), sym.to_rep_image(v, w2))) in bad:
                    unsplit.append((v, w, w2))
    cert.add(
        "neighbor-pairs-split",
        not unsplit,
        {"pairs": pair_count, "violations": unsplit[:8]},
    )

    table = distances(g)
    distant = [
        (u, v)
        for u in g.vertices()
        for v in g.vertices()
        if u < v and table.get(u, v) >= n
    ]
    # each orbit of distant pairs is decided at its labelling pair (r, y)
    labels = [sym.label(u, v) for u, v in distant]
    unsplit_labels = set(labels)
    for c in fam.members:
        if not unsplit_labels:
            break
        lab = complement_labels(g, c)[0]
        unsplit_labels = {p for p in unsplit_labels if not _separated_by(lab, *p)}
    remaining = [p for p, lab in zip(distant, labels) if lab in unsplit_labels]
    cert.add(
        "distant-pairs-split",
        not remaining,
        {"pairs": len(distant), "violations": remaining[:8]},
    )
    return cert


def certify_edge_separated(fam: SeparatedFamily) -> Certificate:
    """Edge sigma-separation of the family's graph, at the family's sigma
    and in its metric: proper sigma-separated members of size >= 2 whose
    union is the whole edge set."""
    g, metric, sigma = fam.graph, fam.metric, fam.sigma
    _require_shape(g, "edge separation certificate")
    if fam.kind != "edge":
        raise CertifyError("edge certification needs an edge-kind family")
    cert = Certificate(f"edge-{sigma}-separated")

    bad_proper = []
    for c in fam.members:
        verdict = is_proper(g, c)
        if not verdict.ok:
            bad_proper.append({"cutset": c.sorted_elements(), **verdict.witness})
    cert.add("members-proper", not bad_proper, {"members": len(fam.members), "violations": bad_proper[:8]})

    bad_sep = []
    for c in fam.members:
        sep = is_sigma_separated(g, metric, c, sigma)
        if not sep.ok:
            bad_sep.append({"cutset": c.sorted_elements(), **sep.witness})
    cert.add("members-separated", not bad_sep, {"sigma": sigma, "violations": bad_sep[:8]})

    small = [c.sorted_elements() for c in fam.members if len(c) < 2]
    cert.add("member-size", not small, {"violations": small[:8]})

    covered = frozenset().union(*(c.elements for c in fam.members)) if fam.members else frozenset()
    missing = sorted(set(g.edges()) - covered)
    cert.add(
        "edge-cover",
        not missing,
        {"covered": len(covered), "edges": g.m, "missing": missing[:16]},
    )
    return cert


def split_pattern(g: Graph, labels, v: int):
    """Which neighbor pair of v (positions 1..3 into its ascending
    neighbors) lands in one component: (i, j) sorted, or None when v's
    neighborhood does not meet exactly the same/different shape (all three
    together, or v not in the cutset's complementary structure)."""
    w = g.neighbors(v)
    lab = [labels[x - 1] for x in w]
    if any(x is None for x in lab):
        return None
    same = [
        (i + 1, j + 1)
        for i in range(3)
        for j in range(i + 1, 3)
        if lab[i] == lab[j]
    ]
    if len(same) == 1:
        return same[0]
    if len(same) == 3:
        return "one-sided"
    return None


_SLOTS = ((1, 2), (1, 3), (2, 3))


def _split_counts(g: Graph, cutsets, vertices) -> dict:
    """Same-side counts of the three slots of each of the given vertices:
    v -> (counts once per distinct cutset, counts with multiplicity over
    the cutsets as given). Each distinct cutset through one of the
    vertices is labelled once."""
    counts = {v: ([0, 0, 0], [0, 0, 0]) for v in vertices}
    for c, times in Counter(cutsets).items():
        through = counts.keys() & c.elements
        if not through:
            continue
        labels, _ = complement_labels(g, c)
        for v in through:
            pat = split_pattern(g, labels, v)
            if pat is None:
                continue
            once, many = counts[v]
            for k, ij in enumerate(_SLOTS):
                if pat == "one-sided" or pat == ij:
                    once[k] += 1
                    many[k] += times
    return counts


def certify_star_separated(fam: SeparatedFamily) -> Certificate:
    """Star-separation of the family's graph: the graph is connected,
    bipartite and trivalent; the family members are star cutsets
    (3-separated, two components, minimal); the family certifies vertex
    3-separation; and the same-side counts |C(v,i,j)| over the distinct
    cutsets agree on one constant M/3 across every vertex and neighbor pair.

    The constant is computed on the set of distinct cutsets; the counts with
    multiplicity over the family as given are reported alongside, and the
    check fails loudly when the two disagree about constancy. The star
    clause is decided once per member orbit, and the counts at the
    vertex-orbit representatives: the count of a slot names two neighbors,
    so every vertex has the counts of its representative."""
    g = fam.graph
    cert = Certificate("star-separated")
    parts = bipartition(g)
    trivalent = all(g.degree(v) == 3 for v in g.vertices())
    shape_ok = is_connected(g) and parts is not None and trivalent
    cert.add(
        "cubic",
        shape_ok,
        {
            "connected": is_connected(g),
            "bipartite": parts is not None,
            "trivalent": trivalent,
        },
    )
    if not shape_ok:
        return cert
    if fam.kind != "vertex":
        raise CertifyError("star certification needs a vertex-kind family")

    verdicts = {}
    failed = set()
    for i in fam.representatives():
        c = fam.members[i]
        if c not in verdicts:
            verdicts[c] = is_star_cutset(g, c)
        if not verdicts[c].ok:
            failed.add(i)
    bad = sorted({fam.members[i] for i in fam.members_of_failed(failed)}, key=Cutset.sorted_elements)
    bad_star = [
        {"cutset": c.sorted_elements(), **(verdicts.get(c) or is_star_cutset(g, c)).witness}
        for c in bad[:8]
    ]
    cert.add(
        "members-star",
        not bad_star,
        {"members": len(fam.members), "violations": bad_star},
    )

    cert.add("vertex-3-separated", certify_vertex_separated(fam, 3))

    counts = _split_counts(g, fam.members, fam.symmetry.reps())
    set_values = sorted({x for once, _ in counts.values() for x in once})
    multi_values = sorted({x for _, many in counts.values() for x in many})
    set_constant = len(set_values) == 1 and set_values[0] >= 1
    multi_constant = len(multi_values) == 1 and multi_values[0] >= 1
    witness = {
        "slots": len(_SLOTS) * g.n,
        "distinct_cutsets": len(set(fam.members)),
        "set_values": set_values[:8],
        "multiset_values": multi_values[:8],
        "constant": set_values[0] if set_constant else None,
        "M": 3 * set_values[0] if set_constant else None,
    }
    if not set_constant and multi_constant:
        witness["note"] = (
            "set-level counts vary while multiset-level counts are constant; "
            "deduplication changes the invariant"
        )
    cert.add("split-counts-constant", set_constant, witness)
    return cert


#: Search nodes the bootstrap of `certify_triangle_link` may spend.
_BOOTSTRAP_NODE_BUDGET = 5000


def _triangle_family(g: Graph) -> tuple[SeparatedFamily, dict]:
    """Bootstrap a star-cutset family: search the split (1, 1, 2) at vertex
    1 under `_BOOTSTRAP_NODE_BUDGET`, and take the orbit of the first find
    under the automorphism group, which the family keeps."""
    from .search import search_star_cutsets

    res = search_star_cutsets(g, (1, 1, 2), _BOOTSTRAP_NODE_BUDGET)
    if not res.keys:
        raise CertifyError(
            "no star cutsets found within the search budget; supply a family"
        )
    seed = frozenset(map(ord, res.orbits[0]))
    fam = SeparatedFamily.from_orbits(g, 3, [seed], automorphism_group(g))
    info = {
        "searched_nodes": res.stats["nodes"],
        "search_exhausted": res.exhausted,
        "seed": tuple(sorted(seed)),
        "orbit_size": len(fam.members),
    }
    return fam, info


def certify_triangle_link(
    g: Graph, fam: SeparatedFamily | None = None, star: Certificate | None = None
) -> Certificate:
    """Certificate that complexes built from unit equilateral triangles with
    every vertex link isomorphic to g are non-positively curved and evenly
    pi-separated: link girth at least six (angular girth 2*pi at edge length
    pi/3), star-separation, and the all-ones weights solving the gluing
    equations on the fully symmetric self-gluing. Each cutset's sides are
    the components of its complement, so every separation it makes is
    covered. ``fam`` must be built on g, and `_triangle_family` bootstraps
    one without it. ``star`` is the ``certify_star_separated`` certificate
    of ``fam``, when the caller has already computed it.
    Facts are decided once per orbit of the family's group, if it has one."""
    if fam is not None and fam.graph != g:
        raise CertifyError("family was built for a different graph")
    cert = Certificate("triangle-link")
    girth_val = girth(g)
    cert.add(
        "link-girth-six",
        girth_val >= 6,
        {"girth": girth_val, "angular_girth_pi_units": girth_val if girth_val is INF else Fraction(girth_val, 3)},
    )

    bootstrap = None
    if fam is None:
        try:
            fam, bootstrap = _triangle_family(g)
        except SepcertError as err:
            cert.add("star-separated", False, {"error": str(err)})
            return cert

    if star is None:
        star = certify_star_separated(fam)
    cert.add("star-separated", star, {"family-bootstrap": bootstrap} if bootstrap else None)

    structure = GluingStructure.homogeneous(fam)
    cert.add("gluing-all-ones", verify_gluing(structure, WeightAssignment.all_ones(structure)))

    if cert.ok:
        cert.add(
            "conclusion",
            True,
            {
                "statement": (
                    "simply connected unit-equilateral triangle complexes whose "
                    "vertex links are isomorphic to this graph are non-positively "
                    "curved and evenly pi-separated"
                ),
                "family_size": len(fam.members),
                "weights": "all-ones",
            },
        )
    return cert
