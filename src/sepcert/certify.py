"""Whole-graph certificates for separation properties.

Each certifier runs a fixed list of named checks and returns a Certificate
whose overall verdict is their conjunction; failing checks carry concrete
witnesses (the offending vertex, pair, or cutset) so a verdict can be
replayed against the base predicates.

A family member given as a bare cutset stands for its canonical
partition, one block per component. A family may carry a group of
automorphisms of its graph. Construction checks three preconditions on
every generator p: p is an automorphism of the graph, p preserves the
metric (each edge keeps its length), and p maps the member multiset onto
itself. It moves each member once by each generator; the same moves
label the member orbits, and each canonical partition, so each component
count, is found once per orbit. Then p maps the complement components of
a member's cutset onto those of its image, and distances onto distances,
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
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .aut import (
    PairOrbits,
    PermutationGroup,
    automorphism_group,
    cycle_notation,
    is_automorphism,
    orbit_labels,
    orbit_of_vertex_set,
    pair_orbits,
)
from .cutset import (
    Cutset,
    CutsetPartition,
    act_on_pair,
    canonical_partition,
    complement_labels,
    image_elements,
    is_discrete,
    is_proper,
    is_sigma_separated,
    is_star_cutset,
)
from .errors import CertifyError, SepcertError
from .graph import (
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


@dataclass(frozen=True)
class SeparatedFamily:
    """A named family of separated cutsets of one link with their
    partitions, validated on construction: sigma must be positive, and
    every member must be a cutset and sigma-separated. A member given as a
    bare `Cutset` stands for, and is stored with, its canonical partition
    (one block per component). Gluing structures tell their links apart by
    name.

    With a ``group``, construction also checks that every generator is an
    automorphism of the graph that preserves the metric and maps the member
    multiset onto itself, moving each member once by each generator, and
    validates one member per orbit (see the module docstring); a canonical
    partition, and so a component count, is found once per orbit.
    ``orbit_of[i]`` is the index of the first member of member i's orbit;
    without a group it is i.

    The family indexes its members by element once, on the first
    `pairs_at`; every later lookup, such as the class sums of each
    gluing check, reads that index."""

    graph: Graph
    sigma: Fraction
    kind: str
    members: tuple[CutsetPartition, ...]
    metric: Metric = None
    name: str = "link"
    group: PermutationGroup | None = None

    def __post_init__(self):
        object.__setattr__(self, "sigma", Fraction(self.sigma))
        if self.sigma <= 0:
            raise CertifyError(f"separation sigma must be positive, got {self.sigma}")
        object.__setattr__(self, "members", tuple(self.members))
        if self.metric is None:
            object.__setattr__(self, "metric", Metric.combinatorial())
        self.metric.validate_for(self.graph)
        if self.kind not in ("vertex", "edge"):
            raise CertifyError(f"unknown cutset kind {self.kind!r}")
        orbit_of = tuple(range(len(self.members)))
        if self.group is not None:
            for m in self.members:
                self._check_kind(m if isinstance(m, Cutset) else m.cutset)
                m.validate_for(self.graph)  # image() moves valid pairs only
            orbit_of = self._member_orbits()
        object.__setattr__(self, "orbit_of", orbit_of)
        canonical = {}
        members = []
        for m, o in zip(self.members, orbit_of):
            if isinstance(m, Cutset):
                if o not in canonical:
                    canonical[o] = canonical_partition(self.graph, m)
                m = CutsetPartition(m, canonical[o])
            members.append(m)
        object.__setattr__(self, "members", tuple(members))
        for i in self.representatives():
            cp = self.members[i]
            self._check_kind(cp.cutset)
            cp.validate_for(self.graph)
            sep = is_sigma_separated(self.graph, self.metric, cp.cutset, self.sigma)
            if not sep.ok:
                raise CertifyError(
                    f"family member {cp.cutset.sorted_elements()} is not "
                    f"{self.sigma}-separated: {sep.witness}"
                )

    def _check_kind(self, c: Cutset) -> None:
        if c.kind != self.kind:
            raise CertifyError(
                f"member {c.sorted_elements()} has kind {c.kind!r}, family is {self.kind!r}"
            )

    def _member_orbits(self) -> tuple[int, ...]:
        """Check the group's generators against the graph, the metric and
        the member multiset, and label each member by its orbit."""
        _check_group(self.graph, self.metric, self.group, self.name)
        keys = self._keys
        times = Counter(keys)
        repeated = len(times) < len(keys)

        def image(p, i: int) -> int:
            j = self.image(p, i)
            if repeated and times[keys[j]] != times[keys[i]]:
                raise CertifyError(
                    f"family of link {self.name!r} is not closed under its group: "
                    f"image {tuple(sorted(keys[j][0]))} has another multiplicity"
                )
            return j

        return tuple(orbit_labels(len(keys), self.group.generators, image))

    @cached_property
    def _keys(self) -> list[tuple]:
        # (elements, partition key) tells pairs apart as pair_key does,
        # without sorting the cutset. The elements alone fix a valid discrete
        # partition, such as a bare cutset's canonical one: its key is None.
        return [
            (m.elements, None)
            if isinstance(m, Cutset)
            else (m.cutset.elements, None if is_discrete(m.partition) else m.partition.key())
            for m in self.members
        ]

    @cached_property
    def _index(self) -> dict[tuple, int]:
        return {key: i for i, key in enumerate(self._keys)}

    def image(self, perm, i: int) -> int:
        """The index of a member equal to the image of member i under the
        automorphism perm. Only the cutset of a member with one component
        per block is moved: its image has one component per block too."""
        elements, key = self._keys[i]
        if key is None:
            key = (image_elements(self.kind, perm, elements), None)
        else:
            img = act_on_pair(self.graph, perm, self.members[i])
            key = (img.cutset.elements, img.partition.key())
        j = self._index.get(key)
        if j is None:
            raise CertifyError(
                f"family of link {self.name!r} is not closed under its group: "
                f"image {tuple(sorted(key[0]))} missing"
            )
        return j

    def representatives(self) -> list[int]:
        """The first member of each orbit, as indices in member order."""
        return [i for i, o in enumerate(self.orbit_of) if i == o]

    def members_of_failed(self, failed) -> list[int]:
        """Indices, in member order, of the members whose orbit is in
        ``failed`` (a set of orbit labels)."""
        return [i for i, o in enumerate(self.orbit_of) if o in failed]

    @cached_property
    def symmetry(self) -> PairOrbits:
        """Orbits of the family's group on vertices and vertex pairs."""
        return self.group.pair_orbits if self.group else pair_orbits(self.graph.n, ())

    @classmethod
    def from_cutsets(
        cls,
        g: Graph,
        sigma,
        cutsets,
        kind: str = "vertex",
        metric: Metric | None = None,
        name: str = "link",
        group: PermutationGroup | None = None,
    ) -> "SeparatedFamily":
        """Family of the cutsets, given as `Cutset`s or as collections of
        vertices or edges of ``kind``, each standing for its canonical
        partition (one block per component). The constructor moves each
        cutset once by each generator of ``group``, and finds each
        partition, so each component count, once per orbit."""
        cuts = tuple(
            c if isinstance(c, Cutset) else Cutset.of_vertices(c) if kind == "vertex" else Cutset.of_edges(c)
            for c in cutsets
        )
        return cls(g, sigma, kind, cuts, metric, name, group)

    @cached_property
    def _members_at(self) -> dict[object, tuple[CutsetPartition, ...]]:
        index: dict[object, list[CutsetPartition]] = {}
        for cp in self.members:
            for x in cp.cutset.elements:
                index.setdefault(x, []).append(cp)
        return {x: tuple(cps) for x, cps in index.items()}

    def pairs_at(self, x) -> tuple[CutsetPartition, ...]:
        """The members whose cutset contains the element x, in member
        order; an edge may be given with its ends in either order."""
        if self.kind == "edge" and isinstance(x, tuple):
            x = edge_key(*x)
        return self._members_at.get(x, ())

    def distinct_cutsets(self) -> tuple[Cutset, ...]:
        seen = {}
        for cp in self.members:
            seen.setdefault(cp.cutset.elements, cp.cutset)
        return tuple(sorted(seen.values(), key=Cutset.key))


def _require_shape(g: Graph, what: str) -> None:
    if not is_connected(g):
        raise CertifyError(f"{what} requires a connected graph")
    bad = next((v for v in g.vertices() if g.degree(v) <= 1), None)
    if bad is not None:
        raise CertifyError(f"{what} requires no degree-1 vertices; vertex {bad} fails")


def _separated_by(labels, u: int, v: int) -> bool:
    lu, lv = labels[u - 1], labels[v - 1]
    return lu is not None and lv is not None and lu != lv


def _splits(g: Graph, cps, u: int, v: int) -> bool:
    """Does some member among cps separate u and v?"""
    return any(_separated_by(complement_labels(g, cp.cutset)[0], u, v) for cp in cps)


def certify_vertex_separated(g: Graph, n: int, fam: SeparatedFamily) -> Certificate:
    """Whole-graph vertex n-separation from a family of n-separated cutsets:
    girth at least 2n, the members cover the vertices, each has at least two
    elements, every pair of neighbors of every vertex is split by a member,
    and every vertex pair at distance >= n is split by a member.

    Member facts are decided once per member orbit, and the pair facts at
    the vertex-orbit representatives (see the module docstring)."""
    _require_shape(g, "vertex separation certificate")
    if fam.kind != "vertex":
        raise CertifyError("vertex certification needs a vertex-kind family")
    if fam.graph != g:
        raise CertifyError("family was built for a different graph")
    n = int(n)
    if n < 2:
        raise CertifyError("separation order must be at least 2")
    cert = Certificate(f"vertex-{n}-separated")
    reps = fam.representatives()

    failed = {i for i in reps if complement_labels(g, fam.members[i].cutset)[1] < 2}
    bad_valid = [fam.members[i].cutset.sorted_elements() for i in fam.members_of_failed(failed)]
    cert.add("members-valid", not bad_valid, {"members": len(fam.members), "violations": bad_valid[:8]})

    failed = {i for i in reps if not is_sigma_separated(g, fam.metric, fam.members[i].cutset, Fraction(n)).ok}
    bad_sep = []
    for i in fam.members_of_failed(failed)[:8]:
        c = fam.members[i].cutset
        bad_sep.append({"cutset": c.sorted_elements(), **is_sigma_separated(g, fam.metric, c, Fraction(n)).witness})
    cert.add("members-separated", not bad_sep, {"sigma": Fraction(n), "violations": bad_sep})

    girth_val = girth(g)
    cert.add("girth", girth_val >= 2 * n, {"girth": girth_val, "required": 2 * n})

    covered = frozenset().union(*(cp.cutset.elements for cp in fam.members)) if fam.members else frozenset()
    missing = sorted(set(g.vertices()) - covered)
    cert.add(
        "covering",
        not missing,
        {"covered": len(covered), "vertices": g.n, "missing": missing[:16]},
    )

    small = [cp.cutset.sorted_elements() for cp in fam.members if len(cp.cutset) < 2]
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
    for cp in fam.members:
        if not unsplit_labels:
            break
        lab = complement_labels(g, cp.cutset)[0]
        unsplit_labels = {p for p in unsplit_labels if not _separated_by(lab, *p)}
    remaining = [p for p, lab in zip(distant, labels) if lab in unsplit_labels]
    cert.add(
        "distant-pairs-split",
        not remaining,
        {"pairs": len(distant), "violations": remaining[:8]},
    )
    return cert


def certify_edge_separated(
    g: Graph, metric: Metric, sigma, fam: SeparatedFamily
) -> Certificate:
    """Edge sigma-separation: proper sigma-separated members of size >= 2
    whose union is the whole edge set."""
    _require_shape(g, "edge separation certificate")
    if fam.kind != "edge":
        raise CertifyError("edge certification needs an edge-kind family")
    if fam.graph != g:
        raise CertifyError("family was built for a different graph")
    metric = metric or Metric.combinatorial()
    metric.validate_for(g)
    sigma = Fraction(sigma)
    cert = Certificate(f"edge-{sigma}-separated")

    bad_proper = []
    for cp in fam.members:
        verdict = is_proper(g, cp.cutset)
        if not verdict.ok:
            bad_proper.append({"cutset": cp.cutset.sorted_elements(), **verdict.witness})
    cert.add("members-proper", not bad_proper, {"members": len(fam.members), "violations": bad_proper[:8]})

    bad_sep = []
    for cp in fam.members:
        sep = is_sigma_separated(g, metric, cp.cutset, sigma)
        if not sep.ok:
            bad_sep.append({"cutset": cp.cutset.sorted_elements(), **sep.witness})
    cert.add("members-separated", not bad_sep, {"sigma": sigma, "violations": bad_sep[:8]})

    small = [cp.cutset.sorted_elements() for cp in fam.members if len(cp.cutset) < 2]
    cert.add("member-size", not small, {"violations": small[:8]})

    covered = frozenset().union(*(cp.cutset.elements for cp in fam.members)) if fam.members else frozenset()
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


def certify_star_separated(g: Graph, fam: SeparatedFamily) -> Certificate:
    """Star-separation of a trivalent graph: the graph is connected,
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
    if fam.kind != "vertex" or fam.graph != g:
        raise CertifyError("star certification needs a vertex-kind family on this graph")

    verdicts = {}
    failed = set()
    for i in fam.representatives():
        c = fam.members[i].cutset
        if c not in verdicts:
            verdicts[c] = is_star_cutset(g, c)
        if not verdicts[c].ok:
            failed.add(i)
    bad = sorted({fam.members[i].cutset for i in fam.members_of_failed(failed)}, key=Cutset.sorted_elements)
    bad_star = [
        {"cutset": c.sorted_elements(), **(verdicts.get(c) or is_star_cutset(g, c)).witness}
        for c in bad[:8]
    ]
    cert.add(
        "members-star",
        not bad_star,
        {"members": len(fam.members), "violations": bad_star},
    )

    cert.add("vertex-3-separated", certify_vertex_separated(g, 3, fam))

    counts = _split_counts(g, [cp.cutset for cp in fam.members], fam.symmetry.reps())
    set_values = sorted({x for once, _ in counts.values() for x in once})
    multi_values = sorted({x for _, many in counts.values() for x in many})
    set_constant = len(set_values) == 1 and set_values[0] >= 1
    multi_constant = len(multi_values) == 1 and multi_values[0] >= 1
    witness = {
        "slots": len(_SLOTS) * g.n,
        "distinct_cutsets": len(fam.distinct_cutsets()),
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


def _triangle_family(g: Graph, node_budget: int) -> tuple[SeparatedFamily, dict]:
    """Bootstrap a star-cutset family: search a neighbor-split goal at
    vertex 1, close the first find under the automorphism group, which the
    family keeps."""
    from .search import NeighborSplitGoal, SearchTask, search_star_cutsets

    res = search_star_cutsets(SearchTask(g, NeighborSplitGoal(1, 1, 2), node_budget=node_budget))
    if not res.keys:
        raise CertifyError(
            "no star cutsets found within the search budget; supply a family"
        )
    grp = automorphism_group(g)
    seed = frozenset(map(ord, res.keys[0]))
    closure = orbit_of_vertex_set(grp, seed)
    fam = SeparatedFamily.from_cutsets(g, 3, closure, group=grp)
    info = {
        "searched_nodes": res.stats["nodes"],
        "search_exhausted": res.exhausted,
        "seed": tuple(sorted(seed)),
        "orbit_size": len(closure),
    }
    return fam, info


def certify_triangle_link(
    g: Graph,
    fam: SeparatedFamily | None = None,
    node_budget: int = 5000,
    star: Certificate | None = None,
) -> Certificate:
    """Certificate that complexes built from unit equilateral triangles with
    every vertex link isomorphic to g are non-positively curved and evenly
    pi-separated: link girth at least six (angular girth 2*pi at edge length
    pi/3), star-separation, partitions covering every separation, and the
    all-ones weights solving the gluing equations on the fully symmetric
    self-gluing. ``star`` is the ``certify_star_separated`` certificate of
    ``fam``, when the caller has already computed it.
    Facts are decided once per orbit of the family's group, if it has one."""
    from .gluing import GluingStructure, WeightAssignment, verify_gluing

    cert = Certificate("triangle-link")
    girth_val = girth(g)
    cert.add(
        "link-girth-six",
        girth_val >= 6,
        {"girth": girth_val, "angular_girth_pi_units": Fraction(girth_val, 3)},
    )

    bootstrap = None
    if fam is None:
        try:
            fam, bootstrap = _triangle_family(g, node_budget)
        except SepcertError as err:
            cert.add("star-separated", False, {"error": str(err)})
            return cert

    if star is None:
        star = certify_star_separated(g, fam)
    cert.add("star-separated", star, {"family-bootstrap": bootstrap} if bootstrap else None)

    by_cutset: dict = {}
    for cp in fam.members:
        by_cutset.setdefault(cp.cutset, []).append(cp.partition)

    def uncovered(c: Cutset) -> list:
        _, count = complement_labels(g, c)
        return [
            {"cutset": c.sorted_elements(), "components": (a, b)}
            for a, b in combinations(range(count), 2)
            if not any(p.block_of(a) != p.block_of(b) for p in by_cutset[c])
        ]

    failed = {i for i in fam.representatives() if uncovered(fam.members[i].cutset)}
    bad = {fam.members[i].cutset for i in fam.members_of_failed(failed)}
    violations = []
    for c in sorted(bad, key=Cutset.key):
        if len(violations) >= 8:
            break
        violations.extend(uncovered(c))
    cert.add(
        "partitions-cover-separations",
        not violations,
        {
            "cutsets": len(by_cutset),
            "violations": violations[:8],
            "justification": "canonical partitions keep components in distinct blocks",
        },
    )

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
