"""Whole-graph certificates for separation properties.

Each certifier runs a fixed list of named checks and returns a Certificate
whose overall verdict is their conjunction; failing checks carry concrete
witnesses (the offending vertex, pair, or cutset) so a verdict can be
replayed against the base predicates.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .aut import PermutationGroup, automorphism_group, orbit_of_vertex_set
from .cutset import (
    Cutset,
    CutsetPartition,
    NeighborOrdering,
    canonical_partition,
    complement_labels,
    is_proper,
    is_sigma_separated,
    is_star_cutset,
)
from .errors import CertifyError, SepcertError
from .graph import Graph, Metric, bipartition, distances, edge_key, girth, is_connected
from .report import Certificate


@dataclass(frozen=True)
class SeparatedFamily:
    """A named family of separated cutsets of one link with their
    partitions, validated on construction: every member must be a cutset
    and sigma-separated. Gluing structures tell their links apart by name.

    The family indexes its members by element once, on the first
    `pairs_at`; every later lookup, such as the class sums of each
    gluing check, reads that index."""

    graph: Graph
    sigma: Fraction
    kind: str
    members: tuple[CutsetPartition, ...]
    metric: Metric = None
    name: str = "link"

    def __post_init__(self):
        object.__setattr__(self, "sigma", Fraction(self.sigma))
        object.__setattr__(self, "members", tuple(self.members))
        if self.metric is None:
            object.__setattr__(self, "metric", Metric.combinatorial())
        self.metric.validate_for(self.graph)
        if self.kind not in ("vertex", "edge"):
            raise CertifyError(f"unknown cutset kind {self.kind!r}")
        for cp in self.members:
            if cp.cutset.kind != self.kind:
                raise CertifyError(
                    f"member {cp.cutset.sorted_elements()} has kind "
                    f"{cp.cutset.kind!r}, family is {self.kind!r}"
                )
            cp.validate_for(self.graph)
            if complement_labels(self.graph, cp.cutset)[1] < 2:
                raise CertifyError(
                    f"family member {cp.cutset.sorted_elements()} is not a cutset"
                )
            sep = is_sigma_separated(self.graph, self.metric, cp.cutset, self.sigma)
            if not sep.ok:
                raise CertifyError(
                    f"family member {cp.cutset.sorted_elements()} is not "
                    f"{self.sigma}-separated: {sep.witness}"
                )

    @classmethod
    def from_cutsets(
        cls,
        g: Graph,
        sigma,
        cutsets,
        kind: str = "vertex",
        metric: Metric | None = None,
        name: str = "link",
    ) -> "SeparatedFamily":
        """Family with the canonical (one block per component) partitions."""
        members = []
        for c in cutsets:
            if not isinstance(c, Cutset):
                c = Cutset.of_vertices(c) if kind == "vertex" else Cutset.of_edges(c)
            members.append(CutsetPartition(c, canonical_partition(g, c)))
        return cls(g, Fraction(sigma), kind, tuple(members), metric, name)

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


def _member_labels(g: Graph, fam: SeparatedFamily) -> list:
    return [complement_labels(g, cp.cutset)[0] for cp in fam.members]


def _separated_by(labels, u: int, v: int) -> bool:
    lu, lv = labels[u - 1], labels[v - 1]
    return lu is not None and lv is not None and lu != lv


def certify_vertex_separated(g: Graph, n: int, fam: SeparatedFamily) -> Certificate:
    """Whole-graph vertex n-separation from a family of n-separated cutsets:
    girth at least 2n, the members cover the vertices, each has at least two
    elements, every pair of neighbors of every vertex is split by a member,
    and every vertex pair at distance >= n is split by a member."""
    _require_shape(g, "vertex separation certificate")
    if fam.kind != "vertex":
        raise CertifyError("vertex certification needs a vertex-kind family")
    if fam.graph != g:
        raise CertifyError("family was built for a different graph")
    n = int(n)
    if n < 2:
        raise CertifyError("separation order must be at least 2")
    cert = Certificate(f"vertex-{n}-separated")

    bad_valid = [
        cp.cutset.sorted_elements()
        for cp in fam.members
        if complement_labels(g, cp.cutset)[1] < 2
    ]
    cert.add("members-valid", not bad_valid, {"members": len(fam.members), "violations": bad_valid[:8]})

    bad_sep = []
    for cp in fam.members:
        sep = is_sigma_separated(g, fam.metric, cp.cutset, Fraction(n))
        if not sep.ok:
            bad_sep.append({"cutset": cp.cutset.sorted_elements(), **sep.witness})
    cert.add("members-separated", not bad_sep, {"sigma": Fraction(n), "violations": bad_sep[:8]})

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

    labels = _member_labels(g, fam)
    unsplit = []
    pair_count = 0
    for v in g.vertices():
        nbrs = g.neighbors(v)
        for a in range(len(nbrs)):
            for b in range(a + 1, len(nbrs)):
                pair_count += 1
                w, w2 = nbrs[a], nbrs[b]
                if not any(_separated_by(lab, w, w2) for lab in labels):
                    unsplit.append((v, w, w2))
    cert.add(
        "neighbor-pairs-split",
        not unsplit,
        {"pairs": pair_count, "violations": unsplit[:8]},
    )

    table = distances(g)
    remaining = [
        (u, v)
        for u in g.vertices()
        for v in g.vertices()
        if u < v and table.get(u, v) >= n
    ]
    total = len(remaining)
    for lab in labels:
        if not remaining:
            break
        remaining = [(u, v) for u, v in remaining if not _separated_by(lab, u, v)]
    cert.add(
        "distant-pairs-split",
        not remaining,
        {"pairs": total, "violations": remaining[:8]},
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


def split_pattern(g: Graph, ordering: NeighborOrdering, labels, v: int):
    """Which neighbor pair of v (positions into the ordering) lands in one
    component: (i, j) sorted, or None when v's neighborhood does not meet
    exactly the same/different shape (all three together, or v not in the
    cutset's complementary structure)."""
    w = ordering.at(v)
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


def star_split_counts(
    g: Graph,
    cutsets,
    ordering: NeighborOrdering | None = None,
) -> tuple[dict, dict]:
    """For every vertex v and neighbor-pair positions i<j, how many cutsets
    contain v with w_i(v), w_j(v) in one component: counted once per
    distinct cutset, and with multiplicity over the cutsets as given. Each
    distinct cutset is classified once."""
    ordering = ordering or NeighborOrdering.ascending(g)
    ordering.validate_for(g)
    set_counts = {(v, i, j): 0 for v in g.vertices() for i, j in ((1, 2), (1, 3), (2, 3))}
    multi_counts = dict(set_counts)
    for c, times in Counter(cutsets).items():
        labels, _ = complement_labels(g, c)
        for v in c.sorted_elements():
            pat = split_pattern(g, ordering, labels, v)
            if pat is None:
                continue
            for ij in ((1, 2), (1, 3), (2, 3)) if pat == "one-sided" else (pat,):
                set_counts[(v, *ij)] += 1
                multi_counts[(v, *ij)] += times
    return set_counts, multi_counts


def certify_star_separated(
    g: Graph,
    fam: SeparatedFamily,
    ordering: NeighborOrdering | None = None,
) -> Certificate:
    """Star-separation of a trivalent graph: the graph is connected,
    bipartite and trivalent; the family members are star cutsets
    (3-separated, two components, minimal); the family certifies vertex
    3-separation; and the same-side counts |C(v,i,j)| over the distinct
    cutsets agree on one constant M/3 across every vertex and neighbor pair.

    The constant is computed on the set of distinct cutsets; the counts with
    multiplicity over the family as given are reported alongside, and the
    check fails loudly when the two disagree about constancy."""
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

    bad_star = []
    for c in {cp.cutset for cp in fam.members}:
        verdict = is_star_cutset(g, c)
        if not verdict.ok:
            bad_star.append({"cutset": c.sorted_elements(), **verdict.witness})
    bad_star.sort(key=lambda w: w["cutset"])
    cert.add(
        "members-star",
        not bad_star,
        {"members": len(fam.members), "violations": bad_star[:8]},
    )

    cert.add("vertex-3-separated", certify_vertex_separated(g, 3, fam))

    distinct = fam.distinct_cutsets()
    set_counts, multi_counts = star_split_counts(g, [cp.cutset for cp in fam.members], ordering)
    set_values = sorted(set(set_counts.values()))
    multi_values = sorted(set(multi_counts.values()))
    set_constant = len(set_values) == 1 and set_values[0] >= 1
    multi_constant = len(multi_values) == 1 and multi_values[0] >= 1
    witness = {
        "slots": len(set_counts),
        "distinct_cutsets": len(distinct),
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


def _triangle_family(
    g: Graph,
    group: PermutationGroup | None,
    node_budget: int,
    ordering: NeighborOrdering | None,
) -> tuple[SeparatedFamily, PermutationGroup, dict]:
    """Bootstrap a star-cutset family: search a neighbor-split goal at
    vertex 1, close the first finds under the automorphism group."""
    from .search import NeighborSplitGoal, SearchTask, search_star_cutsets

    grp = group or automorphism_group(g)
    res = search_star_cutsets(
        SearchTask(
            g,
            NeighborSplitGoal(1, 1, 2),
            node_budget=node_budget,
            ordering=ordering,
        )
    )
    if not res.cutsets:
        raise CertifyError(
            "no star cutsets found within the search budget; supply a family"
        )
    seed = res.cutsets[0].elements
    closure = orbit_of_vertex_set(grp, seed)
    fam = SeparatedFamily.from_cutsets(g, 3, closure)
    info = {
        "searched_nodes": res.stats["nodes"],
        "search_exhausted": res.exhausted,
        "seed": tuple(sorted(seed)),
        "orbit_size": len(closure),
    }
    return fam, grp, info


def certify_triangle_link(
    g: Graph,
    fam: SeparatedFamily | None = None,
    group: PermutationGroup | None = None,
    ordering: NeighborOrdering | None = None,
    node_budget: int = 5000,
    star: Certificate | None = None,
) -> Certificate:
    """Certificate that complexes built from unit equilateral triangles with
    every vertex link isomorphic to g are non-positively curved and evenly
    pi-separated: link girth at least six (angular girth 2*pi at edge length
    pi/3), star-separation, partitions covering every separation, and the
    all-ones weights solving the gluing equations on the fully symmetric
    self-gluing. ``star`` is the ``certify_star_separated`` certificate of
    ``fam`` under ``ordering``, when the caller has already computed it."""
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
            fam, group, bootstrap = _triangle_family(g, group, node_budget, ordering)
        except SepcertError as err:
            cert.add("star-separated", False, {"error": str(err)})
            return cert

    if star is None:
        star = certify_star_separated(g, fam, ordering)
    cert.add("star-separated", star, {"family-bootstrap": bootstrap} if bootstrap else None)

    uncovered = []
    by_cutset: dict = {}
    for cp in fam.members:
        by_cutset.setdefault(cp.cutset, []).append(cp.partition)
    for c, partitions in sorted(by_cutset.items(), key=lambda kv: kv[0].key()):
        _, count = complement_labels(g, c)
        for a in range(count):
            for b in range(a + 1, count):
                if not any(p.block_of(a) != p.block_of(b) for p in partitions):
                    uncovered.append({"cutset": c.sorted_elements(), "components": (a, b)})
    cert.add(
        "partitions-cover-separations",
        not uncovered,
        {
            "cutsets": len(by_cutset),
            "violations": uncovered[:8],
            "justification": "canonical partitions keep components in distinct blocks",
        },
    )

    structure = GluingStructure.homogeneous(fam, group)
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
