"""Separation certificates: families validate on construction, each clause
fails for the right reason, and small hand-built families certify whole
graphs end to end."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from fractions import Fraction
import random

import pytest

from _oracles import brute_split_counts, generator_member_orbits
from sepcert import certify
from sepcert.certify import (
    _SLOTS,
    SeparatedFamily,
    _split_counts,
    certify_edge_separated,
    certify_star_separated,
    certify_triangle_link,
    certify_vertex_separated,
    split_pattern,
)
from sepcert.aut import PermutationGroup, automorphism_group, orbit_of_vertex_set
from sepcert.cutset import Cutset, complement_labels
from sepcert.datasets import named_graph
from sepcert.errors import CertifyError, CutsetError
from sepcert.gluing import GluingStructure, WeightAssignment, verify_gluing
from sepcert.graph import Graph, Metric
from sepcert.report import dumps
from test_aut import assert_orbit_matches_the_frozenset_search
from test_gluing import c6_three_sided_family


@pytest.fixture(scope="module")
def q3():
    return named_graph("q3")


@pytest.fixture(scope="module")
def q3_neighborhood_family(q3):
    """The eight neighbor balls N(v): independent 2-separated cutsets that
    isolate one vertex each and jointly 2-separate the cube."""
    return SeparatedFamily.from_cutsets(
        q3, 2, [Cutset.of_vertices(q3.neighbors(v)) for v in q3.vertices()]
    )


# ------------------------------------------------------------- families --


def test_family_validates_members(q3):
    # each refusal without a group, and on a family that is closed under
    # the graph's group with it
    singletons = [Cutset.of_vertices([v]) for v in q3.vertices()]
    balls = [Cutset.of_vertices(q3.neighbors(v)) for v in q3.vertices()]
    for group in (None, automorphism_group(q3)):
        with pytest.raises(CutsetError, match="not a cutset"):
            SeparatedFamily.from_cutsets(q3, 2, singletons, group=group)
        with pytest.raises(CertifyError, match="is not 3-separated"):
            # neighbors sit at distance 2, so sigma=3 must be rejected
            SeparatedFamily.from_cutsets(q3, 3, balls, group=group)
        with pytest.raises(CutsetError, match=r"^not a cutset: complement has 1 component\(s\)$"):
            # two neighbours of 1 sit at distance 2, so they are not
            # 3-separated either: the cutset check comes first
            pairs = orbit_of_vertex_set(automorphism_group(q3), q3.neighbors(1)[:2])
            SeparatedFamily.from_cutsets(q3, 3, pairs, group=group)
    c8 = named_graph("c8")
    for group in (None, automorphism_group(c8)):
        with pytest.raises(CertifyError, match="has kind 'edge'"):
            # a genuine edge cutset cannot join a vertex-kind family
            SeparatedFamily.from_cutsets(c8, 2, [Cutset.of_edges([(1, 2), (5, 6)])], kind="vertex", group=group)
    # one edge of the Petersen graph is neither of the family's kind nor a
    # cutset: the kind is checked first, with or without the group
    petersen = named_graph("petersen")
    for group in (None, automorphism_group(petersen)):
        with pytest.raises(CertifyError, match=r"^member \(\(1, 2\),\) has kind 'edge', family is 'vertex'$"):
            SeparatedFamily.from_cutsets(petersen, 3, [Cutset.of_edges([(1, 2)])], group=group)
    # every set is 0-separated, but no separation is of order 0 or less
    for sigma in (0, -1):
        with pytest.raises(CertifyError, match="sigma must be positive"):
            SeparatedFamily.from_cutsets(c8, sigma, [Cutset.of_edges([(1, 2), (5, 6)])], kind="edge")


def test_family_image_moves_a_member_by_its_elements():
    # the diameter {1, 4} of C6 goes to every diameter under Aut(C6)
    c6 = named_graph("c6")
    grp = automorphism_group(c6)
    fam = SeparatedFamily.from_cutsets(c6, 3, [(1, 4), (2, 5), (3, 6)], group=grp)
    assert {fam.members[fam.image(p, 0)].sorted_elements() for p in grp.elements()} == {(1, 4), (2, 5), (3, 6)}
    assert fam.orbit_of == (0, 0, 0)


def test_family_distinct_cutsets(q3, q3_neighborhood_family):
    fam = q3_neighborhood_family
    assert len(set(fam.members)) == 8
    doubled = SeparatedFamily(q3, fam.sigma, "vertex", fam.members + fam.members)
    assert set(doubled.members) == set(fam.members)


# ------------------------------------------------------ vertex-separated --


def test_q3_is_vertex_2_separated(q3_neighborhood_family):
    cert = certify_vertex_separated(q3_neighborhood_family, 2)
    assert cert.ok
    names = [c.name for c in cert.checks]
    assert names == [
        "members-valid",
        "members-separated",
        "girth",
        "covering",
        "member-size",
        "neighbor-pairs-split",
        "distant-pairs-split",
    ]


def test_vertex_separation_girth_clause(q3, q3_neighborhood_family):
    # girth 4 < 2*3, so asking for 3-separation must fail the girth clause
    fam3 = SeparatedFamily(q3, 2, "vertex", q3_neighborhood_family.members)
    cert = certify_vertex_separated(fam3, 3)
    assert not cert.check("girth").ok
    assert cert.check("girth").witness == {"girth": 4, "required": 6}


def test_vertex_separation_covering_clause(q3):
    fam = SeparatedFamily.from_cutsets(q3, 2, [Cutset.of_vertices(q3.neighbors(1))])
    cert = certify_vertex_separated(fam, 2)
    assert not cert.ok
    assert not cert.check("covering").ok
    assert 1 in cert.check("covering").witness["missing"]


def test_vertex_separation_rejects_shape_problems(q3_neighborhood_family):
    p4 = named_graph("p4")
    with pytest.raises(CertifyError, match="degree-1"):
        certify_vertex_separated(SeparatedFamily.from_cutsets(p4, 2, [Cutset.of_vertices([2])]), 2)
    with pytest.raises(CertifyError, match="at least 2"):
        certify_vertex_separated(q3_neighborhood_family, 1)


@pytest.mark.parametrize("n", [Fraction(5, 2), 2.9], ids=["5/2", "2.9"])
def test_vertex_separation_refuses_a_fractional_order(q3_neighborhood_family, n):
    # an order is not rounded down to one the family passes
    with pytest.raises(CertifyError, match="must be an integer"):
        certify_vertex_separated(q3_neighborhood_family, n)


# -------------------------------------------------------- edge-separated --


@pytest.fixture(scope="module")
def c8_opposite_edges():
    c8 = named_graph("c8")
    pairs = [[(1, 2), (5, 6)], [(2, 3), (6, 7)], [(3, 4), (7, 8)], [(4, 5), (1, 8)]]
    fam = SeparatedFamily.from_cutsets(c8, 4, [Cutset.of_edges(p) for p in pairs], kind="edge")
    return c8, fam


def test_c8_is_edge_4_separated(c8_opposite_edges):
    _, fam = c8_opposite_edges
    cert = certify_edge_separated(fam)
    assert cert.ok


def test_edge_separation_cover_clause(c8_opposite_edges):
    c8, fam = c8_opposite_edges
    partial = SeparatedFamily(c8, 4, "edge", fam.members[:2])
    cert = certify_edge_separated(partial)
    assert not cert.ok
    assert not cert.check("edge-cover").ok


def test_edge_separation_kind_mismatch(q3_neighborhood_family):
    with pytest.raises(CertifyError):
        certify_edge_separated(q3_neighborhood_family)


# ------------------------------------------------- star-separated pieces --


def test_split_pattern_classifies(f090a, seed_cutsets):
    # bundled seed C2 keeps v1's second and third neighbors (18, 90) together
    labels, _ = complement_labels(f090a, seed_cutsets[1])
    assert split_pattern(f090a, labels, 1) == (2, 3)
    labels, _ = complement_labels(f090a, seed_cutsets[2])
    assert split_pattern(f090a, labels, 1) == (1, 3)
    labels, _ = complement_labels(f090a, seed_cutsets[0])
    assert split_pattern(f090a, labels, 1) == (1, 2)


def _split_counts_by_slot(g, cutsets) -> tuple[dict, dict]:
    """The same-side counts at every vertex, keyed (v, i, j) as the
    brute-force oracle keys them: once per distinct cutset, and with
    multiplicity over the cutsets as given."""
    counts = _split_counts(g, cutsets, g.vertices())
    return tuple(
        {(v, i, j): pair[which][k] for v, pair in counts.items() for k, (i, j) in enumerate(_SLOTS)}
        for which in (0, 1)
    )


def test_star_split_counts_sum(f090a, seed_cutsets):
    counts, with_multiplicity = _split_counts_by_slot(f090a, seed_cutsets)
    assert with_multiplicity == counts  # the three seeds are distinct
    assert counts == brute_split_counts(f090a, [c.elements for c in seed_cutsets])
    # v1 lies in all three seeds, one per split slot
    assert counts[(1, 1, 2)] == 1 and counts[(1, 1, 3)] == 1 and counts[(1, 2, 3)] == 1


def test_star_split_counts_with_a_duplicated_member(q3, q3_neighborhood_family):
    # N(1) twice: the set counts stay 1 on every slot, the multiset counts
    # rise to 2 on the slots N(1) fills
    fam = SeparatedFamily(
        q3, 2, "vertex", q3_neighborhood_family.members + q3_neighborhood_family.members[:1]
    )
    cutsets = [c.elements for c in fam.members]
    brute = brute_split_counts(q3, cutsets)
    counts, with_multiplicity = _split_counts_by_slot(q3, fam.members)
    assert with_multiplicity == brute
    assert counts == brute_split_counts(q3, set(cutsets))
    star = certify_star_separated(fam).check("split-counts-constant")
    assert star.ok
    assert star.witness["distinct_cutsets"] == 8
    assert star.witness["set_values"] == sorted(set(brute_split_counts(q3, set(cutsets)).values()))
    assert star.witness["set_values"] == [1]
    assert star.witness["multiset_values"] == sorted(set(brute.values())) == [1, 2]
    assert "note" not in star.witness


def test_certify_star_separated_reports_noncubic():
    c8 = named_graph("c8")
    fam = SeparatedFamily.from_cutsets(c8, 3, [Cutset.of_vertices([1, 5])])
    cert = certify_star_separated(fam)
    assert not cert.ok
    assert not cert.check("cubic").ok


def test_certify_star_separated_empty_family_fails_loudly():
    heawood = named_graph("heawood")
    fam = SeparatedFamily(heawood, 3, "vertex", ())
    cert = certify_star_separated(fam)
    assert not cert.ok
    assert not cert.check("vertex-3-separated").ok
    assert not cert.check("split-counts-constant").ok


# ---------------------------------------------------------- triangle-link --


def test_triangle_link_rejects_low_girth():
    cert = certify_triangle_link(named_graph("k4"))
    assert not cert.ok
    assert not cert.check("link-girth-six").ok


def test_triangle_link_refuses_a_family_of_another_graph(q3_neighborhood_family):
    with pytest.raises(CertifyError, match="different graph"):
        certify_triangle_link(named_graph("petersen"), q3_neighborhood_family)


def test_triangle_link_heawood_fails_star_stage():
    # girth six, but the Heawood graph has no star cutsets at all
    cert = certify_triangle_link(named_graph("heawood"))
    assert cert.check("link-girth-six").ok
    assert not cert.check("star-separated").ok
    assert not cert.ok


# ------------------------------------------------------ up to symmetry --


def _docs(cert, drop=()):
    """Each check of a certificate as report JSON, leaving out the named
    checks of its gluing sub-certificate."""
    out = []
    for c in cert.checks:
        doc = c.doc()
        if c.name == "gluing-all-ones":
            doc["witness"]["checks"] = {k: v for k, v in doc["witness"]["checks"].items() if k not in drop}
        if c.name not in drop:
            out.append((c.name, dumps(doc)))
    return out


def _certify_alike_with_and_without_the_group(g, fam):
    """Vertex and star separation, the all-ones gluing and the triangle
    link of fam agree check by check with those of the same members
    without a group; weights-invariant is the one check only the group
    adds. Returns the certificates made with the group."""
    got = []
    for f in (fam, replace(fam, group=None)):
        star = certify_star_separated(f)
        structure = GluingStructure.homogeneous(f)
        got.append(
            (
                certify_vertex_separated(f, 3),
                star,
                verify_gluing(structure, WeightAssignment.all_ones(structure)),
                certify_triangle_link(g, f, star=star),
            )
        )
    reduced, plain = got
    assert "weights-invariant" in [c.name for c in reduced[2].checks]
    assert "weights-invariant" not in [c.name for c in plain[2].checks]
    for a, b in zip(reduced, plain):
        assert _docs(a, drop={"weights-invariant"}) == _docs(b)
    return reduced


#: The distinct sizes of the 15 Aut(F090A)-orbits of the star census.
CENSUS_ORBIT_SIZES = (180, 216, 540, 720, 1080, 2160)


def test_every_census_orbit_certifies_the_triangle_link_with_its_group(f090a, f090a_group, census_orbits):
    assert len(census_orbits) == 15
    assert sorted({len(orbit) for orbit in census_orbits}) == list(CENSUS_ORBIT_SIZES)
    for orbit in census_orbits:
        fam = SeparatedFamily.from_cutsets(f090a, 3, orbit, group=f090a_group)
        assert fam.representatives() == [0]
        cert = certify_triangle_link(f090a, fam)
        assert cert.ok, [c.name for c in cert.checks if not c.ok]
        assert cert.check("conclusion").witness["family_size"] == len(orbit)


@pytest.mark.parametrize(
    "size", [size if size <= 540 else pytest.param(size, marks=pytest.mark.slow) for size in CENSUS_ORBIT_SIZES]
)
def test_census_orbits_certify_alike_with_and_without_the_group(f090a, f090a_group, census_orbits, size):
    orbits = [orbit for orbit in census_orbits if len(orbit) == size]
    assert orbits
    for orbit in orbits:
        fam = SeparatedFamily.from_cutsets(f090a, 3, orbit, group=f090a_group)
        assert _certify_alike_with_and_without_the_group(f090a, fam)[3].ok


def test_seed_closure_certifies_alike_with_and_without_the_group(f090a, symmetric_closure_family):
    _, star, gluing, link = _certify_alike_with_and_without_the_group(f090a, symmetric_closure_family)
    # the bundled seeds are not minimal, and the all-ones weights fail
    assert not star.check("members-star").ok
    assert not gluing.check("cross-edge-balance").ok
    assert gluing.check("cross-edge-balance").witness["equations"] == 14400
    assert not link.ok


def test_failing_certificates_agree_with_and_without_a_cyclic_group(f090a, f090a_group, census_orbits):
    # the orbit of one census cutset under one generator of Aut(F090A):
    # a small family, with many vertex orbits, whose counts vary and whose
    # neighbour and distant pairs are not all split
    cyclic = PermutationGroup.generated_by(f090a.n, f090a_group.generators[:1])
    orbit = orbit_of_vertex_set(cyclic, census_orbits[0][0])
    fam = SeparatedFamily.from_cutsets(f090a, 3, orbit, group=cyclic)
    assert 1 < len(fam.symmetry.reps()) < f090a.n
    _, star, _, link = _certify_alike_with_and_without_the_group(f090a, fam)
    split = star.check("split-counts-constant").witness
    assert len(split["set_values"]) > 1
    vertex = certify_vertex_separated(fam, 3)
    assert not vertex.check("neighbor-pairs-split").ok
    assert not vertex.check("distant-pairs-split").ok
    assert not link.ok


def test_cyclic_group_orbits_match_the_frozenset_search(f090a, f090a_group, census_orbits):
    # one generator: the closure runs through the chain that Schreier–Sims
    # builds from it
    cyclic = PermutationGroup.generated_by(f090a.n, f090a_group.generators[:1])
    for census_orbit in census_orbits:
        assert_orbit_matches_the_frozenset_search(cyclic, census_orbit[0])


def test_hexagonal_prism_counts_differ_between_slots_of_one_vertex():
    # one vertex orbit, but the stabilizer of a vertex fixes its rung
    # neighbour, so the three slots at the representative count 0, 1, 1
    outer = [(i, i % 6 + 1) for i in range(1, 7)]
    g = Graph(12, outer + [(u + 6, v + 6) for u, v in outer] + [(i, i + 6) for i in range(1, 7)])
    grp = automorphism_group(g)
    fam = SeparatedFamily.from_cutsets(g, 2, orbit_of_vertex_set(grp, {1, 3, 8, 10}), group=grp)
    assert fam.symmetry.reps() == (1,)
    _, star, _, _ = _certify_alike_with_and_without_the_group(g, fam)
    assert star.check("split-counts-constant").witness["set_values"] == [0, 1]


def test_c8_family_under_a_half_turn_fails_alike_with_and_without_it():
    c8 = named_graph("c8")
    half_turn = PermutationGroup.generated_by(8, [(5, 6, 7, 8, 1, 2, 3, 4)])
    fam = SeparatedFamily.from_cutsets(c8, 2, [Cutset.of_vertices((1, 5))], group=half_turn)
    got = [certify_vertex_separated(f, 2) for f in (fam, replace(fam, group=None))]
    assert dumps(got[0].doc()) == dumps(got[1].doc())
    # 6 and its neighbours 5, 7 are decided at 2 with 1, 3
    assert (6, 5, 7) in got[0].check("neighbor-pairs-split").witness["violations"]
    assert not got[0].check("distant-pairs-split").ok


def test_family_closes_each_orbit_through_the_chain(
    monkeypatch, f090a, f090a_group, f090a_census, seed_cutsets, orbit_closure
):
    """A family built with a group closes each orbit once, through
    `aut.orbit_of_vertex_set`, moves no member with `image_elements`, and
    checks one member per orbit as a cutset: built from the census's orbit
    representatives or from all of its members, and from the three seeds,
    which share one orbit, or from that orbit."""
    calls = Counter()
    for name in ("orbit_of_vertex_set", "image_elements", "_require_cutset"):

        def counted(*args, _name=name, _call=getattr(certify, name)):
            calls[_name] += 1
            return _call(*args)

        monkeypatch.setattr(certify, name, counted)
    reps = [frozenset(map(ord, key)) for key in f090a_census.orbits]
    builds = (
        (lambda: SeparatedFamily.from_orbits(f090a, 3, reps, f090a_group), 15),
        (lambda: SeparatedFamily.from_cutsets(f090a, 3, f090a_census.cutsets, group=f090a_group), 15),
        (lambda: SeparatedFamily.from_orbits(f090a, 3, seed_cutsets, f090a_group), 1),
        (lambda: SeparatedFamily.from_cutsets(f090a, 3, orbit_closure, group=f090a_group), 1),
    )
    for build, orbits in builds:
        calls.clear()
        fam = build()
        assert len(fam.representatives()) == orbits
        assert calls == Counter(orbit_of_vertex_set=orbits, image_elements=0, _require_cutset=orbits)


def assert_from_orbits_is_from_cutsets(g, sigma, reps, group, kind="vertex") -> SeparatedFamily:
    """The family of the orbits of ``reps`` equals the family of every
    image, given sorted by `Cutset.key`, with the same orbit labels."""
    fam = SeparatedFamily.from_orbits(g, sigma, reps, group, kind)
    closed = SeparatedFamily.from_cutsets(g, sigma, sorted(fam.members, key=Cutset.key), kind, group=group)
    assert fam == closed and fam.orbit_of == closed.orbit_of
    return fam


def test_family_from_orbits_is_the_family_of_every_image(q3, f090a, f090a_group, f090a_census, census_orbits):
    q3_group = automorphism_group(q3)
    fam = assert_from_orbits_is_from_cutsets(q3, 2, [q3.neighbors(1)], q3_group)
    assert len(fam.members) == 8 and fam.representatives() == [0]
    c6 = named_graph("c6")
    c6_group = automorphism_group(c6)
    assert assert_from_orbits_is_from_cutsets(c6, 3, [(2, 5)], c6_group).orbit_of == (0, 0, 0)
    # reps in one orbit give it once
    three_sided = assert_from_orbits_is_from_cutsets(c6, 2, [(2, 4, 6), (1, 3, 5)], c6_group)
    assert three_sided.orbit_of == (0, 0)
    # edge kind: the half-turn of C8 swaps the first two cutsets and fixes
    # the others
    c8 = named_graph("c8")
    half_turn = PermutationGroup.generated_by(8, [(5, 6, 7, 8, 1, 2, 3, 4)])
    edges = [((1, 2), (4, 5)), ((1, 2), (5, 6)), ((3, 4), (7, 8))]
    c8_edges = assert_from_orbits_is_from_cutsets(c8, 3, edges, half_turn, "edge")
    assert [c.sorted_elements() for c in c8_edges.members] == [
        ((1, 2), (4, 5)), ((1, 2), (5, 6)), ((1, 8), (5, 6)), ((3, 4), (7, 8))
    ]
    assert c8_edges.orbit_of == (0, 1, 0, 3)
    cyclic = PermutationGroup.generated_by(f090a.n, f090a_group.generators[:1])
    members = [c for orbit in census_orbits[:3] for c in orbit]
    cyclic_fam = assert_from_orbits_is_from_cutsets(f090a, 3, members, cyclic)
    assert len(cyclic_fam.members) == len(members) and len(cyclic_fam.representatives()) > 3
    reps = [frozenset(map(ord, key)) for key in f090a_census.orbits]
    census = assert_from_orbits_is_from_cutsets(f090a, 3, reps, f090a_group)
    assert census.members == f090a_census.cutsets and len(census.representatives()) == 15


def test_edge_family_missing_one_image_is_refused():
    # the four cutsets of C8 through opposite edges are one orbit of
    # Aut(C8); the least missing image is named
    c8 = named_graph("c8")
    cutsets = [[(1, 2), (5, 6)], [(2, 3), (6, 7)], [(3, 4), (7, 8)], [(4, 5), (8, 1)]]
    group = automorphism_group(c8)
    fam = SeparatedFamily.from_cutsets(c8, 4, cutsets, "edge", group=group)
    assert fam.orbit_of == (0, 0, 0, 0)
    with pytest.raises(CertifyError, match=r"not closed under its group: image \(\(2, 3\), \(6, 7\)\) missing$"):
        SeparatedFamily.from_cutsets(c8, 4, cutsets[:1] + cutsets[3:], "edge", group=group)


def assert_orbits_match_the_generator_union_find(fam) -> None:
    assert fam.orbit_of == generator_member_orbits(fam)


def test_member_orbits_match_the_generator_union_find(q3, q3_neighborhood_family, f090a, f090a_group, census_orbits):
    q3_group = automorphism_group(q3)
    doubled = SeparatedFamily(q3, 2, "vertex", q3_neighborhood_family.members * 2, group=q3_group)
    half_turn = PermutationGroup.generated_by(8, [(5, 6, 7, 8, 1, 2, 3, 4)])
    # a swapped pair, and two members that the half-turn fixes
    edges = [Cutset.of_edges(c) for c in [((1, 2), (4, 5)), ((5, 6), (1, 8)), ((1, 2), (5, 6)), ((3, 4), (7, 8))]]
    c8_edges = SeparatedFamily.from_cutsets(named_graph("c8"), 3, edges, kind="edge", group=half_turn)
    cyclic = PermutationGroup.generated_by(f090a.n, f090a_group.generators[:1])
    cyclic_fam = SeparatedFamily.from_cutsets(
        f090a, 3, [c for orbit in census_orbits[:3] for c in orbit], group=cyclic
    )
    for fam in (doubled, c6_three_sided_family(), c8_edges, cyclic_fam):
        assert_orbits_match_the_generator_union_find(fam)
    assert c8_edges.orbit_of == (0, 0, 2, 3)
    assert len(cyclic_fam.representatives()) > 3


def test_f090a_member_orbits_match_the_generator_union_find(f090a, f090a_group, f090a_census, orbit_closure):
    # the seed closure and the census in the bundled labelling, and the
    # census in the seed-2 relabelling, whose chain has 7 generators
    for cutsets in (orbit_closure, f090a_census.cutsets):
        assert_orbits_match_the_generator_union_find(
            SeparatedFamily.from_cutsets(f090a, 3, cutsets, group=f090a_group)
        )
    perm = list(range(1, f090a.n + 1))
    random.Random(2).shuffle(perm)
    relabelled = [[perm[v - 1] for v in c.elements] for c in f090a_census.cutsets]
    g = f090a.relabel(perm)
    fam = SeparatedFamily.from_cutsets(g, 3, relabelled, group=automorphism_group(g))
    assert len(fam.representatives()) == 15
    assert_orbits_match_the_generator_union_find(fam)


def test_family_missing_one_orbit_member_is_refused(f090a, f090a_group, orbit_closure, closure_family):
    short = closure_family.members[:100] + closure_family.members[101:]
    with pytest.raises(CertifyError, match="not closed under its group: image .* missing"):
        SeparatedFamily(f090a, 3, "vertex", short, group=f090a_group)
    with pytest.raises(CertifyError, match="not closed under its group: image .* missing"):
        SeparatedFamily.from_cutsets(f090a, 3, orbit_closure[:100] + orbit_closure[101:], group=f090a_group)


def test_family_with_one_member_repeated_is_refused(q3, q3_neighborhood_family):
    members = q3_neighborhood_family.members
    cutsets = [c.elements for c in members]
    with pytest.raises(CertifyError, match="another multiplicity"):
        SeparatedFamily(q3, 2, "vertex", members + members[:1], group=automorphism_group(q3))
    with pytest.raises(CertifyError, match="another multiplicity"):
        SeparatedFamily.from_cutsets(q3, 2, cutsets + cutsets[:1], group=automorphism_group(q3))
    doubled = SeparatedFamily(q3, 2, "vertex", members + members, group=automorphism_group(q3))
    assert sorted(len(doubled.members_of_failed({o})) for o in set(doubled.orbit_of)) == [16]
    assert SeparatedFamily.from_cutsets(q3, 2, cutsets + cutsets, group=automorphism_group(q3)) == doubled


def test_family_refuses_a_generator_that_is_not_an_automorphism(q3, q3_neighborhood_family):
    swap = (2, 1, *range(3, 9))  # 1 and 2 are adjacent with different neighbourhoods
    bogus = PermutationGroup.generated_by(8, [swap])
    with pytest.raises(CertifyError, match="not an automorphism"):
        replace(q3_neighborhood_family, group=bogus)
    with pytest.raises(CertifyError, match="group degree"):
        replace(q3_neighborhood_family, group=automorphism_group(named_graph("c6")))
    # an edge-kind family is checked before its edges are moved
    c8 = named_graph("c8")
    reflection = PermutationGroup.generated_by(8, [(2, 1, *range(3, 9))])
    with pytest.raises(CertifyError, match="not an automorphism"):
        SeparatedFamily.from_orbits(c8, 2, [[(1, 2), (5, 6)]], reflection, "edge")


def test_family_refuses_a_group_that_moves_the_metric():
    c6 = named_graph("c6")
    lengths = {e: Fraction(1, 3) for e in c6.edges()}
    lengths[(1, 2)] = Fraction(2, 3)
    metric = Metric.angular(lengths)
    diameters = [Cutset.of_vertices(c) for c in [(1, 4), (2, 5), (3, 6)]]
    fam = SeparatedFamily.from_cutsets(c6, Fraction(1, 3), diameters, metric=metric)
    with pytest.raises(CertifyError, match="does not preserve the metric"):
        replace(fam, group=automorphism_group(c6))
    with pytest.raises(CertifyError, match="does not preserve the metric"):
        SeparatedFamily.from_cutsets(c6, Fraction(1, 3), diameters, metric=metric, group=automorphism_group(c6))
