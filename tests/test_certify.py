"""Separation certificates: families validate on construction, each clause
fails for the right reason, and small hand-built families certify whole
graphs end to end."""

from __future__ import annotations

from fractions import Fraction

import pytest

from _oracles import brute_split_counts
from sepcert.certify import (
    SeparatedFamily,
    certify_edge_separated,
    certify_star_separated,
    certify_triangle_link,
    certify_vertex_separated,
    split_pattern,
    star_split_counts,
)
from sepcert.cutset import Cutset, NeighborOrdering, complement_labels
from sepcert.datasets import named_graph
from sepcert.errors import CertifyError, CutsetError
from sepcert.graph import Graph, Metric


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
    with pytest.raises(CutsetError):
        SeparatedFamily.from_cutsets(q3, 2, [Cutset.of_vertices([1])])  # not a cutset
    with pytest.raises(CertifyError):
        # neighbors sit at distance 2, so sigma=3 must be rejected
        SeparatedFamily.from_cutsets(q3, 3, [Cutset.of_vertices(q3.neighbors(1))])
    c8 = named_graph("c8")
    with pytest.raises(CertifyError):
        # a genuine edge cutset cannot join a vertex-kind family
        SeparatedFamily.from_cutsets(c8, 2, [Cutset.of_edges([(1, 2), (5, 6)])], kind="vertex")


def test_family_distinct_cutsets(q3, q3_neighborhood_family):
    fam = q3_neighborhood_family
    assert len(fam.distinct_cutsets()) == 8
    doubled = SeparatedFamily(q3, fam.sigma, "vertex", fam.members + fam.members)
    assert doubled.distinct_cutsets() == fam.distinct_cutsets()


# ------------------------------------------------------ vertex-separated --


def test_q3_is_vertex_2_separated(q3, q3_neighborhood_family):
    cert = certify_vertex_separated(q3, 2, q3_neighborhood_family)
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
    cert = certify_vertex_separated(q3, 3, fam3)
    assert not cert.check("girth").ok
    assert cert.check("girth").witness == {"girth": 4, "required": 6}


def test_vertex_separation_covering_clause(q3):
    fam = SeparatedFamily.from_cutsets(q3, 2, [Cutset.of_vertices(q3.neighbors(1))])
    cert = certify_vertex_separated(q3, 2, fam)
    assert not cert.ok
    assert not cert.check("covering").ok
    assert 1 in cert.check("covering").witness["missing"]


def test_vertex_separation_rejects_shape_problems(q3, q3_neighborhood_family):
    with pytest.raises(CertifyError):
        certify_vertex_separated(named_graph("p4"), 2, q3_neighborhood_family)
    with pytest.raises(CertifyError):
        certify_vertex_separated(q3, 1, q3_neighborhood_family)
    other = named_graph("petersen")
    with pytest.raises(CertifyError):
        certify_vertex_separated(other, 2, q3_neighborhood_family)


# -------------------------------------------------------- edge-separated --


@pytest.fixture(scope="module")
def c8_opposite_edges():
    c8 = named_graph("c8")
    pairs = [[(1, 2), (5, 6)], [(2, 3), (6, 7)], [(3, 4), (7, 8)], [(4, 5), (1, 8)]]
    fam = SeparatedFamily.from_cutsets(c8, 4, [Cutset.of_edges(p) for p in pairs], kind="edge")
    return c8, fam


def test_c8_is_edge_4_separated(c8_opposite_edges):
    c8, fam = c8_opposite_edges
    cert = certify_edge_separated(c8, Metric.combinatorial(), 4, fam)
    assert cert.ok


def test_edge_separation_cover_clause(c8_opposite_edges):
    c8, fam = c8_opposite_edges
    partial = SeparatedFamily(c8, 4, "edge", fam.members[:2])
    cert = certify_edge_separated(c8, Metric.combinatorial(), 4, partial)
    assert not cert.ok
    assert not cert.check("edge-cover").ok


def test_edge_separation_kind_mismatch(q3, q3_neighborhood_family):
    with pytest.raises(CertifyError):
        certify_edge_separated(q3, Metric.combinatorial(), 2, q3_neighborhood_family)


# ------------------------------------------------- star-separated pieces --


def test_split_pattern_classifies(f090a, seed_cutsets):
    ordering = NeighborOrdering.ascending(f090a)
    # bundled seed C2 keeps v1's second and third neighbors (18, 90) together
    labels, _ = complement_labels(f090a, seed_cutsets[1])
    assert split_pattern(f090a, ordering, labels, 1) == (2, 3)
    labels, _ = complement_labels(f090a, seed_cutsets[2])
    assert split_pattern(f090a, ordering, labels, 1) == (1, 3)
    labels, _ = complement_labels(f090a, seed_cutsets[0])
    assert split_pattern(f090a, ordering, labels, 1) == (1, 2)


def test_star_split_counts_sum(f090a, seed_cutsets):
    counts, with_multiplicity = star_split_counts(f090a, seed_cutsets)
    assert with_multiplicity == counts  # the three seeds are distinct
    assert set(counts) == {(v, i, j) for v in f090a.vertices() for i, j in ((1, 2), (1, 3), (2, 3))}
    # v1 lies in all three seeds, one per split slot
    assert counts[(1, 1, 2)] == 1 and counts[(1, 1, 3)] == 1 and counts[(1, 2, 3)] == 1


def test_star_split_counts_with_a_duplicated_member(q3, q3_neighborhood_family):
    # N(1) twice: the set counts stay 1 on every slot, the multiset counts
    # rise to 2 on the slots N(1) fills
    fam = SeparatedFamily(
        q3, 2, "vertex", q3_neighborhood_family.members + q3_neighborhood_family.members[:1]
    )
    cutsets = [cp.cutset.elements for cp in fam.members]
    brute = brute_split_counts(q3, cutsets)
    assert star_split_counts(q3, [cp.cutset for cp in fam.members])[1] == brute
    star = certify_star_separated(q3, fam).check("split-counts-constant")
    assert star.ok
    assert star.witness["distinct_cutsets"] == 8
    assert star.witness["set_values"] == sorted(set(brute_split_counts(q3, set(cutsets)).values()))
    assert star.witness["set_values"] == [1]
    assert star.witness["multiset_values"] == sorted(set(brute.values())) == [1, 2]
    assert "note" not in star.witness


def test_certify_star_separated_reports_noncubic():
    c8 = named_graph("c8")
    fam = SeparatedFamily.from_cutsets(c8, 3, [Cutset.of_vertices([1, 5])])
    cert = certify_star_separated(c8, fam)
    assert not cert.ok
    assert not cert.check("cubic").ok


def test_certify_star_separated_empty_family_fails_loudly():
    heawood = named_graph("heawood")
    fam = SeparatedFamily(heawood, 3, "vertex", ())
    cert = certify_star_separated(heawood, fam)
    assert not cert.ok
    assert not cert.check("vertex-3-separated").ok
    assert not cert.check("split-counts-constant").ok


# ---------------------------------------------------------- triangle-link --


def test_triangle_link_rejects_low_girth():
    cert = certify_triangle_link(named_graph("k4"))
    assert not cert.ok
    assert not cert.check("link-girth-six").ok


def test_triangle_link_heawood_fails_star_stage():
    # girth six, but the Heawood graph has no star cutsets at all
    cert = certify_triangle_link(named_graph("heawood"))
    assert cert.check("link-girth-six").ok
    assert not cert.check("star-separated").ok
    assert not cert.ok
