"""Cutset predicates on graphs with hand-checkable complements, plus the
bundled F090A seed facts."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

from _oracles import nx_angular_distances
from sepcert.cutset import (
    Cutset,
    canonical_partition,
    complement_labels,
    components_of_complement,
    format_family,
    is_cutset,
    is_minimal_cutset,
    is_proper,
    is_sigma_separated,
    is_star_cutset,
    midpoint_distance,
    parse_family,
    point_node,
)
from sepcert.datasets import named_graph
from sepcert.errors import CutsetError
from sepcert.graph import Graph, Metric, subdivide


@pytest.fixture(scope="module")
def c8():
    return named_graph("c8")


@pytest.fixture(scope="module")
def q3():
    return named_graph("q3")


# ------------------------------------------------------------ building --


def test_cutset_constructors():
    c = Cutset.of_vertices([3, 1])
    assert c.sorted_elements() == (1, 3)
    e = Cutset.of_edges([(5, 2), (1, 2)])
    assert e.sorted_elements() == ((1, 2), (2, 5))
    with pytest.raises(CutsetError):
        Cutset.of_vertices([])
    with pytest.raises(CutsetError):
        Cutset("diagonal", frozenset({1}))
    with pytest.raises(CutsetError):
        Cutset.of_vertices([(1, 2)])


def test_validate_for_range(q3):
    with pytest.raises(CutsetError):
        Cutset.of_vertices([99]).validate_for(q3)
    with pytest.raises(CutsetError):
        Cutset.of_edges([(1, 8)]).validate_for(q3)  # q3 has no 1-8 edge


def test_family_parse_format_round_trip():
    text = "# family\nC: 3 1 9\nC: 1-2 4-5\n"
    family = parse_family(text)
    assert family[0].kind == "vertex" and family[0].sorted_elements() == (1, 3, 9)
    assert family[1].kind == "edge" and family[1].sorted_elements() == ((1, 2), (4, 5))
    assert parse_family(format_family(family)) == family


@pytest.mark.parametrize("text", ["1 3\n", "C: 1 2-3\n", "C:\n", "C: x\n"])
def test_family_parse_rejects(text):
    with pytest.raises(CutsetError):
        parse_family(text)


# ---------------------------------------------------------- complement --


def test_vertex_complement_components(c8):
    c = Cutset.of_vertices([1, 5])
    assert components_of_complement(c8, c) == ((2, 3, 4), (6, 7, 8))
    assert is_cutset(c8, c).ok
    assert not is_cutset(c8, Cutset.of_vertices([1])).ok


def test_edge_complement_components(c8):
    c = Cutset.of_edges([(1, 2), (5, 6)])
    # components are ordered by least member and sorted internally
    assert components_of_complement(c8, c) == ((1, 6, 7, 8), (2, 3, 4, 5))


def test_free_arc_component():
    g = named_graph("theta")  # two degree-3 hubs joined by three paths
    hubs = [v for v in g.vertices() if g.degree(v) == 3]
    c = Cutset.of_vertices(hubs)
    comps = components_of_complement(g, c)
    # one of the three connecting paths may be a bare edge: its component
    # is the edge itself, not a vertex list
    kinds = {type(comp[0]) for comp in comps}
    assert is_cutset(g, c).ok
    assert all(len(comp) >= 1 for comp in comps)
    assert kinds <= {int, tuple}


def test_complement_labels_rejects_an_invalid_cutset_on_every_call(q3):
    # validation runs inside the cached miss; the cache keeps no exception
    c = Cutset.of_vertices([1, 99])
    for _ in range(2):
        with pytest.raises(CutsetError, match="not in graph"):
            complement_labels(q3, c)


def test_complement_labels_validates_per_graph(q3, c8):
    vertices = Cutset.of_vertices([7, 8])  # q3 has 8 vertices, c6 has 6
    edges = Cutset.of_edges([(1, 8)])  # an edge of c8, not of q3
    assert complement_labels(q3, vertices)[1] >= 1
    assert complement_labels(c8, edges)[1] == 1
    with pytest.raises(CutsetError, match="not in graph"):
        complement_labels(named_graph("c6"), vertices)
    with pytest.raises(CutsetError, match="not in graph"):
        complement_labels(q3, edges)


def test_complement_labels_cover_midpoints(q3):
    c = Cutset.of_vertices([1])
    labels, count = complement_labels(q3, c)
    assert count == 1
    assert labels[0] is None
    assert len(labels) == q3.n + q3.m


def test_point_node_and_midpoint_distance(q3):
    e = q3.edges()[0]
    assert point_node(q3, e) == q3.n + 1
    assert point_node(q3, 3) == 3
    assert midpoint_distance(q3, Metric.combinatorial(), e, e) == 0
    # two edges sharing a vertex: half + half
    share = next(f for f in q3.edges()[1:] if set(f) & set(e))
    assert midpoint_distance(q3, Metric.combinatorial(), e, share) == 1


# ------------------------------------------------------------ predicates --


def test_sigma_separated_vertex_kind(c8):
    far = Cutset.of_vertices([1, 5])  # distance 4 apart
    near = Cutset.of_vertices([1, 3])
    metric = Metric.combinatorial()
    assert is_sigma_separated(c8, metric, far, 3).ok
    assert is_sigma_separated(c8, metric, far, 4).ok
    assert not is_sigma_separated(c8, metric, far, Fraction(9, 2)).ok
    v = is_sigma_separated(c8, metric, near, 3)
    assert not v.ok and v.witness["pair"] == (1, 3) and v.witness["distance"] == 2


def test_sigma_separated_edge_kind(c8):
    metric = Metric.combinatorial()
    c = Cutset.of_edges([(1, 2), (5, 6)])
    assert is_sigma_separated(c8, metric, c, 4).ok
    assert not is_sigma_separated(c8, metric, c, 5).ok


def _square_1_to_3_at(d13: Fraction) -> tuple[Graph, Metric]:
    """A 4-cycle whose side 2-3 is chosen so that d(1, 3) = 1/2 + (2-3) = d13
    (the other way round is 1)."""
    g = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    half = Fraction(1, 2)
    return g, Metric.angular({(1, 2): half, (2, 3): d13 - half, (3, 4): half, (1, 4): half})


def test_sigma_separated_at_exactly_sigma():
    sigma = Fraction(5, 6)
    g, metric = _square_1_to_3_at(sigma)
    for c in (Cutset.of_vertices([1, 3]), Cutset.of_edges([(1, 2), (3, 4)])):
        at = is_sigma_separated(g, metric, c, sigma)
        assert at.ok and at.witness == {"min_distance": sigma}
        assert type(at.witness["min_distance"]) is Fraction
        above = is_sigma_separated(g, metric, c, sigma + Fraction(1, 10**9))
        assert not above.ok and above.witness == {"pair": c.sorted_elements(), "distance": sigma}


def test_sigma_separated_fails_just_below_sigma():
    sigma = Fraction(5, 6)
    d = sigma - Fraction(1, 60)
    g, metric = _square_1_to_3_at(d)
    v = is_sigma_separated(g, metric, Cutset.of_vertices([1, 3]), sigma)
    assert not v.ok and v.witness == {"pair": (1, 3), "distance": d}
    assert type(v.witness["distance"]) is Fraction


def test_sigma_witness_is_a_fraction_on_the_combinatorial_metric(c8):
    # midpoints live on the subdivision, whose half-edges are angular lengths
    v = is_sigma_separated(c8, Metric.combinatorial(), Cutset.of_vertices([1, 5]), 3)
    assert v.ok and type(v.witness["min_distance"]) is Fraction and v.witness["min_distance"] == 4
    assert type(midpoint_distance(c8, Metric.combinatorial(), 1, 2)) is Fraction


@pytest.mark.parametrize("kind", ["vertex", "edge"])
def test_sigma_closest_pair_matches_fraction_oracle(kind):
    g = named_graph("petersen")
    lengths = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 5))
    metric = Metric.angular({e: lengths[i % 3] for i, e in enumerate(g.edges())})
    g2, m2, mid = subdivide(g, metric)
    oracle = nx_angular_distances(g2, m2)
    node = (lambda x: x) if kind == "vertex" else mid.__getitem__
    pool = list(g.vertices()) if kind == "vertex" else list(g.edges())
    rng = random.Random(7)
    for _ in range(40):
        c = Cutset(kind, frozenset(rng.sample(pool, rng.randint(2, 5))))
        pairs = list(combinations(c.sorted_elements(), 2))
        closest = min(pairs, key=lambda p: oracle[(node(p[0]), node(p[1]))])
        d = oracle[(node(closest[0]), node(closest[1]))]
        for sigma in (d, d + Fraction(1, 30)):
            v = is_sigma_separated(g, metric, c, sigma)
            if sigma == d:
                assert v.ok and v.witness == {"min_distance": d}
            else:
                assert not v.ok and v.witness == {"pair": closest, "distance": d}


def test_proper_cutsets(c8):
    assert is_proper(c8, Cutset.of_vertices([1, 5])).ok
    # adjacent cut vertices leave a deleted neighbor, which can't be separated
    v = is_proper(c8, Cutset.of_vertices([1, 2]))
    assert not v.ok and v.witness["cut_vertex"] == 1
    assert is_proper(c8, Cutset.of_edges([(1, 2), (5, 6)])).ok
    # triangle with a pendant: cutting the pendant edge plus the far triangle
    # edge is improper, since the triangle edge's ends stay connected
    g = Graph(4, [(1, 2), (2, 3), (1, 3), (1, 4)])
    bad = is_proper(g, Cutset.of_edges([(1, 4), (2, 3)]))
    assert not bad.ok and bad.witness["edge"] == (2, 3)


def test_minimal_cutset(c8):
    assert is_minimal_cutset(c8, Cutset.of_vertices([1, 5])).ok
    # {4,5} still cuts (its joining edge survives as a free arc), so 1 is
    # removable; elements are scanned in sorted order
    v = is_minimal_cutset(c8, Cutset.of_vertices([1, 4, 5]))
    assert not v.ok and v.witness["removable"] == 1


def test_minimal_requires_cutset(q3):
    with pytest.raises(CutsetError):
        is_minimal_cutset(q3, Cutset.of_vertices([1]))


def test_canonical_partition_is_finest(c8):
    p = canonical_partition(c8, Cutset.of_vertices([1, 5]))
    assert p.blocks == (frozenset([0]), frozenset([1]))
    with pytest.raises(CutsetError):
        canonical_partition(c8, Cutset.of_vertices([1]))


def test_star_cutset_requires_cubic_vertex_kind(c8, q3):
    with pytest.raises(CutsetError):
        is_star_cutset(c8, Cutset.of_vertices([1, 5]))
    with pytest.raises(CutsetError):
        is_star_cutset(q3, Cutset.of_edges([(1, 2)]))


def test_star_cutset_witness_reports_all_clauses(q3):
    # antipodal pairs of the cube are 3-separated but never disconnect
    v = is_star_cutset(q3, Cutset.of_vertices([1, 8]))
    assert not v.ok
    assert v.witness["three_separated"] in (True, False)
    assert v.witness["two_components"] is False


# ----------------------------------------------------- bundled seeds --


def test_seed_cutsets_are_3_separated_two_component(f090a, seed_cutsets):
    metric = Metric.combinatorial()
    for c in seed_cutsets:
        assert len(c.elements) == 21
        assert is_sigma_separated(f090a, metric, c, 3).ok
        labels, count = complement_labels(f090a, c)
        assert count == 2


def test_seed_cutsets_fail_minimality_with_witnesses(f090a, seed_cutsets):
    removable = set()
    for c in seed_cutsets:
        v = is_minimal_cutset(f090a, c)
        assert not v.ok
        removable.add(v.witness["removable"])
    assert removable == {15, 7, 41}
