"""Gluing structures: germ bookkeeping, equivalence classes, weight
verification, and the exact solver on feasible and infeasible instances,
with the Stiemke certificates of the infeasible ones."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import balance_rows, set_orbits
from sepcert import gluing
from sepcert.aut import automorphism_group
from sepcert.certify import SeparatedFamily
from sepcert.cutset import Cutset
from sepcert.datasets import named_graph
from sepcert.errors import CertifyError, GluingError
from sepcert.gluing import (
    EdgeGerm,
    GluingInfeasible,
    GluingStructure,
    WeightAssignment,
    _positive_kernel,
    directions_at,
    solve_gluing,
    verify_gluing,
)
from sepcert.graph import Graph
from sepcert.report import dumps


def link_of(name, graph_name, sigma, vertex_cutsets):
    g = named_graph(graph_name)
    return SeparatedFamily.from_cutsets(
        g, sigma, [Cutset.of_vertices(c) for c in vertex_cutsets], name=name
    )


def symmetric(li):
    """The family li with the automorphism group of its graph."""
    return replace(li, group=automorphism_group(li.graph))


def class_at(li, c, x):
    """The partition of the directions at x that the cutset c induces."""
    return GluingStructure((li,), ()).classes_at(li, x)[c]


def germ_matches(germ, a, b):
    """Do a (at the germ's start element) and b (at its end element) induce
    matching direction partitions under the germ bijection?"""
    pa = class_at(germ.start, a, germ.element_a)
    return germ.forward(pa) == class_at(germ.end, b, germ.element_b)


@pytest.fixture(scope="module")
def c6_diameters():
    return link_of("L", "c6", 3, [(1, 4), (2, 5), (3, 6)])


# ------------------------------------------------------------ instances --


def test_link_instance_validates_pairs():
    g = named_graph("c6")
    fam = SeparatedFamily.from_cutsets(g, 2, [Cutset.of_vertices((1, 3))])
    with pytest.raises(CertifyError, match="not 3-separated"):
        SeparatedFamily(g, Fraction(3), "vertex", fam.members, name="L")
    with pytest.raises(GluingError, match="needs a name"):
        GluingStructure((SeparatedFamily(g, Fraction(2), "vertex", fam.members, name=""),), ())
    path = Graph(3, [(1, 2), (2, 3)])
    single = SeparatedFamily.from_cutsets(path, 2, [Cutset.of_vertices((2,))], name="P")
    with pytest.raises(GluingError, match="fewer than two elements"):
        GluingStructure((single,), ())


def test_pairs_at(c6_diameters):
    li = c6_diameters
    assert len(li.pairs_at(1)) == 1
    assert li.pairs_at(1)[0].sorted_elements() == (1, 4)
    assert li.pairs_at(1) == li.pairs_at(4)


def _scanned_pairs_at(fam, x):
    return tuple(c for c in fam.members if x in c)


def test_pairs_at_index_matches_a_scan_on_vertex_families():
    # vertex 3 lies in no member; vertex 1 lies in two
    fam = link_of("V", "c8", 3, [(1, 5), (2, 6), (1, 4), (4, 8)])
    assert fam.pairs_at(3) == ()
    assert len(fam.pairs_at(1)) == 2
    for x in (*fam.graph.vertices(), 0, 99, (1, 5)):
        assert fam.pairs_at(x) == _scanned_pairs_at(fam, x), x


def test_pairs_at_index_matches_a_scan_on_edge_families():
    c8 = named_graph("c8")
    cutsets = [[(1, 2), (5, 6)], [(3, 4), (7, 8)], [(2, 3), (6, 7)], [(1, 2), (6, 7)]]
    fam = SeparatedFamily.from_cutsets(
        c8, 3, [Cutset.of_edges(c) for c in cutsets], kind="edge", name="E"
    )
    assert fam.pairs_at((2, 1)) == fam.pairs_at((1, 2))
    assert len(fam.pairs_at((2, 1))) == 2
    assert fam.pairs_at((4, 5)) == ()  # in no member
    for u, v in c8.edges():
        for x in ((u, v), (v, u)):
            assert fam.pairs_at(x) == _scanned_pairs_at(fam, x), x
    assert fam.pairs_at(1) == _scanned_pairs_at(fam, 1) == ()


def test_orbits_of_the_seed_closure_match_all_group_elements(symmetric_closure_family, f090a_group):
    perms = f090a_group.elements()
    assert len(perms) == 4320
    fam = symmetric_closure_family
    oracle = set_orbits(perms, (c.elements for c in fam.members))
    got = fam.member_orbits
    assert {frozenset(c.elements for c in orbit) for orbit in got} == oracle
    assert sorted(len(orbit) for orbit in got) == [720]


def test_directions_at():
    g = named_graph("c6")
    assert directions_at(g, "vertex", 1) == (2, 6)
    assert directions_at(g, "edge", (2, 1)) == (1, 2)
    with pytest.raises(GluingError):
        directions_at(g, "vertex", 99)


def test_induced_star_partition(c6_diameters):
    li = c6_diameters
    c = li.pairs_at(1)[0]
    assert class_at(li, c, 1) == frozenset({frozenset({2}), frozenset({6})})


# ---------------------------------------------------------------- germs --


def test_identity_germ_and_reversal(c6_diameters):
    li = c6_diameters
    germ = EdgeGerm.identity(li, li, 1)
    assert germ.bijection == ((2, 2), (6, 6))
    assert germ.reversed().bijection == germ.bijection
    c = li.pairs_at(1)[0]
    assert germ_matches(germ, c, c)


def test_germ_bijection_must_cover_directions(c6_diameters):
    li = c6_diameters
    with pytest.raises(GluingError):
        EdgeGerm(li, 1, li, 1, ((2, 2),))  # misses direction 6
    with pytest.raises(GluingError):
        EdgeGerm(li, 1, li, 2, ((2, 2), (6, 6)))  # directions at 2 are 1,3


def test_swapping_germ_still_equates_symmetric_pairs(c6_diameters):
    li = c6_diameters
    swap = EdgeGerm(li, 1, li, 1, ((2, 6), (6, 2)))
    c = li.pairs_at(1)[0]
    assert germ_matches(swap, c, c)


def test_equivalence_classes_group_by_direction_partition():
    # two cutsets through vertex 1 of C8 inducing the same split of {2, 8}
    li = link_of("L", "c8", 2, [(1, 5), (1, 4, 6)])
    a, b = li.pairs_at(1)
    assert class_at(li, a, 1) == class_at(li, b, 1)
    assert len(li.pairs_at(4)) == 1


# ------------------------------------------------------------ structures --


def test_structure_rejects_duplicate_names(c6_diameters):
    with pytest.raises(GluingError):
        GluingStructure((c6_diameters, c6_diameters), ())


def test_structure_rejects_foreign_germs(c6_diameters):
    other = link_of("M", "c6", 3, [(1, 4)])
    germ = EdgeGerm.identity(other, other, 1)
    with pytest.raises(GluingError):
        GluingStructure((c6_diameters,), (germ,))


def test_homogeneous_structure_has_one_germ_per_element(c6_diameters):
    s = GluingStructure.homogeneous(c6_diameters)
    assert len(s.germs) == 6


# ---------------------------------------------------------- group orbits --


def test_orbits_without_group_are_singletons(c6_diameters):
    orbits = c6_diameters.member_orbits
    assert len(orbits) == 3 and all(len(o) == 1 for o in orbits)


def test_orbits_under_full_symmetry(c6_diameters):
    li = symmetric(c6_diameters)
    orbits = li.member_orbits
    assert len(orbits) == 1 and len(orbits[0]) == 3


def test_orbits_require_closed_family():
    li = link_of("L", "c6", 3, [(1, 4)])  # orbit of (1,4) also holds (2,5)
    with pytest.raises(CertifyError, match="not closed under its group: image"):
        symmetric(li)


def c6_three_sided_family():
    """{1, 3, 5} and {2, 4, 6} of C6 leave three components each, one side
    per component; a rotation by one swaps them, so they are one orbit of
    Aut(C6)."""
    g = named_graph("c6")
    cutsets = [Cutset.of_vertices(c) for c in [(1, 3, 5), (2, 4, 6)]]
    return SeparatedFamily(g, 2, "vertex", cutsets, name="L", group=automorphism_group(g))


def test_three_sided_pairs_verify_alike_with_and_without_the_group():
    fam = c6_three_sided_family()
    assert fam.representatives() == [0]
    # at each element the two directions enter two of the three sides
    assert class_at(fam, fam.members[0], 3) == {frozenset({2}), frozenset({4})}
    certs = []
    for li in (fam, replace(fam, group=None)):
        s = GluingStructure.homogeneous(li)
        uneven = WeightAssignment({("L", c.key()): i + 1 for i, c in enumerate(li.members)})
        certs.append([verify_gluing(s, w) for w in (WeightAssignment.all_ones(s), uneven)])
    for reduced, plain in zip(*certs):
        docs = [dumps(c.doc()) for c in reduced.checks if c.name != "weights-invariant"]
        assert docs == [dumps(c.doc()) for c in plain.checks]
        assert reduced.check("cross-edge-balance").witness["equations"] == 4
    # each cutset's class sums agree at its three elements, under any weights
    assert [c.ok for c in certs[1]] == [True, True]
    assert [c.check("weights-invariant").ok for c in certs[0]] == [True, False]


# ------------------------------------------------------- verify and solve --


def test_all_ones_verifies_on_homogeneous_c6(c6_diameters):
    s = GluingStructure.homogeneous(symmetric(c6_diameters))
    w = WeightAssignment.all_ones(s)
    cert = verify_gluing(s, w)
    assert cert.ok
    assert [c.name for c in cert.checks] == [
        "weights-positive",
        "weights-invariant",
        "edge-balance",
        "cross-edge-balance",
    ]


def test_nonpositive_weights_fail(c6_diameters):
    s = GluingStructure.homogeneous(c6_diameters)
    zero = WeightAssignment({(c6_diameters.name, c.key()): 0 for c in c6_diameters.members})
    cert = verify_gluing(s, zero)
    assert not cert.check("weights-positive").ok


def test_uneven_weights_fail_invariance(c6_diameters):
    s = GluingStructure.homogeneous(symmetric(c6_diameters))
    keys = [c.key() for c in c6_diameters.members]
    w = WeightAssignment({("L", k): 1 + i for i, k in enumerate(keys)})
    cert = verify_gluing(s, w)
    assert not cert.check("weights-invariant").ok
    # identity self-germs keep both sides of every edge equation equal
    assert cert.check("edge-balance").ok
    assert not cert.ok


def test_uneven_weights_fail_balance_across_elements(c6_diameters):
    # a germ joining element 1 to element 2 compares different diameters
    germ = EdgeGerm(c6_diameters, 1, c6_diameters, 2, ((2, 1), (6, 3)))
    s = GluingStructure((c6_diameters,), (germ,))
    keys = sorted(c.key() for c in c6_diameters.members)
    w = WeightAssignment({("L", k): 1 + i for i, k in enumerate(keys)})
    cert = verify_gluing(s, w)
    assert not cert.check("edge-balance").ok
    assert verify_gluing(s, WeightAssignment.all_ones(s)).ok


def test_balance_keeps_instances_apart():
    # two copies of one link share element names but not weights
    a = link_of("A", "c6", 3, [(1, 4), (2, 5), (3, 6)])
    b = link_of("B", "c6", 3, [(1, 4), (2, 5), (3, 6)])
    s = GluingStructure((a, b), (EdgeGerm.identity(a, b, 1),))
    w = WeightAssignment(
        {(li.name, c.key()): weight for li, weight in ((a, 1), (b, 2)) for c in li.members}
    )
    cert = verify_gluing(s, w)
    edge = cert.check("edge-balance")
    assert [(v["lhs"], v["rhs"]) for v in edge.witness["violations"]] == [(1, 2), (2, 1)]
    assert cert.check("cross-edge-balance").ok


def test_solve_finds_all_ones_on_c6(c6_diameters):
    s = GluingStructure.homogeneous(symmetric(c6_diameters))
    got = solve_gluing(s)
    assert isinstance(got, WeightAssignment)
    assert all(got.get(c6_diameters, c) == 1 for c in c6_diameters.members)


def cross_infeasible():
    """Class sums at element 1 include both pairs, but at 4 only one,
    forcing the other weight to zero: no positive solution can exist."""
    li = link_of("L", "c8", 2, [(1, 5), (1, 4, 6)])
    return GluingStructure((li,), (EdgeGerm.identity(li, li, 1),))


def test_solve_reports_infeasible_cross_balance():
    s = cross_infeasible()
    assert not verify_gluing(s, WeightAssignment.all_ones(s)).ok
    got = solve_gluing(s)
    assert isinstance(got, GluingInfeasible)
    assert got.equations and got.detail
    assert got.check()
    for i in range(len(got.y)):  # a flipped multiplier breaks y^T B >= 0
        flipped = replace(got, y=tuple(-v if j == i else v for j, v in enumerate(got.y)))
        assert not flipped.check()
    assert not replace(got, y=got.y[1:]).check()


def test_solve_requires_pairs():
    li = SeparatedFamily(named_graph("c6"), Fraction(3), "vertex", (), name="L")
    s = GluingStructure((li,), (EdgeGerm.identity(li, li, 1),))
    with pytest.raises(GluingError):
        solve_gluing(s)


def beyond_all_ones():
    """B holds A's four diameters and the eight chords {i, i+3}; at vertex 1
    B's class sums count three pairs, so A's diameter {1, 5} weighs 3."""
    diameters = [(i, i + 4) for i in range(1, 5)]
    a = link_of("A", "c8", 3, diameters)
    b = link_of("B", "c8", 3, diameters + [(i, (i + 2) % 8 + 1) for i in range(1, 9)])
    return GluingStructure((a, b), (EdgeGerm.identity(a, b, 1),))


def test_solve_finds_weights_beyond_all_ones():
    s = beyond_all_ones()
    a = s.instances[0]
    assert not verify_gluing(s, WeightAssignment.all_ones(s)).ok
    got = solve_gluing(s)
    assert isinstance(got, WeightAssignment) and verify_gluing(s, got).ok
    heavy = ("A", a.pairs_at(5)[0].key())
    assert got.weights[heavy] == 3
    assert all(v == 1 for key, v in got.weights.items() if key != heavy)


def test_certificate_of_the_f090a_seed_closure(symmetric_closure_family):
    got = solve_gluing(GluingStructure.homogeneous(symmetric_closure_family))
    assert isinstance(got, GluingInfeasible)
    assert got.rows == ((24,),) and got.y == (1,)
    assert got.equations == ("24*w0 = 0",)
    assert got.check()
    assert not replace(got, y=(-1,)).check()


def test_solving_the_seed_closure_computes_classes_at_one_element(monkeypatch, symmetric_closure_family):
    """F090A is vertex-transitive, so the rows of its seed closure glued to
    itself are read at vertex 1 alone."""
    elements = []

    def counted(li, x, _call=gluing._classes_at):
        elements.append(x)
        return _call(li, x)

    monkeypatch.setattr(gluing, "_classes_at", counted)
    assert isinstance(solve_gluing(GluingStructure.homogeneous(symmetric_closure_family)), GluingInfeasible)
    assert elements == [1]


def census_pair(census_orbits, f090a, f090a_group):
    """The census orbits of sizes 180 and 216, each with Aut(F090A), glued
    at vertex 1 by an identity germ."""
    a, b = (
        SeparatedFamily.from_cutsets(f090a, 3, orbit, name=name, group=f090a_group)
        for size, name in ((180, "A"), (216, "B"))
        for orbit in census_orbits
        if len(orbit) == size
    )
    return GluingStructure((a, b), (EdgeGerm.identity(a, b, 1),))


#: Structure name -> builder from fixture values: every structure solved
#: above, the three-sided C6 family with Aut(C6), and two F090A families.
SOLVED = {
    "c6-diameters-aut": lambda fx: GluingStructure.homogeneous(symmetric(fx("c6_diameters"))),
    "c8-cross-infeasible": lambda fx: cross_infeasible(),
    "c8-beyond-all-ones": lambda fx: beyond_all_ones(),
    "c6-three-sided-aut": lambda fx: GluingStructure.homogeneous(c6_three_sided_family()),
    "f090a-seed-closure": lambda fx: GluingStructure.homogeneous(fx("symmetric_closure_family")),
    "f090a-census-180-216": lambda fx: census_pair(fx("census_orbits"), fx("f090a"), fx("f090a_group")),
}


@pytest.mark.parametrize("name", SOLVED)
def test_solver_rows_decide_the_full_system(name, request, monkeypatch):
    """The rows handed to the simplex are rows of the oracle's system at
    every germ, member and element, and decide it alike: weights satisfy
    every oracle row, and y padded with zeros certifies them all."""
    structure = SOLVED[name](request.getfixturevalue)
    handed = []

    def spy(rows, k):
        handed.append(rows)
        return _positive_kernel(rows, k)

    monkeypatch.setattr(gluing, "_positive_kernel", spy)
    got = solve_gluing(structure)
    full = sorted(balance_rows(structure))
    assert all(set(rows) <= set(full) for rows in handed)
    reference = _positive_kernel(tuple(full), len(structure.unknowns()))
    assert isinstance(got, GluingInfeasible) == isinstance(reference, GluingInfeasible)
    if isinstance(got, GluingInfeasible):
        padded = dict.fromkeys(full, 0) | dict(zip(got.rows, got.y))
        assert GluingInfeasible(tuple(full), tuple(padded.values())).check()
    else:
        w = [got.get(li, orbit[0]) for _, li, orbit in structure.unknowns()]
        assert all(sum(c * v for c, v in zip(row, w)) == 0 for row in full)


@given(
    st.integers(1, 6).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(-2, 2), min_size=k, max_size=k).map(tuple), max_size=5
        ).map(lambda rows: (k, tuple(rows)))
    )
)
@settings(max_examples=300)
def test_positive_kernel_returns_weights_or_a_certificate(system):
    k, rows = system
    got = _positive_kernel(rows, k)
    if isinstance(got, GluingInfeasible):
        assert got.rows == rows and got.check()
    else:
        assert len(got) == k and all(type(w) is int and w >= 1 for w in got)
        assert all(sum(c * w for c, w in zip(row, got)) == 0 for row in rows)
