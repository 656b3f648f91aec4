"""Gluing structures: germ bookkeeping, equivalence classes, weight
verification, and the exact solver on feasible and infeasible instances,
with the Stiemke certificates of the infeasible ones."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    act_on_pair,
    directions_at,
    induced_star_partition,
    orbits_of_pairs,
    pair_key,
    solve_gluing,
    verify_gluing,
)
from sepcert.graph import Graph


def link_of(name, graph_name, sigma, vertex_cutsets):
    g = named_graph(graph_name)
    return SeparatedFamily.from_cutsets(
        g, sigma, [Cutset.of_vertices(c) for c in vertex_cutsets], name=name
    )


def germ_matches(germ, a, b):
    """Do a (at the germ's start element) and b (at its end element) induce
    matching direction partitions under the germ bijection?"""
    pa = induced_star_partition(germ.start, a, germ.element_a)
    return germ.forward(pa) == induced_star_partition(germ.end, b, germ.element_b)


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
    assert li.pairs_at(1)[0].cutset.sorted_elements() == (1, 4)
    assert li.pairs_at(1) == li.pairs_at(4)


def test_directions_at():
    g = named_graph("c6")
    assert directions_at(g, "vertex", 1) == (2, 6)
    assert directions_at(g, "edge", (2, 1)) == (1, 2)
    with pytest.raises(GluingError):
        directions_at(g, "vertex", 99)


def test_induced_star_partition(c6_diameters):
    li = c6_diameters
    cp = li.pairs_at(1)[0]
    assert induced_star_partition(li, cp, 1) == frozenset({frozenset({2}), frozenset({6})})
    with pytest.raises(GluingError):
        induced_star_partition(li, cp, 2)


# ---------------------------------------------------------------- germs --


def test_identity_germ_and_reversal(c6_diameters):
    li = c6_diameters
    germ = EdgeGerm.identity(li, li, 1)
    assert germ.bijection == ((2, 2), (6, 6))
    assert germ.reversed().bijection == germ.bijection
    cp = li.pairs_at(1)[0]
    assert germ_matches(germ, cp, cp)


def test_germ_bijection_must_cover_directions(c6_diameters):
    li = c6_diameters
    with pytest.raises(GluingError):
        EdgeGerm(li, 1, li, 1, ((2, 2),))  # misses direction 6
    with pytest.raises(GluingError):
        EdgeGerm(li, 1, li, 2, ((2, 2), (6, 6)))  # directions at 2 are 1,3


def test_swapping_germ_still_equates_symmetric_pairs(c6_diameters):
    li = c6_diameters
    swap = EdgeGerm(li, 1, li, 1, ((2, 6), (6, 2)))
    cp = li.pairs_at(1)[0]
    assert germ_matches(swap, cp, cp)


def test_equivalence_classes_group_by_direction_partition():
    # two cutsets through vertex 1 of C8 inducing the same split of {2, 8}
    li = link_of("L", "c8", 2, [(1, 5), (1, 4, 6)])
    a, b = li.pairs_at(1)
    assert induced_star_partition(li, a, 1) == induced_star_partition(li, b, 1)
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
    assert s.group_of(c6_diameters) is None


# ---------------------------------------------------------- group orbits --


def test_orbits_without_group_are_singletons(c6_diameters):
    orbits = orbits_of_pairs(c6_diameters, None)
    assert len(orbits) == 3 and all(len(o) == 1 for o in orbits)


def test_orbits_under_full_symmetry(c6_diameters):
    grp = automorphism_group(named_graph("c6"))
    orbits = orbits_of_pairs(c6_diameters, grp)
    assert len(orbits) == 1 and len(orbits[0]) == 3


def test_act_on_pair_rotates_cutsets(c6_diameters):
    grp = automorphism_group(named_graph("c6"))
    cp = c6_diameters.pairs_at(1)[0]
    images = {act_on_pair(c6_diameters.graph, p, cp).cutset.sorted_elements() for p in grp.elements()}
    assert images == {(1, 4), (2, 5), (3, 6)}


def test_orbits_require_closed_family():
    li = link_of("L", "c6", 3, [(1, 4)])  # orbit of (1,4) also holds (2,5)
    grp = automorphism_group(named_graph("c6"))
    with pytest.raises(GluingError):
        orbits_of_pairs(li, grp)


# ------------------------------------------------------- verify and solve --


def test_all_ones_verifies_on_homogeneous_c6(c6_diameters):
    s = GluingStructure.homogeneous(c6_diameters, automorphism_group(named_graph("c6")))
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
    zero = WeightAssignment({(c6_diameters.name, pair_key(cp)): 0 for cp in c6_diameters.members})
    cert = verify_gluing(s, zero)
    assert not cert.check("weights-positive").ok


def test_uneven_weights_fail_invariance(c6_diameters):
    grp = automorphism_group(named_graph("c6"))
    s = GluingStructure.homogeneous(c6_diameters, grp)
    keys = [pair_key(cp) for cp in c6_diameters.members]
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
    keys = [pair_key(cp) for cp in sorted(c6_diameters.members, key=pair_key)]
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
        {(li.name, pair_key(cp)): weight for li, weight in ((a, 1), (b, 2)) for cp in li.members}
    )
    cert = verify_gluing(s, w)
    edge = cert.check("edge-balance")
    assert [(v["lhs"], v["rhs"]) for v in edge.witness["violations"]] == [(1, 2), (2, 1)]
    assert cert.check("cross-edge-balance").ok


def test_solve_finds_all_ones_on_c6(c6_diameters):
    s = GluingStructure.homogeneous(c6_diameters, automorphism_group(named_graph("c6")))
    got = solve_gluing(s)
    assert isinstance(got, WeightAssignment)
    assert all(got.get(c6_diameters, cp) == 1 for cp in c6_diameters.members)


def test_solve_reports_infeasible_cross_balance():
    # class sums at element 1 include both pairs, but at 4 only one, forcing
    # the other weight to zero: no positive solution can exist
    li = link_of("L", "c8", 2, [(1, 5), (1, 4, 6)])
    s = GluingStructure((li,), (EdgeGerm.identity(li, li, 1),))
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


def test_solve_finds_weights_beyond_all_ones():
    # B holds A's four diameters and the eight chords {i, i+3}; at vertex 1
    # B's class sums count three pairs, so A's diameter {1, 5} weighs 3
    diameters = [(i, i + 4) for i in range(1, 5)]
    a = link_of("A", "c8", 3, diameters)
    b = link_of("B", "c8", 3, diameters + [(i, (i + 2) % 8 + 1) for i in range(1, 9)])
    s = GluingStructure((a, b), (EdgeGerm.identity(a, b, 1),))
    assert not verify_gluing(s, WeightAssignment.all_ones(s)).ok
    got = solve_gluing(s)
    assert isinstance(got, WeightAssignment) and verify_gluing(s, got).ok
    heavy = ("A", pair_key(a.pairs_at(5)[0]))
    assert got.weights[heavy] == 3
    assert all(v == 1 for key, v in got.weights.items() if key != heavy)


def test_certificate_of_the_f090a_seed_closure(closure_family, f090a_group):
    got = solve_gluing(GluingStructure.homogeneous(closure_family, f090a_group))
    assert isinstance(got, GluingInfeasible)
    assert got.rows == ((24,),) and got.y == (1,)
    assert got.equations == ("24*w0 = 0",)
    assert got.check()
    assert not replace(got, y=(-1,)).check()


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
