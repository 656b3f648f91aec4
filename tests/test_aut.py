"""Automorphism groups and group actions against the factorial-filter and
natural-order backtracking oracles."""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from sympy.combinatorics import Permutation as SympyPermutation
from sympy.combinatorics import PermutationGroup as SympyGroup

from _oracles import (
    brute_automorphisms,
    distance_transitivity,
    frozenset_closure,
    natural_order_aut_count,
    schreier_pair_orbits,
)
from sepcert import aut
from sepcert.aut import (
    PermutationGroup,
    automorphism_group,
    cycle_notation,
    identity,
    is_distance_transitive,
    orbit_of_vertex_set,
    vertex_set_closure,
)
from sepcert.cutset import vertex_set_key
from sepcert.datasets import _lcf, builtin_names, named_graph
from sepcert.errors import GroupError
from sepcert.graph import Graph
from test_search import RANDOM_CUBIC, _random_cubic


def _sympy_group(n, gens):
    return SympyGroup([SympyPermutation(list(range(n)))] + [SympyPermutation([x - 1 for x in p]) for p in gens])


def _sympy_order(grp):
    return _sympy_group(grp.n, grp.generators).order()


def _k8():
    return Graph(8, combinations(range(1, 9), 2))


@pytest.mark.parametrize("name", ["k4", "c5", "p4", "q3", "theta"])
def test_elements_match_factorial_filter(name):
    g = named_graph(name)
    grp = automorphism_group(g)
    elements = grp.elements()
    assert set(elements) == set(brute_automorphisms(g))
    assert grp.order == len(elements)


@pytest.mark.parametrize(
    "name,order",
    [("k4", 24), ("k33", 72), ("prism", 12), ("petersen", 120), ("heawood", 336)],
)
def test_order_matches_backtracking_oracle(name, order):
    g = named_graph(name)
    grp = automorphism_group(g)
    assert grp.order == order
    assert natural_order_aut_count(g) == order


def test_every_element_is_an_automorphism():
    g = named_graph("petersen")
    edges = set(g.edges())
    for p in automorphism_group(g).elements():
        mapped = {tuple(sorted((p[u - 1], p[v - 1]))) for u, v in edges}
        assert mapped == edges


def test_orbit_stabilizer_identity():
    g = named_graph("prism")
    grp = automorphism_group(g)
    for v in g.vertices():
        assert len(grp.orbit_of_vertex(v)) * grp.stabilizer_order(v) == grp.order


def test_vertex_orbits_partition():
    g = Graph(4, [(1, 2), (2, 3)])  # path plus isolated vertex
    grp = automorphism_group(g)
    orbits = grp.vertex_orbits()
    assert sorted(v for orb in orbits for v in orb) == [1, 2, 3, 4]
    assert (1, 3) in orbits and (2,) in orbits and (4,) in orbits


def test_vertex_orbits_are_found_once_per_group(monkeypatch):
    # bridge10 has three vertex orbits; the union-find over the generators
    # runs once per group, on the first call of whichever method asks first:
    # orbit_of_vertex for every vertex in one group, vertex_orbits in another
    found = automorphism_group(named_graph("bridge10"))
    expected = found.vertex_orbits()
    assert len(expected) == 3
    by_vertex, by_orbits = (PermutationGroup.generated_by(found.n, found.generators) for _ in range(2))
    grp = by_vertex
    calls = []

    def counted(n, perms, _call=aut._least_points):
        if perms is grp.generators:
            calls.append(n)
        return _call(n, perms)

    monkeypatch.setattr(aut, "_least_points", counted)
    vertices = range(1, grp.n + 1)
    assert [grp.orbit_of_vertex(v) for v in vertices] == [next(o for o in expected if v in o) for v in vertices]
    assert grp.vertex_orbits() == grp.vertex_orbits() == expected
    grp.pair_orbits
    assert calls == [grp.n]

    grp = by_orbits
    calls.clear()
    orbits = [grp.orbit_of_vertex(v) for v in grp.vertex_orbits()[-1]]
    assert grp.vertex_orbits() == expected
    assert orbits == [grp.vertex_orbits()[-1]] * len(orbits)
    assert [grp.orbit_of_vertex(v) for v in (1, grp.n)] == [grp.vertex_orbits()[0], grp.orbit_of_vertex(grp.n)]
    grp.pair_orbits
    assert calls == [grp.n]


@pytest.mark.parametrize("name", ["k4", "c5", "p4", "q3", "theta", "prism", "petersen"])
def test_stabilizer_order_matches_element_count(name):
    grp = automorphism_group(named_graph(name))
    elements = grp.elements()
    for v in range(1, grp.n + 1):
        assert grp.stabilizer_order(v) == sum(1 for p in elements if p[v - 1] == v)


@pytest.mark.parametrize("name,r", [("petersen", 1), ("petersen", 7), ("heawood", 1), ("heawood", 14), ("f090a", 1)])
def test_stabilizer_generators_generate_the_point_stabilizer(name, r):
    # PairOrbits reads Stab(r) from the levels below r in the chain: two
    # vertices share a Stab(r)-orbit exactly when their pairs with r share
    # a label
    g = named_graph(name)
    grp = automorphism_group(g)
    orbits = grp.pair_orbits
    by_label: dict = {}
    for y in g.vertices():
        by_label.setdefault(orbits.label(r, y), set()).add(y)
    stab = SympyGroup([SympyPermutation([x - 1 for x in p]) for p in grp.generators]).stabilizer(r - 1)
    assert stab.order() == grp.stabilizer_order(r)
    assert {frozenset(o) for o in by_label.values()} == {frozenset(y + 1 for y in o) for o in stab.orbits()}
    if name == "f090a":
        assert stab.order() == 48


def assert_pair_orbits_match_the_schreier_generators(grp) -> None:
    """All three fields: gluing moves members by ``to_rep``."""
    orbits = grp.pair_orbits
    assert (orbits.rep, orbits.to_rep, orbits.stab) == schreier_pair_orbits(grp.n, grp.generators)


@pytest.mark.parametrize(
    "g", [named_graph(name) for name in builtin_names()] + [_random_cubic(n, seed) for n, seed in RANDOM_CUBIC]
)
def test_pair_orbits_match_the_schreier_generators(g):
    assert_pair_orbits_match_the_schreier_generators(automorphism_group(g))


def test_pair_orbits_of_subgroups_and_relabellings_of_aut_f090a(f090a, f090a_group):
    # subgroups have several vertex orbits, so most representatives are
    # not the first base point and their chains are re-based
    rng = random.Random(1)
    for k in (1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 5):
        sub = PermutationGroup.generated_by(f090a.n, rng.sample(f090a_group.generators, k))
        assert_pair_orbits_match_the_schreier_generators(sub)
    for seed in range(1, 7):
        perm = list(range(1, f090a.n + 1))
        random.Random(seed).shuffle(perm)
        assert_pair_orbits_match_the_schreier_generators(automorphism_group(f090a.relabel(perm)))


def test_pair_orbits_of_the_trivial_group():
    trivial = PermutationGroup.generated_by(6, ())
    assert_pair_orbits_match_the_schreier_generators(trivial)
    assert trivial.pair_orbits.reps() == tuple(range(1, 7))
    assert trivial.pair_orbits.label(2, 5) == (2, 5)


def assert_chain_is_sound(grp) -> None:
    """Each transversal starts with the identity, maps its base point to
    distinct points, and fixes the earlier base points."""
    assert len(grp.base) == len(grp.transversals)
    for i, reps in enumerate(grp.transversals):
        assert reps[0] == identity(grp.n)
        assert len({u[grp.base[i] - 1] for u in reps}) == len(reps) > 1
        for u in reps:
            assert all(u[b - 1] == b for b in grp.base[:i])


def test_transversals_fix_the_earlier_base_points(f090a_group):
    assert_chain_is_sound(f090a_group)


def assert_chain_matches_sympy(n, gens) -> None:
    """Schreier–Sims from the generators alone, with no base given: the
    order and every point stabilizer's order agree with sympy's, and the
    generators come back as they were given."""
    grp = PermutationGroup.generated_by(n, gens)
    assert grp.generators == tuple(gens)
    assert_chain_is_sound(grp)
    sym = _sympy_group(n, gens)
    assert grp.order == sym.order()
    # point stabilizers are conjugate along an orbit, so one point per orbit
    reps = [min(orbit) for orbit in sym.orbits()]
    assert [grp.stabilizer_order(v + 1) for v in reps] == [sym.stabilizer(v).order() for v in reps]


def test_generated_by_matches_sympy_on_subsets_of_the_f090a_generators(f090a_group):
    gens = f090a_group.generators
    rng = random.Random(0)
    subsets = [[p] for p in gens] + [rng.sample(gens, k) for k in (2, 2, 3, 3, 4, 5)] + [list(gens)]
    for subset in subsets:
        assert_chain_matches_sympy(f090a_group.n, subset)


def test_generated_by_matches_sympy_on_the_c8_half_turn():
    assert_chain_matches_sympy(8, [(5, 6, 7, 8, 1, 2, 3, 4)])


@pytest.mark.parametrize("n,seed", RANDOM_CUBIC)
def test_generated_by_matches_sympy_on_random_cubic_groups(n, seed):
    assert_chain_matches_sympy(n, automorphism_group(_random_cubic(n, seed)).generators)


def test_automorphism_group_keeps_its_search_base(f090a_group):
    # the search's chain needs no residue, so Schreier–Sims on its base
    # returns the same base and transversals
    again = PermutationGroup.generated_by(f090a_group.n, f090a_group.generators, f090a_group.base)
    assert again == f090a_group
    assert [len(reps) for reps in f090a_group.transversals] == [90, 3, 2, 2, 2, 2]


def test_orbit_of_vertex_out_of_range():
    with pytest.raises(GroupError):
        automorphism_group(named_graph("c5")).orbit_of_vertex(6)


def test_orbit_of_vertex_set():
    g = named_graph("c6")
    grp = automorphism_group(g)
    orbit = orbit_of_vertex_set(grp, {1, 4})
    assert set(orbit) == {frozenset({1, 4}), frozenset({2, 5}), frozenset({3, 6})}


def assert_orbit_matches_the_frozenset_search(grp, s) -> None:
    """The sorted-id closure of s and its canonical order agree with the
    frozenset search over the same generators."""
    oracle = frozenset_closure(grp.generators, s)
    keys = vertex_set_closure(grp, vertex_set_key(s))
    assert {frozenset(map(ord, k)) for k in keys} == oracle
    assert orbit_of_vertex_set(grp, s) == tuple(sorted(oracle, key=sorted))


@pytest.mark.parametrize(
    "g", [named_graph(name) for name in builtin_names()] + [_random_cubic(n, seed) for n, seed in RANDOM_CUBIC]
)
def test_vertex_set_orbits_match_the_frozenset_search(g):
    grp = automorphism_group(g)
    rng = random.Random(g.n)
    sets = [(v, *g.neighbors(v)) for v in g.vertices()]
    sets += [rng.sample(range(1, g.n + 1), k) for k in range(1, min(g.n, 6) + 1)]
    for s in [()] + sets:
        assert_orbit_matches_the_frozenset_search(grp, s)


def _swaps(n: int, pairs) -> tuple[int, ...]:
    p = list(range(1, n + 1))
    for a, b in pairs:
        p[a - 1], p[b - 1] = b, a
    return tuple(p)


@pytest.mark.parametrize(
    "gens, base_length",
    [
        # (Z2)^5 swapping 1-2, 3-4, ...: walks from {1, 3, 5, 7, 9} stack
        # six deep, one more than the base is long
        ([_swaps(10, [(2 * i + 1, 2 * i + 2)]) for i in range(5)], 5),
        ([_swaps(8, [(1, 2)]), (2, 3, 4, 5, 6, 7, 8, 1)], 7),  # S8
    ],
)
def test_vertex_set_orbits_of_long_chains_match_the_frozenset_search(gens, base_length):
    grp = PermutationGroup.generated_by(len(gens[0]), gens)
    assert len(grp.base) == base_length
    n = grp.n
    for s in [range(1, k + 1) for k in range(n + 1)] + [range(1, 2 * k, 2) for k in range(1, n // 2 + 1)]:
        assert_orbit_matches_the_frozenset_search(grp, s)


def test_census_orbits_close_through_the_chain(f090a, f090a_group, census_orbits):
    # every census orbit in the bundled labelling, from its least member,
    # and in the seed-2 relabelling (7 generators), from its greatest
    perm = list(range(1, f090a.n + 1))
    random.Random(2).shuffle(perm)
    relabelled = automorphism_group(f090a.relabel(perm))
    assert len(relabelled.generators) == 7
    for orbit in census_orbits:
        assert_orbit_matches_the_frozenset_search(f090a_group, orbit[0])
        assert_orbit_matches_the_frozenset_search(relabelled, [perm[v - 1] for v in orbit[-1]])


@pytest.mark.parametrize("name,expected", [("q3", True), ("petersen", True), ("heawood", True), ("prism", False)])
def test_distance_transitivity(name, expected):
    g = named_graph(name)
    grp = automorphism_group(g)
    flag, witness = is_distance_transitive(g, grp)
    assert flag is expected
    if not flag:
        assert witness["pair"]


def _disjoint_cycles() -> Graph:
    """C5 and C6 side by side: no automorphism maps a pair at distance 2
    in the C5 to one in the C6, and the unreachable pairs (at distance
    inf) are one orbit."""
    return Graph(11, [(i, i % 5 + 1) for i in range(1, 6)] + [(i, (i - 5) % 6 + 6) for i in range(6, 12)])


@pytest.mark.parametrize(
    "g",
    [named_graph(name) for name in builtin_names()]
    + [_random_cubic(n, seed) for n, seed in RANDOM_CUBIC]
    + [_disjoint_cycles()],
)
def test_distance_transitivity_matches_the_pair_union_find(g):
    grp = automorphism_group(g)
    assert is_distance_transitive(g, grp) == distance_transitivity(g, grp.generators)


def test_distance_transitivity_witness_names_the_first_unmatched_pair():
    g = _disjoint_cycles()
    flag, witness = is_distance_transitive(g, automorphism_group(g))
    assert not flag
    assert witness == {"distance": 1, "pair": (6, 7), "unreachable_from": (1, 2)}


def test_cycle_notation():
    assert cycle_notation(identity(4)) == "()"
    assert cycle_notation((2, 1, 4, 3)) == "(1 2)(3 4)"
    assert cycle_notation((2, 3, 1)) == "(1 2 3)"


def test_f090a_group_is_enumerated(f090a_group):
    assert f090a_group.order == 4320
    assert _sympy_order(f090a_group) == 4320


def test_f090a_group_of_relabelled_graph(f090a):
    perm = list(range(1, f090a.n + 1))
    random.Random(2).shuffle(perm)
    g = f090a.relabel(perm)
    grp = automorphism_group(g)
    assert grp.order == 4320
    assert _sympy_order(grp) == 4320


def test_f090a_elements_are_distinct_automorphisms(f090a, f090a_group):
    edges = set(f090a.edges())
    elements = f090a_group.elements()
    assert len(set(elements)) == 4320
    assert list(elements) == sorted(elements)
    for p in elements:
        assert {tuple(sorted((p[u - 1], p[v - 1]))) for u, v in edges} == edges


def test_bundled_f090a_is_the_foster_graph(f090a):
    # An independent construction from the Foster graph's LCF code
    # [17, -9, 37, -37, 9, -17]^15. The disjoint union of two connected
    # graphs has a group of order 2 |Aut|^2 and an orbit meeting both
    # copies exactly when the two are isomorphic.
    foster = _lcf(90, [17, -9, 37, -37, 9, -17])
    union = Graph(180, [*f090a.edges(), *((u + 90, v + 90) for u, v in foster.edges())])
    grp = automorphism_group(union)
    assert grp.order == 37_324_800 == 2 * 4320**2
    assert any(v > 90 for v in grp.orbit_of_vertex(1))


def test_k8_order_matches_sympy():
    grp = automorphism_group(_k8())
    assert grp.order == 40320
    assert _sympy_order(grp) == 40320


def test_distance_transitivity_without_elements():
    g = _k8()
    assert is_distance_transitive(g, automorphism_group(g)) == (True, None)
