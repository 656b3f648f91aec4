"""Automorphism groups and group actions against the factorial-filter and
natural-order backtracking oracles."""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from sympy.combinatorics import Permutation as SympyPermutation
from sympy.combinatorics import PermutationGroup as SympyGroup

from _oracles import brute_automorphisms, distance_transitivity, frozenset_closure, natural_order_aut_count
from sepcert.aut import (
    automorphism_group,
    compose,
    cycle_notation,
    identity,
    is_automorphism,
    is_distance_transitive,
    orbit_of_vertex_set,
    vertex_set_closure,
    vertex_set_key,
)
from sepcert.datasets import _lcf, builtin_names, named_graph
from sepcert.errors import GroupError
from sepcert.graph import Graph
from test_search import RANDOM_CUBIC, _random_cubic


def _sympy_order(grp):
    return SympyGroup([SympyPermutation([x - 1 for x in p]) for p in grp.generators]).order()


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


@pytest.mark.parametrize("name", ["k4", "c5", "p4", "q3", "theta", "prism", "petersen"])
def test_stabilizer_order_matches_element_count(name):
    grp = automorphism_group(named_graph(name))
    elements = grp.elements()
    for v in range(1, grp.n + 1):
        assert grp.stabilizer_order(v) == sum(1 for p in elements if p[v - 1] == v)


def _generated(n, gens):
    """Every product of the generators, by breadth-first closure."""
    seen = {identity(n)}
    queue = list(seen)
    for p in queue:
        for q in gens:
            pq = compose(q, p)
            if pq not in seen:
                seen.add(pq)
                queue.append(pq)
    return seen


@pytest.mark.parametrize("name,r", [("petersen", 1), ("petersen", 7), ("heawood", 1), ("heawood", 14), ("f090a", 1)])
def test_stabilizer_generators_generate_the_point_stabilizer(name, r):
    g = named_graph(name)
    grp = automorphism_group(g)
    gens = grp.stabilizer_generators(r)
    assert identity(g.n) not in gens and len(set(gens)) == len(gens)
    for p in gens:
        assert p[r - 1] == r
        assert is_automorphism(g, p)
    stab = _generated(g.n, gens)
    assert len(stab) == grp.stabilizer_order(r)
    assert stab == {p for p in grp.elements() if p[r - 1] == r}
    if name == "f090a":
        assert len(stab) == 48


def test_transversals_fix_the_earlier_base_points(f090a_group):
    grp = f090a_group
    assert len(grp.base) == len(grp.transversals)
    for i, reps in enumerate(grp.transversals):
        assert len({u[grp.base[i] - 1] for u in reps}) == len(reps) > 1
        for u in reps:
            assert all(u[b - 1] == b for b in grp.base[:i])


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
