"""Star-cutset search: soundness of emissions, goal satisfaction,
exhaustiveness of the rooted search and its closure under Aut(g) against
the subset-enumeration oracle, the F090A census, and budgets."""

from __future__ import annotations

import hashlib
import random

import networkx as nx
import pytest

from _oracles import brute_star_cutsets, separates
from sepcert import search
from sepcert.aut import PermutationGroup, automorphism_group, orbit_of_vertex_set
from sepcert.cutset import is_star_cutset
from sepcert.datasets import named_graph
from sepcert.errors import CutsetError, SearchError
from sepcert.graph import Graph, is_connected
from sepcert.search import (
    CoverAllGoal,
    NeighborSplitGoal,
    SearchTask,
    search_star_cutsets,
)

#: Star cutsets of F090A found by the exhaustive search of the seed commit,
#: and the sha256 of that family in the bundled labelling, one
#: ``C: v1 v2 ...`` line per cutset in sorted order. A regression pin, not
#: a certified fact.
F090A_STAR_CUTSETS = 16416
F090A_STAR_SHA256 = "e1f43a053ead89f7d34378a21393cbad4095de3254f893e69f80e70735f5cfef"


def exhaustive(name, **kw):
    g = named_graph(name)
    task = SearchTask(g, node_budget=10**18, **kw)
    return g, search_star_cutsets(task)


def test_q3_has_no_star_cutsets():
    _, result = exhaustive("q3")
    assert result.exhausted
    assert result.cutsets == ()


@pytest.mark.parametrize("name", ["k4", "k33", "prism", "petersen", "bridge10", "q3", "heawood"])
def test_exhaustive_search_matches_oracle(name):
    g, result = exhaustive(name)
    assert result.exhausted
    assert {c.elements for c in result.cutsets} == brute_star_cutsets(g)


def _random_cubic(n: int, seed: int) -> Graph:
    h = nx.random_regular_graph(3, n, seed=seed)
    return Graph(n, [(u + 1, v + 1) for u, v in h.edges()])


#: Connected random cubic graphs, with groups of order 1 to 32 and 3 to 14
#: vertex orbits. (12, 27), (14, 10) and (14, 23) have star cutsets and a
#: group of order at most 2; (12, 60) has four star cutsets, four vertex
#: orbits and point stabilizers of order 4 and 8.
RANDOM_CUBIC = [(n, seed) for n in (8, 10, 12, 14) for seed in range(4)]
RANDOM_CUBIC += [(12, 27), (14, 10), (14, 23), (12, 60)]


def test_random_cubic_groups_vary():
    cases = []
    for n, seed in RANDOM_CUBIC:
        g = _random_cubic(n, seed)
        grp = automorphism_group(g)
        orbits = grp.vertex_orbits()
        stab = max(grp.stabilizer_order(orb[0]) for orb in orbits)
        cases.append((grp.order, len(orbits), stab, len(brute_star_cutsets(g))))
    assert any(order == 1 and found for order, _, _, found in cases)
    assert any(order > 1 and orbits > 1 and found for order, orbits, _, found in cases)
    assert any(orbits > 1 and stab >= 4 and found >= 4 for _, orbits, stab, found in cases)


@pytest.mark.parametrize("n,seed", RANDOM_CUBIC)
def test_rooted_search_matches_oracle_on_random_cubic_graphs(n, seed):
    g = _random_cubic(n, seed)
    assert is_connected(g)
    result = search_star_cutsets(SearchTask(g, node_budget=10**18))
    assert result.exhausted
    assert {c.elements for c in result.cutsets} == brute_star_cutsets(g)


def test_closure_refuses_a_generator_that_is_not_an_automorphism(monkeypatch):
    g = named_graph("petersen")
    # a transposition is an automorphism only of vertices with equal
    # neighbourhoods, and no two Petersen vertices have them
    swap = (2, 1, *range(3, g.n + 1))
    bogus = PermutationGroup(g.n, (swap,), (), ())
    monkeypatch.setattr(search, "automorphism_group", lambda g: bogus)
    with pytest.raises(SearchError, match="edge set"):
        search_star_cutsets(SearchTask(g, node_budget=10**18))


def _family_sha256(cutsets, perm) -> str:
    back = {v: i + 1 for i, v in enumerate(perm)}
    family = sorted(sorted(back[v] for v in c.elements) for c in cutsets)
    text = "".join("C: " + " ".join(map(str, c)) + "\n" for c in family)
    return hashlib.sha256(text.encode()).hexdigest()


def test_f090a_census_in_the_bundled_labelling(f090a_census):
    assert f090a_census.exhausted
    assert len(f090a_census.cutsets) == F090A_STAR_CUTSETS
    assert _family_sha256(f090a_census.cutsets, range(1, 91)) == F090A_STAR_SHA256
    assert f090a_census.stats["orbits"] == 15


def test_f090a_census_counters_in_the_bundled_labelling(f090a, f090a_census):
    """Work counters of the two-level rooted search. They depend only on
    the graph and its labelling, so a second run repeats them exactly."""
    stats = f090a_census.stats
    assert {k: stats[k] for k in ("nodes", "leaves", "rejected_at_emission", "subtasks", "orbits")} == {
        "nodes": 7716,
        "leaves": 762,
        "rejected_at_emission": 53,
        "subtasks": 64,
        "orbits": 15,
    }
    again = search_star_cutsets(SearchTask(f090a, node_budget=10**18))
    assert again.stats == stats
    assert again.cutsets == f090a_census.cutsets


def test_trivial_group_keeps_one_root_per_vertex():
    """With trivial point stabilizers there is no second level: vertex r is
    the one root under itself, with the vertices before it kept out of the
    cut, and the counters are those of the one-level search."""
    g = _random_cubic(60, 0)
    grp = automorphism_group(g)
    assert grp.order == 1
    roots = search._orbit_roots(g, grp, search._ball2(g))
    assert [(root.seeds[0], root.not_cut[: root.upto]) for root in roots] == [
        ((r, search.CUT), tuple(range(1, r))) for r in g.vertices()
    ]
    result = search_star_cutsets(SearchTask(g, node_budget=10**18))
    assert result.exhausted
    assert len(result.cutsets) == 84
    stats = result.stats
    assert {k: stats[k] for k in ("nodes", "leaves", "rejected_at_emission", "subtasks", "orbits")} == {
        "nodes": 2334,
        "leaves": 92,
        "rejected_at_emission": 8,
        "subtasks": 64,
        "orbits": 84,
    }


def test_f090a_census_in_a_relabelling(f090a):
    perm = list(range(1, f090a.n + 1))
    random.Random(2).shuffle(perm)
    result = search_star_cutsets(SearchTask(f090a.relabel(perm), node_budget=10**18))
    assert result.exhausted
    assert len(result.cutsets) == F090A_STAR_CUTSETS
    assert _family_sha256(result.cutsets, perm) == F090A_STAR_SHA256
    assert result.stats["orbits"] == 15


def test_f090a_census_orbit_sizes(f090a_group, f090a_census):
    """Each orbit's size from orbit-stabilizer, |G| / |Stab(S)| over all
    4,320 elements, agrees with its closure under the generators."""
    elements = f090a_group.elements()
    assert len(elements) == f090a_group.order == 4320
    left = {c.elements for c in f090a_census.cutsets}
    sizes = []
    while left:
        rep = min(left, key=sorted)
        closure = set(orbit_of_vertex_set(f090a_group, rep))
        stab = sum(1 for p in elements if all(p[v - 1] in rep for v in rep))
        assert f090a_group.order // stab == len(closure)
        assert closure <= left
        left -= closure
        sizes.append((len(rep), len(closure)))
    assert len(sizes) == f090a_census.stats["orbits"]
    assert sorted(sizes) == [
        (10, 216),
        (15, 180), (15, 540), (15, 540), (15, 720), (15, 1080), (15, 1080), (15, 1080),
        (15, 2160), (15, 2160), (15, 2160), (15, 2160),
        (18, 720),
        (19, 540), (19, 1080),
    ]


def test_every_emission_passes_the_star_conjunction():
    g, result = exhaustive("heawood")
    assert result.exhausted
    for c in result.cutsets:
        assert is_star_cutset(g, c).ok


def test_neighbor_split_goal_members_split_the_pair():
    g = named_graph("f090a")
    task = SearchTask(g, NeighborSplitGoal(1, 1, 2), node_budget=5000)
    result = search_star_cutsets(task)
    assert result.cutsets
    wi, wj, _ = g.neighbors(1)
    for c in result.cutsets:
        assert 1 in c.elements
        assert separates(g, c.elements, wi, wj)


def test_node_budget_limits_work():
    g = named_graph("f090a")
    small = search_star_cutsets(SearchTask(g, node_budget=5))
    assert not small.exhausted
    assert small.stats["nodes"] <= 5 + small.stats["subtasks"]


def test_search_requires_cubic():
    with pytest.raises(CutsetError):
        search_star_cutsets(SearchTask(named_graph("c8")))


def test_goal_validates_positions():
    g = named_graph("q3")
    with pytest.raises(SearchError, match="bad neighbor positions"):
        search_star_cutsets(SearchTask(g, NeighborSplitGoal(1, 2, 2)))
    for v in (0, g.n + 1):
        with pytest.raises(SearchError, match=f"goal vertex {v} not in graph"):
            search_star_cutsets(SearchTask(g, NeighborSplitGoal(v, 1, 2)))


def test_stats_are_reported():
    _, result = exhaustive("k33")
    for key in ("nodes", "leaves", "subtasks", "orbits"):
        assert key in result.stats
