"""Star-cutset search: soundness of emissions, neighbor-split searches,
exhaustiveness of the rooted search and its closure under Aut(g) against
the subset-enumeration oracle, the F090A census, and budgets."""

from __future__ import annotations

import hashlib
import random

import networkx as nx
import pytest

from _oracles import brute_star_cutsets, separates
from sepcert import cutset, graph, search
from sepcert.aut import PermutationGroup, automorphism_group, orbit_of_vertex_set
from sepcert.cutset import Cutset, _complement_labels_cached, format_family, is_star_cutset
from sepcert.datasets import named_graph
from sepcert.errors import CutsetError, SearchError
from sepcert.graph import Graph, Metric, is_connected
from sepcert.search import search_star_cutsets, two_sided_cutsets

#: Star cutsets of F090A found by the exhaustive search of the seed commit,
#: and the sha256 of that family in the bundled labelling, one
#: ``C: v1 v2 ...`` line per cutset in sorted order. A regression pin, not
#: a certified fact.
F090A_STAR_CUTSETS = 16416
F090A_STAR_SHA256 = "e1f43a053ead89f7d34378a21393cbad4095de3254f893e69f80e70735f5cfef"


def exhaustive(name):
    g = named_graph(name)
    return g, search_star_cutsets(g)


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
    result = search_star_cutsets(g)
    assert result.exhausted
    assert {c.elements for c in result.cutsets} == brute_star_cutsets(g)


def test_closure_refuses_a_generator_that_is_not_an_automorphism(monkeypatch):
    g = named_graph("petersen")
    # a transposition is an automorphism only of vertices with equal
    # neighbourhoods, and no two Petersen vertices have them
    swap = (2, 1, *range(3, g.n + 1))
    bogus = PermutationGroup.generated_by(g.n, [swap])
    monkeypatch.setattr(search, "automorphism_group", lambda g: bogus)
    with pytest.raises(SearchError, match="edge set"):
        search_star_cutsets(g)


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


def test_census_orbits_are_the_least_member_of_each_orbit(census_orbits, f090a_census):
    assert [frozenset(map(ord, key)) for key in f090a_census.orbits] == [orbit[0] for orbit in census_orbits]
    _, bridge10 = exhaustive("bridge10")
    assert len(bridge10.keys) == 2 and bridge10.orbits == bridge10.keys[:1]
    # without a group every cutset is its own orbit
    split = search_star_cutsets(named_graph("f090a"), (1, 1, 2), node_budget=5000)
    assert split.orbits == split.keys and "orbits" not in split.stats


def test_two_sided_cutsets_leave_the_complement_label_cache_alone():
    c8 = named_graph("c8")
    before = _complement_labels_cached.cache_info().currsize
    vertex = two_sided_cutsets(c8, Metric.combinatorial(), "vertex", 4)
    edge = two_sided_cutsets(c8, Metric.combinatorial(), "edge", 4)
    assert _complement_labels_cached.cache_info().currsize == before
    assert [c.sorted_elements() for c in vertex] == [(1, 5), (2, 6), (3, 7), (4, 8)]
    assert [c.sorted_elements() for c in edge] == [
        ((1, 2), (5, 6)), ((1, 8), (4, 5)), ((2, 3), (6, 7)), ((3, 4), (7, 8))
    ]


def test_two_sided_cutsets_refuse_vertex_kind_with_an_edge_not_shorter_than_sigma():
    """At sigma = 1 two adjacent vertices of q3 may both be cut, and the
    count on q3 itself would miss the free arc between them."""
    with pytest.raises(SearchError, match="shorter than sigma"):
        two_sided_cutsets(named_graph("q3"), Metric.combinatorial(), "vertex", 1)


@pytest.mark.parametrize(
    "name,kind,sigma,count", [("petersen", "vertex", 2, 10), ("c8", "vertex", 4, 4), ("heawood", "edge", 2, 28)]
)
def test_two_sided_cutsets_in_relabellings(name, kind, sigma, count):
    """Under three seeded vertex shuffles, the pairs mapped back to the
    original labels are the pairs of the original graph."""
    g = named_graph(name)
    pairs = sorted(c.sorted_elements() for c in two_sided_cutsets(g, Metric.combinatorial(), kind, sigma))
    assert len(pairs) == count
    for seed in range(3):
        perm = list(range(1, g.n + 1))
        random.Random(seed).shuffle(perm)
        back = {v: i + 1 for i, v in enumerate(perm)}
        moved = two_sided_cutsets(g.relabel(perm), Metric.combinatorial(), kind, sigma)
        if kind == "vertex":
            mapped = [Cutset.of_vertices(back[v] for v in c.elements) for c in moved]
        else:
            mapped = [Cutset.of_edges((back[u], back[v]) for u, v in c.elements) for c in moved]
        assert sorted(c.sorted_elements() for c in mapped) == pairs, seed


def _check_roots_undone(monkeypatch) -> list[bool]:
    """Wrap ``search._search_root`` to record, per root, whether the
    coloring's colors and masks after the call equal those before it."""
    undone = []
    real = search._search_root

    def checked(state, root, node_budget, family):
        before = (list(state.color), list(state.mask))
        complete = real(state, root, node_budget, family)
        undone.append((state.color, state.mask) == before)
        return complete

    monkeypatch.setattr(search, "_search_root", checked)
    return undone


def test_search_root_leaves_the_coloring_as_it_found_it(f090a, monkeypatch):
    """Every root shares one coloring, so each must hand it back unchanged:
    every root of the F090A census, and every root of an edge-kind search,
    whose nodes are the subdivision's."""
    state = search._Coloring(f090a, Metric.combinatorial(), "vertex", 3)
    roots = search._orbit_roots(state, automorphism_group(f090a))
    undone = _check_roots_undone(monkeypatch)
    search_star_cutsets(f090a)
    assert len(undone) == len(roots) and all(undone)
    undone.clear()
    heawood = named_graph("heawood")
    assert len(two_sided_cutsets(heawood, Metric.combinatorial(), "edge", 2)) == 28
    assert len(undone) == len(heawood.edges()) and all(undone)


def _count_leaf_decisions(monkeypatch) -> list[int]:
    """Count the search's leaf decisions, its calls of
    ``component_labels`` on the colored graph, in calls[0]."""
    calls = [0]
    real = search.component_labels

    def counted(g, removed_vertices):
        calls[0] += 1
        return real(g, removed_vertices=removed_vertices)

    monkeypatch.setattr(search, "component_labels", counted)
    return calls


def test_f090a_census_counters_in_the_bundled_labelling(f090a, f090a_census, monkeypatch):
    """Work counters of the two-level rooted search, every prune counter
    included, so that the whole search tree is pinned. They depend only on
    the graph and its labelling, so a second run repeats them exactly.
    A leaf is decided once per orbit and once per rejected leaf: 15 + 53
    decisions for 762 leaves, each on the graph itself, so the search
    builds no ``Cutset`` and leaves the complement-label cache alone."""
    stats = f090a_census.stats
    assert stats == _counters(
        nodes=7716, prune_mask_empty=2572, prune_cut_neighborhood=928,
        leaves=762, rejected_at_emission=53, orbits=15,
    )
    calls = _count_leaf_decisions(monkeypatch)
    built = _count_cutsets_built(monkeypatch)
    cached = _complement_labels_cached.cache_info().currsize
    again = search_star_cutsets(f090a)
    assert calls[0] == 68
    assert built[0] == 0
    assert _complement_labels_cached.cache_info().currsize == cached
    assert again.stats == stats
    assert again.keys == f090a_census.keys
    assert again.cutsets == f090a_census.cutsets


def test_f090a_census_builds_distance_rows_of_the_graph_only(f090a, monkeypatch):
    """The balls read F090A's own distance table, 90 BFS rows, and the
    connectivity check one more; no row of any other graph is built, the
    225-node subdivision's included."""
    rows = []
    real = graph._bfs_row
    monkeypatch.setattr(graph, "_bfs_row", lambda g, source: rows.append(g) or real(g, source))
    graph._distance_table.cache_clear()
    cutset._cubic_problem.cache_clear()
    search_star_cutsets(f090a)
    assert len(rows) == 91
    assert set(rows) == {f090a}


def _counters(**nonzero) -> dict:
    """A search's whole stats dict: the given counters, every other one 0."""
    names = (
        "nodes", "prune_ball", "prune_edge", "prune_mask_empty", "prune_conflict",
        "prune_cut_neighborhood", "leaves", "rejected_at_emission", "orbits",
    )
    stats = dict.fromkeys(names, 0)
    stats.update(nonzero)
    return stats


def _count_cutsets_built(monkeypatch) -> list[int]:
    """Count ``Cutset.of_vertices`` calls in built[0]."""
    built = [0]
    original = Cutset.of_vertices

    def counted(vs):
        built[0] += 1
        return original(vs)

    monkeypatch.setattr(search.Cutset, "of_vertices", staticmethod(counted))
    return built


def test_census_keeps_sorted_keys_until_asked_for_cutsets(f090a_census):
    """The result is the ascending sorted-id keys; ``cutsets`` lists the
    same sets, in the same order, which is that of the sorted vertex
    lists."""
    keys = f090a_census.keys
    assert len(keys) == F090A_STAR_CUTSETS
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert all(list(k) == sorted(k) for k in keys)
    sets = [c.elements for c in f090a_census.cutsets]
    assert sets == [frozenset(map(ord, k)) for k in keys]
    assert [sorted(c) for c in sets] == sorted(sorted(c) for c in sets)


def test_written_census_is_the_pinned_family(f090a, f090a_census):
    """The family file from the keys is, byte for byte, one ``C: v1 v2 ...``
    line per member in sorted order: the pinned digest in the bundled
    labelling, and the same text in the seed-1 relabelling, whose search
    tree is pinned by its counters."""
    text = format_family(f090a_census.keys)
    assert text == _reference_family_text(f090a_census.cutsets)
    assert hashlib.sha256(text.encode()).hexdigest() == F090A_STAR_SHA256
    perm = list(range(1, f090a.n + 1))
    random.Random(1).shuffle(perm)
    result = search_star_cutsets(f090a.relabel(perm))
    assert format_family(result.keys) == _reference_family_text(result.cutsets)
    assert _family_sha256(result.cutsets, perm) == F090A_STAR_SHA256
    assert result.stats == _counters(
        nodes=6414, prune_mask_empty=1924, prune_cut_neighborhood=894,
        leaves=638, rejected_at_emission=53, orbits=15,
    )


def test_written_empty_census_is_one_empty_line():
    _, result = exhaustive("heawood")
    assert result.keys == ()
    assert format_family(result.keys) == "\n"


def _reference_family_text(cutsets) -> str:
    """The family file as the ``Cutset`` writer wrote it: each member's
    sorted elements after ``C: ``, lines joined by newlines."""
    return "\n".join("C: " + " ".join(map(str, c.sorted_elements())) for c in cutsets) + "\n"


def test_trivial_group_keeps_one_root_per_vertex():
    """With trivial point stabilizers there is no second level: vertex r is
    the one root under itself, with the vertices before it kept out of the
    cut, and the counters are those of the one-level search."""
    g = _random_cubic(60, 0)
    grp = automorphism_group(g)
    assert grp.order == 1
    state = search._Coloring(g, Metric.combinatorial(), "vertex", 3)
    roots = search._orbit_roots(state, grp)
    assert [(root.seeds[0], root.not_cut) for root in roots] == [
        ((r, search.CUT), tuple(range(1, r))) for r in g.vertices()
    ]
    result = search_star_cutsets(g)
    assert result.exhausted
    assert len(result.cutsets) == 84
    assert result.stats == _counters(
        nodes=2334, prune_mask_empty=933, prune_cut_neighborhood=368,
        leaves=92, rejected_at_emission=8, orbits=84,
    )


def test_f090a_census_in_a_relabelling(f090a, monkeypatch):
    perm = list(range(1, f090a.n + 1))
    random.Random(2).shuffle(perm)
    calls = _count_leaf_decisions(monkeypatch)
    result = search_star_cutsets(f090a.relabel(perm))
    assert result.exhausted
    assert len(result.cutsets) == F090A_STAR_CUTSETS
    assert _family_sha256(result.cutsets, perm) == F090A_STAR_SHA256
    assert result.stats == _counters(
        nodes=4388, prune_mask_empty=1287, prune_cut_neighborhood=521,
        leaves=486, rejected_at_emission=35, orbits=15,
    )
    assert calls[0] == 15 + 35


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


def test_every_emission_passes_the_star_conjunction(f090a, f090a_census):
    """The census decides its leaves by a component count alone; here its
    output meets ``is_star_cutset``: every member of bridge10's census and
    of four random cubic censuses, and each F090A orbit representative
    (the other members are its images under checked automorphisms)."""
    censuses = [exhaustive("bridge10")]
    for n, seed in [(12, 27), (14, 10), (14, 23), (12, 60)]:
        g = _random_cubic(n, seed)
        censuses.append((g, search_star_cutsets(g)))
    for g, result in censuses:
        assert result.exhausted and result.cutsets
        for c in result.cutsets:
            assert is_star_cutset(g, c).ok, c
    assert len(f090a_census.orbits) == 15
    for key in f090a_census.orbits:
        assert is_star_cutset(f090a, Cutset.of_vertices(map(ord, key))).ok, key


def test_neighbor_split_goal_members_split_the_pair():
    g = named_graph("f090a")
    result = search_star_cutsets(g, (1, 1, 2), node_budget=5000)
    assert result.cutsets
    wi, wj, _ = g.neighbors(1)
    for c in result.cutsets:
        assert 1 in c.elements
        assert separates(g, c.elements, wi, wj)


def test_neighbor_split_goal_decides_every_leaf(monkeypatch):
    """Without a group no leaf is admitted on another's verdict: every
    leaf, each with its cut vertex and both sides seeded, is decided."""
    calls = _count_leaf_decisions(monkeypatch)
    g = named_graph("f090a")
    result = search_star_cutsets(g, (1, 1, 2), node_budget=5000)
    assert calls[0] == result.stats["leaves"] == 444
    assert len(result.cutsets) == calls[0] - result.stats["rejected_at_emission"] == 408


def test_node_budget_limits_work():
    g = named_graph("f090a")
    small = search_star_cutsets(g, node_budget=5)
    assert not small.exhausted
    assert small.stats["nodes"] <= 5


def test_neighbor_split_goal_exhausts_its_exact_budget():
    """The one node budget: the split search needs exactly 23,000 nodes,
    and one node fewer leaves a child unexplored. Without a group there is
    no ``orbits`` counter."""
    g = named_graph("f090a")
    exact = search_star_cutsets(g, (1, 1, 2), node_budget=23000)
    assert exact.exhausted
    assert len(exact.cutsets) == 1880
    expected = _counters(
        nodes=23000, prune_mask_empty=8194, prune_cut_neighborhood=2316,
        leaves=1984, rejected_at_emission=104,
    )
    del expected["orbits"]
    assert exact.stats == expected
    short = search_star_cutsets(g, (1, 1, 2), node_budget=22999)
    assert not short.exhausted
    assert short.stats["nodes"] == 22999


def test_census_exhausts_its_exact_budget(f090a):
    result = search_star_cutsets(f090a, node_budget=7716)
    assert result.exhausted
    assert _family_sha256(result.cutsets, range(1, 91)) == F090A_STAR_SHA256
    assert not search_star_cutsets(f090a, node_budget=7715).exhausted


def test_search_requires_cubic():
    with pytest.raises(CutsetError):
        search_star_cutsets(named_graph("c8"))


def test_goal_validates_positions():
    g = named_graph("q3")
    with pytest.raises(SearchError, match="bad neighbor positions"):
        search_star_cutsets(g, (1, 2, 2))
    for v in (0, g.n + 1):
        with pytest.raises(SearchError, match=f"goal vertex {v} not in graph"):
            search_star_cutsets(g, (v, 1, 2))


def test_stats_are_reported():
    _, result = exhaustive("k33")
    for key in ("nodes", "leaves", "orbits"):
        assert key in result.stats
