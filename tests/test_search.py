"""Star-cutset search: soundness of emissions, goal satisfaction,
exhaustiveness against the subset-enumeration oracle, and budgets."""

from __future__ import annotations

import pytest

from _oracles import brute_star_cutsets
from sepcert.cutset import Cutset, NeighborOrdering, complement_labels, is_star_cutset, separates
from sepcert.datasets import named_graph
from sepcert.errors import CutsetError, SearchError
from sepcert.search import (
    CoverAllGoal,
    NeighborSplitGoal,
    PairGoal,
    SearchTask,
    search_star_cutsets,
)


def exhaustive(name, **kw):
    g = named_graph(name)
    task = SearchTask(g, node_budget=10**18, time_budget_s=None, **kw)
    return g, search_star_cutsets(task)


def test_q3_has_no_star_cutsets():
    _, result = exhaustive("q3")
    assert result.exhausted
    assert result.cutsets == ()


@pytest.mark.parametrize("name", ["k4", "k33", "prism", "petersen", "bridge10"])
def test_exhaustive_search_matches_oracle(name):
    g, result = exhaustive(name)
    assert result.exhausted
    assert {c.elements for c in result.cutsets} == brute_star_cutsets(g)


def test_every_emission_passes_the_star_conjunction():
    g, result = exhaustive("heawood")
    assert result.exhausted
    for c in result.cutsets:
        assert is_star_cutset(g, c).ok


def test_pair_goal_members_separate_the_pair():
    g, result = exhaustive("bridge10", goal=PairGoal(1, 10))
    for c in result.cutsets:
        assert separates(g, c, 1, 10)
    # and the pair goal is a subset of the full enumeration
    full = {c.elements for c in exhaustive("bridge10")[1].cutsets}
    assert {c.elements for c in result.cutsets} <= full


def test_neighbor_split_goal_members_split_the_pair():
    g = named_graph("f090a")
    task = SearchTask(g, NeighborSplitGoal(1, 1, 2), node_budget=5000)
    result = search_star_cutsets(task)
    assert result.cutsets
    ordering = NeighborOrdering.ascending(g)
    wi, wj = ordering.at(1)[0], ordering.at(1)[1]
    for c in result.cutsets:
        assert 1 in c.elements
        labels, _ = complement_labels(g, c)
        assert labels[wi - 1] != labels[wj - 1]


def test_node_budget_limits_work():
    g = named_graph("heawood")
    small = search_star_cutsets(SearchTask(g, node_budget=5))
    assert not small.exhausted
    assert small.stats["nodes"] <= 5 + small.stats["subtasks"]


def test_search_requires_cubic():
    with pytest.raises(CutsetError):
        search_star_cutsets(SearchTask(named_graph("c8")))


def test_goal_validates_positions():
    g = named_graph("q3")
    with pytest.raises(SearchError):
        search_star_cutsets(SearchTask(g, NeighborSplitGoal(1, 2, 2)))
    with pytest.raises(SearchError):
        search_star_cutsets(SearchTask(g, PairGoal(3, 3)))


def test_stats_are_reported():
    _, result = exhaustive("k33")
    for key in ("nodes", "leaves", "subtasks"):
        assert key in result.stats
