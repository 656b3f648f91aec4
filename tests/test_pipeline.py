"""Pinned data of the F090A pipeline against the graph it describes."""

from __future__ import annotations

from sepcert.cutset import complement_labels
from sepcert.graph import distances
from sepcert.pipeline import _PAIRS


def test_pinned_pairs_lie_at_their_distance(f090a):
    table = distances(f090a)
    assert {d: table.get(x, y) for d, (x, y) in _PAIRS.items()} == {d: d for d in _PAIRS}


def test_vertices_at_distance_8_from_16(f090a):
    table = distances(f090a)
    assert [v for v in f090a.vertices() if table.get(16, v) == 8] == [46, 76]


def test_pinned_pairs_are_separated_by_the_seed_closure(f090a, orbit_closure):
    def separated(x, y):
        for c in orbit_closure:
            labels, _ = complement_labels(f090a, c)
            lx, ly = labels[x - 1], labels[y - 1]
            if lx is not None and ly is not None and lx != ly:
                return True
        return False

    assert all(separated(x, y) for x, y in _PAIRS.values())
    assert separated(16, 76)
