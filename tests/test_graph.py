"""Graph construction, parsing, metrics, and structural invariants, checked
against the slow oracles in _oracles.py."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from _oracles import brute_angular_girth, brute_girth, numpy_distances, nx_angular_distances
from sepcert.complexes import check_gromov, cone_complex, grid_complex
from sepcert.datasets import named_graph
from sepcert.errors import GraphFormatError, MetricError
from sepcert.graph import (
    INF,
    Graph,
    Metric,
    _length_table,
    bipartition,
    components,
    distances,
    edge_key,
    format_graph,
    girth,
    is_connected,
    parse_graph,
    parse_rational,
    shortest_cycle,
    structural_report,
    subdivide,
    subdivision_graph,
    union_labels,
)


def test_edge_key_sorts_and_rejects_loops():
    assert edge_key(5, 2) == (2, 5)
    assert edge_key(2, 5) == (2, 5)
    with pytest.raises(GraphFormatError):
        edge_key(3, 3)


def test_graph_rejects_bad_edges():
    with pytest.raises(GraphFormatError):
        Graph(3, [(1, 2), (2, 1)])  # duplicate under canonical form
    with pytest.raises(GraphFormatError):
        Graph(3, [(1, 4)])


def test_from_adjacency_requires_symmetry():
    g = Graph.from_adjacency({1: [2], 2: [1, 3], 3: [2]})
    assert g.edges() == ((1, 2), (2, 3))
    with pytest.raises(GraphFormatError):
        Graph.from_adjacency({1: [2], 2: [3], 3: [2]})


def test_neighbors_sorted_and_degree():
    g = named_graph("petersen")
    for v in g.vertices():
        assert g.neighbors(v) == tuple(sorted(g.neighbors(v)))
        assert g.degree(v) == 3


def test_relabel_preserves_shape():
    g = named_graph("q3")
    perm = (2, 3, 4, 5, 6, 7, 8, 1)
    h = g.relabel(perm)
    assert h.m == g.m
    assert sorted(h.degree(v) for v in h.vertices()) == [3] * 8


# ------------------------------------------------------------- parsing --


def test_parse_graph_plain_and_header():
    g, metric = parse_graph("p 4 3\n1 2\n2 3 # comment\n\n3 4\n")
    assert (g.n, g.m) == (4, 3)
    assert metric.kind == "combinatorial"
    assert metric.units == "edges"


def test_parse_graph_infers_vertex_count():
    g, _ = parse_graph("1 2\n2 7\n")
    assert g.n == 7


def test_parse_graph_lengths():
    g, metric = parse_graph("1 2 1/3\n2 3 2/3\n")
    assert metric.kind == "angular"
    assert metric.edge_length((2, 1)) == Fraction(1, 3)
    assert metric.units == "pi"


@pytest.mark.parametrize(
    "text",
    [
        "1 2\n1 2 1/3\n",  # mixed rows
        "1 2\np 2 1\n",  # stray header
        "p 2\n1 2\n",  # short header
        "p x 3\n1 2\n",  # non-integer header
        "1 2 0\n",  # non-positive length
        "1 two\n",  # bad id
        "1 2 3 4\n",  # too many fields
        "p 3 5\n1 2\n",  # edge count mismatch
    ],
)
def test_parse_graph_rejects(text):
    with pytest.raises((GraphFormatError, MetricError)):
        parse_graph(text)


def test_format_graph_round_trip():
    g = named_graph("heawood")
    g2, _ = parse_graph(format_graph(g))
    assert g2 == g


def test_format_graph_round_trip_with_lengths():
    g = Graph(3, [(1, 2), (2, 3), (1, 3)])
    metric = Metric.angular({(1, 2): Fraction(1, 3), (2, 3): Fraction(1, 2), (1, 3): Fraction(2, 3)})
    g2, m2 = parse_graph(format_graph(g, metric))
    assert g2 == g
    assert m2.lengths() == metric.lengths()


def test_parse_rational():
    assert parse_rational("2/3") == Fraction(2, 3)
    with pytest.raises(GraphFormatError):
        parse_rational("1/0")
    with pytest.raises(GraphFormatError):
        parse_rational("x")


# ------------------------------------------------------------- metrics --


def test_metric_requires_full_coverage():
    g = Graph(3, [(1, 2), (2, 3)])
    metric = Metric.angular({(1, 2): Fraction(1, 3)})
    with pytest.raises(MetricError):
        metric.validate_for(g)


def test_angular_distances_are_exact_fractions():
    g = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    metric = Metric.angular({e: Fraction(1, 3) for e in g.edges()})
    table = distances(g, metric)
    assert table.get(1, 3) == Fraction(2, 3)
    assert table.get(1, 1) == 0


# --------------------------------------------------- structure oracles --


@pytest.mark.parametrize("name", ["q3", "k4", "k33", "heawood", "petersen", "prism", "c5", "theta"])
def test_distances_match_matrix_power_oracle(name):
    g = named_graph(name)
    table = distances(g)
    expected = numpy_distances(g)
    for (u, v), d in expected.items():
        got = table.get(u, v)
        assert got == d or (got == math.inf and math.isinf(d))


@pytest.mark.parametrize(
    "name,expected_girth",
    [("q3", 4), ("k4", 3), ("k33", 4), ("heawood", 6), ("petersen", 5), ("c8", 8), ("p4", math.inf)],
)
def test_girth_matches_oracle(name, expected_girth):
    g = named_graph(name)
    got = girth(g)
    assert got == expected_girth
    assert got == brute_girth(g)


def test_girth_with_angular_metric():
    g = Graph(3, [(1, 2), (2, 3), (1, 3)])
    metric = Metric.angular({e: Fraction(1, 3) for e in g.edges()})
    assert girth(g, metric) == Fraction(1)


# ------------------------------------------- integer kernel vs oracles --

_MIXED = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 5))


def _mixed_metric(g: Graph, lengths=_MIXED) -> Metric:
    return Metric.angular({e: lengths[i % len(lengths)] for i, e in enumerate(g.edges())})


def _random_graph(seed: int) -> Graph:
    rng = random.Random(seed)
    n = rng.randint(5, 10)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return Graph(n, [e for e in pairs if rng.random() < 0.3])


_TWO_CYCLES_AND_A_POINT = Graph(8, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (6, 7), (4, 7)])
_TREE = Graph(5, [(1, 2), (2, 3), (2, 4), (4, 5)])

#: name -> (graph, edge lengths assigned round-robin in sorted edge order)
_ANGULAR_CASES = {
    "petersen-mixed": (named_graph("petersen"), _MIXED),
    "heawood-uniform-2/5": (named_graph("heawood"), (Fraction(2, 5),)),
    "two-cycles-and-a-point": (_TWO_CYCLES_AND_A_POINT, _MIXED),
    "tree": (_TREE, _MIXED),
    **{f"random-{seed}": (_random_graph(seed), _MIXED + (Fraction(1),)) for seed in range(6)},
}


@pytest.mark.parametrize("case", sorted(_ANGULAR_CASES))
def test_angular_distances_match_fraction_oracle(case):
    g, lengths = _ANGULAR_CASES[case]
    metric = _mixed_metric(g, lengths)
    table = distances(g, metric)
    expected = nx_angular_distances(g, metric)
    for (u, v), d in expected.items():
        got = table.get(u, v)
        if math.isinf(d):
            assert got is INF
        else:
            assert type(got) is Fraction and got == d
    assert table.diameter() == max(expected.values(), default=0)


@pytest.mark.parametrize("case", sorted(_ANGULAR_CASES))
def test_angular_girth_matches_fraction_oracle(case):
    g, lengths = _ANGULAR_CASES[case]
    metric = _mixed_metric(g, lengths)
    got = girth(g, metric)
    expected = brute_angular_girth(g, metric)
    if math.isinf(expected):
        assert got is INF
    else:
        assert type(got) is Fraction and got == expected


@pytest.mark.parametrize("case", sorted(_ANGULAR_CASES))
def test_shortest_cycle_is_a_cycle_of_girth_length(case):
    g, lengths = _ANGULAR_CASES[case]
    metric = _mixed_metric(g, lengths)
    found = shortest_cycle(g, metric)
    expected = brute_angular_girth(g, metric)
    if math.isinf(expected):
        assert found is None
        return
    length, cycle = found
    assert type(length) is Fraction and length == expected == girth(g, metric)
    assert len(set(cycle)) == len(cycle) >= 3
    closed = list(zip(cycle, cycle[1:])) + [(cycle[-1], cycle[0])]
    assert all(g.has_edge(u, v) for u, v in closed)
    assert sum(metric.edge_length(e) for e in closed) == length
    assert cycle[0] < cycle[-1]


def test_shortest_cycle_on_the_combinatorial_metric():
    # the first edge, (1, 2), closes the outer 5-cycle, walked from 1 to 2
    assert shortest_cycle(named_graph("petersen")) == (5, (1, 5, 4, 3, 2))
    assert shortest_cycle(_TREE) is None


def test_length_table_cache_is_bounded():
    """The per-metric length tables are an LRU cache with a fixed bound,
    however many distinct metrics pass through it."""
    bound = _length_table.cache_info().maxsize
    assert bound is not None
    check_gromov(grid_complex(48, 48))
    assert _length_table.cache_info().currsize <= bound
    check_gromov(cone_complex(named_graph("f090a")))
    assert _length_table.cache_info().currsize <= bound
    path = Graph(3, [(1, 2), (2, 3)])
    for k in range(2, 2 * bound + 2):
        metric = Metric.angular({(1, 2): Fraction(1, k), (2, 3): Fraction(1, k + 1)})
        assert distances(path, metric).get(1, 3) == Fraction(1, k) + Fraction(1, k + 1)
    assert _length_table.cache_info().currsize <= bound


def test_value_types():
    """ints on the combinatorial metric, Fractions on angular ones, except
    the diameter 0 of a table with no two vertices apart, which stays an int."""
    g = Graph(5, [(1, 2), (2, 3), (3, 1), (4, 5)])
    table = distances(g)
    assert type(table.get(1, 3)) is int and table.get(1, 3) == 1
    assert table.get(1, 4) is INF
    assert table.diameter() is INF
    assert type(girth(g)) is int and girth(g) == 3
    assert type(distances(named_graph("petersen")).diameter()) is int
    assert type(distances(Graph(1, []), Metric.angular({})).diameter()) is int
    edge = Graph(2, [(1, 2)])
    assert distances(edge, _mixed_metric(edge)).diameter() == Fraction(1, 3)
    assert type(distances(edge, _mixed_metric(edge)).diameter()) is Fraction


def test_structural_report_known_values():
    rep = structural_report(named_graph("petersen"))
    assert rep["vertices"] == 10
    assert rep["edges"] == 15
    assert rep["degree_histogram"] == {3: 10}
    assert rep["connected"] is True
    assert rep["bipartite"] is False
    assert rep["girth"] == 5
    assert rep["diameter"] == 2


def test_bipartition():
    g = named_graph("heawood")
    parts = bipartition(g)
    assert parts is not None
    a, b = parts
    assert len(a) == len(b) == 7
    aset = set(a)
    for u, v in g.edges():
        assert (u in aset) != (v in aset)
    assert bipartition(named_graph("petersen")) is None


def test_components_and_connectivity():
    g = Graph(5, [(1, 2), (3, 4)])
    assert components(g) == ((1, 2), (3, 4), (5,))
    assert components(g, removed_vertices=(1,)) == ((2,), (3, 4), (5,))
    assert not is_connected(g)
    assert is_connected(named_graph("q3"))


def test_union_labels_name_each_class_by_its_least_point():
    assert union_labels(0, []) == []
    assert union_labels(6, [(4, 2), (5, 1), (2, 0), (3, 3)]) == [0, 1, 0, 3, 0, 1]
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 30)
        edges = {edge_key(*rng.sample(range(1, n + 2), 2)) for _ in range(rng.randint(0, n))}
        g = Graph(n + 1, edges)
        labels = union_labels(g.n, ((u - 1, v - 1) for u, v in edges))
        for comp in components(g):  # sorted, so comp[0] is the least vertex
            assert {labels[v - 1] for v in comp} == {comp[0] - 1}


def test_subdivide_counts_and_midpoints():
    g = named_graph("k4")
    g2, m2, mid = subdivide(g)
    assert g2.n == g.n + g.m
    assert g2.m == 2 * g.m
    assert sorted(mid.values()) == list(range(g.n + 1, g.n + g.m + 1))
    for e, node in mid.items():
        u, v = e
        assert g2.has_edge(u, node) and g2.has_edge(v, node)
        assert m2.edge_length((u, node)) == Fraction(1, 2)
    assert subdivision_graph(g) == (g2, mid)
