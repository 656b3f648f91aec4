"""The command line: exact group orders from ``sepcert aut``, and exit 2
with an ``error:`` line on bad options and malformed input."""

from __future__ import annotations

import json
import random
from itertools import combinations

import pytest

from sepcert.cli import main
from sepcert.graph import Graph, format_graph


def _graph_file(tmp_path, g: Graph) -> str:
    path = tmp_path / "graph.txt"
    path.write_text(format_graph(g))
    return str(path)


def _order_line(capsys) -> str:
    return capsys.readouterr().out.splitlines()[0]


def test_aut_order_of_k8(tmp_path, capsys):
    path = _graph_file(tmp_path, Graph(8, combinations(range(1, 9), 2)))
    assert main(["aut", path]) == 0
    assert _order_line(capsys) == "order: 40320"


def test_aut_on_a_long_cycle(tmp_path, capsys):
    n = 1500
    path = _graph_file(tmp_path, Graph(n, [(v, v % n + 1) for v in range(1, n + 1)]))
    assert main(["aut", path]) == 0
    assert _order_line(capsys) == "order: 3000"


def test_aut_order_of_f090a(f090a, tmp_path, capsys):
    assert main(["aut", "--builtin", "f090a"]) == 0
    assert _order_line(capsys) == "order: 4320"
    perm = list(range(1, f090a.n + 1))
    random.Random(2).shuffle(perm)
    assert main(["aut", _graph_file(tmp_path, f090a.relabel(perm))]) == 0
    assert _order_line(capsys) == "order: 4320"


def test_aut_has_no_budget_option(capsys):
    assert main(["aut", "--builtin", "k4", "--budget", "5"]) == 2
    assert "unrecognized arguments: --budget" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc",
    [
        {"vertices": 3, "faces": [["a", 2, 3]]},
        {"vertices": "3", "faces": [[1, 2, 3]]},
    ],
)
def test_complex_check_rejects_malformed_input(doc, tmp_path, capsys):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(doc))
    assert main(["complex", "check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ComplexError:")
    assert "Traceback" not in err
