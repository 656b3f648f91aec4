"""The command line: exact group orders from ``sepcert aut``, exit 2 with
an ``error:`` line on bad options, malformed input and unwritable output
paths, and a quiet exit 141 when the reader closes stdout early."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import sepcert
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


def test_star_search_has_no_time_budget_option(capsys):
    argv = ["cutset", "search", "--builtin", "k33", "--star", "--time-budget", "5"]
    assert main(argv) == 2
    assert "unrecognized arguments: --time-budget" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "g,message",
    [
        (Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]), "graph is not trivalent: vertex 1 has degree 2"),
        (
            Graph(8, [e for base in (0, 4) for e in combinations(range(base + 1, base + 5), 2)]),
            "graph is not connected",
        ),
    ],
)
def test_star_search_rejects_non_cubic_graphs(g, message, tmp_path, capsys):
    path = _graph_file(tmp_path, g)
    for _ in range(2):  # the second run asks the memoised verdict
        assert main(["cutset", "search", path, "--star", "--exhaust"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: CutsetError: {message}\n"


INPUTS = Path(__file__).with_name("golden") / "inputs"


@pytest.mark.parametrize(
    "argv",
    [
        ["graph", "info", "--builtin", "petersen"],
        ["cutset", "search", "--builtin", "bridge10", "--star", "--exhaust"],
        ["gluing", "solve", str(INPUTS / "c6-homogeneous.json")],
        [
            "certify", "vertex-separated", "--builtin", "q3", "--n", "2",
            "--family", str(INPUTS / "q3-neighborhoods.txt"),
        ],
    ],
    ids=lambda argv: "-".join(argv[:2]),
)
def test_unwritable_out_exits_2_without_traceback(argv, tmp_path, capsys):
    out = tmp_path / "missing" / "report"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}:")
    assert "Traceback" not in err


def test_closed_stdout_exits_141_without_traceback():
    env = dict(os.environ, PYTHONPATH=str(Path(sepcert.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "sepcert.cli", "aut", "--builtin", "f090a", "--elements"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    head = [proc.stdout.readline() for _ in range(3)]
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert head[0] == b"order: 4320\n"
    assert "Traceback" not in err and "BrokenPipeError" not in err


_LINK = {"name": "L", "graph": str(INPUTS / "c6.txt"), "family": str(INPUTS / "c6-diameters.txt")}


@pytest.mark.parametrize("command", ["verify", "solve"])
@pytest.mark.parametrize(
    "doc",
    [
        {"links": [_LINK], "germs": [{"start": "L", "end": "L"}]},
        {"links": [_LINK], "germs": [{"start": "L", "end": "L", "element": "x"}]},
        {"links": [1], "homogeneous": "L"},
        {"links": [_LINK], "germs": [{"start": "L", "end": "L", "element": [1, 2, 3]}]},
        {"links": [_LINK], "homogeneous": ["L"]},
        {"links": [_LINK], "germs": [{"start": "L", "end": "L", "element": 1, "bijection": [[2]]}]},
    ],
    ids=["no-element", "string-element", "link-not-object", "long-edge", "list-name", "short-bijection"],
)
def test_gluing_rejects_malformed_structures(command, doc, tmp_path, capsys):
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(doc))
    assert main(["gluing", command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_complex_trace_rejects_out_of_range_midpoint(capsys):
    argv = ["complex", "trace", str(INPUTS / "grid4.json"), "--seed-vertex", "999", "--kind", "edge"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: seed vertex 999 outside the subdivided range\n"


def test_cutset_check_rejects_edges_outside_the_graph(tmp_path, capsys):
    family = tmp_path / "family.txt"
    family.write_text("C: 7-8\n")
    assert main(["cutset", "check", "--builtin", "c6", "--family", str(family)]) == 2
    assert capsys.readouterr().err == "error: CutsetError: cutset edge (7, 8) not in graph\n"
