"""The command line: exact group orders from ``sepcert aut``, the exit-code
contract of every subcommand (0 pass, 1 failing certificate, 2 with an
``error:`` line on bad options, malformed input and unwritable output
paths), and a quiet exit 141 when the reader closes stdout early."""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import sepcert
from sepcert.cli import _build_parser, main
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
    "argv,option",
    [
        (["f090a", "--skip-aut"], "--skip-aut"),
        (["cutset", "search", "--builtin", "q3", "--star", "--sigma", "3"], "--sigma"),
    ],
    ids=["f090a", "cutset-search"],
)
def test_options_with_one_value_are_gone(argv, option, capsys):
    assert main(argv) == 2
    assert f"error: unrecognized arguments: {option}" in capsys.readouterr().err


@pytest.mark.parametrize("v", [0, 91])
def test_star_search_rejects_goal_vertices_outside_the_graph(v, capsys):
    argv = ["cutset", "search", "--builtin", "f090a", "--star", "--at", str(v), "--split", "1", "2"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: SearchError: goal vertex {v} not in graph\n"


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


def test_option_value_of_two_dashes_exits_2(capsys):
    argv = ["complex", "trace", str(INPUTS / "grid4.json"), "--seed-vertex=--", "--kind", "vertex"]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines()[-1] == "sepcert: error: an option's value cannot be '--'"


def test_complex_trace_rejects_out_of_range_midpoint(capsys):
    argv = ["complex", "trace", str(INPUTS / "grid4.json"), "--seed-vertex", "999", "--kind", "edge"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: seed vertex 999 outside the subdivided range\n"


@pytest.mark.parametrize("kind", ["vertex", "edge"])
def test_complex_trace_takes_a_negative_seed_as_a_vertex_id(kind, tmp_path, capsys):
    cutset = tmp_path / "cutset.txt"
    cutset.write_text("C: 2 5\n")
    argv = ["complex", "trace", str(INPUTS / "grid4.json"), "--seed-vertex=-2", "--kind", kind]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --cutset is required except for edge-midpoint seeds\n"
    assert main([*argv, "--cutset", str(cutset)]) == 2
    seed = "seed vertex" if kind == "edge" else "vertex"
    assert capsys.readouterr().err == f"error: ComplexError: {seed} -2 outside 1..16\n"


def test_cutset_check_rejects_edges_outside_the_graph(tmp_path, capsys):
    family = tmp_path / "family.txt"
    family.write_text("C: 7-8\n")
    assert main(["cutset", "check", "--builtin", "c6", "--family", str(family)]) == 2
    assert capsys.readouterr().err == "error: CutsetError: cutset edge (7, 8) not in graph\n"


def test_weights_file_rejects_duplicate_orbit_ids(tmp_path, capsys):
    weights = tmp_path / "weights.txt"
    weights.write_text("L:0 1\nL:0 0\n")
    argv = ["gluing", "verify", str(INPUTS / "c6-homogeneous.json"), "--weights", str(weights)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: weights line 2: duplicate orbit id 'L:0'\n"


def _torus(n: int) -> dict:
    """An n x n square torus: flat links, but every wall closes up."""
    v = lambda i, j: n * (i % n) + j % n + 1  # noqa: E731
    faces = [[v(i, j), v(i, j + 1), v(i + 1, j + 1), v(i + 1, j)] for i in range(n) for j in range(n)]
    return {"vertices": n * n, "faces": faces}


#: Leaf subcommand -> {exit status: argv}. 0 is a passing input, 1 a failing
#: certificate (for commands that emit one), 2 malformed input. ``{name}``
#: stands for a file written by ``contract_files``; other names are inputs.
_CONTRACT = {
    "graph info": {0: ["graph", "info", "{theta.txt}"], 2: ["graph", "info", "{bad-graph}"]},
    "aut": {0: ["aut", "{theta.txt}"], 2: ["aut", "{bad-graph}"]},
    "cutset check": {
        0: ["cutset", "check", "--builtin", "c8", "--family", "{c8-edges.txt}", "--sigma", "4"],
        1: ["cutset", "check", "--builtin", "c8", "--family", "{c8-edges.txt}", "--sigma", "5"],
        2: ["cutset", "check", "--builtin", "c8", "--family", "{bad-family}"],
    },
    "cutset search": {
        0: ["cutset", "search", "--builtin", "bridge10", "--star", "--exhaust"],
        2: ["cutset", "search", "--builtin", "c6", "--star"],
    },
    "certify link": {
        0: ["certify", "link", "--builtin", "f090a"],
        1: ["certify", "link", "--builtin", "k33"],
        2: ["certify", "link", "--builtin", "f090a", "--family", "{bad-family}"],
    },
    "certify vertex-separated": {
        0: ["certify", "vertex-separated", "--builtin", "q3", "--n", "2", "--family", "{q3-neighborhoods.txt}"],
        1: ["certify", "vertex-separated", "--builtin", "q3", "--n", "2", "--family", "{q3-one}"],
        2: ["certify", "vertex-separated", "--builtin", "q3", "--n", "3", "--family", "{q3-neighborhoods.txt}"],
    },
    "certify edge-separated": {
        0: ["certify", "edge-separated", "--builtin", "c8", "--sigma", "4", "--family", "{c8-edges.txt}"],
        1: ["certify", "edge-separated", "--builtin", "c8", "--sigma", "4", "--family", "{c8-one}"],
        2: ["certify", "edge-separated", "--builtin", "c8", "--sigma", "5", "--family", "{c8-edges.txt}"],
    },
    "gluing verify": {
        0: ["gluing", "verify", "{c6-homogeneous.json}", "--weights", "{c6-weights.txt}"],
        1: ["gluing", "verify", "{c8-cross-balance.json}"],
        2: ["gluing", "verify", "{c6-homogeneous.json}", "--weights", "{bad-weights}"],
    },
    "gluing solve": {
        0: ["gluing", "solve", "{c6-homogeneous.json}"],
        1: ["gluing", "solve", "{c8-cross-balance.json}"],
        2: ["gluing", "solve", "{bad-structure}"],
    },
    "complex check": {
        0: ["complex", "check", "{grid4.json}"],
        1: ["complex", "check", "{tetrahedron}"],
        2: ["complex", "check", "{bad-complex}"],
    },
    "complex trace": {
        0: ["complex", "trace", "{grid4.json}", "--seed-vertex", "6-7", "--kind", "edge"],
        1: ["complex", "trace", "{torus}", "--seed-vertex", "1-2", "--kind", "edge"],
        2: ["complex", "trace", "{grid4.json}", "--seed-vertex", "6-x", "--kind", "edge"],
    },
    # f090a has no input of its own and fails on the bundled-seed audit
    "f090a": {1: ["f090a"], 2: ["f090a", "extra"]},
}


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("contract")
    written = {
        "bad-graph": "p 3 x\n",
        "bad-family": "C: 1 x\n",
        "bad-weights": "L:0 one\n",
        "bad-structure": '{"links": 1}',
        "bad-complex": '{"vertices": "3", "faces": [[1, 2, 3]]}',
        "q3-one": "C: 2 3 5\n",
        "c8-one": "C: 1-2 5-6\n",
        "tetrahedron": json.dumps({"vertices": 4, "faces": [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]}),
        "torus": json.dumps(_torus(4)),
    }
    for name, text in written.items():
        (d / name).write_text(text)
    return {**{p.name: str(p) for p in INPUTS.iterdir()}, **{name: str(d / name) for name in written}}


def _leaf_commands(parser, prefix=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [" ".join(prefix)]
    return [leaf for name, p in subs[0].choices.items() for leaf in _leaf_commands(p, (*prefix, name))]


def test_contract_names_every_leaf_subcommand():
    assert sorted(_leaf_commands(_build_parser())) == sorted(_CONTRACT)


#: More malformed inputs, each exit 2: a node budget is a non-negative
#: integer, a search is either exhaustive or under a node budget, and a
#: separation order sigma is positive.
_CONTRACT_MALFORMED = {
    "cutset-search-exhaust-with-budget": [
        "cutset", "search", "--builtin", "f090a", "--star", "--exhaust", "--budget", "5"
    ],
    "cutset-search-negative-budget": ["cutset", "search", "--builtin", "bridge10", "--star", "--budget", "-1"],
    "certify-link-negative-budget": ["certify", "link", "--builtin", "f090a", "--budget", "-3"],
    "certify-edge-sigma-zero": [
        "certify", "edge-separated", "--builtin", "c8", "--sigma=0", "--family", "{c8-edges.txt}"
    ],
    "certify-edge-sigma-negative": [
        "certify", "edge-separated", "--builtin", "c8", "--sigma=-1", "--family", "{c8-edges.txt}"
    ],
}


@pytest.mark.parametrize(
    "args,status",
    [
        pytest.param(argv, status, id=f"{command}-{status}".replace(" ", "-"))
        for command, cases in _CONTRACT.items()
        for status, argv in cases.items()
    ]
    + [pytest.param(argv, 2, id=name) for name, argv in _CONTRACT_MALFORMED.items()],
)
def test_exit_code_contract(args, status, contract_files, capsys):
    argv = [contract_files[arg[1:-1]] if arg.startswith("{") else arg for arg in args]
    assert main(argv) == status
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if status == 2:
        assert "error: " in err.splitlines()[-1]
