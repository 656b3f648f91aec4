"""The command line: exact group orders from ``sepcert aut``, the exit-code
contract of every subcommand (0 pass, 1 failing certificate, 2 with an
``error:`` line on bad options, malformed input and unwritable output
paths), a quiet exit 141 when the reader closes stdout early, and the
``sepcert`` modules that a command imports in a fresh interpreter."""

from __future__ import annotations

import argparse
import ast
import importlib
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
from sepcert.datasets import named_graph
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


def test_certify_link_has_no_budget_option(capsys):
    assert main(["certify", "link", "--builtin", "heawood", "--budget", "5"]) == 2
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
        {"vertices": 3, "faces": [[1, 2, 3]], "edges": [[1.9, 2], "23", [True, 3]]},
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


_PACKAGE = Path(sepcert.__file__).parent
#: What every command loads: ``report`` brings in ``cutset``.
_CORE = {"errors", "graph", "cutset", "report"}


def _modules_loaded(*args: str) -> tuple[int, set[str]]:
    """Exit status of ``python ARGS`` in a fresh interpreter, and the
    ``sepcert`` modules it imported, as ``-X importtime`` lists them (a
    module run with ``-m`` is not among them)."""
    env = dict(os.environ, PYTHONPATH=str(_PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], capture_output=True, text=True, env=env, timeout=120
    )
    names = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    return proc.returncode, {p.stem for p in _PACKAGE.glob("*.py") if f"sepcert.{p.stem}" in names}


@pytest.mark.parametrize(
    "argv,status,loads",
    [
        pytest.param(
            ["cutset", "search", "{bridge10}", "--star", "--exhaust"], 0, _CORE | {"aut", "search"}, id="cutset-search"
        ),
        pytest.param(["graph", "info", "{theta.txt}"], 0, _CORE, id="graph-info"),
        pytest.param(["complex", "check", "{grid4.json}"], 0, _CORE | {"complexes"}, id="complex-check"),
        pytest.param(["f090a"], 1, _CORE | {"aut", "certify", "gluing", "datasets", "pipeline"}, id="f090a"),
    ],
)
def test_a_command_loads_only_the_modules_it_runs(argv, status, loads, contract_files, tmp_path):
    """A graph file spares ``datasets`` (and its ``hashlib``); the star
    search needs no certificate, gluing or complex; the pipeline no complex
    and no search, since its family is bundled."""
    files = {**contract_files, "bridge10": _graph_file(tmp_path, named_graph("bridge10"))}
    argv = [files[arg[1:-1]] if arg.startswith("{") else arg for arg in argv]
    assert _modules_loaded("-m", "sepcert.cli", *argv) == (status, loads)


@pytest.mark.parametrize(
    "module,loads",
    [
        # certify imports gluing at its top, so the pipeline loads gluing
        ("pipeline", _CORE | {"aut", "certify", "gluing", "datasets", "pipeline"}),
        # and gluing names certify's SeparatedFamily in annotations only
        ("gluing", _CORE | {"gluing"}),
    ],
)
def test_certify_imports_gluing_one_way(module, loads):
    assert _modules_loaded("-c", f"import sepcert.{module}") == (0, loads)


def test_every_relative_import_in_the_cli_exists():
    """The handlers import what they run in their first lines; a handler
    that no test runs still cannot name a module or attribute that is gone."""
    tree = ast.parse((_PACKAGE / "cli.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert len(imports) > 10
    for node in imports:
        module = importlib.import_module(f"sepcert.{node.module}" if node.module else "sepcert")
        for alias in node.names:
            assert hasattr(module, alias.name), f"line {node.lineno}: sepcert.{node.module} has no {alias.name}"


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


def test_certify_link_checks_a_member_kind_before_its_cutset(tmp_path, capsys):
    # the edge 1-2 is neither a vertex cutset nor a cutset at all: the
    # family refuses its kind, as it does under Aut(petersen)
    family = tmp_path / "family.txt"
    family.write_text("C: 1-2\n")
    assert main(["certify", "link", "--builtin", "petersen", "--family", str(family)]) == 2
    assert capsys.readouterr().err == (
        "error: CertifyError: member ((1, 2),) has kind 'edge', family is 'vertex'\n"
    )


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
        "parallel-corners": json.dumps({"vertices": 5, "faces": [[1, 2, 3, 4], [5, 2, 3, 4]]}),
        "path": "p 4 3\n1 2\n2 3\n3 4\n",
        "forest": "p 6 4\n1 2\n2 3\n4 5\n5 6\n",
        "germ-twice": json.dumps(
            {
                "links": [
                    {"name": "L", "graph": str(INPUTS / "c8.txt"), "sigma": "2", "family": str(INPUTS / "c8-cross.txt")}
                ],
                "germs": [{"start": "L", "element": 1, "end": "L", "bijection": [[2, 8], [2, 2], [8, 8]]}],
            }
        ),
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
#: integer, a search is either exhaustive or under a node budget,
#: ``certify link`` takes no budget, a separation order sigma is positive,
#: a link is a simple graph, and a germ maps each direction once.
_CONTRACT_MALFORMED = {
    "complex-check-parallel-corners": ["complex", "check", "{parallel-corners}"],
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
    "cutset-check-sigma-zero": ["cutset", "check", "--builtin", "c8", "--family", "{c8-edges.txt}", "--sigma=0"],
    "cutset-check-sigma-negative": [
        "cutset", "check", "--builtin", "c8", "--family", "{c8-edges.txt}", "--sigma=-1"
    ],
    "gluing-verify-germ-maps-a-direction-twice": ["gluing", "verify", "{germ-twice}"],
}


#: Acyclic links, each exit 1: the girth is infinite, and the family
#: bootstrap fails on a graph that is not cubic and connected.
_CONTRACT_ACYCLIC = {
    "certify-link-path": ["certify", "link", "{path}"],
    "certify-link-forest": ["certify", "link", "{forest}"],
}


@pytest.mark.parametrize(
    "args,status",
    [
        pytest.param(argv, status, id=f"{command}-{status}".replace(" ", "-"))
        for command, cases in _CONTRACT.items()
        for status, argv in cases.items()
    ]
    + [pytest.param(argv, 2, id=name) for name, argv in _CONTRACT_MALFORMED.items()]
    + [pytest.param(argv, 1, id=name) for name, argv in _CONTRACT_ACYCLIC.items()],
)
def test_exit_code_contract(args, status, contract_files, capsys):
    argv = [contract_files[arg[1:-1]] if arg.startswith("{") else arg for arg in args]
    assert main(argv) == status
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if status == 2:
        assert "error: " in err.splitlines()[-1]


def test_complex_check_names_parallel_corners(contract_files, capsys):
    # both squares turn from edge 2-3 to edge 3-4 at vertex 3
    assert main(["complex", "check", contract_files["parallel-corners"]]) == 2
    err = capsys.readouterr().err
    assert err == "error: ComplexError: faces 0 and 1 form parallel corners at vertex 3; links must be simple\n"


@pytest.mark.parametrize("name", ["path", "forest"])
def test_certify_link_on_an_acyclic_graph_reports_infinite_girth(name, contract_files, tmp_path, capsys):
    out = tmp_path / "link.json"
    assert main(["certify", "link", contract_files[name], "--out", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "  PASS link-girth-six"
    assert lines[1].startswith('  FAIL star-separated  {"error": ')
    girth = json.loads(out.read_text())["certificates"][0]["checks"][0]["witness"]
    assert girth == {"angular_girth_pi_units": "inf", "girth": "inf"}
