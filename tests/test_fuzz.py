"""Fuzzing the input parsers, the structure-file loader, the solver, the
seeds of ``complex trace``, the goals of ``cutset search`` and the node
budgets of ``cutset search`` and ``certify link``.

Malformed input must end in a ``SepcertError`` from the library, and in
exit 2 with an ``error:`` line from the CLI; any other exception escapes
``main`` and fails the test.  Every answer of ``gluing solve`` must check:
its weights pass ``gluing verify``, its infeasibility certificate passes
``GluingInfeasible.check``.  The hypothesis profile in ``conftest.py``
derandomizes generation, so every run tries the same examples.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepcert.cli import main
from sepcert.complexes import parse_complex
from sepcert.cutset import parse_family
from sepcert.errors import SepcertError
from sepcert.gluing import GluingInfeasible
from sepcert.graph import parse_graph

INPUTS = Path(__file__).with_name("golden") / "inputs"

_TOKENS = st.sampled_from(
    ["1", "2", "3", "4", "0", "-1", "9", "p", "C:", "1-2", "2-1", "3-3", "1/2", "1/0", "x", "#"]
)
_LINES = st.lists(st.lists(_TOKENS, max_size=4).map(" ".join), max_size=5).map("\n".join)

_ATOMS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 12), st.sampled_from(["", "L", "x", "1", "3/2"])
)
_JSON = st.recursive(
    _ATOMS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(["a", "L"]), inner, max_size=2),
    max_leaves=8,
)


@given(_LINES)
@settings(max_examples=60)
def test_parse_graph_raises_only_sepcert_errors(text):
    with contextlib.suppress(SepcertError):
        parse_graph(text)


@given(_LINES)
@settings(max_examples=60)
def test_parse_family_raises_only_sepcert_errors(text):
    with contextlib.suppress(SepcertError):
        parse_family(text)


_FACES = st.lists(st.lists(st.integers(-1, 6), max_size=5), max_size=4)


@given(
    st.one_of(
        _JSON,
        st.fixed_dictionaries(
            {"vertices": st.integers(-1, 6) | _ATOMS, "faces": _FACES | _JSON},
            optional={"edges": st.lists(st.lists(st.integers(0, 6), max_size=3), max_size=4) | _JSON},
        ),
    )
)
@settings(max_examples=60)
def test_parse_complex_raises_only_sepcert_errors(doc):
    with contextlib.suppress(SepcertError):
        parse_complex(json.dumps(doc))


@pytest.fixture(scope="module")
def structure_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("structures")
    for name in ("c6.txt", "c6-diameters.txt", "c8.txt", "c8-edges.txt", "c8-cross.txt"):
        (d / name).write_text((INPUTS / name).read_text())
    # two diameters of C6, which its rotations do not keep, and all three
    # with one repeated: the group of C6 refuses both families
    (d / "c6-two-diameters.txt").write_text("C: 1 4\nC: 2 5\n")
    (d / "c6-repeated-diameter.txt").write_text("C: 1 4\nC: 2 5\nC: 3 6\nC: 1 4\n")
    return d


# Half of the documents declare well-formed links, so that they get past
# the link checks and reach the germs and the gluing checks. The last two
# families always take their graph's group, which refuses them.
_NAMES = st.sampled_from(["L", "L", "M", "", 1, None, ["L"]])
_GOOD_LINK = st.builds(
    lambda name, files, group: {
        "name": name, "graph": files[0], "family": files[1], "sigma": files[2], "group": group or files[3]
    },
    st.sampled_from(["L", "M"]),
    st.sampled_from(
        [
            ("c6.txt", "c6-diameters.txt", "3", False),
            ("c8.txt", "c8-edges.txt", "3", False),
            ("c8.txt", "c8-cross.txt", "2", False),
            ("c6.txt", "c6-two-diameters.txt", "3", True),
            ("c6.txt", "c6-repeated-diameter.txt", "3", True),
        ]
    ),
    st.booleans(),
)
_BAD_LINK = _JSON | st.fixed_dictionaries(
    {
        "name": _NAMES,
        "graph": st.sampled_from(["c6.txt", "c8.txt", "c8-edges.txt", "missing.txt", "a\x00b", 3]),
        "family": st.sampled_from(["c6-diameters.txt", "c8-edges.txt", "c6.txt", None]),
    },
    optional={"sigma": st.sampled_from(["3", "2", "x", "1/0", 0, None])},
)
_PAIR = st.lists(st.integers(0, 9), min_size=2, max_size=2)
_ELEMENTS = st.one_of(st.integers(0, 9), _PAIR, st.lists(st.integers(0, 9), max_size=3), _JSON)
_GERM = st.fixed_dictionaries(
    {"start": _NAMES, "end": _NAMES, "element": _ELEMENTS},
    optional={
        "element_end": _ELEMENTS,
        "bijection": st.lists(_PAIR, max_size=3) | st.lists(_JSON, max_size=2) | _JSON,
    },
)
# Identity germs between the names the good links use, so that some germ
# lists get past the loader and reach the solver.
_GOOD_GERM = st.fixed_dictionaries(
    {"start": st.sampled_from(["L", "M"]), "end": st.sampled_from(["L", "M"]), "element": st.integers(1, 8)}
)
_LINKS = st.lists(_GOOD_LINK, min_size=1, max_size=2, unique_by=lambda spec: spec["name"]) | st.lists(
    _GOOD_LINK | _BAD_LINK, max_size=2
)
_STRUCTURE = st.one_of(
    st.fixed_dictionaries(
        {
            "links": _LINKS,
            "germs": st.lists(_GOOD_GERM, min_size=1, max_size=3) | st.lists(_GERM, min_size=1, max_size=3),
        }
    ),
    st.fixed_dictionaries({"links": _LINKS, "homogeneous": _NAMES}),
    st.fixed_dictionaries({"links": _LINKS}, optional={"homogeneous": _NAMES, "germs": _JSON}),
)


@given(_STRUCTURE)
@settings(max_examples=100)
def test_gluing_verify_exits_2_on_malformed_structures(structure_dir, doc):
    path = structure_dir / "structure.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = main(["gluing", "verify", str(path)])
    assert status in (0, 1, 2)
    if status == 2:
        assert err.getvalue().startswith("error:")


@given(_STRUCTURE)
@settings(max_examples=100)
def test_gluing_solve_answers_are_checkable(structure_dir, doc):
    path, out = structure_dir / "structure.json", structure_dir / "solve.out"
    path.write_text(json.dumps(doc))
    stdout, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        status = main(["gluing", "solve", str(path), "--out", str(out)])
    assert status in (0, 1, 2)
    if status == 2:
        assert err.getvalue().startswith("error:")
    elif status == 1:
        cert = json.loads(out.read_text())["certificate"]
        assert GluingInfeasible(tuple(map(tuple, cert["rows"])), tuple(cert["y"])).check()
    else:
        weights = structure_dir / "weights.txt"
        weights.write_text(stdout.getvalue())
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["gluing", "verify", str(path), "--weights", str(weights)]) == 0


_WEIGHT_TOKENS = st.sampled_from(
    ["L:0", "L:0", "L:1", "M:0", "L", ":0", "1", "2", "0", "-1", "1.5", "x", "99999999999999999999", "#", "L:0 1"]
)
# The structure has one orbit, L:0, so a third of the files are that one
# line with an integer weight, around comments and blank lines, and reach
# the checks; the rest are token soup and arbitrary text.
_WEIGHTS = st.one_of(
    st.builds(
        "{}L:0 {}{}\n".format,
        st.sampled_from(["", "# weights\n", "\n"]),
        st.integers(-2, 3),
        st.sampled_from(["", "  # one orbit", " "]),
    ),
    st.lists(st.lists(_WEIGHT_TOKENS, max_size=3).map(" ".join), max_size=4).map("\n".join),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)


@given(_WEIGHTS)
@settings(max_examples=100)
def test_gluing_verify_weights_files_exit_cleanly(tmp_path_factory, text):
    """``gluing verify --weights`` on the homogeneous C6 structure, whose
    family carries its group: any weights file ends in exit 0 or 1, or in
    exit 2 with an ``error:`` line."""
    weights = tmp_path_factory.mktemp("weights") / "weights.txt"
    weights.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = main(["gluing", "verify", str(INPUTS / "c6-homogeneous.json"), "--weights", str(weights)])
    assert status in (0, 1, 2)
    if status == 2:
        assert err.getvalue().startswith("error:")


def _assert_clean_exit(argv: list[str]) -> int:
    """Run the CLI in process: it exits 0 or 1, or 2 with an ``error:``
    line last on stderr, and prints no traceback. Returns the status."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = main(argv)
    assert status in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if status == 2:
        assert "error: " in err.getvalue().splitlines()[-1]
    return status


def _family_line(elements) -> str:
    return "C: " + " ".join(map(str, elements)) + "\n"


# grid4.json is a 4 x 4 grid of vertices numbered row by row, so the
# neighbours of v are among v - 4, v - 1, v + 1 and v + 4, and it has 9
# faces (indices 0..8). Part of the cases put a seed and its cutset on that
# grid, so that some traces run; the rest are near misses and junk.
_OFFSETS = st.sampled_from([-4, -1, 1, 4])
_ON_GRID = st.one_of(
    st.builds(
        lambda v, a, b: (str(v), "vertex", _family_line((v + a, v + b))), st.integers(1, 16), _OFFSETS, _OFFSETS
    ),
    st.builds(
        lambda v, a, faces: (f"{v}-{v + a}", "edge", faces),
        st.integers(1, 16),
        _OFFSETS,
        st.none() | st.lists(st.integers(0, 9), min_size=1, max_size=2).map(_family_line),
    ),
)
_SEED_TEXT = st.one_of(
    st.integers(-2, 45).map(str),
    st.integers(max_value=-1).map(str),
    st.builds("{}-{}".format, st.integers(-1, 18), st.integers(-1, 18)),
    st.text(st.sampled_from("0123456789-x "), max_size=6),
)
_CUTSET_TEXT = st.one_of(
    st.lists(st.integers(-1, 18), min_size=1, max_size=3).map(_family_line),
    st.lists(st.builds("{}-{}".format, st.integers(0, 17), st.integers(0, 17)), min_size=1, max_size=2).map(
        _family_line
    ),
    _LINES,
)
_TRACE_ARGS = _ON_GRID | st.tuples(_SEED_TEXT, st.sampled_from(["vertex", "edge"]), st.none() | _CUTSET_TEXT)


@given(_TRACE_ARGS)
@settings(max_examples=150)
def test_complex_trace_seeds_exit_cleanly(tmp_path_factory, case):
    seed, kind, cutset = case
    argv = ["complex", "trace", str(INPUTS / "grid4.json"), f"--seed-vertex={seed}", "--kind", kind]
    if cutset is not None:
        path = tmp_path_factory.getbasetemp() / "trace-cutset.txt"
        path.write_text(cutset)
        argv += ["--cutset", str(path)]
    _assert_clean_exit(argv)


@given(st.integers(max_value=0), st.sampled_from(["vertex", "edge"]))
@settings(max_examples=50)
def test_complex_trace_names_a_seed_below_one_out_of_range(tmp_path_factory, v, kind):
    """A seed id below 1 is a vertex id, never an edge midpoint."""
    path = tmp_path_factory.getbasetemp() / "trace-cutset-low.txt"
    path.write_text(_family_line((2, 5)))
    argv = ["complex", "trace", str(INPUTS / "grid4.json"), f"--seed-vertex={v}", "--kind", kind, "--cutset", str(path)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(argv) == 2
    assert err.getvalue().endswith(f"vertex {v} outside 1..16\n")


# q3 has 8 vertices, and neighbour positions run 1..3.
_SPLIT = st.sampled_from([(1, 2), (1, 3), (2, 3), (3, 1), (2, 2), (0, 1), (1, 4)]) | st.tuples(
    st.integers(), st.integers()
)


@given(st.sampled_from(range(-1, 11)) | st.integers(), _SPLIT)
@settings(max_examples=100)
def test_star_search_goals_exit_cleanly(at, split):
    i, j = split
    _assert_clean_exit(["cutset", "search", "--builtin", "q3", "--star", f"--at={at}", "--split", str(i), str(j)])


_BUDGETED = [["cutset", "search", "--builtin", "q3", "--star"], ["certify", "link", "--builtin", "heawood"]]
_BUDGET_TEXT = st.integers().map(str) | st.text(st.sampled_from("0123456789-+_x. "), max_size=6)


@given(st.sampled_from(_BUDGETED), _BUDGET_TEXT)
@settings(max_examples=100)
def test_node_budgets_exit_cleanly(command, budget):
    """Only a non-negative integer is a node budget; anything else exits 2."""
    try:
        valid = int(budget) >= 0
    except ValueError:
        valid = False
    status = _assert_clean_exit([*command, f"--budget={budget}"])
    assert (status != 2) == valid
