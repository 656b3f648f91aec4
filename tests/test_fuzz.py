"""Fuzzing the input parsers, the structure-file loader and the solver.

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
    return d


# Half of the documents declare well-formed links, so that they get past
# the link checks and reach the germs and the gluing checks.
_NAMES = st.sampled_from(["L", "L", "M", "", 1, None, ["L"]])
_GOOD_LINK = st.builds(
    lambda name, files, group: {
        "name": name, "graph": files[0], "family": files[1], "sigma": files[2], "group": group
    },
    st.sampled_from(["L", "M"]),
    st.sampled_from(
        [("c6.txt", "c6-diameters.txt", "3"), ("c8.txt", "c8-edges.txt", "3"), ("c8.txt", "c8-cross.txt", "2")]
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
