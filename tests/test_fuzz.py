"""Fuzzing the input parsers and the structure-file loader.

Malformed input must end in a ``SepcertError`` from the library, and in
exit 2 with an ``error:`` line from the CLI; any other exception escapes
``main`` and fails the test.  The hypothesis profile in ``conftest.py``
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
from sepcert.datasets import named_graph
from sepcert.errors import SepcertError
from sepcert.graph import format_graph, parse_graph

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
    for name in ("c6.txt", "c6-diameters.txt", "c8-edges.txt"):
        (d / name).write_text((INPUTS / name).read_text())
    (d / "c8.txt").write_text(format_graph(named_graph("c8")))
    return d


# Half of the documents declare well-formed links, so that they get past
# the link checks and reach the germs and the gluing checks.
_NAMES = st.sampled_from(["L", "L", "M", "", 1, None, ["L"]])
_GOOD_LINK = st.builds(
    lambda name, files, group: {"name": name, "graph": files[0], "family": files[1], "group": group},
    st.sampled_from(["L", "M"]),
    st.sampled_from([("c6.txt", "c6-diameters.txt"), ("c8.txt", "c8-edges.txt")]),
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
_LINKS = st.lists(_GOOD_LINK, min_size=1, max_size=2, unique_by=lambda spec: spec["name"]) | st.lists(
    _GOOD_LINK | _BAD_LINK, max_size=2
)
_STRUCTURE = st.one_of(
    st.fixed_dictionaries({"links": _LINKS, "germs": st.lists(_GERM, min_size=1, max_size=3)}),
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
