"""Golden corpus: CLI invocations replayed against their committed output.

Each case runs ``sepcert`` in-process from ``tests/golden/inputs``, so the
input paths recorded in reports are relative, and compares byte for byte:
the exit status and stdout (``<case>.stdout``) and every file its ``--out``
writes (``<case>.<file>``), JSON reports after ``report.stripped``.

After an intended change of output, regenerate with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from __future__ import annotations

import io
import os
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from sepcert.cli import main
from sepcert.report import stripped

GOLDEN = Path(__file__).with_name("golden")
INPUTS = GOLDEN / "inputs"

#: case name -> (argv without --out, name of the --out file)
CASES = {
    "graph-info-theta": (["graph", "info", "theta.txt"], "out.json"),
    "aut-petersen": (["aut", "--builtin", "petersen"], "out.json"),
    "aut-theta": (["aut", "theta.txt"], "out.json"),
    "cutset-check-c8": (
        ["cutset", "check", "--builtin", "c8", "--family", "c8-edges.txt", "--sigma", "4"],
        "out.json",
    ),
    "cutset-check-theta": (
        ["cutset", "check", "theta.txt", "--family", "theta-family.txt", "--sigma", "1/2"],
        "out.json",
    ),
    "cutset-search-bridge10": (["cutset", "search", "--builtin", "bridge10", "--star", "--exhaust"], "out.txt"),
    "certify-link-f090a": (["certify", "link", "--builtin", "f090a"], "out.json"),
    "certify-link-heawood": (["certify", "link", "--builtin", "heawood"], "out.json"),
    "certify-vertex-q3": (
        ["certify", "vertex-separated", "--builtin", "q3", "--n", "2", "--family", "q3-neighborhoods.txt"],
        "out.json",
    ),
    "certify-edge-c8": (
        ["certify", "edge-separated", "--builtin", "c8", "--sigma", "4", "--family", "c8-edges.txt"],
        "out.json",
    ),
    "gluing-verify-c6": (["gluing", "verify", "c6-homogeneous.json", "--weights", "c6-weights.txt"], "out.json"),
    "gluing-solve-c6": (["gluing", "solve", "c6-homogeneous.json"], "out.txt"),
    "gluing-solve-infeasible-c8": (["gluing", "solve", "c8-cross-balance.json"], "out.json"),
    "complex-check-grid4": (["complex", "check", "grid4.json"], "out.json"),
    "complex-trace-grid4": (["complex", "trace", "grid4.json", "--seed-vertex", "6-7", "--kind", "edge"], "out.json"),
    "f090a": (["f090a"], "out.json"),
}


def replay(name: str, workdir: Path) -> dict[str, str]:
    """Run one case; returns {golden file name: expected content}."""
    argv, out_name = CASES[name]
    case_dir = workdir / name
    case_dir.mkdir()
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(INPUTS)
    try:
        with redirect_stdout(buf):
            status = main([*argv, "--out", str(case_dir / out_name)])
    finally:
        os.chdir(cwd)
    files = {f"{name}.stdout": f"exit {status}\n{buf.getvalue()}"}
    for path in sorted(case_dir.iterdir()):
        text = path.read_text()
        files[f"{name}.{path.name}"] = stripped(text) if path.suffix == ".json" else text
    return files


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    got = replay(name, tmp_path)
    expected = {p.name: p.read_text() for p in GOLDEN.glob(f"{name}.*")}
    assert sorted(got) == sorted(expected)
    for key in sorted(got):
        assert got[key] == expected[key], key


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            for old in GOLDEN.glob(f"{case}.*"):
                old.unlink()
            for fname, content in replay(case, Path(tmp)).items():
                (GOLDEN / fname).write_text(content)
                print(f"wrote {fname}", file=sys.stderr)
