"""The four benchmark workloads: inputs from a seed, the processes of one
pass, and the output checks that decide which operations failed.

Every workload is a whole certification run cold, in fresh processes.  Why
each one is here (see README.md for the layer table):

* ``f090a`` -- ``sepcert f090a``, the paper's headline pipeline.  Symmetry
  (``aut``) does about half the work, then ``certify``, gluing verification,
  cutset predicates and subdivision distances.  It is unseeded: the pipeline
  pins the bundled dataset.
* ``star-enum`` -- exhaustive star-cutset enumeration of a relabelled
  F090A.  Search propagation and leaf validation do all the work; symmetry,
  gluing and complexes stay idle.
* ``grid-walls`` -- curvature check and wall traces on a square grid, through
  the library API.  ``complexes`` does the work, and its per-vertex scans
  over all edges and faces dominate.
* ``link-solve`` -- the triangle-link certificate on F090A, whose search
  stops at a first hit under a node budget, plus the gluing solver on the
  infeasible homogeneous structure of the bundled-seed closure.  It is
  unseeded: ``automorphism_group`` runs in both processes, and its cost
  follows the vertex labelling (2.3 s for the seed-1 relabelling, 4.6 s for
  the bundled one, and for seed 2 it spends its 10M-node budget in 21 s
  without finishing), so relabelled inputs would swamp every other change.

Searches run on node budgets or to exhaustion, never on time budgets, so
the work done does not depend on machine speed.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: |Aut(F090A)| as the pipeline must report it.
F090A_AUT_ORDER = 4320
#: Star cutsets the exhaustive search finds at the seed commit (475198f).
#: This is the benchmark's expectation, not a certified fact.
STAR_CUTSETS = 16416
#: sha256 of that family mapped back to the bundled labelling, one
#: ``C: v1 v2 ...`` line per cutset in sorted order (seed commit 475198f).
STAR_FAMILY_SHA256 = "e1f43a053ead89f7d34378a21393cbad4095de3254f893e69f80e70735f5cfef"

#: Side length of the grid-walls complex, and walls traced per kind.
GRID_SIZE = 48
GRID_WALLS_PER_KIND = 2


@dataclass
class Proc:
    """One process of a pass.  ``argv`` runs it untraced; ``traced`` runs
    it through worker.py with spans; ``check(status, stderr)`` lists what is
    wrong with its outputs; ``reports`` are the files it writes."""

    label: str
    argv: list[str]
    traced: Callable[[Path], list[str]]
    check: Callable[[int, str], list[str]]
    reports: list[Path]


@dataclass
class Workload:
    name: str
    make_inputs: Callable[[int, Path], dict]
    setup: Callable[[dict], list[str]]
    procs: Callable[[dict, Path, str], list[Proc]]


def _permutation(seed: int, n: int) -> list[int]:
    """Vertex relabelling for a seed; seed 0 keeps the bundled labels."""
    perm = list(range(1, n + 1))
    if seed:
        random.Random(seed).shuffle(perm)
    return perm


def _family_text(cutsets) -> str:
    return "".join("C: " + " ".join(map(str, sorted(c))) + "\n" for c in sorted(map(sorted, cutsets)))


def _parse_family_text(text: str) -> list[list[int]]:
    out = []
    for line in text.splitlines():
        if not line.startswith("C: "):
            raise ValueError(f"bad family line {line[:60]!r}")
        out.append([int(t) for t in line[3:].split()])
    return out


def _json_report(path: Path):
    """The parsed report, or a problem string."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return f"unparsable report {path.name}: {exc}"


def _cli_check(status: int, stderr: str, more: Callable[[int], list[str]]) -> list[str]:
    problems = []
    if status not in (0, 1):
        problems.append(f"exit status {status}")
    if "Traceback" in stderr:
        problems.append("traceback: " + stderr.strip().splitlines()[-1][:200])
    return problems or more(status)


def _proc(python: str, label: str, cli_args: list[str], check_more, reports) -> Proc:
    """A ``sepcert`` CLI process: untraced it is ``python -m sepcert.cli``.
    ``check_more(status)`` checks the reports once the process ran cleanly."""
    worker = str(Path(__file__).with_name("worker.py"))
    return Proc(
        label=label,
        argv=[python, "-m", "sepcert.cli", *cli_args],
        traced=lambda out: [python, worker, "--trace", str(out), "cli", *cli_args],
        check=lambda status, stderr: _cli_check(status, stderr, check_more),
        reports=reports,
    )


# ---------------------------------------------------------------- f090a --


def _f090a_inputs(seed: int, d: Path) -> dict:
    return {}


def _f090a_check(out: Path) -> list[str]:
    doc = _json_report(out)
    if isinstance(doc, str):
        return [doc]
    problems = []
    try:
        aut = next(c for c in doc["certificates"] if c["target"] == "automorphisms")
        order = next(k for k in aut["checks"] if k["name"] == "enumerated")["witness"]["order"]
    except (KeyError, StopIteration, TypeError):
        return ["report has no automorphisms/enumerated order"]
    if order != F090A_AUT_ORDER:
        problems.append(f"|Aut| = {order}, expected {F090A_AUT_ORDER}")
    stats = doc.get("stats", {})
    if stats.get("not_checked"):
        problems.append(f"stages not checked: {stats['not_checked']}")
    if "aborted_at" in stats:
        problems.append(f"aborted at {stats['aborted_at']}")
    return problems


def _f090a_procs(inputs: dict, d: Path, python: str) -> list[Proc]:
    out = d / "f090a.json"
    return [_proc(python, "f090a", ["f090a", "--out", str(out)], lambda status: _f090a_check(out), [out])]


# ------------------------------------------------------------ star-enum --


def _relabelled_f090a(seed: int, d: Path) -> tuple[dict, list[int]]:
    from sepcert.datasets import f090a
    from sepcert.graph import format_graph

    perm = _permutation(seed, 90)
    graph = d / "graph.txt"
    graph.write_text(format_graph(f090a().relabel(perm)))
    return {"graph": graph}, perm


def _star_inputs(seed: int, d: Path) -> dict:
    files, perm = _relabelled_f090a(seed, d)
    (d / "perm.json").write_text(json.dumps(perm) + "\n")
    return {**files, "perm": d / "perm.json"}


def _star_check(fam: Path, stats_path: Path, perm_path: Path) -> list[str]:
    stats = _json_report(stats_path)
    if isinstance(stats, str):
        return [stats]
    problems = []
    if stats.get("exhausted") is not True:
        problems.append("search not exhausted")
    if stats.get("found") != STAR_CUTSETS:
        problems.append(f"found {stats.get('found')} star cutsets, expected {STAR_CUTSETS}")
    try:
        family = _parse_family_text(fam.read_text())
    except (OSError, ValueError) as exc:
        return problems + [f"unparsable family: {exc}"]
    back = {v: i + 1 for i, v in enumerate(json.loads(perm_path.read_text()))}
    text = _family_text([back[v] for v in c] for c in family)
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != STAR_FAMILY_SHA256:
        problems.append(f"family maps back to sha256 {digest[:12]}.., expected {STAR_FAMILY_SHA256[:12]}..")
    return problems


def _star_procs(inputs: dict, d: Path, python: str) -> list[Proc]:
    fam = d / "star.txt"
    stats = Path(str(fam) + ".stats.json")
    args = ["cutset", "search", str(inputs["graph"]), "--star", "--exhaust", "--out", str(fam)]
    return [_proc(python, "cutset-search", args, lambda status: _star_check(fam, stats, inputs["perm"]), [fam, stats])]


# ----------------------------------------------------------- grid-walls --


def _grid_inputs(seed: int, d: Path) -> dict:
    """A GRID_SIZE x GRID_SIZE square grid (row-major ids) and a plan of
    walls: vertex-kind walls along a grid line through an interior vertex,
    edge-kind walls through the midpoint of an interior edge, each with one
    point pair for ``separation_check``.  The plan records the geometric
    half-planes each wall must produce."""
    from sepcert.complexes import format_complex, grid_complex

    n = GRID_SIZE
    rng = random.Random(seed)

    def vid(r: int, c: int) -> int:
        return r * n + c + 1

    walls = []
    for _ in range(GRID_WALLS_PER_KIND):
        r, c = rng.randint(1, n - 2), rng.randint(1, n - 2)
        v = vid(r, c)
        if rng.random() < 0.5:  # vertical line through column c
            wall = {"kind": "vertex", "vertex": v, "edges": [[vid(r - 1, c), v], [v, vid(r + 1, c)]]}
            axis, cut = "col", c
        else:
            wall = {"kind": "vertex", "vertex": v, "edges": [[vid(r, c - 1), v], [v, vid(r, c + 1)]]}
            axis, cut = "row", r
        wall["sides"] = {"axis": axis, "below": cut, "above": cut + 1}
        walls.append(wall)
    for _ in range(GRID_WALLS_PER_KIND):
        if rng.random() < 0.5:  # horizontal edge: the wall splits the columns
            r, c = rng.randint(1, n - 2), rng.randint(0, n - 2)
            wall = {"kind": "edge", "edge": [vid(r, c), vid(r, c + 1)]}
            wall["sides"] = {"axis": "col", "below": c + 1, "above": c + 1}
        else:  # vertical edge: the wall splits the rows
            r, c = rng.randint(0, n - 2), rng.randint(1, n - 2)
            wall = {"kind": "edge", "edge": [vid(r, c), vid(r + 1, c)]}
            wall["sides"] = {"axis": "row", "below": r + 1, "above": r + 1}
        walls.append(wall)
    for wall in walls:
        sides = wall["sides"]
        pair: list[int] = []
        while len(pair) < 2:
            r, c = rng.randrange(n), rng.randrange(n)
            if _side(sides, r, c) is not None:
                pair.append(vid(r, c))
        wall["pair"] = pair
    grid = d / "grid.json"
    grid.write_text(format_complex(grid_complex(n, n)))
    (d / "plan.json").write_text(json.dumps({"size": n, "walls": walls}, sort_keys=True) + "\n")
    return {"grid": grid, "plan": d / "plan.json"}


def _side(sides: dict, r: int, c: int) -> int | None:
    """0 below the wall, 1 above it, None on it; ``below``/``above`` are the
    first coordinates excluded from each side."""
    x = c if sides["axis"] == "col" else r
    if x < sides["below"]:
        return 0
    if x >= sides["above"]:
        return 1
    return None


def _grid_check(d: Path) -> list[str]:
    out = _json_report(d / "grid_out.json")
    if isinstance(out, str):
        return [out]
    plan = json.loads((d / "plan.json").read_text())
    n = plan["size"]
    problems = []
    if out["links"] != n * n or out["link_failures"]:
        problems.append(f"{out['link_failures']} of {out['links']} link checks failed")
    if len(out["walls"]) != len(plan["walls"]):
        return problems + ["not every wall was traced"]
    for i, (wall, got) in enumerate(zip(plan["walls"], out["walls"])):
        halves: list[list[int]] = [[], []]
        for v in range(1, n * n + 1):
            side = _side(wall["sides"], (v - 1) // n, (v - 1) % n)
            if side is not None:
                halves[side].append(v)
        p, q = wall["pair"]
        expect_sep = _side(wall["sides"], (p - 1) // n, (p - 1) % n) != _side(
            wall["sides"], (q - 1) // n, (q - 1) % n
        )
        if got["conflicts"]:
            problems.append(f"wall {i}: {got['conflicts']} conflicts")
        if len(got["primary_sides"]) != 2:
            problems.append(f"wall {i}: {len(got['primary_sides'])} primary sides")
        elif sorted(got["primary_sides"]) != sorted(halves):
            problems.append(f"wall {i}: sides are not the half-planes of the wall")
        if not got["checks_ok"]:
            problems.append(f"wall {i}: hypergraph checks failed")
        if got["separated"] != expect_sep:
            problems.append(f"wall {i}: separation_check({p}, {q}) = {got['separated']}")
    return problems


def _grid_procs(inputs: dict, d: Path, python: str) -> list[Proc]:
    worker = str(Path(__file__).with_name("worker.py"))

    def check(status: int, stderr: str) -> list[str]:
        return _cli_check(status, stderr, lambda status: _grid_check(d))

    return [
        Proc(
            label="grid",
            argv=[python, worker, "grid", str(d)],
            traced=lambda out: [python, worker, "--trace", str(out), "grid", str(d)],
            check=check,
            reports=[d / "grid_out.json"],
        )
    ]


# ----------------------------------------------------------- link-solve --


def _link_inputs(seed: int, d: Path) -> dict:
    """For ``gluing solve``: F090A in its bundled labelling, the orbit
    closure of the bundled seed cutsets, and a structure file gluing that
    family homogeneously with its automorphism group.  The seed is not
    used (see the module docstring)."""
    from sepcert.aut import automorphism_group, orbit_of_vertex_set
    from sepcert.datasets import f090a, f090a_star_cutsets

    files, _ = _relabelled_f090a(0, d)
    grp = automorphism_group(f090a())
    closure = set()
    for seed_cutset in f090a_star_cutsets():
        closure.update(orbit_of_vertex_set(grp, seed_cutset))
    family = d / "closure.txt"
    family.write_text(_family_text(closure))
    structure = d / "structure.json"
    doc = {
        "links": [{"name": "L", "graph": "graph.txt", "sigma": "3", "family": "closure.txt", "group": True}],
        "homogeneous": "L",
    }
    structure.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return {**files, "closure": family, "structure": structure}


def _link_check(out: Path) -> list[str]:
    doc = _json_report(out)
    if isinstance(doc, str):
        return [doc]
    if not doc.get("certificates"):
        return ["certify link report has no certificate"]
    return []


def _solve_check(status: int, out: Path) -> list[str]:
    doc = _json_report(out)
    if isinstance(doc, str):
        return [doc]
    if status != 1 or doc.get("pass") is not False or "detail" not in doc:
        return ["gluing solve did not report the seed closure infeasible"]
    return []


def _link_procs(inputs: dict, d: Path, python: str) -> list[Proc]:
    link_out, solve_out = d / "link.json", d / "solve.json"
    certify = _proc(
        python,
        "certify-link",
        ["certify", "link", "--builtin", "f090a", "--out", str(link_out)],
        lambda status: _link_check(link_out),
        [link_out],
    )
    solve = _proc(
        python,
        "gluing-solve",
        ["gluing", "solve", str(inputs["structure"]), "--out", str(solve_out)],
        lambda status: _solve_check(status, solve_out),
        [solve_out],
    )
    return [certify, solve]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("f090a", _f090a_inputs, lambda inp: ["f090a"], _f090a_procs),
        Workload("star-enum", _star_inputs, lambda inp: [f"graph={inp['graph']}"], _star_procs),
        Workload("grid-walls", _grid_inputs, lambda inp: [f"complex={inp['grid']}"], _grid_procs),
        Workload(
            "link-solve",
            _link_inputs,
            lambda inp: ["f090a", f"graph={inp['graph']}", f"family={inp['closure']}"],
            _link_procs,
        ),
    )
}
