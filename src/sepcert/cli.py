"""Command-line interface.

Subcommands map one-to-one onto the library: ``graph info`` and ``aut`` are
informational (``aut`` prints the exact group order, from the stabilizer
chain, and lists the elements only with ``--elements``); ``cutset
check``/``cutset search``, ``certify ...``, ``gluing ...``, ``complex ...``
and ``f090a`` emit certificates.  Exit status is 0 when every emitted
check passes, 1 when a certificate fails, 2 on usage or input errors, and
141 (as for SIGPIPE) when the reader closes stdout early.
``--out`` writes the full report as JSON (its format is described in
``sepcert.report``).

Module level imports only the standard library, ``errors``, ``graph`` and
``report``; each handler imports the modules it runs in its first lines,
so a command compiles and loads no others, and loads them before its work.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import SepcertError
from .graph import Graph, Metric, edge_key, parse_graph, parse_rational, structural_report
from .report import Certificate, RunReport, dumps, jsonable

if TYPE_CHECKING:
    from .gluing import GluingStructure, WeightAssignment


class _UsageError(SepcertError):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise _UsageError(f"cannot read {path}: {exc}") from None


def _load_graph(args) -> tuple[Graph, Metric]:
    if getattr(args, "builtin", None):
        if getattr(args, "graph", None):
            raise _UsageError("give either a graph file or --builtin, not both")
        from .datasets import named_graph
        return named_graph(args.builtin), Metric.combinatorial()
    if not getattr(args, "graph", None):
        raise _UsageError("a graph file or --builtin name is required")
    return parse_graph(_read(args.graph))


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from None


def _write_out(args, doc) -> None:
    if getattr(args, "out", None):
        _write(args.out, dumps(doc))


def _print_cert(cert: Certificate, verbose_pass: bool = True) -> None:
    for c in cert.checks:
        if c.ok and not verbose_pass:
            continue
        line = f"  {'PASS' if c.ok else 'FAIL'} {c.name}"
        if not c.ok and c.witness:
            line += f"  {json.dumps(jsonable(c.witness), sort_keys=True)[:200]}"
        print(line)
    print(f"{'PASS' if cert.ok else 'FAIL'} {cert.target}")


def _finish(args, cert: Certificate, extra_inputs: dict | None = None) -> int:
    rep = RunReport(command=args.command, inputs=extra_inputs or {}, certificates=[cert])
    _write_out(args, rep)
    return 0 if cert.ok else 1


# ---------------------------------------------------------------- graph --


def _cmd_graph_info(args) -> int:
    g, metric = _load_graph(args)
    info = structural_report(g, metric)
    for key, value in info.items():
        print(f"{key}: {json.dumps(jsonable(value))}")
    _write_out(args, {"command": "graph info", "report": info})
    return 0


# ------------------------------------------------------------------ aut --


def _cmd_aut(args) -> int:
    from .aut import automorphism_group, cycle_notation
    g, _ = _load_graph(args)
    grp = automorphism_group(g)
    print(f"order: {grp.order}")
    print(f"generators: {len(grp.generators)}")
    print(f"vertex-orbits: {len(grp.vertex_orbits())}")
    if args.elements:
        for p in grp.elements():
            print(cycle_notation(p))
    doc = {
        "command": "aut",
        "order": grp.order,
        "generators": [cycle_notation(p) for p in grp.generators],
        "vertex_orbits": grp.vertex_orbits(),
    }
    _write_out(args, doc)
    return 0


# --------------------------------------------------------------- cutset --


def _cmd_cutset_check(args) -> int:
    from .cutset import is_cutset, is_sigma_separated, is_star_cutset, parse_family
    g, metric = _load_graph(args)
    family = parse_family(_read(args.family))
    if not family:
        raise _UsageError(f"no cutsets in {args.family}")
    cert = Certificate("cutset-check")
    for i, c in enumerate(family, start=1):
        c.validate_for(g)
        cert.add(f"cutset-{i}", is_cutset(g, c), {"elements": c.sorted_elements()})
        if args.sigma is not None:
            cert.add(f"cutset-{i}-separated", is_sigma_separated(g, metric, c, args.sigma))
        if args.star:
            cert.add(f"cutset-{i}-star", is_star_cutset(g, c))
    _print_cert(cert)
    return _finish(args, cert, {"family": args.family})


def _cmd_cutset_search(args) -> int:
    from .cutset import format_family
    from .search import search_star_cutsets
    g, _ = _load_graph(args)
    if (args.at is None) != (args.split is None):
        raise _UsageError("--at and --split go together")
    split = None if args.at is None else (args.at, *args.split)
    result = search_star_cutsets(g, split, math.inf if args.exhaust else args.budget)
    stats = {"found": len(result.keys), "exhausted": result.exhausted, **result.stats}
    body = format_family(result.keys)
    if args.out:
        _write(args.out, body)
        _write(args.out + ".stats.json", dumps(stats))
    else:
        sys.stdout.write(body)
    print(f"# found={stats['found']} exhausted={stats['exhausted']}", file=sys.stderr)
    return 0


# -------------------------------------------------------------- certify --


def _cmd_certify_link(args) -> int:
    from .certify import SeparatedFamily, certify_triangle_link
    from .cutset import parse_family
    g, _ = _load_graph(args)
    fam = None
    if args.family:
        cutsets = parse_family(_read(args.family))
        fam = SeparatedFamily.from_cutsets(g, 3, cutsets)
    cert = certify_triangle_link(g, fam)
    _print_cert(cert)
    return _finish(args, cert, {"family": args.family or "searched"})


def _cmd_certify_vertex(args) -> int:
    from .certify import SeparatedFamily, certify_vertex_separated
    from .cutset import parse_family
    g, _ = _load_graph(args)
    cutsets = parse_family(_read(args.family))
    fam = SeparatedFamily.from_cutsets(g, args.n, cutsets)
    cert = certify_vertex_separated(fam, args.n)
    _print_cert(cert)
    return _finish(args, cert, {"family": args.family, "n": str(args.n)})


def _cmd_certify_edge(args) -> int:
    from .certify import SeparatedFamily, certify_edge_separated
    from .cutset import parse_family
    g, metric = _load_graph(args)
    cutsets = parse_family(_read(args.family))
    fam = SeparatedFamily.from_cutsets(g, args.sigma, cutsets, kind="edge", metric=metric)
    cert = certify_edge_separated(fam)
    _print_cert(cert)
    return _finish(args, cert, {"family": args.family, "sigma": str(args.sigma)})


# --------------------------------------------------------------- gluing --


def _load_structure(path: str) -> GluingStructure:
    """Structure file: JSON naming each link's graph file, sigma, and family
    file, plus either germs or a "homogeneous" self-gluing link name.

    {"links": [{"name": "L", "graph": "lk.txt", "sigma": "3",
                "family": "fam.txt", "group": true}],
     "homogeneous": "L"}
    or with explicit germs:
     "germs": [{"start": "L", "element": 1, "end": "L", "element_end": 2,
                "bijection": [[d, d'], ...]}]
    Elements are vertex ids, or [u, v] for edge-kind links; relative paths
    resolve against the structure file's directory.
    """
    from .aut import automorphism_group
    from .certify import SeparatedFamily
    from .cutset import parse_family
    from .gluing import EdgeGerm, GluingStructure
    base = Path(path).parent
    try:
        doc = json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise _UsageError(f"bad structure file: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("links"), list):
        raise _UsageError('structure file needs a "links" list')

    def resolve(p) -> str:
        if not isinstance(p, str):
            raise _UsageError(f"file names must be strings, got {p!r}")
        q = Path(p)
        return str(q if q.is_absolute() else base / q)

    instances: dict[str, SeparatedFamily] = {}
    for spec in doc["links"]:
        if not (
            isinstance(spec, dict)
            and {"name", "graph", "family"} <= spec.keys()
            and isinstance(spec["name"], str)
            and spec["name"]
        ):
            raise _UsageError('each link needs a "name" string, a "graph" and a "family"')
        name = spec["name"]
        if name in instances:
            raise _UsageError(f"duplicate link name {name!r}")
        g, metric = parse_graph(_read(resolve(spec["graph"])))
        sigma = parse_rational(str(spec.get("sigma", "3")))
        cutsets = parse_family(_read(resolve(spec["family"])))
        kind = cutsets[0].kind if cutsets else "vertex"
        group = automorphism_group(g) if spec.get("group") else None
        instances[name] = SeparatedFamily.from_cutsets(g, sigma, cutsets, kind, metric, name, group)

    if "homogeneous" in doc:
        if "germs" in doc:
            raise _UsageError('give either "homogeneous" or "germs", not both')
        name = doc["homogeneous"]
        if not isinstance(name, str) or name not in instances:
            raise _UsageError(f"homogeneous link {name!r} is not declared")
        return GluingStructure.homogeneous(instances[name])

    def int_pair(raw) -> bool:
        return isinstance(raw, list) and len(raw) == 2 and all(type(v) is int for v in raw)

    def link_named(raw) -> SeparatedFamily:
        if not isinstance(raw, str) or raw not in instances:
            raise _UsageError(f"germ references unknown link {raw!r}")
        return instances[raw]

    def element(raw):
        if int_pair(raw):
            return edge_key(*raw)
        if type(raw) is not int:
            raise _UsageError(f"bad germ element {raw!r}: expected a vertex id or [u, v]")
        return raw

    germ_specs = doc.get("germs", [])
    if not isinstance(germ_specs, list) or not all(isinstance(spec, dict) for spec in germ_specs):
        raise _UsageError('"germs" must be a list of objects')
    germs = []
    for spec in germ_specs:
        start, end = link_named(spec.get("start")), link_named(spec.get("end"))
        ea = element(spec.get("element"))
        eb = element(spec.get("element_end", spec.get("element")))
        if "bijection" in spec:
            bij = spec["bijection"]
            if not (isinstance(bij, list) and all(int_pair(p) for p in bij)):
                raise _UsageError('a germ "bijection" must be a list of [d, d\'] integer pairs')
            germs.append(EdgeGerm(start, ea, end, eb, tuple(map(tuple, bij))))
        else:
            if ea != eb:
                raise _UsageError("a germ without a bijection needs equal elements")
            germs.append(EdgeGerm.identity(start, end, ea))
    if not germs:
        raise _UsageError('structure file needs "germs" or "homogeneous"')
    return GluingStructure(tuple(instances.values()), tuple(germs))


def _load_weights(structure: GluingStructure, path: str) -> WeightAssignment:
    from .gluing import WeightAssignment
    by_id = {oid: (li, orbit) for oid, li, orbit in structure.unknowns()}
    weights = {}
    seen: set[str] = set()
    for lineno, raw in enumerate(_read(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise _UsageError(f"weights line {lineno}: expected 'orbit-id value'")
        oid, value = parts
        if oid not in by_id:
            raise _UsageError(f"weights line {lineno}: unknown orbit id {oid!r}")
        if oid in seen:
            raise _UsageError(f"weights line {lineno}: duplicate orbit id {oid!r}")
        seen.add(oid)
        try:
            val = int(value)
        except ValueError:
            raise _UsageError(f"weights line {lineno}: bad integer {value!r}") from None
        li, orbit = by_id[oid]
        for c in orbit:
            weights[(li.name, c)] = val
    missing = [oid for oid in by_id if oid not in seen]
    if missing:
        raise _UsageError(f"weights file misses orbits: {', '.join(missing)}")
    return WeightAssignment(weights)


def _cmd_gluing_verify(args) -> int:
    from .gluing import WeightAssignment, verify_gluing
    structure = _load_structure(args.structure)
    if args.weights:
        w = _load_weights(structure, args.weights)
    else:
        w = WeightAssignment.all_ones(structure)
    cert = verify_gluing(structure, w)
    _print_cert(cert)
    return _finish(args, cert, {"structure": args.structure, "weights": args.weights or "all-ones"})


def _cmd_gluing_solve(args) -> int:
    from .gluing import GluingInfeasible, solve_gluing
    structure = _load_structure(args.structure)
    solution = solve_gluing(structure)
    if isinstance(solution, GluingInfeasible):
        print("INFEASIBLE: no strictly positive solution exists")
        print(solution.detail)
        for eq in solution.equations:
            print(f"  {eq}")
        unknowns = {f"w{j}": oid for j, (oid, _, _) in enumerate(structure.unknowns())}
        print(f"unknowns: {', '.join(f'{w} = {oid}' for w, oid in unknowns.items())}")
        print(f"certificate: y = ({', '.join(map(str, solution.y))})")
        print(f"  y^T B = ({', '.join(map(str, solution.combination()))})")
        _write_out(
            args,
            {
                "command": "gluing solve",
                "pass": False,
                "detail": solution.detail,
                "equations": list(solution.equations),
                "certificate": {"rows": solution.rows, "y": solution.y, "unknowns": unknowns},
            },
        )
        return 1
    lines = []
    for oid, li, orbit in structure.unknowns():
        lines.append(f"{oid} {solution.get(li, orbit[0])}")
    body = "\n".join(lines) + "\n"
    sys.stdout.write(body)
    if args.out:
        _write(args.out, body)
    return 0


# -------------------------------------------------------------- complex --


def _cmd_complex_check(args) -> int:
    from .complexes import check_gromov, parse_complex
    x = parse_complex(_read(args.file))
    cert = check_gromov(x)
    shapes = cert.check("shapes").witness
    print(f"vertices: {x.n}  edges: {x.m}  faces: {len(x.faces)}")
    print(f"side-counts: {list(shapes['side_counts'])}  max-circumference: {shapes['max_circumference']}")
    failures = [c for c in cert.checks if not c.ok]
    print(f"links checked: {x.n}  failures: {len(failures)}")
    _print_cert(cert, verbose_pass=False)
    return _finish(args, cert, {"file": args.file})


def _parse_seed_vertex(x, raw: str, kind: str) -> int:
    """A vertex id, or the midpoint ``u-v`` of an edge; only two positive
    integers joined by one dash name a midpoint, so ``-2`` is a vertex id."""
    from .complexes import edge_midpoint_id
    u, dash, v = raw.partition("-")
    if dash and u.isdecimal() and v.isdecimal() and int(u) > 0 and int(v) > 0:
        if kind != "edge":
            raise _UsageError("an edge-midpoint seed needs --kind edge")
        return edge_midpoint_id(x, (int(u), int(v)))
    try:
        return int(raw)
    except ValueError:
        raise _UsageError(f"bad seed {raw!r}: expected 'u-v' or a vertex id") from None


def _seed_atoms(x, v0: int, kind: str, family_path: str | None):
    """Seed atoms for a trace.

    Vertex kind: the cutset file lists neighbor vertices of the seed (or
    ambient edges at it); atoms are the matching link vertices.  Edge kind:
    the file lists face indices; an edge-midpoint seed may omit the file,
    meaning all faces through the edge.
    """
    from .complexes import link
    from .cutset import parse_family
    if family_path is None:
        if kind == "edge" and v0 > x.n:
            if v0 > x.n + x.m:
                raise _UsageError(f"seed vertex {v0} outside the subdivided range")
            return x.edge_faces[x.edges[v0 - x.n - 1]]
        raise _UsageError("--cutset is required except for edge-midpoint seeds")
    family = parse_family(_read(family_path))
    if not family:
        raise _UsageError(f"no cutsets in {family_path}")
    seed = family[0]
    if kind == "edge":
        if seed.kind != "vertex":
            raise _UsageError("edge-kind seeds list face indices, not edges")
        return seed.sorted_elements()
    lk = link(x, v0)
    atoms = []
    for el in seed.sorted_elements():
        e = el if isinstance(el, tuple) else (v0, el)
        atoms.append(lk.vertex_id(edge_key(*e)))
    return tuple(atoms)


def _cmd_complex_trace(args) -> int:
    from .complexes import hypergraph_checks, parse_complex, trace_hypergraph, wall_cut
    x = parse_complex(_read(args.file))
    v0 = _parse_seed_vertex(x, args.seed_vertex, args.kind)
    atoms = _seed_atoms(x, v0, args.kind, args.cutset)
    h = trace_hypergraph(x, v0, atoms, kind=args.kind)
    print(f"segments: {len(h.segments)}  vertices: {len(h.vertices())}  paired: {len(h.pairs)}")
    for v, reason in h.frontier:
        print(f"frontier: {v} ({reason})")
    cert = hypergraph_checks(x, h)
    cut = wall_cut(x, h)
    sizes = sorted((len(b) for b in cut.primary_blocks() if b), reverse=True)
    print(f"wall sides: {len(cut.blocks)}  primary-vertex sides: {sizes}")
    _print_cert(cert)
    rep = RunReport(
        command=args.command,
        inputs={"file": args.file, "seed": args.seed_vertex, "kind": args.kind},
        certificates=[cert],
        stats={
            "segments": [s.key() for s in h.segments],
            "frontier": h.frontier,
            "wall_primary_blocks": cut.primary_blocks(),
        },
    )
    _write_out(args, rep)
    return 0 if cert.ok else 1


# ---------------------------------------------------------------- f090a --


def _cmd_f090a(args) -> int:
    from .pipeline import run_f090a
    rep = run_f090a()
    for cert in rep.certificates:
        _print_cert(cert, verbose_pass=False)
    for stage in rep.stats.get("not_checked", ()):
        print(f"NOT CHECKED {stage}")
    if "aborted_at" in rep.stats:
        print(f"aborted at: {rep.stats['aborted_at']}")
    print(f"overall: {'PASS' if rep.ok else 'FAIL'}")
    _write_out(args, rep)
    return 0 if rep.ok else 1


# ----------------------------------------------------------------- main --


def _node_budget(raw: str) -> int:
    """The ``--budget`` type: a non-negative number of search nodes."""
    try:
        budget = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid node budget {raw!r}") from None
    if budget < 0:
        raise argparse.ArgumentTypeError(f"node budget {budget} is negative")
    return budget


def _sigma(raw: str) -> Fraction:
    """The ``--sigma`` type: a positive rational separation order."""
    try:
        sigma = parse_rational(raw)
    except SepcertError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if sigma <= 0:
        raise argparse.ArgumentTypeError(f"separation sigma must be positive, got {sigma}")
    return sigma


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", nargs="?", help="graph file (edge-list format)")
    p.add_argument("--builtin", help="built-in graph name (e.g. f090a, q3, k33)")


def _build_parser() -> argparse.ArgumentParser:
    # the docstring's last paragraph, on imports, is not for --help
    top = argparse.ArgumentParser(prog="sepcert", description=__doc__.rsplit("\n\n", 1)[0])
    top.add_argument("--version", action="version", version=f"sepcert {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    graph = sub.add_parser("graph", help="graph inspection").add_subparsers(
        dest="graph_cmd", required=True
    )
    info = graph.add_parser("info", help="order, size, girth, diameter")
    _add_graph_source(info)
    info.add_argument("--out")
    info.set_defaults(fn=_cmd_graph_info, command="graph info")

    aut = sub.add_parser("aut", help="automorphism group: order, generators, vertex orbits")
    _add_graph_source(aut)
    aut.add_argument("--elements", action="store_true", help="also list every element, in cycle notation")
    aut.add_argument("--out")
    aut.set_defaults(fn=_cmd_aut, command="aut")

    cutset = sub.add_parser("cutset", help="cutset predicates and search").add_subparsers(
        dest="cutset_cmd", required=True
    )
    check = cutset.add_parser("check", help="validate a cutset family")
    _add_graph_source(check)
    check.add_argument("--family", required=True)
    check.add_argument("--sigma", type=_sigma, help="also require sigma-separation (rational)")
    check.add_argument("--star", action="store_true", help="also require star cutsets")
    check.add_argument("--out")
    check.set_defaults(fn=_cmd_cutset_check, command="cutset check")

    search = cutset.add_parser("search", help="search star cutsets")
    _add_graph_source(search)
    search.add_argument("--star", action="store_true", required=True)
    search.add_argument("--at", type=int, help="neighbor-split goal: vertex")
    search.add_argument(
        "--split", type=int, nargs=2, metavar=("I", "J"), help="positions 1..3 among its ascending neighbors"
    )
    extent = search.add_mutually_exclusive_group()
    extent.add_argument("--exhaust", action="store_true", help="search without a node budget")
    extent.add_argument("--budget", type=_node_budget, default=10_000_000)
    search.add_argument("--out", help="family file; stats land in <out>.stats.json")
    search.set_defaults(fn=_cmd_cutset_search, command="cutset search")

    certify = sub.add_parser("certify", help="separation certificates").add_subparsers(
        dest="certify_cmd", required=True
    )
    cl = certify.add_parser("link", help="triangle-link certificate")
    _add_graph_source(cl)
    cl.add_argument("--family")
    cl.add_argument("--out")
    cl.set_defaults(fn=_cmd_certify_link, command="certify link")

    cv = certify.add_parser("vertex-separated", help="vertex n-separation")
    _add_graph_source(cv)
    cv.add_argument("--n", type=int, required=True)
    cv.add_argument("--family", required=True)
    cv.add_argument("--out")
    cv.set_defaults(fn=_cmd_certify_vertex, command="certify vertex-separated")

    ce = certify.add_parser("edge-separated", help="edge sigma-separation")
    _add_graph_source(ce)
    ce.add_argument("--sigma", type=_sigma, required=True)
    ce.add_argument("--family", required=True)
    ce.add_argument("--out")
    ce.set_defaults(fn=_cmd_certify_edge, command="certify edge-separated")

    gluing = sub.add_parser("gluing", help="gluing equations").add_subparsers(
        dest="gluing_cmd", required=True
    )
    gv = gluing.add_parser("verify", help="verify a weight assignment")
    gv.add_argument("structure")
    gv.add_argument("--weights", help="weight file (default: all ones)")
    gv.add_argument("--out")
    gv.set_defaults(fn=_cmd_gluing_verify, command="gluing verify")

    gs = gluing.add_parser("solve", help="find positive integer weights, or certify that none exist")
    gs.add_argument("structure")
    gs.add_argument("--out")
    gs.set_defaults(fn=_cmd_gluing_solve, command="gluing solve")

    cx = sub.add_parser("complex", help="polygonal complexes").add_subparsers(
        dest="complex_cmd", required=True
    )
    cc = cx.add_parser("check", help="curvature (link girth) certificate")
    cc.add_argument("file")
    cc.add_argument("--out")
    cc.set_defaults(fn=_cmd_complex_check, command="complex check")

    ct = cx.add_parser("trace", help="trace a separating hypergraph")
    ct.add_argument("file")
    ct.add_argument("--seed-vertex", required=True, help="vertex id, or u-v for an edge midpoint")
    ct.add_argument("--kind", choices=("vertex", "edge"), required=True)
    ct.add_argument("--cutset", help="family file with the seed cutset")
    ct.add_argument("--out")
    ct.set_defaults(fn=_cmd_complex_trace, command="complex trace")

    f0 = sub.add_parser("f090a", help="run the full built-in pipeline")
    f0.add_argument("--out")
    f0.set_defaults(fn=_cmd_f090a, command="f090a")

    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if [] in vars(args).values():
            # argparse on Python 3.11 reads ``--option=--`` as an empty list
            parser.error("an option's value cannot be '--'")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        status = args.fn(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout early (``sepcert ... | head``): drop the
        # rest of the output and exit as a process killed by SIGPIPE would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SepcertError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
