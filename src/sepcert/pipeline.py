"""End-to-end certification run for the built-in 90-vertex cubic graph.

``run_f090a`` re-executes the whole separation argument on the bundled
dataset and returns one consolidated report. Each fact comes from the one
predicate or certifier that decides it. The stages and their checks:

* ``structure``: vertices, edges, trivalent, connected, bipartite, girth
  and diameter against the pinned values;
* ``automorphisms``: ``enumerated`` (every strong generator is an
  automorphism), ``orbit-stabilizer`` and ``distance-transitive``;
* ``seed-cutsets``: one ``c{k}-star`` per bundled seed, the verdict of
  ``cutset.is_star_cutset`` with the seed's elements and every clause;
* ``neighbor-splits-at-v1``: ``v1-neighbors`` and ``c{k}-splits-v{t}``,
  seed k splitting neighbor t off the other two (``split_pattern``);
* ``orbit-closure``: ``closure`` (orbit sizes, read from the family,
  whose construction closes the orbits and is timed) and
  ``members-minimal``;
* ``star-separated``, which includes vertex 3-separation of the closure,
  whose ``covering`` decides that the members cover every vertex;
* ``pair-separations``: ``p{d}-distance`` and ``p{d}-separated`` for the
  six pinned vertex pairs at distances 3..8;
* ``triangle-link``, with its all-ones gluing solution.

A failed ``structure`` stage aborts the run, and so does a seed that is
not 3-separated or does not leave two components (``seed-cutsets``):
later stages would be meaningless. The closure of seeds past that gate
holds only such cutsets, and the family re-validates one member per
orbit. Minimality, which the bundled seeds genuinely fail, counts
against the overall verdict without stopping the run. An aborted run
lists the stages it did not reach as not checked.
"""

from __future__ import annotations

from typing import Iterable

from .aut import automorphism_group, is_automorphism, is_distance_transitive
from .certify import SeparatedFamily, certify_star_separated, certify_triangle_link, split_pattern
from .certify import _separated_by
from .cutset import Cutset, complement_labels, is_minimal_cutset, is_star_cutset
from .datasets import f090a, f090a_star_cutsets
from .errors import CertifyError
from .graph import distances, structural_report
from .report import RunReport, Stopwatch

#: Expected structure of the bundled graph.
_STRUCTURE = {"vertices": 90, "edges": 135, "girth": 10, "diameter": 8}

#: Neighbor split each seed cutset must realise at vertex 1: cutset index
#: (0-based into the bundled list) -> the neighbor it splits off.
_SPLITS = ((1, 2), (2, 18), (0, 90))

#: Pinned vertex pairs, one per distance 3..8; each must be separated by
#: some member of the orbit closure.
_PAIRS = {3: (2, 17), 4: (3, 19), 5: (2, 9), 6: (3, 9), 7: (16, 39), 8: (16, 46)}

#: Vertices used for the orbit-stabilizer consistency check.
_OS_VERTICES = (1, 45, 90)

_ALL_STAGES = (
    "structure",
    "automorphisms",
    "seed-cutsets",
    "neighbor-splits-at-v1",
    "orbit-closure",
    "star-separated",
    "pair-separations",
    "triangle-link",
)


def _structure_stage(report: RunReport, g) -> bool:
    cert = report.new_certificate("structure")
    info = structural_report(g)
    cert.add("vertices", info["vertices"] == _STRUCTURE["vertices"], {"got": info["vertices"]})
    cert.add("edges", info["edges"] == _STRUCTURE["edges"], {"got": info["edges"]})
    cert.add(
        "trivalent",
        info["degree_histogram"] == {3: g.n},
        {"degree_histogram": info["degree_histogram"]},
    )
    cert.add("connected", info["connected"])
    cert.add("bipartite", info["bipartite"])
    cert.add("girth", info["girth"] == _STRUCTURE["girth"], {"got": info["girth"]})
    cert.add("diameter", info["diameter"] == _STRUCTURE["diameter"], {"got": info["diameter"]})
    return cert.ok


def _aut_stage(report: RunReport, g):
    cert = report.new_certificate("automorphisms")
    # passes when every strong generator maps the edge set onto itself
    with Stopwatch() as sw:
        grp = automorphism_group(g)
        closed = all(is_automorphism(g, p) for p in grp.generators)
    cert.add("enumerated", closed, {"order": grp.order, "generators": len(grp.generators)}, sw.millis)
    products = {}
    consistent = True
    for v in _OS_VERTICES:
        prod = len(grp.orbit_of_vertex(v)) * grp.stabilizer_order(v)
        products[v] = prod
        consistent = consistent and prod == grp.order
    cert.add("orbit-stabilizer", consistent, {"products": products, "order": grp.order})
    flag, witness = is_distance_transitive(g, grp)
    cert.add("distance-transitive", flag, witness)
    return grp


def _seed_stage(report: RunReport, g, seeds) -> bool:
    cert = report.new_certificate("seed-cutsets")
    usable = True
    for k, c in enumerate(seeds, start=1):
        cut = Cutset.of_vertices(c)
        star = is_star_cutset(g, cut)
        cert.add(f"c{k}-star", star, {"elements": cut.sorted_elements()})
        usable = usable and star.witness["two_components"] and star.witness["three_separated"]
    return usable


def _split_stage(report: RunReport, g, seeds) -> None:
    cert = report.new_certificate("neighbor-splits-at-v1")
    nbrs = g.neighbors(1)
    cert.add("v1-neighbors", nbrs == (2, 18, 90), {"got": nbrs})
    for idx, target in _SPLITS:
        labels, _ = complement_labels(g, Cutset.of_vertices(seeds[idx]))
        together = tuple(i for i, w in enumerate(nbrs, start=1) if w != target)
        cert.add(
            f"c{idx + 1}-splits-v{target}",
            split_pattern(g, labels, 1) == together,
            {"labels": {w: labels[w - 1] for w in nbrs}},
        )


def _closure_stage(report: RunReport, g, grp, seeds) -> SeparatedFamily:
    """The orbits of the seeds as one family that keeps the group, built by
    `SeparatedFamily.from_orbits`, which closes each distinct seed orbit
    once; each seed's orbit size is read from the family. Minimality is
    decided at the first member of each member orbit."""
    cert = report.new_certificate("orbit-closure")
    with Stopwatch() as sw:
        fam = SeparatedFamily.from_orbits(g, 3, seeds, grp)
    size = {c: len(orbit) for orbit in fam.member_orbits for c in orbit}
    orbits = {f"c{k}": size[Cutset.of_vertices(c)] for k, c in enumerate(seeds, start=1)}
    cert.add("closure", True, {"per_seed_orbit": orbits, "distinct": len(fam.members)}, sw.millis)
    bad = {i for i in fam.representatives() if not is_minimal_cutset(g, fam.members[i]).ok}
    cert.add("members-minimal", not bad, {"violating_members": len(fam.members_of_failed(bad))})
    return fam


def _pairs_stage(report: RunReport, g, fam: SeparatedFamily) -> None:
    cert = report.new_certificate("pair-separations")
    table = distances(g)
    for d, (x, y) in sorted(_PAIRS.items()):
        got = table.get(x, y)
        cert.add(f"p{d}-distance", got == d, {"pair": (x, y), "got": got})
        found = next(
            (c.sorted_elements() for c in fam.members if _separated_by(complement_labels(g, c)[0], x, y)),
            None,
        )
        cert.add(f"p{d}-separated", found is not None, {"pair": (x, y), "by": found})


def run_f090a(seed_cutsets: Iterable[frozenset] | None = None) -> RunReport:
    """Run the full certification pipeline on the bundled graph.

    ``seed_cutsets`` overrides the three bundled seeds (same order), which
    is how deliberate perturbations are exercised; an override of other
    than three seeds raises `CertifyError` before any stage runs.
    """
    g = f090a()
    seeds = tuple(frozenset(c) for c in (f090a_star_cutsets() if seed_cutsets is None else seed_cutsets))
    if len(seeds) != 3:
        raise CertifyError(f"an override needs three seeds, got {len(seeds)}")
    report = RunReport(
        command="f090a",
        inputs={"graph": "builtin:f090a", "seeds": "bundled" if seed_cutsets is None else "override"},
    )

    def finish(aborted_at: str | None = None) -> RunReport:
        if aborted_at is not None:
            report.stats["aborted_at"] = aborted_at
        ran = {c.target for c in report.certificates}
        report.stats["not_checked"] = [s for s in _ALL_STAGES if s not in ran]
        return report

    if not _structure_stage(report, g):
        return finish("structure")

    grp = _aut_stage(report, g)

    if not _seed_stage(report, g, seeds):
        return finish("seed-cutsets")
    _split_stage(report, g, seeds)

    fam = _closure_stage(report, g, grp, seeds)

    with Stopwatch() as sw:
        star = certify_star_separated(fam)
    report.certificates.append(star)
    report.stats["millis_star_separated"] = sw.millis

    _pairs_stage(report, g, fam)

    with Stopwatch() as sw:
        report.certificates.append(certify_triangle_link(g, fam, star=star))
    report.stats["millis_triangle_link"] = sw.millis
    return finish()
