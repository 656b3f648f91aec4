"""End-to-end certification run for the built-in 90-vertex cubic graph.

``run_f090a`` re-executes the whole separation argument on the bundled
dataset and returns one consolidated report: graph structure, automorphism
group sanity, validation of the three bundled seed cutsets, the neighbor
splits they realise at vertex 1, the orbit closure of the seeds under the
automorphism group, star-separation of the closure family (which includes
vertex 3-separation), separation of the six pinned vertex pairs at
distances 3..8, and the triangle-link certificate with its all-ones gluing
solution.

Stages run in order.  A stage whose *load-bearing* checks fail aborts the
run (later stages would be meaningless); informational failures — most
notably the minimality clause of the bundled seed cutsets, which genuinely
fails — are reported and counted against the overall verdict without
stopping the pipeline.  ``skip_aut=True`` skips the automorphism group and
every group-dependent stage, producing a partial report that lists what was
not checked.
"""

from __future__ import annotations

from typing import Iterable

from .aut import automorphism_group, is_automorphism, is_distance_transitive, orbit_of_vertex_set
from .certify import SeparatedFamily, certify_star_separated, certify_triangle_link
from .cutset import (
    Cutset,
    complement_labels,
    is_minimal_cutset,
    is_sigma_separated,
    is_star_cutset,
)
from .datasets import f090a, f090a_star_cutsets
from .graph import Metric, distances, structural_report
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
    metric = Metric.combinatorial()
    usable = True
    for k, c in enumerate(seeds, start=1):
        cut = Cutset.of_vertices(c)
        _, count = complement_labels(g, cut)
        two = count == 2
        cert.add(f"c{k}-two-components", two, {"elements": cut.sorted_elements(), "components": count})
        sep = is_sigma_separated(g, metric, cut, 3)
        cert.add(f"c{k}-3-separated", sep)
        usable = usable and two and sep.ok
        if count >= 2:
            cert.add(f"c{k}-minimal", is_minimal_cutset(g, cut))
            cert.add(f"c{k}-star", is_star_cutset(g, cut))
        else:
            reason = {"reason": "not a cutset", "components": count}
            cert.add(f"c{k}-minimal", False, reason)
            cert.add(f"c{k}-star", False, reason)
    return usable


def _split_stage(report: RunReport, g, seeds) -> bool:
    cert = report.new_certificate("neighbor-splits-at-v1")
    nbrs = g.neighbors(1)
    cert.add("v1-neighbors", nbrs == (2, 18, 90), {"got": nbrs})
    ok = True
    for idx, target in _SPLITS:
        cut = Cutset.of_vertices(seeds[idx])
        labels, _ = complement_labels(g, cut)
        others = [w for w in nbrs if w != target]
        lt = labels[target - 1]
        lo = [labels[w - 1] for w in others]
        split = (
            lt is not None
            and None not in lo
            and lo[0] == lo[1]
            and lt != lo[0]
        )
        cert.add(
            f"c{idx + 1}-splits-v{target}",
            split,
            {"labels": {target: lt, others[0]: lo[0], others[1]: lo[1]}},
        )
        ok = ok and split
    return ok


def _closure_stage(report: RunReport, g, grp, seeds) -> SeparatedFamily | None:
    """The orbit closure of the seeds as one family that keeps the group.
    One closure is taken per distinct seed orbit, and each member fact is
    decided at the first member of each member orbit."""
    cert = report.new_certificate("orbit-closure")
    orbits = {}
    found: list[set] = []
    for k, c in enumerate(seeds, start=1):
        orb = next((o for o in found if c in o), None)
        if orb is None:
            orb = set(orbit_of_vertex_set(grp, c))
            found.append(orb)
        orbits[f"c{k}"] = len(orb)
    members = tuple(sorted(set().union(*found), key=sorted))
    cert.add("closure", True, {"per_seed_orbit": orbits, "distinct": len(members)})
    covered = set().union(*members) if members else set()
    cert.add(
        "covers-vertices",
        covered == set(g.vertices()),
        {"covered": len(covered), "vertices": g.n},
    )
    metric = Metric.combinatorial()
    with Stopwatch() as sw:
        fam = SeparatedFamily.from_cutsets(g, 3, members, group=grp)
        bad_comp, bad_sep, bad_min = set(), set(), set()
        for i in fam.representatives():
            cut = fam.members[i].cutset
            if complement_labels(g, cut)[1] != 2:
                bad_comp.add(i)
            if not is_sigma_separated(g, metric, cut, 3).ok:
                bad_sep.add(i)
            if not is_minimal_cutset(g, cut).ok:
                bad_min.add(i)

    def violations(failed) -> list:
        return [fam.members[i].cutset.sorted_elements() for i in fam.members_of_failed(failed)[:8]]

    cert.add(
        "members-two-components",
        not bad_comp,
        {"members": len(members), "violations": violations(bad_comp)},
        sw.millis,
    )
    cert.add("members-3-separated", not bad_sep, {"violations": violations(bad_sep)})
    cert.add(
        "members-minimal", not bad_min, {"violating_members": len(fam.members_of_failed(bad_min))}
    )
    return None if bad_comp or bad_sep else fam


def _pairs_stage(report: RunReport, g, fam: SeparatedFamily) -> bool:
    cert = report.new_certificate("pair-separations")
    table = distances(g)
    all_ok = True
    for d, (x, y) in sorted(_PAIRS.items()):
        got = table.get(x, y)
        cert.add(f"p{d}-distance", got == d, {"pair": (x, y), "got": got})
        found = None
        for cp in fam.members:
            labels, _ = complement_labels(g, cp.cutset)
            lx, ly = labels[x - 1], labels[y - 1]
            if lx is not None and ly is not None and lx != ly:
                found = cp.cutset.sorted_elements()
                break
        cert.add(f"p{d}-separated", found is not None, {"pair": (x, y), "by": found})
        all_ok = all_ok and got == d and found is not None
    return all_ok


def run_f090a(skip_aut: bool = False, seed_cutsets: Iterable[frozenset] | None = None) -> RunReport:
    """Run the full certification pipeline on the bundled graph.

    ``seed_cutsets`` overrides the three bundled seeds (same order), which
    is how deliberate perturbations are exercised; ``skip_aut`` skips the
    automorphism group and every stage that needs it.
    """
    g = f090a()
    seeds = tuple(frozenset(c) for c in (seed_cutsets or f090a_star_cutsets()))
    report = RunReport(
        command="f090a",
        inputs={"graph": "builtin:f090a", "seeds": "bundled" if seed_cutsets is None else "override"},
    )
    report.stats["not_checked"] = []

    def finish(aborted_at: str | None = None) -> RunReport:
        if aborted_at is not None:
            report.stats["aborted_at"] = aborted_at
        ran = {c.target for c in report.certificates}
        report.stats["not_checked"] = [s for s in _ALL_STAGES if s not in ran]
        return report

    if not _structure_stage(report, g):
        return finish("structure")

    grp = None
    if not skip_aut:
        grp = _aut_stage(report, g)

    if not _seed_stage(report, g, seeds):
        return finish("seed-cutsets")
    _split_stage(report, g, seeds)

    if skip_aut:
        return finish()

    fam = _closure_stage(report, g, grp, seeds)
    if fam is None:
        return finish("orbit-closure")

    with Stopwatch() as sw:
        star = certify_star_separated(g, fam)
    report.certificates.append(star)
    report.stats["millis_star_separated"] = sw.millis

    _pairs_stage(report, g, fam)

    with Stopwatch() as sw:
        report.certificates.append(certify_triangle_link(g, fam, star=star))
    report.stats["millis_triangle_link"] = sw.millis
    return finish()
