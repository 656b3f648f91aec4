"""Pinned data of the F090A pipeline against the graph it describes, and
repeatability of the whole run."""

from __future__ import annotations

from pathlib import Path

import pytest

from sepcert import certify, cutset, gluing, pipeline
from sepcert.cutset import complement_labels
from sepcert.datasets import f090a_star_cutsets
from sepcert.graph import distances
from sepcert.pipeline import _PAIRS, run_f090a
from sepcert.report import dumps, stripped


def test_pinned_pairs_lie_at_their_distance(f090a):
    table = distances(f090a)
    assert {d: table.get(x, y) for d, (x, y) in _PAIRS.items()} == {d: d for d in _PAIRS}


def test_vertices_at_distance_8_from_16(f090a):
    table = distances(f090a)
    assert [v for v in f090a.vertices() if table.get(16, v) == 8] == [46, 76]


def test_pinned_pairs_are_separated_by_the_seed_closure(f090a, orbit_closure):
    def separated(x, y):
        for c in orbit_closure:
            labels, _ = complement_labels(f090a, c)
            lx, ly = labels[x - 1], labels[y - 1]
            if lx is not None and ly is not None and lx != ly:
                return True
        return False

    assert all(separated(x, y) for x, y in _PAIRS.values())
    assert separated(16, 76)


def test_rerun_in_process_repeats_report_and_equation_count(monkeypatch):
    """A second run gives the same stripped report, the one ``sepcert
    f090a --out`` writes, and checks the same number of gluing balance
    equations. Each run builds the star-separation certificate once and,
    with the complement-label cache cleared first, labels the same 242
    complements: the closure is one orbit of 720 cutsets, so only the 168
    members through vertex 1 (its vertex-orbit representative), the
    cutsets scanned for a separating member of a distant pair, and the
    witnesses are labelled."""
    equations = []
    verify = gluing.verify_gluing
    stars = []
    star = certify.certify_star_separated

    def counting(structure, w):
        cert = verify(structure, w)
        equations.append(sum((c.witness or {}).get("equations", 0) for c in cert.checks))
        return cert

    def counting_star(*args, **kw):
        stars.append(1)
        return star(*args, **kw)

    monkeypatch.setattr(gluing, "verify_gluing", counting)
    monkeypatch.setattr(certify, "certify_star_separated", counting_star)
    monkeypatch.setattr(pipeline, "certify_star_separated", counting_star)
    misses = []

    def run():
        cutset._complement_labels_cached.cache_clear()
        doc = stripped(dumps(run_f090a()))
        misses.append(cutset._complement_labels_cached.cache_info().misses)
        return doc

    first = run()
    second = run()
    assert first == second
    assert misses == [242, 242]
    assert first == Path(__file__).with_name("golden").joinpath("f090a.out.json").read_text()
    assert equations == [15120, 15120]
    assert len(stars) == 2


def test_closure_takes_one_orbit_per_distinct_seed_orbit(census_orbits):
    small, other = (orbit for orbit in census_orbits if len(orbit) in (180, 216))
    report = run_f090a(seed_cutsets=[small[0], other[0], small[-1]])
    closure = next(c for c in report.certificates if c.target == "orbit-closure")
    witness = closure.check("closure").witness
    assert witness["per_seed_orbit"] == {"c1": len(small), "c2": len(other), "c3": len(small)}
    assert witness["distinct"] == len(small) + len(other)
    assert closure.check("members-minimal").ok


@pytest.mark.parametrize(
    "k,seed,clauses",
    [
        # 1 and 2 are adjacent, so the seed is not 3-separated; the open
        # edge between them is one of its two components
        (
            1,
            {1, 2, 45},
            {"three_separated": False, "two_components": True, "closest_pair": {"pair": (1, 2), "distance": 1}},
        ),
        # a single vertex of a 3-connected graph is not a cutset
        (2, {45}, {"three_separated": True, "two_components": False, "component_count": 1, "minimal": None}),
    ],
    ids=["not-3-separated", "not-a-cutset"],
)
def test_a_seed_outside_the_gate_aborts_at_seed_cutsets(k, seed, clauses):
    seeds = list(f090a_star_cutsets())
    seeds[k - 1] = seed
    report = run_f090a(seed_cutsets=seeds)
    assert report.stats["aborted_at"] == "seed-cutsets"
    assert report.stats["not_checked"] == [
        "neighbor-splits-at-v1",
        "orbit-closure",
        "star-separated",
        "pair-separations",
        "triangle-link",
    ]
    assert not report.ok
    check = report.certificate("seed-cutsets").check(f"c{k}-star")
    assert not check.ok
    assert check.witness["elements"] == tuple(sorted(seed))
    assert clauses.items() <= check.witness.items()
