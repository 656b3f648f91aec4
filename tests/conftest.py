"""Shared fixtures: the F090A graph, its automorphism group, and the orbit
closure of the bundled seed cutsets are expensive, so they are computed once
per session.  The hypothesis profile makes the fuzz tests deterministic."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import settings

from sepcert.aut import automorphism_group, orbit_of_vertex_set
from sepcert.certify import SeparatedFamily
from sepcert.cutset import Cutset
from sepcert.datasets import f090a_star_cutsets, named_graph
from sepcert.search import search_star_cutsets

# Generated inputs repeat from run to run, and no example database is
# written, so the fuzz tests are as deterministic as the rest of tier 1.
settings.register_profile("sepcert", derandomize=True, deadline=None, database=None)
settings.load_profile("sepcert")


@pytest.fixture(scope="session")
def f090a():
    return named_graph("f090a")


@pytest.fixture(scope="session")
def f090a_group(f090a):
    grp = automorphism_group(f090a)
    assert grp.order == 4320
    return grp


@pytest.fixture(scope="session")
def seed_cutsets():
    return tuple(Cutset.of_vertices(c) for c in f090a_star_cutsets())


@pytest.fixture(scope="session")
def orbit_closure(f090a_group, seed_cutsets):
    """Distinct images of the three bundled seeds under Aut(F090A)."""
    seen = {}
    for c in seed_cutsets:
        for image in orbit_of_vertex_set(f090a_group, c.elements):
            seen.setdefault(image, Cutset.of_vertices(image))
    return tuple(c for _, c in sorted(seen.items(), key=lambda kv: sorted(kv[0])))


@pytest.fixture(scope="session")
def closure_family(f090a, orbit_closure):
    return SeparatedFamily.from_cutsets(f090a, 3, orbit_closure)


@pytest.fixture(scope="session")
def symmetric_closure_family(closure_family, f090a_group):
    """The seed closure family with Aut(F090A), whose one member orbit
    the certifiers decide once."""
    return replace(closure_family, group=f090a_group)


@pytest.fixture(scope="session")
def f090a_census(f090a):
    """The exhaustive star-cutset search of F090A in its bundled labelling."""
    return search_star_cutsets(f090a)


@pytest.fixture(scope="session")
def census_orbits(f090a_group, f090a_census):
    """The census split into its Aut(F090A)-orbits, each sorted, in order
    of least member."""
    left = {c.elements for c in f090a_census.cutsets}
    orbits = []
    while left:
        orbit = orbit_of_vertex_set(f090a_group, min(left, key=sorted))
        left -= set(orbit)
        orbits.append(orbit)
    return orbits
