"""Shared fixtures: the F090A graph, its automorphism group, and the orbit
closure of the bundled seed cutsets are expensive, so they are computed once
per session."""

from __future__ import annotations

import pytest

from sepcert.aut import automorphism_group, orbit_of_vertex_set
from sepcert.certify import SeparatedFamily
from sepcert.cutset import Cutset
from sepcert.datasets import f090a_star_cutsets, named_graph


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
