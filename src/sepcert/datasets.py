"""Built-in graphs and cutset families.

F090A ships as a data file (vendored adjacency rows) guarded by a pinned
sha256 so dataset drift fails loudly. The small-graph corpus backs the
exhaustive search cross-checks; every member is connected and trivalent.
"""
from __future__ import annotations

import hashlib
from importlib import resources

from .errors import GraphFormatError
from .graph import Graph, edge_key

F090A_ADJACENCY_SHA256 = "7063ae5bcdbf59e548302dc2a62bd9db88a3e8477375f24873fc11b45d2c3845"
F090A_CUTSETS_SHA256 = "e6660a526ceb681c27290c4558a739419843b5a95ca2e3d8e1b6c6cda75bbd9f"

_f090a_cache: Graph | None = None


def _data_bytes(name: str) -> bytes:
    return resources.files("sepcert.data").joinpath(name).read_bytes()


def _check_digest(name: str, payload: bytes, expected: str) -> None:
    got = hashlib.sha256(payload).hexdigest()
    if got != expected:
        raise GraphFormatError(
            f"built-in dataset {name} does not match its pinned digest "
            f"(expected {expected[:12]}.., got {got[:12]}..)"
        )


def f090a() -> Graph:
    """The 90-vertex cubic distance-transitive graph F090A."""
    global _f090a_cache
    if _f090a_cache is not None:
        return _f090a_cache
    payload = _data_bytes("f090a_adjacency.txt")
    _check_digest("f090a_adjacency.txt", payload, F090A_ADJACENCY_SHA256)
    rows: dict[int, list[int]] = {}
    for raw in payload.decode().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, tail = line.split(":", 1)
        rows[int(head)] = [int(t) for t in tail.split()]
    g = Graph.from_adjacency(rows)
    if g.n != 90 or any(g.degree(v) != 3 for v in g.vertices()):
        raise GraphFormatError("f090a data is not a trivalent graph on 90 vertices")
    _f090a_cache = g
    return g


def f090a_star_cutsets() -> tuple[frozenset[int], ...]:
    """Three seed cutsets of F090A, one per neighbor split at vertex 1."""
    payload = _data_bytes("f090a_cutsets.txt")
    _check_digest("f090a_cutsets.txt", payload, F090A_CUTSETS_SHA256)
    out = []
    for raw in payload.decode().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.startswith("C:"):
            raise GraphFormatError("cutset rows must start with 'C:'")
        out.append(frozenset(int(t) for t in line[2:].split()))
    if len(out) != 3 or any(len(c) != 21 for c in out):
        raise GraphFormatError("expected three 21-element cutsets")
    return tuple(out)


def _cycle(n: int) -> Graph:
    return Graph(n, [edge_key(i, i % n + 1) for i in range(1, n + 1)])


def _path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def _complete(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


def _complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(u, a + w) for u in range(1, a + 1) for w in range(1, b + 1)])


def _cube() -> Graph:
    edges = []
    for x in range(8):
        for bit in (1, 2, 4):
            y = x ^ bit
            if x < y:
                edges.append((x + 1, y + 1))
    return Graph(8, edges)


def _lcf(n: int, jumps: list[int]) -> Graph:
    edges = {edge_key(i, i % n + 1) for i in range(1, n + 1)}
    for i in range(1, n + 1):
        j = jumps[(i - 1) % len(jumps)]
        edges.add(edge_key(i, (i - 1 + j) % n + 1))
    return Graph(n, edges)


def _petersen() -> Graph:
    edges = [edge_key(i, i % 5 + 1) for i in range(1, 6)]
    edges += [edge_key(5 + i, 5 + (i + 1) % 5 + 1) for i in (1, 3, 5, 2, 4)]
    edges += [(i, i + 5) for i in range(1, 6)]
    return Graph(10, edges)


def _prism() -> Graph:
    edges = [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5), (3, 6)]
    return Graph(6, edges)


def _theta() -> Graph:
    # two branch vertices joined by three length-2 paths
    return Graph(5, [(1, 3), (3, 2), (1, 4), (4, 2), (1, 5), (5, 2)])


def _bridged_cubic() -> Graph:
    """Trivalent graph with a cut vertex on each side of a bridge."""
    left = [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (5, 1), (5, 2)]
    right = [(6, 8), (6, 9), (7, 8), (7, 9), (8, 9), (10, 6), (10, 7)]
    return Graph(10, left + right + [(5, 10)])


_BUILDERS = {
    "f090a": f090a,
    "q3": _cube,
    "k4": lambda: _complete(4),
    "k33": lambda: _complete_bipartite(3, 3),
    "heawood": lambda: _lcf(14, [5, -5]),
    "petersen": _petersen,
    "prism": _prism,
    "bridge10": _bridged_cubic,
    "theta": _theta,
    "c4": lambda: _cycle(4),
    "c5": lambda: _cycle(5),
    "c6": lambda: _cycle(6),
    "c8": lambda: _cycle(8),
    "p3": lambda: _path(3),
    "p4": lambda: _path(4),
}

def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


def named_graph(name: str) -> Graph:
    try:
        builder = _BUILDERS[name.lower()]
    except KeyError:
        raise GraphFormatError(
            f"unknown built-in graph {name!r}; known: {', '.join(builtin_names())}"
        ) from None
    return builder()
