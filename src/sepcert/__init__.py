"""sepcert: exact certification of separation properties.

The package certifies, with exact rational arithmetic throughout:

* sigma-separated vertex and edge cutsets and the graphs they cover,
* star cutsets (3-separated, two-component, minimal) in trivalent graphs
  and the per-vertex split-count constant they induce,
* solvability of the gluing balance equations attached to a family of
  link cutsets, each paired with the components of its complement,
* non-positively curved polygonal complexes: link conditions, traced wall
  hypergraphs and the separations they witness.

Everything is deterministic: re-running any operation on the same input
produces the same certificate (timing fields aside).
"""

__version__ = "0.1.0"

from .graph import Graph, Metric, distances, girth, components, structural_report, parse_graph

__all__ = [
    "Graph",
    "Metric",
    "distances",
    "girth",
    "components",
    "structural_report",
    "parse_graph",
    "__version__",
]
