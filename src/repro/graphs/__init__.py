"""Static graph substrate.

The paper's temporal networks are built on top of an *underlying (di)graph*
``G = (V, E)``.  This subpackage provides a compact array-based representation
(:class:`StaticGraph`), the graph families used throughout the paper
(clique, star, path, cycle, grid, hypercube, Erdős–Rényi, …) and classic
static-graph properties (hop distances, diameter, connectivity, all answered
by :mod:`scipy.sparse.csgraph`) needed by the Price-of-Randomness machinery.
"""

from .static_graph import StaticGraph
from .generators import (
    barbell_graph,
    binary_tree,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    hypercube_graph,
    lollipop_graph,
    path_graph,
    random_tree,
    star_graph,
    supercritical_erdos_renyi,
    wheel_graph,
)
from .properties import (
    all_pairs_shortest_paths,
    bfs_distances,
    connected_components,
    degree_sequence,
    diameter,
    eccentricities,
    is_connected,
)

__all__ = [
    "StaticGraph",
    "complete_graph",
    "star_graph",
    "path_graph",
    "cycle_graph",
    "grid_graph",
    "hypercube_graph",
    "complete_bipartite_graph",
    "binary_tree",
    "random_tree",
    "erdos_renyi_graph",
    "supercritical_erdos_renyi",
    "wheel_graph",
    "barbell_graph",
    "lollipop_graph",
    "bfs_distances",
    "all_pairs_shortest_paths",
    "eccentricities",
    "diameter",
    "is_connected",
    "connected_components",
    "degree_sequence",
]
