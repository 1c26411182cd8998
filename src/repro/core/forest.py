"""The forest hierarchy of k-cores — paper Section IV-A, Algorithm 4.

Every connected k-core maps to one *tree node* holding exactly the core's
vertices of coreness k (Definition 6); the node's parent is the closest
enclosing k'-core with k' < k (Definition 7).  The whole hierarchy is a
forest with one tree per connected component of the graph, storable in O(n).

The k-core forest is the level forest of coreness: :func:`build_core_forest`
runs the engine's LCPS (:func:`repro.engine.build_level_forest`, the one
builder every hierarchy family shares) on the core numbers.
``CoreNode`` / ``CoreForest`` name the engine's
:class:`~repro.engine.forest.LevelNode` / :class:`~repro.engine.forest.LevelForest`.
"""

from __future__ import annotations

from ..engine.forest import LevelForest, LevelNode, build_level_forest
from ..graph.csr import Graph
from .decomposition import CoreDecomposition, core_decomposition

__all__ = ["CoreNode", "CoreForest", "build_core_forest"]

CoreNode = LevelNode
CoreForest = LevelForest


def build_core_forest(
    graph: Graph, decomposition: CoreDecomposition | None = None
) -> LevelForest:
    """Construct the core forest with LCPS (Algorithm 4), O(m)."""
    if decomposition is None:
        decomposition = core_decomposition(graph)
    return build_level_forest(graph, decomposition.coreness)
