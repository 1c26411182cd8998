"""The paper's primary contribution: best-k algorithms over core decomposition.

Submodules
----------
``decomposition``   Batagelj–Zaversnik core decomposition (Section II-A)
``ordering``        Algorithm 1: rank-ordered adjacency + position tags
``primary``         primary values n, m, b, triangles, triplets (Section II-C)
``metrics``         the community scoring metric registry
``triangles``       exact + incremental triangle/triplet counting
``bestk_set``       Problem 1: baseline + Algorithms 2 and 3
``forest``          the core forest: Algorithm 4 (the engine's LCPS) on coreness
``bestk_core``      Problem 2: baseline + Algorithm 5, through the engine
``naive``           slow definitional oracles for the test suite
"""

from .bestk_core import (
    BestCoreResult,
    KCoreScores,
    baseline_kcore_scores,
    best_single_kcore,
    kcore_scores,
)
from .bestk_set import (
    BestKResult,
    KCoreSetScores,
    baseline_kcore_set_scores,
    best_kcore_set,
    kcore_set_scores,
)
from .combine import CombinedBestK, combined_kcore_scores, combined_kcore_set_scores
from .decomposition import ENGINES, CoreDecomposition, core_decomposition, resolve_engine
from .family import CoreFamily, core_level_view
from .forest import CoreForest, CoreNode, build_core_forest
from .metrics import (
    PAPER_METRICS,
    Metric,
    available_metrics,
    get_metric,
    register_metric,
)
from .ordering import OrderedGraph, order_vertices
from .primary import GraphTotals, PrimaryValues, graph_totals, primary_values
from .triangles import count_triangles, count_triangles_and_triplets, count_triplets

__all__ = [
    "BestCoreResult",
    "BestKResult",
    "CombinedBestK",
    "CoreDecomposition",
    "CoreFamily",
    "CoreForest",
    "CoreNode",
    "ENGINES",
    "GraphTotals",
    "KCoreScores",
    "KCoreSetScores",
    "Metric",
    "OrderedGraph",
    "PAPER_METRICS",
    "PrimaryValues",
    "available_metrics",
    "baseline_kcore_scores",
    "baseline_kcore_set_scores",
    "best_kcore_set",
    "best_single_kcore",
    "build_core_forest",
    "combined_kcore_scores",
    "combined_kcore_set_scores",
    "core_decomposition",
    "core_level_view",
    "count_triangles",
    "count_triangles_and_triplets",
    "count_triplets",
    "get_metric",
    "graph_totals",
    "kcore_scores",
    "kcore_set_scores",
    "order_vertices",
    "primary_values",
    "register_metric",
    "resolve_engine",
]
