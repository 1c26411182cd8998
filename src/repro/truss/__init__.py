"""k-truss extension (paper Section VI-B): decomposition + best-k scoring."""

from .bestk import (
    BestTrussResult,
    baseline_ktruss_set_scores,
    best_ktruss_set,
    ktruss_set_scores,
)
from .decomposition import TrussDecomposition, truss_decomposition
from .family import TrussFamily
from .forest import (
    BestSingleTrussResult,
    TrussForest,
    TrussNode,
    best_single_ktruss,
    build_truss_forest,
)
from ..engine.levels import LevelOrdering, LevelSetScores, level_ordering, level_set_scores

__all__ = [
    "BestSingleTrussResult",
    "BestTrussResult",
    "LevelOrdering",
    "LevelSetScores",
    "TrussDecomposition",
    "TrussFamily",
    "TrussForest",
    "TrussNode",
    "baseline_ktruss_set_scores",
    "best_ktruss_set",
    "best_single_ktruss",
    "build_truss_forest",
    "ktruss_set_scores",
    "level_ordering",
    "level_set_scores",
    "truss_decomposition",
]
