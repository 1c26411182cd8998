"""Finding the best single k-core — paper Section IV.

Candidates are **all** connected k-cores of **all** orders ``0..kmax`` —
exactly the nodes of the core forest.  Both paths are the engine's
generic Problem 2 (:mod:`repro.engine.forest`) on the core family:

* :func:`baseline_kcore_scores` — the paper's baseline (Section IV-B):
  reconstruct each core's vertex set from the forest and recompute its
  primary values from scratch.
* :func:`kcore_scores` — Algorithm 5: process forest nodes in descending
  coreness order; each node's primary values are the sum of its children's
  plus the incremental contribution of its own shell vertices (the same
  per-vertex deltas as Algorithms 2/3, grouped by node instead of by
  shell).

Both return the engine's :class:`~repro.engine.forest.LevelNodeScores`
(``KCoreScores`` names it); :func:`best_single_kcore` picks the winner,
with ties broken towards the largest k (then the smallest node id, for
determinism).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine.forest import (
    LevelForest,
    LevelNodeScores,
    baseline_family_node_scores,
    family_node_scores,
)
from ..graph.csr import Graph
from .family import core_level_view
from .metrics import Metric, get_metric
from .ordering import OrderedGraph, order_vertices

__all__ = [
    "KCoreScores",
    "BestCoreResult",
    "kcore_scores",
    "baseline_kcore_scores",
    "best_single_kcore",
]

KCoreScores = LevelNodeScores


@dataclass(frozen=True)
class BestCoreResult:
    """The best single k-core for one metric on one graph."""

    metric_name: str
    k: int
    score: float
    node_id: int
    scores: LevelNodeScores
    #: Full vertex set of the winning core (sorted ascending).
    vertices: np.ndarray

    @classmethod
    def from_scores(cls, scored: LevelNodeScores) -> "BestCoreResult":
        """The winner of ``scored`` (:meth:`~LevelNodeScores.best_node`)."""
        node_id = scored.best_node()
        return cls(
            metric_name=scored.metric.name,
            k=scored.forest.nodes[node_id].k,
            score=float(scored.scores[node_id]),
            node_id=node_id,
            scores=scored,
            vertices=scored.forest.core_vertices(node_id),
        )

    def __repr__(self) -> str:
        return (
            f"BestCoreResult(metric={self.metric_name!r}, k={self.k}, "
            f"score={self.score:.6g}, |V|={len(self.vertices)})"
        )


def kcore_scores(
    graph: Graph,
    metric: str | Metric,
    *,
    ordered: OrderedGraph | None = None,
    forest: LevelForest | None = None,
    index=None,
) -> LevelNodeScores:
    """Score every connected k-core with Algorithm 5.

    Nodes are stored in descending coreness order, so children (strictly
    deeper cores) always precede their parent; one forward scan aggregates
    child totals into each node and adds the node's own shell deltas.
    O(n) scoring — O(m^1.5) with triangle metrics — after the O(m) index
    and forest builds.  Passing a :class:`~repro.index.BestKIndex` as
    ``index`` (takes precedence over ``ordered``/``forest``) fetches and
    memoizes every artifact on the index; results are identical.
    """
    metric = get_metric(metric)
    if index is not None:
        return index.core_scores(metric)
    if ordered is None:
        ordered = order_vertices(graph)
    return family_node_scores(
        graph, "core", metric,
        decomposition=ordered.decomposition,
        ordering=core_level_view(ordered),
        forest=forest,
    )


def baseline_kcore_scores(
    graph: Graph,
    metric: str | Metric,
    *,
    forest: LevelForest | None = None,
) -> LevelNodeScores:
    """The paper's single-core baseline: score every core from scratch.

    The forest makes *retrieving* each core's vertex set cheap, but the
    primary values are recomputed per core by scanning its induced
    subgraph — ``O(sum_cores (q_i + |V(S_i)|))`` overall.
    """
    return baseline_family_node_scores(graph, "core", get_metric(metric), forest=forest)


def best_single_kcore(
    graph: Graph,
    metric: str | Metric,
    *,
    ordered: OrderedGraph | None = None,
    forest: LevelForest | None = None,
    index=None,
    use_baseline: bool = False,
) -> BestCoreResult:
    """Find the best single connected k-core (Problem 2).

    Set ``use_baseline=True`` to route through the from-scratch baseline
    (identical results, used for benchmarking).  Passing a
    :class:`~repro.index.BestKIndex` as ``index`` reuses its cached
    artifacts.
    """
    metric = get_metric(metric)
    if index is not None:
        if not use_baseline:
            return index.best_core(metric)
        forest = index.forest
    if use_baseline:
        scored = baseline_kcore_scores(graph, metric, forest=forest)
    else:
        scored = kcore_scores(graph, metric, ordered=ordered, forest=forest)
    return BestCoreResult.from_scores(scored)
