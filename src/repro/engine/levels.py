"""Generalised best-k machinery for arbitrary vertex-level hierarchies.

Paper Section VI-B observes that the optimal algorithms extend to any
decomposition with the containment property: if ``level(v)`` is any integer
labelling such that the "k-th subgraph" is induced by
``{v : level(v) >= k}``, then the vertex ordering of Algorithm 1 and the
incremental accumulation of Algorithms 2/3 go through verbatim with
``level`` in place of coreness.

This module is the single implementation of that generalisation, shared by
every registered :class:`~repro.engine.family.HierarchyFamily` (k-core,
k-truss, weighted s-core, k-ECC, and anything registered later):

* :func:`level_ordering` — Algorithm 1 for an arbitrary level array, via
  :func:`rank_ordered_adjacency`, the arc sort and position tags that
  :func:`repro.core.ordering.order_vertices` shares;
* :func:`unweighted_level_charges` / :func:`accumulate_level_totals` /
  :func:`triangle_level_increments` — the per-vertex charges and suffix-sum
  accumulation of Algorithms 2/3, backend-aware via :mod:`repro.kernels`;
* :func:`score_entries` — the one per-entry scoring loop, shared by the
  per-level tail :func:`scores_from_level_totals` (Problem 1) and the
  per-forest-node tail :func:`~repro.engine.forest.scores_from_node_totals`
  (Problem 2, Algorithm 5);
* :func:`level_set_scores` — the raw-levels entry point, itself expressed
  through the generic family machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EmptyGraphError
from ..graph.csr import Graph
from ..kernels.common import rank_sort_arcs
from .metrics import Metric
from .primary import GraphTotals, PrimaryValues
from .triangles import triangles_by_min_rank_vertex, triplet_group_deltas

__all__ = [
    "LevelOrdering",
    "LevelSetScores",
    "level_ordering",
    "level_set_scores",
    "rank_ordered_adjacency",
    "unweighted_level_charges",
    "accumulate_level_totals",
    "cumulate_from_top",
    "triangle_level_increments",
    "score_entries",
    "scores_from_level_totals",
]


@dataclass(frozen=True)
class LevelOrdering:
    """Rank-ordered adjacency with position tags for a level function.

    Structurally identical to :class:`repro.core.ordering.OrderedGraph`
    (same attribute contract, consumed by the same triangle/triplet
    kernels), but built from an arbitrary ``levels`` array.
    """

    graph: Graph
    levels: np.ndarray
    #: rank under the (level, id) total order.
    rank: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    same: np.ndarray
    plus: np.ndarray
    high: np.ndarray
    #: vertices sorted by ascending level (ties by id).
    order: np.ndarray
    #: ``order[level_start[k]:]`` = vertices with level >= k.
    level_start: np.ndarray

    @property
    def max_level(self) -> int:
        """Largest level value present."""
        return len(self.level_start) - 2


def checked_levels(graph: Graph, levels) -> np.ndarray:
    """``levels`` as int64, checked to hold one non-negative entry per vertex."""
    levels = np.asarray(levels, dtype=np.int64)
    if len(levels) != graph.num_vertices:
        raise ValueError("levels must have one entry per vertex")
    if len(levels) and levels.min() < 0:
        raise ValueError("levels must be non-negative")
    return levels


def level_ordering(graph: Graph, levels: np.ndarray) -> LevelOrdering:
    """Algorithm 1 generalised to an arbitrary non-negative level array."""
    levels = checked_levels(graph, levels)
    n = graph.num_vertices
    order = np.argsort(levels, kind="stable").astype(np.int64)
    max_level = int(levels.max()) if n else 0
    counts = np.bincount(levels, minlength=max_level + 1) if n else np.zeros(1, np.int64)
    level_start = np.zeros(max_level + 2, dtype=np.int64)
    np.cumsum(counts, out=level_start[1:])
    rank, indices, same, plus, high = rank_ordered_adjacency(graph, levels, order, level_start)

    return LevelOrdering(
        graph=graph,
        levels=levels,
        rank=rank,
        indptr=graph.indptr.copy(),
        indices=indices,
        same=same,
        plus=plus,
        high=high,
        order=order,
        level_start=level_start,
    )


def rank_ordered_adjacency(
    graph: Graph, levels: np.ndarray, order: np.ndarray, level_start: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Algorithm 1's arc sort and position tags: the one implementation.

    ``order`` lists the vertices by ascending ``(level, id)`` and
    ``order[level_start[k]:]`` are those with level ``>= k``.  Returns
    ``(rank, indices, same, plus, high)``: ``rank`` inverts ``order``,
    ``indices`` holds every adjacency slice sorted by neighbour rank, and
    each tag is the offset in ``v``'s slice of the first neighbour of
    level ``>= level(v)`` (``same``), ``> level(v)`` (``plus``) or rank
    ``> rank(v)`` (``high``).

    The arcs are sorted as one int64 key ``row * n + rank[nbr]``, so a
    tag is a threshold on the keys of one row and each tag array is one
    binary search over the sorted keys.  Cost: a sort of ``2m`` keys,
    ``O(m log m)``; the paper's two counting-sort passes reach ``O(m)``.
    """
    n = graph.num_vertices
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)
    rows = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    key, indices = rank_sort_arcs(rows, graph.indices, rank, order)
    row_key = np.arange(n, dtype=np.int64) * n
    start = graph.indptr[:-1]
    same = np.searchsorted(key, row_key + level_start[levels]) - start
    plus = np.searchsorted(key, row_key + level_start[levels + 1]) - start
    high = np.searchsorted(key, row_key + rank) - start
    return rank, indices, same, plus, high


@dataclass(frozen=True)
class LevelSetScores:
    """Scores of every level set ``S_k = G[{v : level(v) >= k}]``.

    One record type serves every family: for unweighted families ``values``
    holds :class:`~repro.engine.primary.PrimaryValues`, for the weighted
    family :class:`~repro.weighted.metrics.WeightedPrimaryValues` plus the
    per-level strength ``thresholds``.
    """

    metric: Metric
    totals: GraphTotals
    #: ``scores[k]`` = metric score of ``S_k``; ``nan`` for empty sets.
    scores: np.ndarray
    #: ``values[k]`` = primary values of ``S_k``.
    values: tuple
    #: Per-level thresholds for quantised (weighted) hierarchies, else None.
    thresholds: np.ndarray | None = None

    @property
    def max_level(self) -> int:
        """Largest level with a defined (possibly empty) set."""
        return len(self.scores) - 1

    @property
    def kmax(self) -> int:
        """Alias of :attr:`max_level` (the k-core vocabulary)."""
        return self.max_level

    def best_k(self) -> int:
        """Argmax of the scores; ties broken towards the largest k."""
        finite = ~np.isnan(self.scores)
        if not finite.any():
            raise EmptyGraphError("no non-empty level set to choose from")
        best = np.nanmax(self.scores)
        return int(np.flatnonzero(finite & (self.scores == best)).max())

    def best_level(self) -> int:
        """Alias of :meth:`best_k` (the weighted vocabulary)."""
        return self.best_k()

    def __repr__(self) -> str:
        name = getattr(self.metric, "name", str(self.metric))
        return f"LevelSetScores(metric={name!r}, max_level={self.max_level})"


# ----------------------------------------------------------------------
# Shared accumulation arithmetic (Algorithms 2 / 3)
# ----------------------------------------------------------------------

def unweighted_level_charges(ordering) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex ``(2*inside, boundary)`` edge-count charges from the tags.

    Accepts any object with the tag contract (``indptr``/``same``/``plus``):
    a :class:`LevelOrdering` or a :class:`repro.core.ordering.OrderedGraph`.
    Every vertex contributes ``2|N(v,>)| + |N(v,=)|`` internal
    edge-endpoints and ``|N(v,<)| - |N(v,>)|`` boundary edges to its own
    level.
    """
    deg = np.diff(ordering.indptr)
    n_lt = ordering.same
    n_eq = ordering.plus - ordering.same
    n_gt = deg - ordering.plus
    return 2 * n_gt + n_eq, n_lt - n_gt


def accumulate_level_totals(
    twice_inside: np.ndarray,
    boundary: np.ndarray,
    order: np.ndarray,
    level_start: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Suffix-sum the per-vertex charges into per-level-set totals.

    Returns ``(num_k, twice_in_k, out_k)``, arrays of length
    ``max_level + 2`` indexed by k (the final entry — the empty set — is
    zero).  Works unchanged for integer edge-count charges and for float
    weight charges; the arithmetic is the paper's Algorithm 2 evaluated as
    suffix sums over the level-sorted vertex order.
    """
    zero = [0.0] if twice_inside.dtype.kind == "f" else [0]
    suffix_in = np.concatenate([np.cumsum(twice_inside[order][::-1])[::-1], zero])
    suffix_out = np.concatenate([np.cumsum(boundary[order][::-1])[::-1], zero])
    starts = level_start
    twice_in_k = suffix_in[starts]
    out_k = suffix_out[starts]
    num_k = len(order) - starts
    return num_k, twice_in_k, out_k


def cumulate_from_top(new: np.ndarray) -> np.ndarray:
    """Top-down cumulation of per-level increments into per-set totals.

    Appends the zero entry for the empty set above the deepest level.
    """
    return np.concatenate([np.cumsum(new[::-1])[::-1], [0]])


def triangle_level_increments(
    ordering,
    order: np.ndarray,
    level_start: np.ndarray,
    *,
    backend=None,
    charges: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 3's per-level increments of triangles and triplets.

    Returns ``(tri_new, trip_new)``, arrays of length ``max_level + 1``
    where index k holds the number of triangles/triplets present in the
    level-k set but not in the level-``k+1`` set.  Cumulating from the top
    (:func:`cumulate_from_top`) yields the counts of every level set.

    Triangles are charged to the level of their minimum-rank corner,
    triplets to the level at which their centre gains the new legs; the
    per-vertex/per-group charging lives in the kernel registry (see
    :mod:`repro.engine.triangles`).  A precomputed ``charges`` array (e.g.
    cached on a :class:`~repro.index.BestKIndex`) skips the O(m^1.5) pass.
    """
    max_level = len(level_start) - 2
    if charges is None:
        charges = triangles_by_min_rank_vertex(ordering, backend=backend)
    shells = [
        order[level_start[k]:level_start[k + 1]]
        for k in range(max_level, -1, -1)
    ]
    trip_deltas = triplet_group_deltas(ordering, shells, backend=backend)
    tri_new = np.zeros(max_level + 1, dtype=np.int64)
    trip_new = np.zeros(max_level + 1, dtype=np.int64)
    for i, k in enumerate(range(max_level, -1, -1)):
        if len(shells[i]):
            tri_new[k] = int(charges[shells[i]].sum())
        trip_new[k] = trip_deltas[i]
    return tri_new, trip_new


def _unweighted_values(
    num: int, twice_inside, boundary, triangles=None, triplets=None
) -> PrimaryValues:
    """Default value assembly: integer edge counts (the unweighted case)."""
    return PrimaryValues(
        num_vertices=int(num),
        num_edges=int(twice_inside) // 2,
        num_boundary=int(boundary),
        num_triangles=None if triangles is None else int(triangles),
        num_triplets=None if triplets is None else int(triplets),
    )


def score_entries(
    metric: Metric,
    totals: GraphTotals,
    num: np.ndarray,
    twice_in: np.ndarray,
    out: np.ndarray,
    tri: np.ndarray | None = None,
    trip: np.ndarray | None = None,
    *,
    make_values=None,
) -> tuple[np.ndarray, tuple]:
    """Score one candidate set per entry of the accumulated totals.

    THE scoring loop of the package: entry ``i`` of the ``num`` /
    ``twice_in`` / ``out`` (and optional ``tri`` / ``trip``) arrays is one
    candidate set — a level set for Algorithms 2/3, a forest node for
    Algorithm 5.  ``make_values`` is the family hook that turns one entry
    into its primary-values record (integer edge counts by default).
    Returns ``(scores, values)``.

    The columns become Python lists before the loop: a hook then sees
    Python scalars, which it converts far faster than numpy scalars.
    """
    if make_values is None:
        make_values = _unweighted_values
    count = len(num)
    missing = [None] * count
    columns = zip(
        np.asarray(num).tolist(),
        np.asarray(twice_in).tolist(),
        np.asarray(out).tolist(),
        missing if tri is None else np.asarray(tri).tolist(),
        missing if trip is None else np.asarray(trip).tolist(),
    )
    values = tuple(make_values(*entry) for entry in columns)
    scores = np.array([metric.score(pv, totals) for pv in values], dtype=np.float64)
    return scores, values


def scores_from_level_totals(
    metric: Metric,
    totals: GraphTotals,
    num_k: np.ndarray,
    twice_in_k: np.ndarray,
    out_k: np.ndarray,
    tri_k: np.ndarray | None = None,
    trip_k: np.ndarray | None = None,
    *,
    make_values=None,
    thresholds: np.ndarray | None = None,
) -> LevelSetScores:
    """Assemble :class:`LevelSetScores` from accumulated per-set totals.

    The per-level tail of Algorithms 2/3.  Every family (and the shared
    :class:`~repro.index.BestKIndex`) funnels through it; the totals hold
    one more entry than there are levels (the empty set above the deepest
    level), which is not scored.
    """
    last = len(num_k) - 1
    scores, values = score_entries(
        metric, totals, num_k[:last], twice_in_k[:last], out_k[:last],
        None if tri_k is None else tri_k[:last],
        None if trip_k is None else trip_k[:last],
        make_values=make_values,
    )
    return LevelSetScores(metric, totals, scores, values, thresholds)


def level_set_scores(
    graph: Graph,
    levels: np.ndarray,
    metric,
    *,
    ordering: LevelOrdering | None = None,
    backend=None,
) -> LevelSetScores:
    """Score every level set of a raw ``levels`` array (Algorithm 2 / 3).

    The historic entry point, kept as the door for ad-hoc level arrays; it
    routes through the same generic family path as every registered
    hierarchy (a raw array is just the anonymous family whose decomposition
    *is* the array).
    """
    from .family import RAW_LEVELS, family_set_scores

    return family_set_scores(
        graph,
        RAW_LEVELS,
        metric,
        decomposition=np.asarray(levels, dtype=np.int64),
        ordering=ordering,
        backend=backend,
    )
