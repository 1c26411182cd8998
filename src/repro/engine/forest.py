"""The level forest — paper Section IV, Algorithms 4 and 5, for every family.

The core forest of Section IV-A generalises to any nested hierarchy: the
connected components of the level-k subgraphs form a forest (one tree per
connected component of the graph), with one node per component holding the
component's level-k vertices; its parent is the closest enclosing component
at a lower level.  Because a vertex's neighbours of level ``>= k`` are
adjacent to it, they always land in *its* component — so the per-vertex
charges of Algorithms 2/3 aggregate per node exactly as Algorithm 5
aggregates them for cores, for every registered family.

* :func:`build_level_forest` — the paper's LCPS (Algorithm 4), O(m); the
  one production builder, for coreness and every other level array;
* :func:`build_level_forest_union_find` — an independent bottom-up
  union-find sweep, kept as the reference the tests compare LCPS against;
* :func:`node_totals` / :func:`node_triangle_totals` /
  :func:`scores_from_node_totals` — Algorithm 5: per-node charges
  aggregated children-into-parents in one forward scan, then scored by
  the scoring loop Problem 1 uses
  (:func:`~repro.engine.levels.score_entries`);
* :func:`family_node_scores` — Algorithm 5 for any family;
* :func:`baseline_family_node_scores` — the from-scratch per-component
  baseline (Section IV-B);
* :func:`best_connected_level_set` — the single-community variant of the
  best-level problem (Problem 2) for any family.

This module never imports a family package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EmptyGraphError
from ..graph.csr import Graph
from .family import BestLevelResult, HierarchyFamily, get_family
from .levels import checked_levels, score_entries
from .triangles import triangles_by_min_rank_vertex, triplet_group_deltas

__all__ = [
    "LevelNode",
    "LevelForest",
    "LevelNodeScores",
    "build_level_forest",
    "build_level_forest_union_find",
    "node_totals",
    "node_triangle_totals",
    "scores_from_node_totals",
    "family_node_scores",
    "baseline_family_node_scores",
    "best_connected_level_set",
]


@dataclass(frozen=True)
class LevelNode:
    """One connected level-k component (a connected k-core for coreness).

    ``vertices`` holds only the component's level-k members; the full
    component is those plus every descendant's vertices
    (:meth:`LevelForest.core_vertices`).
    """

    node_id: int
    #: The level k of the component this node represents.
    k: int
    #: Vertices of the component with level exactly k (sorted ascending).
    vertices: np.ndarray
    #: Parent node id, or -1 for a root.
    parent: int
    #: Child node ids (components nested immediately inside this one).
    children: tuple[int, ...]

    def __repr__(self) -> str:
        return f"LevelNode(id={self.node_id}, k={self.k}, |shell|={len(self.vertices)})"


class LevelForest:
    """The compressed forest of all connected level sets, sorted by descending k.

    Node ids are positions in :attr:`nodes`; because the list is sorted by
    descending level, every child has a *smaller* id than its parent,
    which lets Algorithm 5 aggregate primary values in a single forward
    scan.
    """

    def __init__(self, nodes: list[LevelNode], num_vertices: int):
        self.nodes: tuple[LevelNode, ...] = tuple(nodes)
        self._vertex_node = np.full(num_vertices, -1, dtype=np.int64)
        for node in nodes:
            self._vertex_node[node.vertices] = node.node_id
        self._vertex_node.setflags(write=False)

    @property
    def num_nodes(self) -> int:
        """Number of connected level sets in the hierarchy."""
        return len(self.nodes)

    @property
    def roots(self) -> tuple[int, ...]:
        """Node ids of the tree roots (one per connected component)."""
        return tuple(n.node_id for n in self.nodes if n.parent == -1)

    def node_of_vertex(self, v: int) -> int:
        """Id of the node holding ``v`` (every vertex is in exactly one)."""
        return int(self._vertex_node[v])

    def core_vertices(self, node_id: int) -> np.ndarray:
        """Full vertex set of the component represented by ``node_id``.

        Reconstructed recursively from the node and its descendants, as in
        the paper's Example 6; O(size of the component).
        """
        out: list[np.ndarray] = []
        stack = [node_id]
        while stack:
            node = self.nodes[stack.pop()]
            out.append(node.vertices)
            stack.extend(node.children)
        return np.sort(np.concatenate(out)) if out else np.empty(0, dtype=np.int64)

    def core_containing(self, v: int, k: int) -> int:
        """Node id of the level-k component containing ``v`` (requires ``k <= level(v)``).

        Walks up from v's own node; if no ancestor sits at level exactly
        ``k``, the component coincides with the shallowest ancestor at a
        level ``>= k`` (components at skipped levels have identical vertex
        sets).
        """
        node_id = self.node_of_vertex(v)
        if self.nodes[node_id].k < k:
            raise ValueError(f"vertex {v} has level {self.nodes[node_id].k} < k={k}")
        while True:
            node = self.nodes[node_id]
            parent = node.parent
            if node.k == k or parent == -1 or self.nodes[parent].k < k:
                return node_id
            node_id = parent

    def __repr__(self) -> str:
        return f"LevelForest(nodes={self.num_nodes}, roots={len(self.roots)})"


# ----------------------------------------------------------------------
# LCPS — Algorithm 4
# ----------------------------------------------------------------------

class _RawNode:
    """Mutable node used during construction, before compression."""

    __slots__ = ("level", "vertices", "children", "parent")

    def __init__(self, level: int, parent: "_RawNode | None"):
        self.level = level
        self.vertices: list[int] = []
        self.children: list[_RawNode] = []
        self.parent = parent
        if parent is not None:
            parent.children.append(self)


def build_level_forest(graph: Graph, levels: np.ndarray) -> LevelForest:
    """Construct the level forest with LCPS (Algorithm 4), O(m).

    LCPS (Level Component Priority Search) keeps a bucket per priority
    level and a *path* of open nodes from the current tree's root down to
    the component being explored.  An edge ``(v, w)`` enqueues ``w`` at
    priority ``min(level(v), level(w))`` — the level at which that edge
    becomes internal — and the highest-priority frontier vertex is
    expanded first.  Popping a vertex ``v`` at priority ``r``:

    * retreats the path to level ``r`` (opening an empty node at ``r`` if
      the path skipped that level — compression removes it later if it
      stays empty), because the edge that discovered ``v`` is internal to
      the level-r component only;
    * descends into a fresh node at ``level(v)`` when ``level(v) > r`` —
      ``v`` starts a deeper component nested inside the current one;
    * inserts ``v`` (each vertex lands in a node at exactly its level) and
      enqueues every unvisited neighbour.

    Compression then drops the empty nodes and numbers the rest by
    descending level; equal levels keep the order of the compression's
    depth-first walk, which takes the latest-built tree and child first.
    Problem 2 breaks score ties by node id, so this numbering is part of
    its answer.
    """
    levels = checked_levels(graph, levels)
    n = graph.num_vertices
    max_level = int(levels.max()) if n else 0
    bins: list[list[int]] = [[] for _ in range(max_level + 1)]
    raw_roots: list[_RawNode] = []

    levels_l = levels.tolist()
    indptr_l = graph.indptr.tolist()
    indices_l = graph.indices.tolist()
    visited_l = [False] * n

    for seed in range(n):
        if visited_l[seed]:
            continue
        root = _RawNode(0, None)
        raw_roots.append(root)
        path: list[_RawNode] = [root]
        bins[0].append(seed)
        top = 0  # highest possibly-non-empty bin
        while top >= 0:
            if not bins[top]:
                top -= 1
                continue
            v = bins[top].pop()
            r = top
            if visited_l[v]:
                continue
            lv = levels_l[v]
            # Retreat to level r (the level at which v's discovering edge is
            # internal), opening a node at r if the path skipped it.  When a
            # node is opened, the subtree just retreated from lies *inside*
            # the level-r component it represents, so the new node adopts it.
            retreated = None
            while path[-1].level > r:
                retreated = path.pop()
            if path[-1].level < r:
                opened = _RawNode(r, path[-1])
                if retreated is not None:
                    retreated.parent.children.remove(retreated)
                    retreated.parent = opened
                    opened.children.append(retreated)
                path.append(opened)
            # Descend into v's own level.
            if lv > r:
                path.append(_RawNode(lv, path[-1]))
            path[-1].vertices.append(v)
            visited_l[v] = True
            for w in indices_l[indptr_l[v]:indptr_l[v + 1]]:
                if not visited_l[w]:
                    p = levels_l[w]
                    if p > lv:
                        p = lv
                    bins[p].append(w)
                    if p > top:
                        top = p

    return _compress(raw_roots, n)


def _compress(raw_roots: list[_RawNode], num_vertices: int) -> LevelForest:
    """Drop empty nodes, renumber by descending level, build the forest."""
    # Collect surviving nodes with their effective parent (nearest non-empty
    # ancestor).
    survivors: list[tuple[_RawNode, _RawNode | None]] = []
    stack: list[tuple[_RawNode, _RawNode | None]] = [(r, None) for r in raw_roots]
    while stack:
        node, eff_parent = stack.pop()
        keep = bool(node.vertices)
        if keep:
            survivors.append((node, eff_parent))
        next_parent = node if keep else eff_parent
        stack.extend((c, next_parent) for c in node.children)

    # Sort by descending level; stable on the walk order for ties.
    survivors.sort(key=lambda pair: -pair[0].level)
    ids: dict[int, int] = {id(node): i for i, (node, _) in enumerate(survivors)}
    children: list[list[int]] = [[] for _ in survivors]
    parents: list[int] = []
    for i, (node, eff_parent) in enumerate(survivors):
        pid = -1 if eff_parent is None else ids[id(eff_parent)]
        parents.append(pid)
        if pid != -1:
            children[pid].append(i)
    nodes = [
        LevelNode(
            node_id=i,
            k=node.level,
            vertices=np.asarray(sorted(node.vertices), dtype=np.int64),
            parent=parents[i],
            children=tuple(children[i]),
        )
        for i, (node, _) in enumerate(survivors)
    ]
    return LevelForest(nodes, num_vertices)


# ----------------------------------------------------------------------
# Union-find reference builder
# ----------------------------------------------------------------------

def build_level_forest_union_find(graph: Graph, levels: np.ndarray) -> LevelForest:
    """Construct the same forest bottom-up with union-find, O(m α(n)).

    The reference :func:`build_level_forest` is tested against: entirely
    different mechanics, same nodes and parents (node numbering may
    differ).  Levels are activated from the deepest downward; edges with
    both endpoints active are unioned.  After level k every union-find
    component is exactly one connected level-k set; each component that
    gained level-k vertices becomes a node whose children are the
    component's previous top nodes.
    """
    levels = checked_levels(graph, levels)
    n = graph.num_vertices
    max_level = int(levels.max()) if n else 0
    order = np.argsort(levels, kind="stable")
    counts = np.bincount(levels, minlength=max_level + 1) if n else np.zeros(1, np.int64)
    level_start = np.zeros(max_level + 2, dtype=np.int64)
    np.cumsum(counts, out=level_start[1:])
    indptr, indices = graph.indptr, graph.indices

    parent_uf = np.arange(n, dtype=np.int64)

    def find(x: int) -> int:
        root = x
        while parent_uf[root] != root:
            root = parent_uf[root]
        while parent_uf[x] != root:
            parent_uf[x], x = root, parent_uf[x]
        return root

    # pending[root] = top node ids currently representing that component.
    pending: dict[int, list[int]] = {}
    node_levels: list[int] = []
    node_vertices: list[np.ndarray] = []
    node_children: list[list[int]] = []

    active = np.zeros(n, dtype=bool)
    for k in range(max_level, -1, -1):
        shell = order[level_start[k]:level_start[k + 1]]
        if len(shell) == 0:
            continue
        active[shell] = True
        for v in shell.tolist():
            for j in range(indptr[v], indptr[v + 1]):
                w = int(indices[j])
                if active[w]:
                    rv, rw = find(v), find(w)
                    if rv != rw:
                        parent_uf[rw] = rv
                        merged = pending.pop(rv, []) + pending.pop(rw, [])
                        if merged:
                            pending[rv] = merged
        by_root: dict[int, list[int]] = {}
        for v in shell.tolist():
            by_root.setdefault(find(v), []).append(v)
        for root, members in by_root.items():
            nid = len(node_levels)
            node_levels.append(k)
            node_vertices.append(np.asarray(sorted(members), dtype=np.int64))
            node_children.append(pending.get(root, []))
            pending[root] = [nid]

    parents = [-1] * len(node_levels)
    for nid, kids in enumerate(node_children):
        for child in kids:
            parents[child] = nid
    nodes = [
        LevelNode(
            node_id=nid,
            k=node_levels[nid],
            vertices=node_vertices[nid],
            parent=parents[nid],
            children=tuple(node_children[nid]),
        )
        for nid in range(len(node_levels))
    ]
    return LevelForest(nodes, n)


@dataclass(frozen=True)
class LevelNodeScores:
    """Scores and primary values of every connected level set (forest node)."""

    metric: object
    totals: object
    forest: LevelForest
    #: ``scores[i]`` = metric score of forest node i's component.
    scores: np.ndarray
    #: ``values[i]`` = primary values of forest node i's component.
    values: tuple

    def best_node(self) -> int:
        """Node id of the best component; ties towards largest k, then lowest id."""
        scores = self.scores
        finite = ~np.isnan(scores)
        if not finite.any():
            raise EmptyGraphError("no candidate connected level set to choose from")
        best = np.nanmax(scores)
        candidates = np.flatnonzero(finite & (scores == best))
        ks = np.asarray([self.forest.nodes[int(i)].k for i in candidates])
        winners = candidates[ks == ks.max()]
        return int(winners.min())

    def ranked_nodes(self) -> np.ndarray:
        """Node ids sorted by descending score (nan last)."""
        keys = np.where(np.isnan(self.scores), -np.inf, self.scores)
        return np.argsort(-keys, kind="stable")

    def __repr__(self) -> str:
        name = getattr(self.metric, "name", str(self.metric))
        return f"LevelNodeScores(metric={name!r}, cores={len(self.scores)})"


# ----------------------------------------------------------------------
# Algorithm 5
# ----------------------------------------------------------------------

def _aggregate_children(forest: LevelForest, *arrays: np.ndarray) -> None:
    """Add each node's children totals into the node, in place.

    Children precede parents (descending-k storage): one forward scan.
    """
    for node in forest.nodes:
        for child in node.children:
            for arr in arrays:
                arr[node.node_id] += arr[child]


def node_totals(
    forest: LevelForest, twice_inside: np.ndarray, boundary: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Aggregated ``(num, 2*in, out)`` totals of every forest node's component.

    ``twice_inside`` / ``boundary`` are the per-vertex charges of
    Algorithms 2/3 (integer edge counts or float weights); each node sums
    its own vertices' charges, then adds its children's totals.
    """
    count = forest.num_nodes
    num = np.zeros(count, dtype=np.int64)
    twice_in = np.zeros(count, dtype=twice_inside.dtype)
    out = np.zeros(count, dtype=boundary.dtype)
    for node in forest.nodes:
        members = node.vertices
        num[node.node_id] = len(members)
        twice_in[node.node_id] = twice_inside[members].sum()
        out[node.node_id] = boundary[members].sum()
    _aggregate_children(forest, num, twice_in, out)
    return num, twice_in, out


def node_triangle_totals(
    ordering,
    forest: LevelForest,
    *,
    backend=None,
    charges: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Aggregated triangle/triplet totals of every forest node's component.

    ``ordering`` is any object with the Algorithm 1 tag contract.  A
    precomputed per-vertex ``charges`` array (e.g. cached on a
    :class:`~repro.index.BestKIndex`) skips the O(m^1.5) pass.
    """
    if charges is None:
        charges = triangles_by_min_rank_vertex(ordering, backend=backend)
    tri = np.zeros(forest.num_nodes, dtype=np.int64)
    for node in forest.nodes:
        if len(node.vertices):
            tri[node.node_id] = int(charges[node.vertices].sum())
    trip = triplet_group_deltas(
        ordering, [node.vertices for node in forest.nodes], backend=backend
    )
    _aggregate_children(forest, tri, trip)
    return tri, trip


def scores_from_node_totals(
    metric,
    totals,
    forest: LevelForest,
    num: np.ndarray,
    twice_in: np.ndarray,
    out: np.ndarray,
    tri: np.ndarray | None = None,
    trip: np.ndarray | None = None,
    *,
    make_values=None,
) -> LevelNodeScores:
    """Assemble :class:`LevelNodeScores` from aggregated per-node totals.

    The O(#nodes) scoring tail of Algorithm 5, split out so the shared
    :class:`~repro.index.BestKIndex` can reuse one aggregation across every
    metric; ``make_values`` is the family hook of
    :func:`~repro.engine.levels.score_entries`.
    """
    scores, values = score_entries(
        metric, totals, num, twice_in, out, tri, trip, make_values=make_values
    )
    return LevelNodeScores(metric, totals, forest, scores, values)


def family_node_scores(
    graph: Graph,
    family: str | HierarchyFamily,
    metric,
    *,
    decomposition=None,
    ordering=None,
    forest: LevelForest | None = None,
    backend=None,
    **params,
) -> LevelNodeScores:
    """Score every connected level set with Algorithm 5, generically.

    The node-grouped twin of :func:`~repro.engine.family.family_set_scores`:
    the same per-vertex charges, summed per forest node instead of per
    level, then aggregated children-into-parents in one forward scan.
    """
    fam = get_family(family)
    metric = fam.resolve_metric(metric)
    if decomposition is None:
        decomposition = fam.decompose(graph, backend=backend, **params)
    levels = fam.levels(decomposition, **params)
    if ordering is None:
        ordering = fam.ordering(graph, levels)
    if forest is None:
        forest = build_level_forest(graph, levels)
    totals = fam.totals(graph, decomposition, **params)

    num, twice_in, out = node_totals(
        forest, *fam.charges(graph, decomposition, levels, ordering, **params)
    )
    tri = trip = None
    if fam.metric_requires_triangles(metric):
        tri, trip = node_triangle_totals(ordering, forest, backend=backend)
    return scores_from_node_totals(
        metric, totals, forest, num, twice_in, out, tri, trip,
        make_values=fam.make_values,
    )


def baseline_family_node_scores(
    graph: Graph,
    family: str | HierarchyFamily,
    metric,
    *,
    decomposition=None,
    forest: LevelForest | None = None,
    backend=None,
    **params,
) -> LevelNodeScores:
    """From-scratch per-component baseline (Section IV-B), generically."""
    fam = get_family(family)
    metric = fam.resolve_metric(metric)
    if decomposition is None:
        decomposition = fam.decompose(graph, backend=backend, **params)
    if forest is None:
        forest = build_level_forest(graph, fam.levels(decomposition, **params))
    totals = fam.totals(graph, decomposition, **params)
    count_triangles = fam.metric_requires_triangles(metric)

    values = []
    scores = np.full(forest.num_nodes, np.nan)
    for node in forest.nodes:
        members = forest.core_vertices(node.node_id)
        pv = fam.subset_values(
            graph, decomposition, members, count_triangles=count_triangles, **params
        )
        values.append(pv)
        scores[node.node_id] = metric.score(pv, totals)
    return LevelNodeScores(metric, totals, forest, scores, tuple(values))


def best_connected_level_set(
    graph: Graph,
    family: str | HierarchyFamily,
    metric=None,
    *,
    decomposition=None,
    forest: LevelForest | None = None,
    backend=None,
    use_baseline: bool = False,
    **params,
) -> BestLevelResult:
    """Best single *connected* level set for any family (Problem 2).

    Ties break towards the largest level, then the lowest node id.  The
    returned :class:`~repro.engine.family.BestLevelResult` carries the full
    component as ``vertices`` and the node-scores record as ``scores``.
    """
    fam = get_family(family)
    metric = fam.resolve_metric(fam.default_metric if metric is None else metric)
    if decomposition is None:
        decomposition = fam.decompose(graph, backend=backend, **params)
    levels = fam.levels(decomposition, **params)
    if forest is None:
        forest = build_level_forest(graph, levels)
    if use_baseline:
        scored = baseline_family_node_scores(
            graph, fam, metric,
            decomposition=decomposition, forest=forest, backend=backend, **params,
        )
    else:
        scored = family_node_scores(
            graph, fam, metric,
            decomposition=decomposition, forest=forest, backend=backend, **params,
        )
    node_id = scored.best_node()
    node = forest.nodes[node_id]
    thresholds = fam.thresholds(decomposition, int(levels.max()) if len(levels) else 0, **params)
    threshold = None if thresholds is None else float(thresholds[node.k])
    return BestLevelResult(
        metric.name,
        node.k,
        float(scored.scores[node_id]),
        scored,
        forest.core_vertices(node_id),
        threshold,
        fam.name,
    )
