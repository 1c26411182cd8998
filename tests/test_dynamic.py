"""Single-edge delta streams through ``VersionedGraph`` + ``incremental_core_numbers``.

Each stream is replayed once per kernel backend with the repair forced
onto the ``subcore_repair`` kernel (``plan="batched"``), and the
maintained coreness must equal a cold peel of the snapshot at every
epoch.  Random multi-edge streams live in
``tests/test_dynamic_incremental.py`` and ``tests/test_dynamic_batched.py``.
"""

import numpy as np
import pytest

from repro.core import core_decomposition
from repro.dynamic import GraphDelta, VersionedGraph, incremental_core_numbers
from repro.errors import GraphDeltaError
from repro.graph import Graph
from conftest import figure2_edges, random_graph

BACKENDS = ("python", "numpy", "native")


def cold_coreness(graph: Graph) -> np.ndarray:
    if graph.num_vertices == 0:
        return np.empty(0, dtype=np.int64)
    return core_decomposition(graph, engine="peel").coreness


def insert(u: int, v: int) -> GraphDelta:
    return GraphDelta.from_edges(insert=[(u, v)])


def delete(u: int, v: int) -> GraphDelta:
    return GraphDelta.from_edges(delete=[(u, v)])


def replay(graph: Graph, deltas) -> tuple[Graph, np.ndarray]:
    """Maintain coreness across ``deltas`` on every backend, checking each epoch.

    Returns the final snapshot and its maintained coreness.
    """
    deltas = list(deltas)
    for backend in BACKENDS:
        vg = VersionedGraph(graph)
        core = cold_coreness(graph)
        for epoch, delta in enumerate(deltas, 1):
            nxt = vg.apply(delta)
            result = incremental_core_numbers(
                vg.graph, core, nxt.applied,
                new_graph=nxt.graph, backend=backend, plan="batched",
            )
            assert result.path == "batched"
            assert np.array_equal(result.coreness, cold_coreness(nxt.graph)), (
                f"{backend}: epoch {epoch} ({delta!r}) diverged from a cold peel"
            )
            vg, core = nxt, result.coreness
    return vg.graph, core


def missing_edges(graph: Graph, count: int) -> list[tuple[int, int]]:
    edges = []
    for u in range(graph.num_vertices):
        for v in range(u + 1, graph.num_vertices):
            if not graph.has_edge(u, v):
                edges.append((u, v))
                if len(edges) == count:
                    return edges
    return edges


class TestConstruction:
    def test_from_graph(self, figure2):
        vg = VersionedGraph(figure2)
        assert vg.num_vertices == 12 and vg.num_edges == 19
        # Isolated growth is the one delta with no edge to repair around.
        graph, core = replay(figure2, [GraphDelta.from_edges(num_vertices=14)])
        assert core.tolist() == cold_coreness(figure2).tolist() + [0, 0]

    def test_empty_start(self):
        vg = VersionedGraph(Graph.empty(0))
        assert vg.num_vertices == 0 and vg.num_edges == 0
        assert cold_coreness(vg.graph).size == 0

    def test_snapshot_round_trip(self, figure2):
        assert VersionedGraph(figure2).graph == figure2


class TestInsertions:
    def test_build_figure2_incrementally(self):
        graph, core = replay(Graph.empty(0), (insert(u, v) for u, v in figure2_edges()))
        assert graph.num_edges == 19
        assert core.tolist() == [3, 3, 3, 3, 2, 2, 2, 2, 3, 3, 3, 3]

    def test_insert_raises_coreness_by_at_most_one(self):
        g = random_graph(25, 60, seed=1)
        before = cold_coreness(g)
        _, after = replay(g, [insert(*missing_edges(g, 1)[0])])
        assert ((after - before) >= 0).all() and ((after - before) <= 1).all()

    def test_new_vertices_created(self):
        graph, core = replay(Graph.empty(0), [insert(0, 5)])
        assert graph.num_vertices == 6
        assert core[0] == 1 and core[3] == 0

    def test_rejects_self_loop(self):
        with pytest.raises(GraphDeltaError):
            insert(3, 3)

    def test_rejects_duplicate(self, figure2):
        with pytest.raises(GraphDeltaError):
            VersionedGraph(figure2).apply(insert(0, 1))

    def test_closing_a_k4(self):
        # Path 0-1-2-3 plus chords: closing the last edge lifts everyone to 3.
        chords = [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)]
        graph, core = replay(Graph.empty(0), (insert(u, v) for u, v in chords))
        assert core.tolist() == [2, 2, 2, 2]
        _, core = replay(graph, [insert(0, 3)])
        assert core.tolist() == [3, 3, 3, 3]


class TestDeletions:
    def test_dismantle_figure2(self, figure2):
        graph, core = replay(figure2, (delete(u, v) for u, v in figure2.edges()))
        assert graph.num_edges == 0
        assert core.max() == 0

    def test_remove_missing_edge(self, figure2):
        with pytest.raises(GraphDeltaError):
            VersionedGraph(figure2).apply(delete(0, 11))

    def test_breaking_a_k4(self):
        k4 = Graph.from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert cold_coreness(k4).max() == 3
        _, core = replay(k4, [delete(0, 1)])
        assert core.tolist() == [2, 2, 2, 2]

    def test_deletion_drops_by_at_most_one(self):
        g = random_graph(25, 70, seed=2)
        before = cold_coreness(g)
        _, after = replay(g, [delete(*next(iter(g.edges())))])
        assert ((before - after) >= 0).all() and ((before - after) <= 1).all()


class TestRandomStreams:
    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_stream_matches_recomputation(self, seed):
        rng = np.random.default_rng(seed)
        n = 18
        present: set[tuple[int, int]] = set()
        deltas = []
        for _ in range(120):
            if present and rng.random() < 0.35:
                edge = sorted(present)[int(rng.integers(0, len(present)))]
                present.discard(edge)
                deltas.append(delete(*edge))
            else:
                u, v = sorted(int(x) for x in rng.integers(0, n, 2))
                if u == v or (u, v) in present:
                    continue
                present.add((u, v))
                deltas.append(insert(u, v))
        graph, _ = replay(Graph.empty(n), deltas)
        assert set(map(tuple, graph.edge_array().tolist())) == present

    def test_insert_then_delete_round_trip(self):
        g = random_graph(30, 80, seed=5)
        extra = missing_edges(g, 15)
        deltas = [insert(u, v) for u, v in extra] + [delete(u, v) for u, v in reversed(extra)]
        _, core = replay(g, deltas)
        np.testing.assert_array_equal(core, cold_coreness(g))
