"""Unit tests for Algorithm 1 (vertex ordering with position tags)."""

import numpy as np
import pytest

from repro.core import core_decomposition, order_vertices
from repro.engine import level_ordering
from repro.generators import powerlaw_chung_lu, rmat_graph
from repro.graph import Graph
from repro.kernels.common import rank_forward_adjacency
from conftest import random_graph, zoo_params


def brute_force_tags(graph, coreness, rank, v):
    """Tag values straight from Table II's definitions."""
    nbrs = sorted(map(int, graph.neighbors(v)), key=lambda u: rank[u])
    same = sum(1 for u in nbrs if coreness[u] < coreness[v])
    plus = sum(1 for u in nbrs if coreness[u] <= coreness[v])
    high = sum(1 for u in nbrs if rank[u] < rank[v])
    return nbrs, same, plus, high


class TestRank:
    def test_rank_is_permutation(self, figure2):
        od = order_vertices(figure2)
        assert sorted(od.rank.tolist()) == list(range(12))

    def test_rank_respects_coreness_then_id(self, figure2):
        od = order_vertices(figure2)
        coreness = od.decomposition.coreness
        for u in range(12):
            for v in range(12):
                if coreness[v] > coreness[u]:
                    assert od.rank[v] > od.rank[u]
                elif coreness[v] == coreness[u] and v > u:
                    assert od.rank[v] > od.rank[u]


class TestAdjacencyOrdering:
    @zoo_params()
    def test_slices_sorted_by_rank(self, graph):
        od = order_vertices(graph)
        for v in range(graph.num_vertices):
            ranks = od.rank[od.neighbors(v)]
            assert np.all(np.diff(ranks) > 0)

    @zoo_params()
    def test_same_multiset_of_neighbors(self, graph):
        od = order_vertices(graph)
        for v in range(graph.num_vertices):
            assert sorted(od.neighbors(v).tolist()) == sorted(graph.neighbors(v).tolist())


class TestPositionTags:
    @zoo_params()
    def test_tags_match_definitions(self, graph):
        od = order_vertices(graph)
        coreness = od.decomposition.coreness
        for v in range(graph.num_vertices):
            _, same, plus, high = brute_force_tags(graph, coreness, od.rank, v)
            assert od.same[v] == same
            assert od.plus[v] == plus
            assert od.high[v] == high

    @pytest.mark.parametrize("seed", range(5))
    def test_tags_on_random(self, seed):
        g = random_graph(40, 120, seed)
        od = order_vertices(g)
        coreness = od.decomposition.coreness
        for v in range(g.num_vertices):
            _, same, plus, high = brute_force_tags(g, coreness, od.rank, v)
            assert (od.same[v], od.plus[v], od.high[v]) == (same, plus, high)


class TestCountQueries:
    def test_counts_partition_degree(self, figure2):
        od = order_vertices(figure2)
        for v in range(12):
            assert od.n_lt(v) + od.n_eq(v) + od.n_gt(v) == figure2.degree(v)
            assert od.n_ge(v) == od.n_eq(v) + od.n_gt(v)

    def test_example3_queries(self, figure2):
        # Paper Example 3: |N(v6, >)| = 1 (v6 is index 5; its only
        # higher-coreness neighbour is v3).
        od = order_vertices(figure2)
        assert od.n_gt(5) == 1
        assert od.n_eq(5) == 3
        assert od.n_lt(5) == 0
        # v1 (index 0) has plus == |N(v1)|: no neighbour has larger coreness.
        assert od.n_gt(0) == 0

    def test_slices_match_counts(self, figure2):
        od = order_vertices(figure2)
        coreness = od.decomposition.coreness
        for v in range(12):
            assert len(od.nbrs_lt(v)) == od.n_lt(v)
            assert len(od.nbrs_eq(v)) == od.n_eq(v)
            assert len(od.nbrs_gt(v)) == od.n_gt(v)
            assert len(od.nbrs_ge(v)) == od.n_ge(v)
            assert len(od.nbrs_gt_rank(v)) == od.n_gt_rank(v)
            assert all(coreness[u] < coreness[v] for u in od.nbrs_lt(v))
            assert all(coreness[u] == coreness[v] for u in od.nbrs_eq(v))
            assert all(coreness[u] > coreness[v] for u in od.nbrs_gt(v))
            assert all(od.rank[u] > od.rank[v] for u in od.nbrs_gt_rank(v))


class TestConstruction:
    def test_accepts_precomputed_decomposition(self, figure2):
        decomp = core_decomposition(figure2)
        od = order_vertices(figure2, decomp)
        assert od.decomposition is decomp

    def test_empty_graph(self, empty_graph):
        od = order_vertices(empty_graph)
        assert len(od.rank) == 0

    def test_arrays_read_only(self, figure2):
        od = order_vertices(figure2)
        with pytest.raises(ValueError):
            od.same[0] = 3

    def test_repr(self, figure2):
        assert "kmax=3" in repr(order_vertices(figure2))


def lexsort_ordering(graph, levels):
    """Algorithm 1 as a two-key lexsort over the arcs: the test's witness.

    Arcs are sorted by ``(row, rank of neighbour)`` and each tag is a
    masked per-row count, independently of the single-key sort and the
    binary searches the package uses.
    """
    n = graph.num_vertices
    order = np.argsort(levels, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)
    rows = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    perm = np.lexsort((rank[graph.indices], rows))
    indices = graph.indices[perm]
    nbr, own = levels[indices], levels[rows]

    def tag(mask):
        return np.bincount(rows[mask], minlength=n).astype(np.int64)

    return {
        "rank": rank,
        "indptr": graph.indptr,
        "indices": indices,
        "same": tag(nbr < own),
        "plus": tag(nbr <= own),
        "high": tag(rank[indices] < rank[rows]),
    }


def witness_params():
    """``pytest.mark.parametrize`` over the witness graphs."""
    graphs = [
        ("empty", Graph.empty(0)),
        ("isolated", Graph.empty(6)),
        ("star", Graph.from_edges([(0, i) for i in range(1, 9)])),
        ("clique", Graph.from_edges([(i, j) for i in range(7) for j in range(i + 1, 7)])),
        ("disconnected", Graph.from_edges([(0, 1), (1, 2), (0, 2), (4, 5), (5, 6)], num_vertices=9)),
        ("chung_lu", powerlaw_chung_lu(2000, 8.0, seed=3)),
        ("rmat", rmat_graph(10, 6000, seed=3)),
    ]
    return pytest.mark.parametrize(
        "graph", [g for _, g in graphs], ids=[name for name, _ in graphs]
    )


def assert_matches_witness(ordering, witness):
    for name, want in witness.items():
        got = getattr(ordering, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


class TestLexsortWitness:
    @witness_params()
    def test_order_vertices(self, graph):
        od = order_vertices(graph)
        assert_matches_witness(od, lexsort_ordering(graph, od.decomposition.coreness))

    @witness_params()
    def test_level_ordering(self, graph):
        # Arbitrary even levels (not a decomposition): ties, and empty odd levels.
        levels = 2 * np.random.default_rng(7).integers(0, 5, graph.num_vertices)
        assert_matches_witness(level_ordering(graph, levels), lexsort_ordering(graph, levels))

    @witness_params()
    def test_rank_forward_adjacency(self, graph):
        n = graph.num_vertices
        order_val = np.empty(n, dtype=np.int64)
        order_val[np.lexsort((np.arange(n), graph.degrees()))] = np.arange(n)
        src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
        keep = order_val[src] < order_val[graph.indices]
        src, dst = src[keep], graph.indices[keep]
        perm = np.lexsort((order_val[dst], src))
        want_ptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(want_ptr, src + 1, 1)
        got = rank_forward_adjacency(graph)
        for got_arr, want_arr in zip(got, (np.cumsum(want_ptr), dst[perm], order_val)):
            assert got_arr.dtype == want_arr.dtype
            assert np.array_equal(got_arr, want_arr)
