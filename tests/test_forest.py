"""Tests for the level forest (Algorithm 4 LCPS + union-find cross-check)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import build_core_forest, core_decomposition
from repro.core.naive import all_kcores_naive, coreness_naive
from repro.engine import build_level_forest, build_level_forest_union_find, get_family
from repro.graph import Graph
from conftest import random_graph, zoo_params

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def union_find_core_forest(graph):
    return build_level_forest_union_find(graph, core_decomposition(graph).coreness)


def canonical(forest):
    """Order-independent forest signature: (k, shell vertices, parent shell)."""
    out = []
    for node in forest.nodes:
        parent = forest.nodes[node.parent] if node.parent != -1 else None
        out.append((
            node.k,
            tuple(node.vertices.tolist()),
            None if parent is None else (parent.k, tuple(parent.vertices.tolist())),
        ))
    return sorted(out)


class TestAgainstEachOther:
    @zoo_params()
    def test_lcps_equals_union_find(self, graph):
        assert canonical(build_core_forest(graph)) == canonical(
            union_find_core_forest(graph)
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_lcps_equals_union_find_random(self, seed):
        g = random_graph(30 + 5 * seed, 70 + 15 * seed, seed)
        assert canonical(build_core_forest(g)) == canonical(
            union_find_core_forest(g)
        )


@st.composite
def small_graphs(draw, max_vertices=16, max_edges=40):
    """A random simple graph: possibly empty, disconnected or edgeless."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    if n < 2:
        return Graph.empty(n)
    vertex = st.integers(min_value=0, max_value=n - 1)
    raw = draw(st.lists(st.tuples(vertex, vertex), max_size=max_edges))
    edges = sorted({(min(u, v), max(u, v)) for u, v in raw if u != v})
    return Graph.from_edges(edges, num_vertices=n)


@st.composite
def graphs_with_levels(draw):
    """A random graph with an arbitrary non-negative level per vertex.

    Unlike coreness, such levels leave vertices with no neighbour at their
    own level, isolated vertices at any level, and skipped levels.
    """
    graph = draw(small_graphs())
    n = graph.num_vertices
    levels = draw(st.lists(st.integers(min_value=0, max_value=5), min_size=n, max_size=n))
    return graph, np.asarray(levels, dtype=np.int64)


class TestLevelForestWitness:
    """LCPS against the union-find reference on levels other than coreness."""

    @SETTINGS
    @given(graphs_with_levels())
    def test_lcps_equals_union_find_arbitrary_levels(self, case):
        graph, levels = case
        assert canonical(build_level_forest(graph, levels)) == canonical(
            build_level_forest_union_find(graph, levels)
        )

    @pytest.mark.parametrize("family", ("truss", "weighted", "ecc"))
    @SETTINGS
    @given(graph=small_graphs(), seed=st.integers(min_value=0, max_value=2**16))
    def test_lcps_equals_union_find_family_levels(self, family, graph, seed):
        fam = get_family(family)
        params = {}
        if family == "weighted":
            weights = np.random.default_rng(seed).lognormal(sigma=0.7, size=graph.num_edges)
            params = {"edge_weights": weights, "num_levels": 8}
        levels = fam.levels(fam.decompose(graph, **params), **params)
        assert canonical(build_level_forest(graph, levels)) == canonical(
            build_level_forest_union_find(graph, levels)
        )

    @pytest.mark.parametrize("builder", (build_level_forest, build_level_forest_union_find))
    def test_level_array_is_checked(self, builder, figure2):
        with pytest.raises(ValueError):
            builder(figure2, np.zeros(figure2.num_vertices - 1, dtype=np.int64))
        with pytest.raises(ValueError):
            builder(figure2, np.full(figure2.num_vertices, -1))


class TestStructuralInvariants:
    def test_figure2_forest_shape(self, figure2):
        forest = build_core_forest(figure2)
        assert forest.num_nodes == 3
        ks = sorted(node.k for node in forest.nodes)
        assert ks == [2, 3, 3]
        root = [n for n in forest.nodes if n.parent == -1]
        assert len(root) == 1 and root[0].k == 2
        assert len(root[0].children) == 2

    @zoo_params()
    def test_nodes_partition_vertices(self, graph):
        forest = build_core_forest(graph)
        seen = np.concatenate([n.vertices for n in forest.nodes]) if forest.num_nodes else np.empty(0)
        assert sorted(seen.tolist()) == list(range(graph.num_vertices))

    @zoo_params()
    def test_node_vertices_have_node_coreness(self, graph):
        decomp = core_decomposition(graph)
        forest = build_core_forest(graph, decomp)
        for node in forest.nodes:
            assert (decomp.coreness[node.vertices] == node.k).all()

    @zoo_params()
    def test_children_strictly_deeper_and_lower_ids(self, graph):
        forest = build_core_forest(graph)
        for node in forest.nodes:
            for child in node.children:
                assert forest.nodes[child].k > node.k
                assert child < node.node_id
                assert forest.nodes[child].parent == node.node_id

    @zoo_params()
    def test_nodes_sorted_descending_k(self, graph):
        forest = build_core_forest(graph)
        ks = [node.k for node in forest.nodes]
        assert ks == sorted(ks, reverse=True)

    @zoo_params()
    def test_cores_match_naive_enumeration(self, graph):
        forest = build_core_forest(graph)
        key = lambda pair: (pair[0], sorted(pair[1]))
        reconstructed = sorted(
            (
                (node.k, frozenset(forest.core_vertices(node.node_id).tolist()))
                for node in forest.nodes
            ),
            key=key,
        )
        # The naive enumeration lists every (k, core); the forest stores one
        # node per core *with at least one coreness-k vertex* — project the
        # naive list accordingly.
        coreness = coreness_naive(graph)
        naive = sorted(
            (
                (k, core) for k, core in all_kcores_naive(graph)
                if any(coreness[v] == k for v in core)
            ),
            key=key,
        )
        assert reconstructed == naive

    def test_roots_one_per_component_with_edges(self, two_components):
        forest = build_core_forest(two_components)
        # triangle component, path component, and the isolated vertex
        assert len(forest.roots) == 3


class TestQueries:
    def test_node_of_vertex(self, figure2):
        forest = build_core_forest(figure2)
        for node in forest.nodes:
            for v in node.vertices:
                assert forest.node_of_vertex(int(v)) == node.node_id

    def test_core_containing_exact_level(self, figure2):
        forest = build_core_forest(figure2)
        node_id = forest.core_containing(0, 3)
        assert forest.nodes[node_id].k == 3
        assert set(forest.core_vertices(node_id).tolist()) == {0, 1, 2, 3}

    def test_core_containing_skipped_level(self, figure2):
        # No 1-core node exists; the 1-core coincides with the 2-core root.
        forest = build_core_forest(figure2)
        node_id = forest.core_containing(0, 1)
        assert forest.nodes[node_id].k == 2
        assert len(forest.core_vertices(node_id)) == 12

    def test_core_containing_rejects_high_k(self, figure2):
        forest = build_core_forest(figure2)
        with pytest.raises(ValueError):
            forest.core_containing(4, 3)  # v5 has coreness 2

    def test_empty_graph(self, empty_graph):
        forest = build_core_forest(empty_graph)
        assert forest.num_nodes == 0
        assert forest.roots == ()

    def test_isolated_vertices_become_zero_nodes(self, isolated_vertices):
        forest = build_core_forest(isolated_vertices)
        assert forest.num_nodes == 5
        assert all(node.k == 0 for node in forest.nodes)

    def test_repr(self, figure2):
        forest = build_core_forest(figure2)
        assert "nodes=3" in repr(forest)
