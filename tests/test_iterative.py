"""Tests for the iterative (h-index fixpoint) core-decomposition engine.

Coreness is the fixpoint of the h-index operator (Lü et al., Nature
Comm. 2016; Montresor et al., *Distributed k-Core Decomposition*), which
:mod:`repro.parallel.sharded` runs in memory and semi-externally over an
``.npy`` edge file.  Both must be bit-identical to Batagelj–Zaversnik
peeling.  ``tests/test_sharded.py`` covers the python and numpy kernels
across shard counts; here the in-memory engine runs on the native kernel.
"""

import numpy as np
import pytest

from repro.core import core_decomposition
from repro.kernels import get_backend
from repro.parallel.sharded import (
    semi_external_core_numbers,
    sharded_core_numbers,
    write_edge_npy,
)
from conftest import random_graph, zoo_params


def peel_coreness(graph) -> list[int]:
    return core_decomposition(graph, engine="peel").coreness.tolist()


class TestHIndexEngine:
    @zoo_params()
    def test_matches_bz(self, graph):
        got = sharded_core_numbers(graph, backend="native", shards=2).coreness
        assert got.tolist() == peel_coreness(graph)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_bz_random(self, seed):
        g = random_graph(40, 140, seed)
        got = sharded_core_numbers(g, backend="native", shards=2).coreness
        assert got.tolist() == peel_coreness(g)

    def test_monotone_upper_bound(self, figure2):
        # One round from the degrees: estimates are still upper bounds.
        degrees = np.array(figure2.degrees(), dtype=np.int64)
        verts = np.arange(figure2.num_vertices, dtype=np.int64)
        exact = core_decomposition(figure2, engine="peel").coreness
        for backend in ("python", "numpy", "native"):
            partial = get_backend(backend).hindex_fixpoint(figure2, degrees, verts)
            assert (partial >= exact).all() and (partial <= degrees).all()


class TestSemiExternalEngine:
    def test_matches_in_memory(self, figure2, tmp_path):
        path = write_edge_npy(figure2.edge_array(), tmp_path / "g.npy")
        result = semi_external_core_numbers(path, chunk_edges=8)
        assert result.coreness.tolist() == peel_coreness(figure2)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_graphs(self, seed, tmp_path):
        g = random_graph(35, 90, seed)
        path = write_edge_npy(g.edge_array(), tmp_path / "g.npy")
        result = semi_external_core_numbers(path, num_vertices=g.num_vertices)
        assert result.coreness.tolist() == peel_coreness(g)

    def test_reports_pass_count(self, figure2, tmp_path):
        path = write_edge_npy(figure2.edge_array(), tmp_path / "g.npy")
        result = semi_external_core_numbers(path)
        assert result.rounds >= 2  # at least one refinement + the quiet sweep
