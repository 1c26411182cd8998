"""Classic random-graph generators.

These provide the structural raw material for the dataset stand-ins: uniform
(Erdős–Rényi) graphs as a null model, preferential attachment for heavy
tails, and Chung–Lu sampling for arbitrary power-law degree profiles.  All
generators are deterministic given a seed, return a clean
:class:`~repro.graph.csr.Graph`, and never produce self loops or duplicate
edges.
"""

from __future__ import annotations

import numpy as np

from ..graph.builder import GraphBuilder
from ..graph.csr import Graph, graph_from_edge_keys

__all__ = [
    "gnm_random_graph",
    "barabasi_albert",
    "chung_lu",
    "powerlaw_chung_lu",
    "powerlaw_degree_sequence",
]


def gnm_random_graph(num_vertices: int, num_edges: int, *, seed: int = 0) -> Graph:
    """Uniform G(n, m): ``num_edges`` distinct edges sampled uniformly.

    Rejection-samples in vectorised batches; the requested edge count is
    clipped to ``C(n, 2)``.
    """
    rng = np.random.default_rng(seed)
    n = int(num_vertices)
    max_edges = n * (n - 1) // 2
    target = min(int(num_edges), max_edges)
    chosen: set[int] = set()
    while len(chosen) < target:
        batch = max(1024, 2 * (target - len(chosen)))
        u = rng.integers(0, n, batch, dtype=np.int64)
        v = rng.integers(0, n, batch, dtype=np.int64)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        keys = lo * np.int64(n) + hi
        keys = keys[lo != hi]
        for key in keys:
            chosen.add(int(key))
            if len(chosen) == target:
                break
    graph, _ = graph_from_edge_keys(np.fromiter(chosen, dtype=np.int64, count=len(chosen)), n)
    return graph


def barabasi_albert(num_vertices: int, attach: int, *, seed: int = 0) -> Graph:
    """Barabási–Albert preferential attachment.

    Each new vertex attaches to ``attach`` existing vertices chosen
    proportionally to degree (the repeated-endpoints trick), starting from a
    clique of ``attach + 1`` seed vertices.  Produces a heavy-tailed degree
    distribution with a dense, high-coreness centre — the regime where the
    paper's big-k metrics behave as in its social-network datasets.
    """
    rng = np.random.default_rng(seed)
    n = int(num_vertices)
    attach = int(attach)
    if attach < 1:
        raise ValueError("attach must be >= 1")
    if n < attach + 1:
        raise ValueError("need at least attach + 1 vertices")
    builder = GraphBuilder()
    # Seed clique keeps the early attachment pool non-degenerate.
    targets_pool: list[int] = []
    for u in range(attach + 1):
        builder.add_vertex(u)
        for v in range(u + 1, attach + 1):
            builder.add_edge(u, v)
            targets_pool.extend((u, v))
    for v in range(attach + 1, n):
        picked: set[int] = set()
        while len(picked) < attach:
            idx = int(rng.integers(0, len(targets_pool)))
            picked.add(targets_pool[idx])
        for u in picked:
            builder.add_edge(v, u)
            targets_pool.extend((v, u))
    return builder.build()


def powerlaw_degree_sequence(
    num_vertices: int, exponent: float, *, min_degree: int = 1,
    max_degree: int | None = None, seed: int = 0,
) -> np.ndarray:
    """Sample a power-law degree sequence ``P(d) ~ d^-exponent``.

    The max degree defaults to ``sqrt(n * min_degree)``, the natural cutoff
    that keeps Chung–Lu sampling simple (no expected multi-edges).
    """
    rng = np.random.default_rng(seed)
    n = int(num_vertices)
    if max_degree is None:
        max_degree = max(min_degree + 1, int(np.sqrt(n * min_degree)) + 1)
    # Inverse-CDF sampling of the (continuous) Pareto, then floor.
    u = rng.random(n)
    lo, hi = float(min_degree), float(max_degree)
    a = exponent - 1.0
    raw = lo * (1.0 - u * (1.0 - (lo / hi) ** a)) ** (-1.0 / a)
    return np.minimum(np.floor(raw), max_degree).astype(np.int64)


def chung_lu(weights: np.ndarray, *, seed: int = 0) -> Graph:
    """Chung–Lu model: edge ``(u, v)`` sampled with probability ``w_u w_v / W``.

    Implemented by drawing ``W / 2`` candidate edges with endpoints picked
    proportionally to weight and deduplicating — the expected degree of
    ``v`` stays proportional to ``w_v`` while the graph remains simple.
    """
    rng = np.random.default_rng(seed)
    weights = np.asarray(weights, dtype=np.float64)
    n = len(weights)
    total = weights.sum()
    if total <= 0:
        return Graph.empty(n)
    probs = weights / total
    target_edges = int(total / 2)
    u = rng.choice(n, size=target_edges, p=probs)
    v = rng.choice(n, size=target_edges, p=probs)
    keep = u != v
    lo = np.minimum(u[keep], v[keep]).astype(np.int64)
    hi = np.maximum(u[keep], v[keep]).astype(np.int64)
    graph, _ = graph_from_edge_keys(lo * np.int64(n) + hi, n)
    return graph


def powerlaw_chung_lu(
    num_vertices: int, avg_degree: float, exponent: float = 2.5, *, seed: int = 0
) -> Graph:
    """A power-law graph with a target average degree.

    Convenience wrapper: sample a power-law sequence, rescale it to the
    requested mean, and run Chung–Lu.  This is the stand-in recipe for the
    paper's scale-free web/social graphs.
    """
    degrees = powerlaw_degree_sequence(num_vertices, exponent, seed=seed).astype(np.float64)
    degrees *= avg_degree / degrees.mean()
    return chung_lu(degrees, seed=seed + 1)
