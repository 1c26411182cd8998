"""R-MAT recursive-matrix graph generator.

R-MAT (Chakrabarti et al., SDM 2004) drops each edge into a 2^scale ×
2^scale adjacency matrix by recursively descending into one of four
quadrants with probabilities ``(a, b, c, d)``.  With the classic skewed
parameters it yields heavy-tailed, community-ish graphs resembling internet
topologies — our stand-in for As-Skitter.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import Graph, graph_from_edge_keys

__all__ = ["rmat_graph"]


def rmat_graph(
    scale: int,
    num_edges: int,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
) -> Graph:
    """Generate an undirected R-MAT graph with ``2**scale`` vertex slots.

    Parameters follow the Graph500 convention (``d = 1 - a - b - c``).
    Self loops and duplicates from the recursive process are dropped, so the
    resulting edge count is slightly below ``num_edges``; isolated slots are
    kept (they have coreness 0, which the decomposition handles).
    """
    if not 0 < a < 1 or b < 0 or c < 0 or a + b + c >= 1:
        raise ValueError("quadrant probabilities must be positive and sum below 1")
    rng = np.random.default_rng(seed)
    n = 1 << scale
    m = int(num_edges)

    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for _ in range(scale):
        r = rng.random(m)
        # Quadrant choice: row bit set for quadrants c/d, column bit for b/d.
        row_bit = r >= a + b
        col_bit = (r >= a) & (r < a + b) | (r >= a + b + c)
        src = (src << 1) | row_bit
        dst = (dst << 1) | col_bit

    keep = src != dst
    lo = np.minimum(src[keep], dst[keep])
    hi = np.maximum(src[keep], dst[keep])
    graph, _ = graph_from_edge_keys(lo * np.int64(n) + hi, n)
    return graph
