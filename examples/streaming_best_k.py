"""Scenario: track the best k while a graph evolves.

Real monitored networks gain and lose edges continuously.  This example
drives one :class:`repro.BestKIndex` through a stream of edge deltas:

* each round's inserts and deletes form one :class:`repro.GraphDelta`;
* ``index.apply(delta)`` moves the index to the next epoch snapshot and
  repairs every vertex's coreness inside the touched subcores (or
  re-peels when the cost model says that is cheaper) instead of
  recomputing the decomposition from scratch;
* the best-k queries after each apply are answered from the repaired
  decomposition.

A social network grows by random attachment, with occasional edge
churn; we report how the best k under two metrics drifts.

Run:  python examples/streaming_best_k.py
"""

import numpy as np

from repro import BestKIndex, GraphDelta
from repro.core import core_decomposition
from repro.generators import powerlaw_chung_lu


def main() -> None:
    base = powerlaw_chung_lu(5000, 6.0, seed=51)
    index = BestKIndex(base, store=False)
    rng = np.random.default_rng(51)
    print(f"start: n={base.num_vertices} m={base.num_edges} kmax={index.decomposition.kmax}")

    checkpoints = 6
    updates_per_round = 25
    last_kmax = index.decomposition.kmax
    for round_no in range(1, checkpoints + 1):
        graph = index.graph
        present = set(map(tuple, graph.edge_array().tolist()))
        inserts: set[tuple[int, int]] = set()
        deletes: set[tuple[int, int]] = set()
        while len(inserts) + len(deletes) < updates_per_round:
            u, v = sorted(int(x) for x in rng.integers(0, graph.num_vertices, 2))
            if u == v or (u, v) in inserts or (u, v) in deletes:
                continue
            if rng.random() < 0.25:
                # Churn: drop a random existing edge at u.
                nbrs = graph.neighbors(u)
                if len(nbrs) == 0:
                    continue
                edge = tuple(sorted((u, int(nbrs[rng.integers(0, len(nbrs))]))))
                if edge not in inserts:
                    deletes.add(edge)
            elif (u, v) not in present:
                # Growth: a random new edge.
                inserts.add((u, v))

        result = index.apply(GraphDelta.from_edges(sorted(inserts), sorted(deletes)))
        kmax = index.decomposition.kmax
        ad = index.best_set("average_degree")
        mod = index.best_set("modularity")
        drift = "(kmax changed)" if kmax != last_kmax else ""
        last_kmax = kmax
        print(
            f"round {round_no}: +{result.inserted}/-{result.deleted} edges, "
            f"m={result.graph.num_edges}, kmax={kmax} {drift}\n"
            f"    maintenance path={result.path}, {result.changed} core numbers changed\n"
            f"    best k (avg degree) = {ad.k:3d}  score {ad.score:7.3f}   "
            f"best k (modularity) = {mod.k:3d}  score {mod.score:.4f}"
        )

    print("\nThe maintained coreness equals a fresh decomposition at any point:")
    fresh = core_decomposition(index.graph).coreness
    print(f"  exact match: {bool((index.decomposition.coreness == fresh).all())}")


if __name__ == "__main__":
    main()
