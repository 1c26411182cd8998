"""The benchmark's workloads: seeded input files, the measured op, the oracle.

Each workload is a closed loop with one client.  :meth:`prepare` writes the
input files and the reference answers into a work directory, using only the
seed; the measuring process then opens a session over those files and runs
one op at a time.  An op is two steps, timed apart:

* ``ingest`` gets the data in: parse the file (``set-text-cl``), load the
  ``.npz`` (``core-npz-rmat``) or apply the next delta (``churn-cl``);
* ``query`` answers from what was ingested, calling the public layers of
  :class:`repro.BestKIndex` one by one in dependency order, so the span
  around each call is that layer's self time.

The reference answers come from a path independent of the measured one
(the paper's baseline, or the python kernel backend on a graph built
without the measured loader), computed in :meth:`prepare`, outside every
timed interval.  An answer is ``(k, score, sorted vertex ids)`` per query
and must match bit for bit.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

import repro
from repro.generators import powerlaw_chung_lu, rmat_graph
from repro.graph import load_npz, save_npz

__all__ = ["WORKLOADS", "ChurnCL", "CoreNpzRmat", "SetTextCL"]

#: The Problem 1 metric of ``set-text-cl`` and ``churn-cl`` (``bestk set``'s
#: default).
SET_METRIC = "average_degree"

#: Size and average degree of the Chung-Lu graph that ``set-text-cl``
#: parses and ``churn-cl`` mutates: both workloads run on the same graph.
CL_VERTICES = 30_000
AVG_DEGREE = 10.0

_GRAPH_FILE = "graph.txt"
_NPZ_FILE = "graph.npz"
_ORACLE_FILE = "oracle.npz"


def _index(graph, backend: str) -> repro.BestKIndex:
    """A fresh index as one ``bestk`` invocation builds it: no store, serial."""
    return repro.BestKIndex(graph, backend=backend, jobs=1, store=False)


def _answer(result) -> tuple[int, float, np.ndarray]:
    return int(result.k), float(result.score), np.asarray(result.vertices, dtype=np.int64)


def _save_oracle(workdir: Path, answers: list[tuple[int, float, np.ndarray]], **extra) -> None:
    arrays = {
        "k": np.array([a[0] for a in answers], dtype=np.int64),
        "score": np.array([a[1] for a in answers], dtype=np.float64),
    }
    for i, (_, _, vertices) in enumerate(answers):
        arrays[f"vertices_{i}"] = vertices
    np.savez(workdir / _ORACLE_FILE, **arrays, **extra)


def _load_oracle(workdir: Path) -> tuple[list[tuple[int, float, np.ndarray]], dict]:
    with np.load(workdir / _ORACLE_FILE, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    answers = [
        (int(k), float(score), arrays.pop(f"vertices_{i}"))
        for i, (k, score) in enumerate(zip(arrays.pop("k"), arrays.pop("score")))
    ]
    return answers, arrays


def _same(got, want) -> bool:
    return (
        len(got) == len(want)
        and all(
            g[0] == w[0] and g[1] == w[1] and np.array_equal(g[2], w[2])
            for g, w in zip(got, want)
        )
    )


def _shape(graph, kmax: int, forest_nodes: int) -> dict:
    return {
        "n": int(graph.num_vertices),
        "m": int(graph.num_edges),
        "kmax": int(kmax),
        "forest_nodes": int(forest_nodes),
        "digest": graph.content_digest(),
    }


def _core_shape(graph) -> dict:
    decomposition = repro.core_decomposition(graph, backend="numpy")
    forest = repro.build_core_forest(graph, decomposition)
    return _shape(graph, decomposition.kmax, len(forest.nodes))


def _problem1_query(index: repro.BestKIndex, span) -> tuple[int, float, np.ndarray]:
    """``bestk set``'s path through the index, one span per layer call."""
    with span("core.decomposition.decompose"):
        index.artifact("core", "decompose")
    with span("core.ordering.order"):
        index.ordered
    with span("engine.levels.level_totals"):
        index.artifact("core", "level_totals")
    with span("index.score"):
        index.level_scores("core", SET_METRIC)
    with span("index.answer"):
        best = index.best_set(SET_METRIC)
    return _answer(best)


class SetTextCL:
    """Problem 1 on a text edge list, as ``bestk set g.txt`` runs it."""

    name = "set-text-cl"
    backend = "numpy"

    def __init__(self, num_vertices: int = CL_VERTICES):
        self.num_vertices = num_vertices

    def prepare(self, seed: int, workdir: Path) -> dict:
        graph = powerlaw_chung_lu(self.num_vertices, AVG_DEGREE, seed=seed)
        edges = graph.edge_array()
        rng = np.random.default_rng([seed, 1])
        # SNAP dumps are dirty: some edges appear in both directions and a
        # few vertices carry self loops.  The loader drops both.
        dups = edges[rng.choice(len(edges), len(edges) // 100, replace=False)][:, ::-1]
        present = np.flatnonzero(graph.degrees() > 0)
        loops = np.repeat(rng.choice(present, len(edges) // 1000)[:, None], 2, axis=1)
        lines = np.concatenate([edges, dups, loops])
        lines = lines[rng.permutation(len(lines))]
        flip = rng.random(len(lines)) < 0.5
        lines[flip] = lines[flip][:, ::-1]
        path = workdir / _GRAPH_FILE
        with open(path, "w", encoding="ascii") as handle:
            handle.write(f"# {self.name} seed={seed}\n")
            np.savetxt(handle, lines, fmt="%d %d")
        # The paper's Section III.A baseline, on the generated graph itself:
        # neither the text loader nor the index is on this path.
        reference = repro.best_kcore_set(graph, SET_METRIC, use_baseline=True)
        _save_oracle(workdir, [_answer(reference)])
        return {**_core_shape(graph), "file_bytes": path.stat().st_size,
                "lines": int(len(lines))}

    def session(self, workdir: Path) -> "_SetSession":
        return _SetSession(self, workdir)


class _SetSession:
    def __init__(self, workload: SetTextCL, workdir: Path):
        self.backend = workload.backend
        self.path = workdir / _GRAPH_FILE
        self.oracle, _ = _load_oracle(workdir)

    def ingest(self, span):
        with span("graph.io.load"):
            return repro.load_edge_list(self.path)

    def query(self, loaded, span):
        index = _index(loaded.graph, self.backend)
        return [_problem1_query(index, span)]

    def check(self, loaded, answer) -> bool:
        # The answer is in dense ids; the oracle is in the file's labels.
        labels = np.asarray(loaded.labels, dtype=np.int64)
        return _same([(k, s, np.sort(labels[v])) for k, s, v in answer], self.oracle)

    def facts(self, loaded, answer) -> dict:
        dropped = loaded.num_self_loops_dropped + loaded.num_duplicates_dropped
        return {"arcs": len(loaded.graph.indices), "dropped": dropped,
                "lines": loaded.graph.num_edges + dropped}


class CoreNpzRmat:
    """Problem 2 over all six paper metrics, as ``bestk core --all-metrics``."""

    name = "core-npz-rmat"
    backend = "native"

    def __init__(self, scale: int = 14, num_edges: int = 250_000):
        self.scale = scale
        self.num_edges = num_edges

    def prepare(self, seed: int, workdir: Path) -> dict:
        graph = rmat_graph(self.scale, self.num_edges, seed=seed)
        save_npz(graph, workdir / _NPZ_FILE)
        # The python kernel backend on the generated graph: an independent
        # implementation of every kernel the native backend compiles.
        reference = _index(graph, "python")
        _save_oracle(workdir, [_answer(reference.best_core(m)) for m in repro.PAPER_METRICS])
        return {**_shape(graph, reference.decomposition.kmax, len(reference.forest.nodes)),
                "file_bytes": (workdir / _NPZ_FILE).stat().st_size}

    def session(self, workdir: Path) -> "_CoreSession":
        return _CoreSession(self, workdir)


class _CoreSession:
    def __init__(self, workload: CoreNpzRmat, workdir: Path):
        self.backend = workload.backend
        self.path = workdir / _NPZ_FILE
        self.oracle, _ = _load_oracle(workdir)
        self.index = None

    def ingest(self, span):
        with span("graph.io.load"):
            return load_npz(self.path)

    def query(self, graph, span):
        index = self.index = _index(graph, self.backend)
        with span("core.decomposition.decompose"):
            index.artifact("core", "decompose")
        with span("core.ordering.order"):
            index.ordered
        with span("core.triangles.charges"):
            index.triangle_charges
        with span("core.forest.build"):
            index.forest
        with span("core.bestk_core.node_totals"):
            index.artifact("core", "node_totals")
        with span("core.bestk_core.node_triangles"):
            index.artifact("core", "node_triangles")
        answer = []
        for metric in repro.PAPER_METRICS:
            with span("core.bestk_core.score"):
                index.core_scores(metric)
            with span("index.answer"):
                answer.append(_answer(index.best_core(metric)))
        return answer

    def check(self, graph, answer) -> bool:
        return _same(answer, self.oracle)

    def facts(self, graph, answer) -> dict:
        return {"arcs": len(graph.indices), "dropped": 0, "lines": graph.num_edges,
                "forest_nodes": len(self.index.forest.nodes),
                "triangles": int(self.index.triangle_charges.sum())}


class ChurnCL:
    """Delta epochs on a versioned graph: ``apply`` then ``best_set``."""

    name = "churn-cl"
    backend = "native"

    def __init__(self, num_vertices: int = CL_VERTICES,
                 sizes: tuple[int, ...] = (100, 1_000, 10_000)):
        self.num_vertices = num_vertices
        self.sizes = sizes

    def _deltas(self, graph, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Half inserts of absent edges, half deletes of present ones.

        The first ``len(sizes)`` deltas touch pairwise disjoint edges, so
        their inverses, applied next in the same order, are valid too and
        bring the graph back to the start: the stream cycles through
        ``2 * len(sizes)`` snapshots.  Insert endpoints are drawn by degree,
        as in the Chung-Lu model the graph comes from.
        """
        rng = np.random.default_rng([seed, 2])
        n = graph.num_vertices
        edges = graph.edge_array()
        keys = edges[:, 0] * n + edges[:, 1]
        halves = [size // 2 for size in self.sizes]
        total = sum(halves)
        deletes = edges[rng.choice(len(edges), total, replace=False)]
        weights = graph.degrees() / graph.degrees().sum()
        inserts = np.empty((0, 2), dtype=np.int64)
        while len(inserts) < total:
            u, v = rng.choice(n, (2, 2 * total), p=weights)
            pairs = np.column_stack([np.minimum(u, v), np.maximum(u, v)])
            pairs = pairs[pairs[:, 0] != pairs[:, 1]]
            pair_keys = pairs[:, 0] * n + pairs[:, 1]
            taken = np.concatenate([keys, inserts[:, 0] * n + inserts[:, 1]])
            pairs = pairs[~np.isin(pair_keys, taken)]
            _, first = np.unique(pairs[:, 0] * n + pairs[:, 1], return_index=True)
            inserts = np.concatenate([inserts, pairs[np.sort(first)]])[:total]
        bounds = np.cumsum([0, *halves])
        forward = [(inserts[a:b], deletes[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
        return forward + [(dele, ins) for ins, dele in forward]

    def prepare(self, seed: int, workdir: Path) -> dict:
        graph = powerlaw_chung_lu(self.num_vertices, AVG_DEGREE, seed=seed)
        save_npz(graph, workdir / _NPZ_FILE)
        deltas = self._deltas(graph, seed)
        n = graph.num_vertices
        edges = graph.edge_array()
        keys = np.sort(edges[:, 0] * n + edges[:, 1])
        answers, extra = [], {}
        for i, (ins, dele) in enumerate(deltas):
            keys = np.union1d(np.setdiff1d(keys, dele[:, 0] * n + dele[:, 1]),
                              ins[:, 0] * n + ins[:, 1])
            # Each epoch's snapshot is rebuilt from its edge set, not through
            # VersionedGraph.apply, and scored by a cold python-backend index.
            snapshot = repro.Graph.from_edges(np.column_stack([keys // n, keys % n]),
                                              num_vertices=n)
            answers.append(_answer(_index(snapshot, "python").best_set(SET_METRIC)))
            extra[f"insert_{i}"], extra[f"delete_{i}"] = ins, dele
        _save_oracle(workdir, answers, **extra)
        return {**_core_shape(graph), "file_bytes": (workdir / _NPZ_FILE).stat().st_size,
                "delta_sizes": [len(i) + len(d) for i, d in deltas]}

    def session(self, workdir: Path) -> "_ChurnSession":
        return _ChurnSession(self, workdir)


class _ChurnSession:
    def __init__(self, workload: ChurnCL, workdir: Path):
        self.backend = workload.backend
        self.oracle, extra = _load_oracle(workdir)
        self.deltas = [
            repro.GraphDelta.from_edges(insert=extra[f"insert_{i}"], delete=extra[f"delete_{i}"])
            for i in range(len(self.oracle))
        ]
        graph = load_npz(workdir / _NPZ_FILE)
        self.index = _index(repro.VersionedGraph(graph), self.backend)
        # The baseline coreness every later apply repairs.
        self.index.best_set(SET_METRIC)
        self.epoch = 0
        self._before = None

    def _position(self) -> int:
        return (self.epoch - 1) % len(self.deltas)

    def ingest(self, span):
        delta = self.deltas[self.epoch % len(self.deltas)]
        self.epoch += 1
        with span("index.apply"):
            return self.index.apply(delta)

    def query(self, applied, span):
        return [_problem1_query(self.index, span)]

    def check(self, applied, answer) -> bool:
        return _same(answer, [self.oracle[self._position()]])

    def facts(self, applied, answer) -> dict:
        return {"arcs": len(applied.graph.indices), "dropped": 0,
                "lines": applied.graph.num_edges, "path": applied.path,
                "changed": applied.changed, "kind": self._position()}

    def capture(self) -> None:
        """Remember the pre-apply snapshot and coreness for :meth:`split`."""
        self._before = (self.index.versioned, self.index.decomposition.coreness,
                        self.deltas[self.epoch % len(self.deltas)])

    def split(self) -> dict[str, float]:
        """Re-run the two public steps of the last apply, outside its span.

        ``VersionedGraph.apply`` builds the next snapshot and
        ``incremental_core_numbers`` repairs the coreness; timing them again
        on the same inputs splits ``index.apply`` without tracing inside it.
        """
        versioned, coreness, delta = self._before
        start = time.perf_counter()
        following = versioned.apply(delta)
        snapshot = time.perf_counter() - start
        start = time.perf_counter()
        repro.incremental_core_numbers(versioned.graph, coreness, following.applied,
                                       new_graph=following.graph, backend=self.backend)
        return {"snapshot": snapshot, "maintain": time.perf_counter() - start}


WORKLOADS = {w.name: w for w in (SetTextCL, CoreNpzRmat, ChurnCL)}
