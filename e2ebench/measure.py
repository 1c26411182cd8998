"""The measuring process: a closed loop of ops with one client.

Run as ``python3 -m e2ebench.measure --workload W --workdir D --seconds S
--trace T --out F --spans P`` after ``run.py`` has prepared ``D``.  It opens the
workload's session, runs warm-up ops, then ops back to back until ``S``
seconds have passed, verifying every answer against the oracle outside
the op's timed interval.  It writes the metrics, the run's metadata and,
when traced, the spans.

Every op's wall time is scaled to the reference host speed by the
reference task timed around it, and the end-to-end statistics keep the
ops that ran in the run's fast phase (see ``e2ebench/calibration.py``);
the raw wall times and scale factors go into the result too.

Untraced (``--trace 0``) every op is timed with tracing off and the
end-to-end metrics come out.  Traced (``--trace 1``) ops alternate between
traced and untraced, so ``trace.overhead_ratio`` compares the two under
the same conditions, and the per-layer metrics come from the traced ones.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

import repro
from repro.bench.harness import execution_metadata
from repro.kernels.native_backend import native_runtime_metadata

from .calibration import HostSpeed, fast_phase
from .tracing import ROOT_SPAN, SpanRecorder, null_span, self_times, write_spans
from .workloads import WORKLOADS

__all__ = ["LAYERS", "fast_ops", "kind_mean", "kind_median", "measure", "tail"]

#: The layer spans a workload's op may open, each named after the module
#: whose public call it wraps.  ``<layer>_s`` is its per-op self time.
LAYERS = (
    "graph.io.load",
    "core.decomposition.decompose",
    "core.ordering.order",
    "engine.levels.level_totals",
    "index.score",
    "index.answer",
    "core.triangles.charges",
    "core.forest.build",
    "core.bestk_core.node_totals",
    "core.bestk_core.node_triangles",
    "core.bestk_core.score",
    "index.apply",
)

#: ``MaintainResult.path`` / ``ApplyResult.path`` -> per-layer counter.
_PLAN_METRICS = {"batched": "dynamic.plan_batched", "rebuild": "dynamic.plan_rebuild",
                 "incremental": "dynamic.plan_edge"}

#: Warm-up ops run (and verified) before the timed loop starts.
WARMUP_OPS = 2

#: The percentile ``latency_tail_s`` reports.  It is fixed, so a parent and
#: a change always compare the same tail whatever number of ops fits in a
#: run.  p75 lies well inside the slowest third of ``churn-cl``'s ops (its
#: delta sizes cycle through three classes), so a run's mix of classes
#: does not move it across a class boundary.  From 40 ops on at least 10
#: samples lie beyond it; the run prints how many.
TAIL_PERCENTILE = 75


def _by_kind(values: list[float], kinds: list[int]) -> list[list[float]]:
    by_kind: dict[int, list[float]] = {}
    for value, kind in zip(values, kinds):
        by_kind.setdefault(kind, []).append(value)
    return list(by_kind.values())


def tail(samples: list[float], kinds: list[int] | None = None) -> tuple[float, int]:
    """``(value, beyond)``: the ``TAIL_PERCENTILE``-th percentile and the samples above it.

    Each kind of op weighs alike, whatever its share of ``samples`` (see
    :func:`kind_median`); the percentile is the smallest sample at which
    the weighted share reaches it.
    """
    kinds = [0] * len(samples) if kinds is None else kinds
    counts = Counter(kinds)
    weights = [1 / counts[kind] for kind in kinds]
    value = float(np.percentile(samples, TAIL_PERCENTILE, weights=weights,
                                method="inverted_cdf"))
    return value, sum(1 for s in samples if s > value)


def kind_median(values: list[float], kinds: list[int]) -> float:
    """The mean over op kinds of each kind's median; the plain median for one kind.

    ``churn-cl`` cycles through six deltas, three sizes each applied forward
    and back, whose costs differ.  The median of the mix falls on the
    boundary between the two 1,000-edge deltas, so it moves with their
    shares of a run's ops, and the fast-phase ops of a run need not hold
    the six alike; the median of each kind does not move with them.
    """
    return statistics.fmean(statistics.median(v) for v in _by_kind(values, kinds))


def kind_mean(values: list[float], kinds: list[int]) -> float:
    """The mean over op kinds of each kind's mean."""
    return statistics.fmean(statistics.fmean(v) for v in _by_kind(values, kinds))


def fast_ops(scales: list[float], kinds: list[int]) -> list[bool]:
    """The fast-phase ops of each kind, so that no kind is left without ops."""
    keep = [False] * len(scales)
    for kind in set(kinds):
        ops = [i for i, k in enumerate(kinds) if k == kind]
        for i, fast in zip(ops, fast_phase([scales[i] for i in ops])):
            keep[i] = fast
    return keep


def _native_fallbacks(backend: str) -> int:
    """Kernels the native backend could not compile (0 for other backends)."""
    if backend != "native":
        return 0
    status = repro.get_backend("native").kernel_status()
    return sum(1 for s in status.values() if s["mode"] == "fallback")


def measure(workload, workdir: Path, seconds: float, trace: bool, *,
            max_ops: int | None = None) -> dict:
    """Run the closed loop; return ``metrics`` plus the raw facts behind them.

    ``max_ops`` caps the timed ops (the tests use it for a fixed amount of
    work); the loop otherwise stops at the first op boundary after
    ``seconds``.
    """
    session = workload.session(workdir)
    recorder = SpanRecorder()
    speed = HostSpeed()
    untraced, traced, ingest, query, wall, scales, kinds = [], [], [], [], [], [], []
    layer_rows: list[dict] = []
    paths: Counter = Counter()
    changed: list[int] = []
    attempted = failed = 0
    errors: list[str] = []

    def one(op: int, timed: bool, traced_op: bool) -> None:
        nonlocal attempted, failed
        attempted += 1
        span = recorder.span if traced_op else null_span
        recorder.op = op
        capture = getattr(session, "capture", None)
        if traced_op and capture is not None:
            capture()
        try:
            start = time.perf_counter()
            with span(ROOT_SPAN):
                got = session.ingest(span)
                mid = time.perf_counter()
                answer = session.query(got, span)
            end = time.perf_counter()
        except Exception:
            failed += 1
            if len(errors) < 5:
                errors.append(traceback.format_exc(limit=4))
            return
        scale = speed.scale()
        if not session.check(got, answer):
            failed += 1
            if len(errors) < 5:
                errors.append(f"op {op}: answer differs from the reference")
        facts = session.facts(got, answer)
        if timed and "path" in facts:
            paths[facts["path"]] += 1
            changed.append(facts["changed"])
        if not timed:
            return
        if traced_op:
            traced.append(scale * (end - start))
            row = {name: scale * s for name, s in self_times(recorder.op_spans(op)).items()}
            if capture is not None:
                row.update({name: scale * s for name, s in session.split().items()})
            row["facts"] = facts
            layer_rows.append(row)
        else:
            wall.append(end - start)
            scales.append(scale)
            kinds.append(facts.get("kind", 0))
            untraced.append(scale * (end - start))
            ingest.append(scale * (mid - start))
            query.append(scale * (end - mid))

    for op in range(WARMUP_OPS):
        one(-1 - op, False, False)
    loop_start = time.perf_counter()
    op = 0
    while time.perf_counter() - loop_start < seconds and (max_ops is None or op < max_ops):
        one(op, True, trace and op % 2 == 0)
        op += 1
    loop_seconds = time.perf_counter() - loop_start

    result = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "timed_ops": op,
        "loop_seconds": loop_seconds,
        "latencies_s": untraced,
        "wall_latencies_s": wall,
        "scales": scales,
        "kinds": kinds,
        "reference_task_s": speed.readings,
        "native_fallbacks": _native_fallbacks(workload.backend),
        "spans": recorder.spans,
    }
    if trace:
        result["metrics"] = _layer_metrics(layer_rows, traced, untraced, paths, changed,
                                           result["native_fallbacks"])
        result["traced_latencies_s"] = traced
    else:
        fast = fast_ops(scales, kinds)
        latency, ingest, query, kinds = ([x for x, keep in zip(xs, fast) if keep]
                                         for xs in (untraced, ingest, query, kinds))
        value, beyond = tail(latency, kinds)
        result["tail"] = {"percentile": TAIL_PERCENTILE, "samples": len(latency),
                          "beyond": beyond}
        result["fast_phase_ops"] = len(latency)
        result["metrics"] = {
            "latency_p50_s": (kind_median(latency, kinds), "s"),
            "latency_tail_s": (value, "s"),
            "ops_per_s": (1 / kind_mean(latency, kinds), "1/s"),
            "ingest_p50_s": (kind_median(ingest, kinds), "s"),
            "query_p50_s": (kind_median(query, kinds), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    return result


def _median(rows: list[dict], key) -> float:
    return statistics.median(key(row) for row in rows) if rows else 0.0


def _layer_metrics(rows, traced, untraced, paths, changed, fallbacks) -> dict:
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}_s"] = (_median(rows, lambda r: r.get(layer, 0.0)), "s")
    facts = rows[-1]["facts"] if rows else {}
    load_s = metrics["graph.io.load_s"][0]
    lines = facts.get("lines", 0)
    metrics["graph.io.edges_per_s"] = (lines / load_s if load_s else 0.0, "1/s")
    metrics["graph.io.dropped_ratio"] = (facts.get("dropped", 0) / lines if lines else 0.0,
                                         "ratio")
    for layer, name in (("core.ordering.order", "core.ordering.ns_per_arc"),
                        ("core.forest.build", "core.forest.ns_per_arc")):
        metrics[name] = (_median(rows, lambda r: 1e9 * r.get(layer, 0.0) / r["facts"]["arcs"]),
                         "ns")
    metrics["core.forest.nodes"] = (facts.get("forest_nodes", 0), "count")
    metrics["core.triangles.count"] = (facts.get("triangles", 0), "count")
    metrics["dynamic.snapshot_s"] = (_median(rows, lambda r: r.get("snapshot", 0.0)), "s")
    metrics["dynamic.maintain_s"] = (_median(rows, lambda r: r.get("maintain", 0.0)), "s")
    metrics["index.apply_other_s"] = (_median(rows, lambda r: r.get("index.apply", 0.0)
                                              - r.get("snapshot", 0.0) - r.get("maintain", 0.0)),
                                      "s")
    epochs = sum(paths.values())
    metrics["dynamic.changed_vertices"] = (statistics.fmean(changed) if changed else 0.0,
                                           "count")
    for path, name in _PLAN_METRICS.items():
        metrics[name] = (paths.get(path, 0), "count")
    metrics["dynamic.rebuild_ratio"] = (paths.get("rebuild", 0) / epochs if epochs else 0.0,
                                        "ratio")
    metrics["kernels.native_fallbacks"] = (fallbacks, "count")
    metrics["trace.unattributed_s"] = (_median(rows, lambda r: r[ROOT_SPAN]), "s")
    metrics["trace.attributed_frac"] = (
        _median(rows, lambda r: 1.0 - r[ROOT_SPAN] / sum(v for k, v in r.items()
                                                         if k in LAYERS or k == ROOT_SPAN)),
        "ratio")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced) if traced and untraced
        else 0.0, "ratio")
    return metrics


def _metadata(workload) -> dict:
    meta = execution_metadata(jobs=1, cache_state="off")
    meta.update(python=platform.python_version(), numpy=np.__version__,
                repro=repro.__file__, backend=workload.backend)
    if workload.backend == "native":
        meta["native"] = native_runtime_metadata(resolve=True)
    return meta


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--spans", required=True, type=Path,
                        help="where the traced run writes its spans")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]()
    result = measure(workload, args.workdir, args.seconds, bool(args.trace))
    spans = result.pop("spans")
    if args.trace:
        write_spans(spans, args.spans)
    result["metadata"] = _metadata(workload)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
