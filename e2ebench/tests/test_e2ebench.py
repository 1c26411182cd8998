"""Self-tests of the benchmark at a tiny scale.

Run from the root of the checkout with ``python3 -m pytest e2ebench/tests``.
They check that the measurement can see a 2x slowdown in one layer and
only there, that a wrong or failing answer is counted, and that the
benchmark refuses to run without the package source.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import repro  # noqa: E402
from e2ebench import calibration  # noqa: E402
from e2ebench.calibration import fast_phase  # noqa: E402
from e2ebench.measure import LAYERS, fast_ops, kind_mean, kind_median, measure, tail  # noqa: E402
from e2ebench.tracing import self_times  # noqa: E402
from e2ebench.workloads import ChurnCL, CoreNpzRmat, SetTextCL  # noqa: E402

TINY = {
    "set-text-cl": SetTextCL(num_vertices=5_000),
    "core-npz-rmat": CoreNpzRmat(scale=11, num_edges=30_000),
    "churn-cl": ChurnCL(num_vertices=3_000, sizes=(10, 100, 1_000)),
}


@pytest.fixture(scope="module")
def prepared(tmp_path_factory) -> dict[str, Path]:
    os.environ.setdefault("REPRO_NATIVE_CACHE", str(ROOT / ".bench_build" / "e2ebench" / "native-jit"))
    dirs = {}
    for name, workload in TINY.items():
        dirs[name] = tmp_path_factory.mktemp(name)
        workload.prepare(7, dirs[name])
    return dirs


def _run(name: str, workdir: Path, ops: int = 20) -> dict:
    return measure(TINY[name], workdir, seconds=120, trace=True, max_ops=ops)


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_op_is_verified_and_attributed(prepared, name):
    result = _run(name, prepared[name], ops=6)
    assert result["errors"] == []
    assert (result["attempted"], result["failed"]) == (8, 0)
    assert result["metrics"]["trace.attributed_frac"][0] >= 0.95


def test_untraced_run_reports_every_end_to_end_metric(prepared):
    result = measure(TINY["churn-cl"], prepared["churn-cl"], seconds=120, trace=False, max_ops=12)
    assert result["failed"] == 0
    assert set(result["metrics"]) == {"latency_p50_s", "latency_tail_s", "ops_per_s",
                                      "ingest_p50_s", "query_p50_s", "peak_rss_mb"}
    assert all(value > 0 for value, _ in result["metrics"].values())
    # Twelve ops cover the six deltas twice; a kind is a delta of the cycle.
    assert sorted(result["kinds"]) == sorted(list(range(6)) * 2)
    fast = fast_ops(result["scales"], result["kinds"])
    kept = [x for x, keep in zip(result["latencies_s"], fast) if keep]
    kinds = [k for k, keep in zip(result["kinds"], fast) if keep]
    assert 6 <= len(kept) == result["fast_phase_ops"] <= 12
    assert set(kinds) == set(range(6))
    assert result["tail"] == {"percentile": 75, "samples": len(kept),
                              "beyond": tail(kept, kinds)[1]}
    assert result["metrics"]["latency_p50_s"][0] == kind_median(kept, kinds)
    assert result["metrics"]["ops_per_s"][0] == pytest.approx(1 / kind_mean(kept, kinds))


def test_fast_phase_ops_are_chosen_within_each_kind():
    # Kind 1 only ran in a slow phase; it keeps its fastest op.
    assert fast_ops([1.0, 0.45, 0.6, 0.9], [0, 1, 1, 0]) == [True, False, True, True]


def test_each_kind_of_op_weighs_alike():
    assert kind_median([1.0, 2.0, 9.0], [0, 0, 0]) == 2.0
    assert kind_median([1.0, 3.0, 10.0, 10.0, 20.0], [0, 0, 1, 1, 1]) == pytest.approx(6.0)
    assert kind_mean([1.0, 3.0, 10.0, 10.0, 40.0], [0, 0, 1, 1, 1]) == pytest.approx(11.0)
    # Three fast ops of one kind and one slow op of another: p75 is the slow one.
    assert tail([1.0, 1.0, 1.0, 5.0], [0, 0, 0, 1]) == (5.0, 0)


def test_tail_is_a_fixed_percentile_with_its_samples_beyond():
    assert tail([float(i) for i in range(11)]) == (8.0, 2)
    assert tail([float(i) for i in range(40)]) == (29.0, 10)


def test_host_speed_scales_by_the_readings_around_each_interval(monkeypatch):
    readings = iter([1.0, 0.04, 0.08, 0.02])
    monkeypatch.setattr(calibration, "reference_task", lambda: next(readings))
    speed = calibration.HostSpeed()
    assert speed.scale() == pytest.approx(2 * calibration.REFERENCE_S / 0.12)
    assert speed.scale() == pytest.approx(2 * calibration.REFERENCE_S / 0.10)
    assert speed.readings == [0.04, 0.08, 0.02]
    assert fast_phase([1.0, 0.9, 0.5, 0.84, 0.8]) == [True, True, False, True, False]


def _doubled(fn):
    """``fn`` followed by a busy wait as long as the call: a 2x slower layer.

    The wait spins rather than sleeps, as slower code would: a sleeping
    process loses its warm caches and clock, which slows every layer.
    """
    def slow(*args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        deadline = 2 * time.perf_counter() - start
        while time.perf_counter() < deadline:
            pass
        return out
    return slow


def _layer_times(result) -> dict[str, float]:
    return {layer: result["metrics"][f"{layer}_s"][0] for layer in LAYERS}


def _share(result, layer: str) -> float:
    """Median over traced ops of ``layer``'s self time over the other layers'.

    Both parts of the ratio come from the same op, a fraction of a second,
    so a change in the host's speed between runs mostly cancels out.
    """
    by_op = defaultdict(list)
    for span in result["spans"]:
        by_op[span["op"]].append(span)
    shares = []
    for spans in by_op.values():
        own = self_times(spans)
        rest = sum(v for k, v in own.items() if k in LAYERS and k != layer)
        shares.append(own.get(layer, 0.0) / rest)
    return statistics.median(shares)


@pytest.mark.parametrize("name, layer, owner, attr", [
    ("set-text-cl", "graph.io.load", repro, "load_edge_list"),
    ("core-npz-rmat", "core.forest.build", repro.BestKIndex, "forest"),
])
def test_a_2x_slower_layer_doubles_only_its_metric(prepared, monkeypatch, name, layer, owner, attr):
    original = owner.__dict__[attr]
    if isinstance(original, property):
        slowed = property(_doubled(original.fget))
    else:
        slowed = _doubled(original)
    # The host's speed drifts by tens of percent over seconds, and it moves
    # interpreted code more than numpy code.  So plain and slowed runs
    # alternate, and the slowed layer is compared with the rest of its own
    # op; the median pair decides.
    _run(name, prepared[name])
    shares, rests = [], []
    for _ in range(3):
        before = _run(name, prepared[name], ops=8)
        monkeypatch.setattr(owner, attr, slowed)
        after = _run(name, prepared[name], ops=8)
        monkeypatch.setattr(owner, attr, original)
        shares.append(_share(after, layer) / _share(before, layer))
        rest_before, rest_after = (
            sum(v for k, v in _layer_times(r).items() if k != layer) for r in (before, after))
        rests.append(rest_after / rest_before)
    assert 0.5 < statistics.median(rests) < 1.5
    assert 1.6 < statistics.median(shares) < 2.6


@pytest.mark.parametrize("name", sorted(TINY))
def test_a_corrupted_reference_fails_every_op(prepared, tmp_path, name):
    workdir = tmp_path / name
    shutil.copytree(prepared[name], workdir)
    with np.load(workdir / "oracle.npz") as data:
        arrays = {key: data[key] for key in data.files}
    arrays["score"] = arrays["score"] + 1.0
    np.savez(workdir / "oracle.npz", **arrays)
    result = _run(name, workdir, ops=4)
    assert result["attempted"] == 6
    assert result["failed"] == 6


def test_an_op_that_raises_counts_as_failed(prepared, monkeypatch):
    def broken(*args, **kwargs):
        raise OSError("disk went away")

    monkeypatch.setattr(repro, "load_edge_list", broken)
    result = _run("set-text-cl", prepared["set-text-cl"], ops=3)
    assert (result["attempted"], result["failed"]) == (5, 5)
    assert "disk went away" in result["errors"][0]


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(ROOT / "e2ebench", tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "set-text-cl", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
