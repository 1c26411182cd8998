"""File-to-answer benchmark of the ``repro`` package.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload set-text-cl --seed 1 --seconds 25 --trace 0

Generates the workload's input files from ``--seed``, computes the
reference answers, warms the native JIT cache, samples set-up time in fresh
processes, then measures the closed loop in a separate process for
``--seconds`` seconds (see ``e2ebench/measure.py``).  Every time is scaled
to a reference host speed (see ``e2ebench/calibration.py``).  It prints
every metric with its unit and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Everything it writes goes under ``.bench_build/e2ebench`` in the checkout:
the JIT cache, a work directory for the inputs (removed at exit), the full
result record with its metadata, and the traced run's spans.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "e2ebench"

#: Fresh-process set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 31

#: Seconds a helper process may take beyond the measured interval.
CHILD_GRACE_S = 120


class BenchError(Exception):
    """The run cannot produce a trustworthy result."""


def _isolate() -> None:
    """Use this checkout's package and none of the caller's REPRO_* settings.

    Each workload names its backend, jobs and store itself; the native JIT
    cache and the compiler's temporary files stay in the checkout.  Child
    processes inherit the result.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    os.environ["REPRO_NATIVE_CACHE"] = str(BUILD / "native-jit")
    os.environ["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _child(args: list[str], timeout: float) -> str:
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True,
        text=True, timeout=timeout, check=False,
    )
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:2])} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return proc.stdout


def _probe(backend: str) -> dict:
    report = json.loads(_child([str(ROOT / "e2ebench" / "probe_setup.py"), backend],
                               CHILD_GRACE_S).splitlines()[-1])
    if not Path(report["repro"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"imported repro from {report['repro']}, not from this checkout")
    if report.get("native_fallbacks"):
        raise BenchError(f"{report['native_fallbacks']} native kernel(s) fell back to numpy; "
                         "refusing to report native numbers (is a C compiler installed?)")
    return report


def _run(args, workload) -> dict:
    from e2ebench.calibration import HostSpeed, fast_phase

    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=BUILD))
    try:
        start = time.perf_counter()
        inputs = workload.prepare(args.seed, workdir)
        prepare_s = time.perf_counter() - start
        # The first probe compiles the native kernels when the JIT cache is
        # cold; the timed samples after it always load a warm cache.
        warm = _probe(workload.backend)
        # Each sample is scaled to the reference host speed by the
        # reference task timed around it, and only fast-phase samples are
        # kept, as for the ops.
        speed = HostSpeed()
        wall, scales = [], []
        for _ in range(SETUP_SAMPLES):
            wall.append(_probe(workload.backend)["setup_s"])
            scales.append(speed.scale())
        samples = [w * s for w, s, keep in zip(wall, scales, fast_phase(scales)) if keep]
        out = workdir / "result.json"
        spans = BUILD / "traces" / f"{workload.name}-seed{args.seed}.jsonl"
        _child(["-m", "e2ebench.measure", "--workload", workload.name,
                "--workdir", str(workdir), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", str(out), "--spans", str(spans)],
               args.seconds + CHILD_GRACE_S)
        result = json.loads(out.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if result["native_fallbacks"]:
        raise BenchError("native kernels fell back to numpy during the run; refusing to report")
    if not args.trace:
        result["metrics"]["setup_s"] = (statistics.median(samples), "s")
    result["metadata"].update(
        seed=args.seed, workload=workload.name, seconds=args.seconds, trace=args.trace,
        nproc=len(os.sched_getaffinity(0)), inputs=inputs, prepare_s=prepare_s,
        setup_samples_s=samples, setup_wall_s=wall, setup_scales=scales,
        jit_cache_before_run=warm.get("jit_cache"),
        native_provider=warm.get("provider"),
    )
    return result


def _report(args, result: dict) -> None:
    metrics = result["metrics"]
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:14s} {name:32s} {value:.6g} {unit}")
    if "tail" in result:
        t = result["tail"]
        print(f"{args.workload:14s} latency_tail_s is p{t['percentile']} of "
              f"{t['samples']} samples ({t['beyond']} beyond it)")
    print(f"{args.workload:14s} {'failed_frac':32s} "
          f"{result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} ops)")
    for error in result["errors"]:
        print(f"# {error}")
    meta = result["metadata"]
    print("# " + json.dumps({k: meta.get(k) for k in (
        "seed", "nproc", "python", "numpy", "native_provider", "jit_cache_before_run",
        "inputs")}))
    record = BUILD / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(result, indent=1))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="File-to-answer benchmark of repro.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    _isolate()
    from e2ebench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    try:
        result = _run(args, WORKLOADS[args.workload]())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _report(args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
