"""Host speed: a fixed reference task timed next to every measured op.

The CPU speed of a shared host changes in phases that last from seconds
to minutes; in a slow phase every op, and everything else, takes up to 1.6
times as long.  A run's median then depends on the share of it that fell
in a slow phase, more than on the code.  So the benchmark times a
reference task that uses only Python and numpy, never ``repro``, right
after each op, and scales the op's wall time by ``REFERENCE_S`` over the
mean of the readings before and after it: times come out in seconds at
the host speed at which the reference task takes ``REFERENCE_S``.

Scaling removes most of a slow phase, not all: a set-text-cl op slows by
up to 1.76x where the task slows by 1.49x, so a run spent in a slow phase
still reads about 15% high.  The end-to-end statistics therefore keep only
the intervals that ran near the run's top speed (:func:`fast_phase`); a
run that was slow throughout keeps all of them.

The task mixes what the ops do, so both slow down alike: a pure-Python
loop that splits and converts an edge-list text (interpreter-bound, like
the parse) and a stable argsort, gather and bincount over an array a few
MB large (memory-bound, like the kernels).
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["FAST_PHASE", "REFERENCE_S", "HostSpeed", "fast_phase", "reference_task"]

#: Seconds the reference task takes at the reference speed: about its time
#: on a 2-CPU Xeon VM in a fast phase, so scaled times read like wall
#: times there.
REFERENCE_S = 0.045

#: An interval ran in the fast phase when its scale factor is at least the
#: run's largest over this: fast-phase readings of the task spread by under
#: 15%, and a slow phase reads 1.4-1.5 times as long.
FAST_PHASE = 1.2

_RNG = np.random.default_rng(20_240_817)
_TEXT = "\n".join(f"{u} {v}" for u, v in _RNG.integers(0, 30_000, (20_000, 2)))
_ARRAY = _RNG.integers(0, 1 << 20, 300_000)


def reference_task() -> float:
    """Run the reference task once; return its wall seconds."""
    start = time.perf_counter()
    ids: dict[int, int] = {}
    for line in _TEXT.splitlines():
        u, v = line.split()
        ids.setdefault(int(u), len(ids))
        ids.setdefault(int(v), len(ids))
    order = np.argsort(_ARRAY, kind="stable")
    np.bincount(_ARRAY[order[::3]])
    np.cumsum(_ARRAY)
    return time.perf_counter() - start


class HostSpeed:
    """Scale factors for wall times taken between two readings of the task."""

    def __init__(self) -> None:
        reference_task()  # the first call pays for cold caches
        self.readings = [reference_task()]

    def scale(self) -> float:
        """``REFERENCE_S`` over the mean of the last reading and a fresh one.

        Call it right after the interval it scales, which started right
        after the last reading.
        """
        self.readings.append(reference_task())
        return 2 * REFERENCE_S / (self.readings[-2] + self.readings[-1])


def fast_phase(scales: list[float]) -> list[bool]:
    """Which intervals, given their scale factors, ran near the top speed."""
    floor = max(scales) / FAST_PHASE
    return [scale >= floor for scale in scales]
