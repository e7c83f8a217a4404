"""A fixed calibration kernel that measures how fast the host runs now.

On a shared host the same sweep can run 1.5-2x slower for minutes at
a time, with CPU time equal to wall time: the program is not preempted,
each instruction just takes longer.  A run's raw sweep seconds then
follow the host's mood more than the program.  :func:`calibrate` runs
a small, frozen mix of the kinds of work a sweep does -- numpy sorts
and gathers over a point cloud, a pure-Python dict and sort loop, and
many small numpy calls -- so its seconds slow down with the host as a
sweep does.  The benchmark runs it just before every timed sweep and
divides the sweep's seconds by it.

The kernel is part of the benchmark, not of the program: nothing in it
calls ``repro``, so a change to the program cannot move it, and it
must not change unless the benchmark is redefined.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds :func:`calibrate` took (median) on the host the benchmark
#: was defined on: 2 vCPUs of a shared x86-64 host, Python 3.11,
#: numpy 2.4.  Normalized seconds are sweep seconds ÷ calibration
#: seconds × this, i.e. seconds on that host at its usual speed.
CALIBRATION_REF_S = 0.05

_POINTS = np.random.default_rng(7).random((40_000, 4), dtype=np.float32) \
    * np.float32(100.0)
_SORTED = np.arange(4096, dtype=np.int64)


def _numpy_kernel() -> float:
    """Voxelize-like: bin points, sort, unique, gather into features."""
    flat = (_POINTS[:, 0].astype(np.int64) * 432
            + _POINTS[:, 1].astype(np.int64))
    order = np.argsort(flat, kind="stable")
    unique, first, counts = np.unique(flat[order], return_index=True,
                                      return_counts=True)
    features = np.zeros((len(unique), 32, 9), dtype=np.float32)
    features[:, 0, :4] = _POINTS[order][first]
    return float(features.sum()) + float(np.minimum(counts, 32).sum())


def _python_kernel(n: int = 20_000) -> int:
    """Interpreter-bound: dict updates, a keyed sort, a reduction."""
    table = {}
    for i in range(n):
        key = (i * 2654435761) % 100_003
        table[key] = table.get(key, 0) + (i & 7)
    total = 0
    for key, value in sorted(table.items(), key=lambda kv: (kv[1], kv[0])):
        total += key ^ value
    return total


def _small_numpy_kernel(n: int = 1000) -> int:
    """Call-bound: many tiny numpy calls, as tile planning makes."""
    total = 0
    for i in range(n):
        lo = np.searchsorted(_SORTED, i)
        hi = np.searchsorted(_SORTED, i + 64)
        total += int(hi - lo) + int(_SORTED[lo:hi].max(initial=0))
    return total


def calibrate() -> float:
    """Seconds one pass of the calibration kernel takes now."""
    started = time.perf_counter()
    _numpy_kernel()
    _python_kernel()
    _small_numpy_kernel()
    return time.perf_counter() - started
