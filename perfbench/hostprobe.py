"""Host-speed probe, recorded with each run and never gated.

A fixed numpy kernel and a fixed pure-Python kernel are timed at the
start and at the end of a run, and the CPU steal share over the run is
read from ``/proc/stat``.  When a metric moves between two sets of runs
while these stay put, the program moved; when these move too, the host
did.
"""

from __future__ import annotations

import time

import numpy as np


def _numpy_kernel() -> float:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((160, 160))
    x = rng.integers(0, 1 << 30, size=200_000)
    t = time.perf_counter()
    for _ in range(8):
        a = a @ a.T
        a /= np.abs(a).max()
    np.sort(x)
    return time.perf_counter() - t


def _python_kernel() -> float:
    t = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(300_000):
        d[i % 1024] = d.get(i % 1024, 0) + i
    return time.perf_counter() - t


def _cpu_times() -> tuple[int, int] | None:
    """(steal, total) jiffies of the aggregate cpu line, or None."""
    try:
        with open("/proc/stat") as f:
            vals = [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (vals[7] if len(vals) > 7 else 0), sum(vals[:8])


class HostProbe:
    def __init__(self):
        self.start = {"numpy_ms": _numpy_kernel() * 1e3,
                      "python_ms": _python_kernel() * 1e3}
        self._cpu0 = _cpu_times()

    def finish(self) -> dict:
        end = {"numpy_ms": _numpy_kernel() * 1e3,
               "python_ms": _python_kernel() * 1e3}
        cpu1 = _cpu_times()
        steal = None
        if self._cpu0 and cpu1 and cpu1[1] > self._cpu0[1]:
            steal = (cpu1[0] - self._cpu0[0]) / (cpu1[1] - self._cpu0[1])
        return {"start": self.start, "end": end, "steal_share": steal}
