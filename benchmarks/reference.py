"""A fixed reference kernel that gauges the host's speed during a run.

On a shared host the same op's latency drifts by tens of percent over
seconds to minutes, with every process on the core.  The runner executes
this kernel between ops, a few times a second, and scales the op
latencies by how fast the kernel ran: a latency divided by the kernel's
median time in the run, times the kernel's nominal time, reads as the
latency on a host that runs the kernel in exactly ``NOMINAL_S``.

The kernel does not touch machina.  It mixes the three kinds of work the
workloads do, in about equal parts: an interpreter loop over small ints
and a dict, a dict keyed by state-like strings that is built and sorted,
and dense symmetric eigendecompositions at n = 120.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's median time between ops on the reference host, a 2-core VM
# (Python 3.11, numpy 2.4, OpenBLAS with one thread).  It only fixes the
# unit of the scaled figures: on that host at its usual speed they read as
# seconds.
NOMINAL_S = 0.0155


class Reference:
    def __init__(self):
        a = np.random.default_rng(0).random((120, 120))
        self._matrix = a + a.T
        self._keys = [f"s{i}.{j}" for i in range(5000) for j in range(2)]
        self.samples: list[float] = []

    def _kernel(self) -> int:
        total, counts = 0, {}
        for i in range(20_000):
            counts[i % 97] = counts.get(i % 97, 0) + i
            total += i * i % 7
        table = {k: (i, k + "x") for i, k in enumerate(self._keys)}
        ordered = sorted(table.items(), key=lambda kv: kv[1][1])
        for _ in range(2):
            np.linalg.eigh(self._matrix)
        return total + len(ordered)

    def sample(self):
        """Time one run of the kernel."""
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t0)

    def median_s(self) -> float:
        return statistics.median(self.samples)

    def scale(self) -> float:
        """Factor that turns this run's latencies into nominal-host latencies."""
        return NOMINAL_S / self.median_s()
