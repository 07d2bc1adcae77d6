"""Host speed, measured by a fixed kernel around every timed run.

A host that shares its cores with other work can drift in speed by up to
2x over a few seconds (as measured on the 2-core reference VM).  Every
timed run is therefore bracketed by runs of a short kernel of fixed work
that uses no qlocker code.  Like the workloads, the kernel is partly bound
by the interpreter (a Python loop over tiny numpy arrays, small vector
operations and dict updates) and partly by memory (a gather and scatter
over 4 MiB, twice a core's L2 cache, into buffers allocated once, so that
the program's allocations do not change its time).  A run's *scaled* time
is its wall time times ``REFERENCE_S`` over the kernel's mean time around it: the wall time the
run would have taken with the kernel at its reference speed.  The
end-to-end times are scaled times; the wall times are recorded beside them.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's median time on the reference machine, a 2-core Intel Xeon VM
REFERENCE_S = 0.005
# kernel runs before and after each timed run; a mean over several follows
# the host's speed better than the fastest one
KERNEL_REPEATS = 3
# gather-scatter passes, about as long as the interpreter-bound part
MEMORY_PASSES = 3


class HostSpeed:
    def __init__(self):
        self._small = np.zeros(4, dtype=complex)
        self._vec = np.random.default_rng(0).random(4096)
        self._table = np.zeros(1 << 17, dtype=complex)
        self._even = np.arange(0, 1 << 17, 2)
        self._odd = self._even + 1
        self._buffer = np.empty(1 << 16, dtype=complex)
        self.kernel_samples: list[float] = []

    def _kernel(self) -> float:
        start = time.perf_counter()
        total = 0.0
        for i in range(500):
            b = self._small.copy()
            b[0] = i
            total += b.real.sum()
        for _ in range(20):
            total += float(np.where(self._vec < 0.5, self._vec * 0.9, 1.0).sum())
        table = {}
        for i in range(3000):
            table[i & 63] = (i, total)
            total += i * 3 % 7
        for _ in range(MEMORY_PASSES):
            np.take(self._table, self._even, out=self._buffer)
            np.multiply(self._buffer, 0.5, out=self._buffer)
            np.put(self._table, self._odd, self._buffer)
        return time.perf_counter() - start

    def kernel_s(self) -> float:
        """Mean time of KERNEL_REPEATS kernel runs, in seconds.

        One more run first brings the kernel's data back into the cache
        that the timed run just filled with its own.
        """
        self._kernel()
        mean = sum(self._kernel() for _ in range(KERNEL_REPEATS)) / KERNEL_REPEATS
        self.kernel_samples.append(mean)
        return mean

    def timed(self, fn):
        """``(fn(), wall_s, scaled_s)``."""
        before = self.kernel_s()
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        after = self.kernel_s()
        return result, wall, wall * REFERENCE_S * 2.0 / (before + after)
