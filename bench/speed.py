"""Machine speed from a fixed reference kernel, to scale timings by.

A shared machine changes speed by up to 2x within seconds as its other
tenants' load comes and goes. On a 2-vCPU Intel Xeon, over the
5-second blocks of a 4-minute run, the forward and backward pass of a
training batch spread 0.19 (quartile distance over median) and a
40k-fact query 0.22; each scaled by this kernel, timed in the same
blocks, spread 0.05 and 0.08. So sessions run this kernel between
operations, outside every timed region, and report each timing scaled
by ``REFERENCE_MS`` over the median kernel time around it: the time the
operation would take on that machine when the kernel takes
``REFERENCE_MS``.

The kernel does the three kinds of work the library does: a sparse
product, a dense product and a Python loop. Its inputs are fixed, so it
does not depend on the workload or on the library.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
import scipy.sparse as sp

# about the median kernel time on a 2-vCPU Intel Xeon with one BLAS
# thread (2.4-2.9 ms as the machine's load varies)
REFERENCE_MS = 2.4
WINDOW = 9  # kernel runs on each side of a timing that scale it


class Speed:
    """Kernel runs of one process and the timings they scale."""

    def __init__(self):
        rng = np.random.default_rng(20250114)
        self._a = sp.random(8000, 8000, density=5e-4, format="csr", random_state=rng)
        self._x = rng.random((8000, 32))
        self._d = rng.random((256, 256))
        self.starts: list[float] = []  # of each kernel run
        self.ends: list[float] = []
        self._kernel()  # first-call costs stay out of the record

    def _kernel(self) -> None:
        self._a @ self._x
        self._d @ self._d
        sum(i * i for i in range(3000))

    def tick(self, times: int = 1) -> None:
        for _ in range(times):
            self.starts.append(time.perf_counter())
            self._kernel()
            self.ends.append(time.perf_counter())

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_MS`` over the median of the ``WINDOW`` kernel runs
        before the stretch ``[start, end]`` and the ``WINDOW`` after it."""
        first = bisect.bisect_right(self.ends, start)
        last = bisect.bisect_left(self.starts, end)
        runs = [*range(max(first - WINDOW, 0), first),
                *range(last, min(last + WINDOW, len(self.starts)))]
        return REFERENCE_MS / statistics.median(
            1e3 * (self.ends[i] - self.starts[i]) for i in runs
        )

    def seconds(self, start: float, end: float) -> float:
        """Reference-speed seconds of ``[start, end]``, without the kernel
        runs inside it, each stretch between them scaled by its factor."""
        total, cursor = 0.0, start
        for s, e in zip(self.starts, self.ends):
            if start <= s and e <= end:
                total += (s - cursor) * self.factor(cursor, s)
                cursor = e
        return total + (end - cursor) * self.factor(cursor, end)

    def median_factor(self) -> float:
        return REFERENCE_MS / statistics.median(
            1e3 * (e - s) for s, e in zip(self.starts, self.ends)
        )
