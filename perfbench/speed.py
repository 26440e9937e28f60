"""Machine-speed probe for normalizing times measured on a shared machine.

On a shared 2-core machine the same unit of work was measured at 3.8 s and
7.2 s within two minutes, with CPU time tracking wall time: the cores
themselves ran slower, in phases that last longer than a benchmark run.
:class:`SpeedProbe` samples that speed *during* the timed unit: every
``INTERVAL_S`` a SIGALRM handler runs a fixed kernel (a Python loop, small
GEMMs and small determinants, the mix projgeo itself runs) and records its
CPU time.  A time multiplied by ``speed()`` is in seconds at the speed the
machine has when the kernel takes ``NOMINAL_KERNEL_S``, so a change in the
program still moves it one for one while a slow phase of the machine
mostly cancels.  The correction is partial: in some phases a workload slows
more than the kernel does, and steal time never reaches a CPU-time clock.

The handler runs in the main thread only; interval timers are not
inherited by forked pool workers.  The kernel adds about 2% to a unit's
wall time, the same on every commit.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# kernel CPU time on a quiet core of the 2-core Xeon VM the bounds were set on
NOMINAL_KERNEL_S = 0.8e-3


class SpeedProbe:
    """Context manager sampling kernel CPU time every ``INTERVAL_S``."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._v = rng.standard_normal((60, 4))
        self._x = rng.standard_normal((400, 4))
        self._s = rng.standard_normal((10, 4, 4))
        self.samples: list[float] = []
        self._previous = None

    def _kernel(self) -> None:
        total = 0
        for i in range(3000):
            total += i * i
        for _ in range(6):
            (self._x @ self._v.T).max(axis=1).sum()
        for _ in range(40):
            np.linalg.det(self._s)

    def _sample(self, signum, frame) -> None:
        start = time.thread_time()
        self._kernel()
        self.samples.append(time.thread_time() - start)

    def __enter__(self) -> "SpeedProbe":
        self._kernel()  # warm the code path before the first sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self) -> float:
        """Machine speed relative to nominal (below 1: slower than nominal)."""
        if not self.samples:
            self._sample(None, None)
        return NOMINAL_KERNEL_S / statistics.median(self.samples)
