"""Host-speed probe: rescales timings to a fixed reference host speed.

The benchmark shares a few CPUs of a busy host.  On a 2-CPU host the
same compress ran 1.47x slower for tens of seconds at a time, with no
steal time reported, so neither CPU time nor longer runs steady a wall
clock.  A small fixed kernel (numpy sort/cumsum/bit ops plus a Python
loop, about 5 ms, none of it ``repro`` code) is timed on the measuring
thread between the program's ops.  Over 5-second windows the workload's
median op time moved by +-22% while its ratio to the probe moved by
about +-5%.

Each timing is reported as ``measured * REFERENCE_S / probe``, where
``probe`` is the median of the probe samples nearest in time to the op:
the time the op would take on a host where the probe takes
``REFERENCE_S``.  The probe never runs inside a timed op, and it runs
the same code on every commit, so at a given host speed a change to the
program moves the rescaled value in the same proportion as the measured
one.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: Probe time of the reference host: roughly what the probe takes on an
#: idle 2-CPU host of the kind the bounds were set on.
REFERENCE_S = 0.005


class HostSpeed:
    """Probe samples taken during one run, and the rescaling they give."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._floats = rng.standard_normal(1 << 15)
        self._ints = rng.integers(0, 1 << 20, size=1 << 15)
        self._times: list[float] = []
        self._probe_s: list[float] = []

    def _kernel(self) -> int:
        a = self._floats.copy()
        for _ in range(3):
            a = np.abs(np.cumsum(np.sort(a)) * 1e-3 - a) ** 0.5
            b = np.bincount(((self._ints >> 3) ^ (self._ints << 2)) & 1023, minlength=1024)
        s = int(b[0])
        for i in range(30000):
            s += (i * 2654435761) & 0xFFFF
        return s

    def probe(self, n: int = 1) -> None:
        """Time the probe kernel ``n`` times and keep the samples."""
        for _ in range(n):
            t0 = time.perf_counter()
            self._kernel()
            t1 = time.perf_counter()
            self._times.append(0.5 * (t0 + t1))
            self._probe_s.append(t1 - t0)

    def scale(self, t0: float, t1: float, k: int) -> float:
        """``REFERENCE_S`` over the median of the ``k`` samples taken
        nearest to the middle of ``[t0, t1]`` (probes run in time order)."""
        n = len(self._probe_s)
        if not n:
            return 1.0
        k = min(k, n)
        mid = bisect.bisect_left(self._times, 0.5 * (t0 + t1))
        lo = min(max(0, mid - k // 2), n - k)
        return REFERENCE_S / statistics.median(self._probe_s[lo:lo + k])
