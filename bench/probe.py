"""Host-speed probe: rescales measured times to a reference host speed.

The benchmark shares its host with other tenants. Their load slows all of
a run, the package's code and any other alike, by 10-50% for spells of
seconds to minutes, so ten runs with ten seeds spread by up to 35% (IQR
over median) in raw wall time. A fixed kernel, a Python loop and small
matrix products of about 3.5 ms, runs in short bursts between units of
work. A unit's time is rescaled by REF_S over the median kernel time
around it, which cancels most of the host's drift: over ten seeds the
spread of coverage_tensor fell from 14% to 5% and of cdl_filters from 11%
to 8%. odl_data, which streams its data from L3, the kernel tracks less
well (12% raw, 16% rescaled). A change to sphere4 leaves the kernel
alone, so it moves the rescaled times as it moves the raw ones.

The rescaling assumes the package does not keep working between units; a
change that left threads spinning there would slow the kernel and hide
part of its own cost. The raw times are kept beside the rescaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

# median kernel time on the reference host (2-core Xeon, 2.1 GHz nominal),
# so that rescaled times read as seconds there
REF_S = 0.0035
BURST = 3
EVERY_S = 0.3
# kernel samples within this many seconds of a unit judge its host speed
MARGIN_S = 0.6


def _kernel() -> None:
    import numpy as np

    a = np.full((32, 32), 0.5)
    b = np.eye(32) * 0.9 + 0.001
    s = 0
    for i in range(30000):
        s += i * i
    for _ in range(150):
        a = a @ b
        a /= np.abs(a).max()


class HostProbe:
    """Kernel times sampled in bursts, and the rescaling they give."""

    def __init__(self):
        _kernel()  # warm-up: numpy import and first-call costs
        self.starts: list = []
        self.seconds: list = []
        self._last = float("-inf")

    def sample(self, force: bool = False) -> None:
        """Run a burst, unless one ran less than EVERY_S ago."""
        if not force and time.perf_counter() - self._last < EVERY_S:
            return
        for _ in range(BURST):
            t0 = time.perf_counter()
            _kernel()
            self.starts.append(t0)
            self.seconds.append(time.perf_counter() - t0)
        self._last = time.perf_counter()

    def factor(self, t0: float, t1: float) -> float:
        """REF_S over the median kernel time near [t0, t1]; the nearest
        burst when none lies within MARGIN_S."""
        lo = bisect.bisect_left(self.starts, t0 - MARGIN_S)
        hi = bisect.bisect_right(self.starts, t1 + MARGIN_S)
        if lo == hi:
            k = min(range(len(self.starts)),
                    key=lambda i: abs(self.starts[i] - t0))
            lo, hi = max(0, k - BURST + 1), k + 1
        return REF_S / statistics.median(self.seconds[lo:hi])

    def slowdown(self) -> float:
        """Median kernel time over REF_S: how slow the host ran."""
        return statistics.median(self.seconds) / REF_S
