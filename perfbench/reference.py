"""Calibration loop that tracks how fast the host runs right now.

On a shared host the same pass can take up to 1.9x longer from one minute to
the next, for reasons outside the container. The loop below is fixed
pure-Python float work that does not touch pairslit. Timing it next to each
pass gives the host's current speed. Each pass time is then rescaled to a
nominal host on which the loop takes NOMINAL_S. That rescaling cut the
spread of 20-second medians from about 13% to about 2% on the reference
machine.
"""

from __future__ import annotations

import math
from time import perf_counter

# Median duration of the loop on the reference machine (2-vCPU Intel Xeon,
# 2.1 GHz, Python 3.11.7). Normalized times are seconds on a host that runs
# the loop in exactly this time.
NOMINAL_S = 6.8e-3


def loop_seconds() -> float:
    """Wall time of one run of the fixed calibration loop."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(20000):
        x = i * 1e-4
        acc += math.exp(-x) * math.sin(x) + math.cos(x) / (1.0 + x * x)
    return perf_counter() - t0


class HostClock:
    """Brackets consecutive passes with calibration loops.

    scale() after a pass returns the factor that maps its wall time to the
    nominal host, from the loops just before and just after it.
    """

    def __init__(self):
        self._last = loop_seconds()
        self.loops = [self._last]

    def scale(self) -> float:
        now = loop_seconds()
        self.loops.append(now)
        factor = NOMINAL_S / (0.5 * (self._last + now))
        self._last = now
        return factor
