"""Host seconds scaled to a reference host speed.

On a shared 2-vCPU VM (Xeon, Python 3.11.7) a fixed pure-Python loop
ran up to 1.6x slower from one second to the next, in slow and fast
spells lasting seconds to minutes: over 300 s, the means of 20-60 s
windows had an IQR of 0.16 of their median, so raw host seconds of
runs of identical work differ by about that much.  A pass therefore brackets
every segment of its work (set-up, each cell, each sweep entry point)
with a fixed pure-Python calibration loop and scales the segment's
host seconds by ``REFERENCE_S`` over the mean of the two calibration
times around it.  The result is in *reference seconds*: the seconds
the segment would take on a host that runs the calibration loop in
``REFERENCE_S``.  A change that makes the simulator faster lowers them
in proportion; the calibration loop runs no repository code.  Raw host
seconds are kept beside them.
"""

from __future__ import annotations

import time
from typing import Callable, Tuple

CALIBRATION_ITERATIONS = 150_000
REFERENCE_S = 0.010


def calibrate() -> float:
    """Seconds this host takes for the fixed calibration loop now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


class Meter:
    """Consecutive pass segments, each closed by a calibration.

    ``elapsed`` is how long the process has already been running when
    the meter starts (interpreter start-up); it belongs to the first
    segment.  Calibration time is excluded from every segment.
    """

    def __init__(self, elapsed: float = 0.0,
                 calibrate: Callable[[], float] = calibrate,
                 clock: Callable[[], float] = time.perf_counter):
        self._calibrate = calibrate
        self._clock = clock
        self._last = calibrate()
        self._seg_start = clock() - elapsed
        self.raw_s = 0.0
        self.ref_s = 0.0

    def close(self) -> Tuple[float, float]:
        """End the current segment; returns its host seconds and the
        factor that converts host seconds of it to reference seconds."""
        raw = self._clock() - self._seg_start
        now = self._calibrate()
        factor = REFERENCE_S / ((self._last + now) / 2)
        self._last = now
        self._seg_start = self._clock()
        self.raw_s += raw
        self.ref_s += raw * factor
        return raw, factor
