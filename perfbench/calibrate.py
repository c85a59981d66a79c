"""Host-speed calibration for timings taken on a shared machine.

On a shared host the CPU speed available to one process drifts by tens of
percent within a minute, far more than the changes the benchmark must
resolve.  So every timed operation is scaled by how fast the host ran while
it executed: a fixed reference kernel is timed about twenty times a second
from a ``SIGALRM`` handler.  The kernel mixes plain Python arithmetic, small
numpy calls and scalar Bessel calls, as the planners do, with a von Mises
draw and nearest-centroid classification, as the simulator does.  Its own
time is taken out of the operation it interrupted, and

    scaled time = net time * NOMINAL_PASS_S / (mean reference pass around the operation)

is the time the operation would take on a host where one reference pass
takes ``NOMINAL_PASS_S``.  The kernel uses nothing from ``edgeplan``, so a
change to the package cannot move it.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
from time import perf_counter

import numpy as np
from scipy import special

# One reference pass on the 2-core Xeon development box at its fastest.
NOMINAL_PASS_S = 0.00137
SAMPLE_INTERVAL_S = 0.05
# Reference passes within this window around an operation's midpoint are averaged.
WINDOW_S = 0.1

_GRID = np.linspace(-math.pi, math.pi, 16_384)
_CENTROIDS = np.linspace(-math.pi, math.pi, 10, endpoint=False)
_RNG = np.random.default_rng(0)


def reference_pass() -> float:
    """Run the fixed reference kernel once; returns a checksum so nothing is skipped."""
    acc = 0.0
    for kappa in (0.5, 1.0, 2.0, 4.0, 8.0, 15.0, 30.0, 60.0) * 2:
        for n in (16, 32, 64, 128):
            x = np.linspace(0.0, 0.314, n + 1)
            v = np.exp(kappa * (np.cos(x) - 1.0))
            w = np.ones_like(v)
            w[1:-1:2] = 4.0
            w[2:-1:2] = 2.0
            acc += float(w @ v) / float(special.i0e(kappa))
        for i in range(150):
            acc += math.exp(-i * 1e-3) * kappa
    acc += float(np.cos(_GRID * 0.5).sum())
    angles = _RNG.vonmises(0.0, 5.0, 2000) + _RNG.normal(0.0, 0.3, 2000)
    acc += float(np.argmax(np.cos(angles[:, None] - _CENTROIDS), axis=-1).sum())
    return acc


def pass_seconds(count: int) -> float:
    """Median duration of ``count`` back-to-back reference passes."""
    durations = []
    for _ in range(count):
        start = perf_counter()
        reference_pass()
        durations.append(perf_counter() - start)
    return statistics.median(durations)


class Sampler:
    """Times the reference kernel periodically while installed (a context manager).

    ``stolen_s`` is the total time spent in the kernel, so a caller can take
    it out of any interval it times: ``net = elapsed - stolen delta``.
    """

    def __init__(self) -> None:
        self.times: list = []
        self.durations: list = []
        self.stolen_s = 0.0

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        reference_pass()
        end = perf_counter()
        self.times.append(0.5 * (start + end))
        self.durations.append(end - start)
        self.stolen_s += end - start

    def __enter__(self) -> "Sampler":
        pass_seconds(5)  # warm the kernel before the first sample counts
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)  # at least one sample, however short the run

    def scale(self, start: float, end: float) -> float:
        """``NOMINAL_PASS_S`` over the mean reference pass around ``[start, end]``."""
        pad = max(0.0, 0.5 * (WINDOW_S - (end - start)))
        lo = bisect.bisect_left(self.times, start - pad)
        hi = bisect.bisect_right(self.times, end + pad)
        window = self.durations[lo:hi] or self.durations
        return NOMINAL_PASS_S * len(window) / sum(window)
