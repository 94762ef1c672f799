"""Reference-kernel calibration against machine-speed drift.

The box this benchmark runs on is shared: the same pure-Python loop takes
2.2 ms in one minute and 2.8 ms in the next, so raw wall-clock figures
from back-to-back runs of identical code spread by 10-25 %. The harness
therefore interleaves a fixed reference kernel with the measured work —
only while no operation is in flight — and rescales every timed sample
by how fast the kernel ran around that moment::

    calibrated = wall * REF_NOMINAL_MS / local_ref

``local_ref`` is the median of the ``NEAREST_POINTS`` calibration points
closest in time to the sample, so on a quiet box ``local_ref`` is about
``REF_NOMINAL_MS`` and calibrated numbers still read as milliseconds.

The kernel imports nothing from ``repro`` and must never change: a
faster interpreter speeds the kernel and the program alike (and rightly
cancels), a faster *program* only shows against a fixed yardstick.
Calibration tracks CPU-speed drift (frequency, a noisy neighbour on the
sibling core); it does not track syscall or loopback-socket cost.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: Median kernel slice on the reference box when quiet, measured once and
#: frozen. Changing it rescales every calibrated metric: don't.
REF_NOMINAL_MS = 1.0

#: Loop trips of one kernel slice (about a millisecond).
KERNEL_TRIPS = 8000

#: A sample's local reference is the median of this many nearest points.
NEAREST_POINTS = 7


def kernel_slice_ms() -> float:
    """Run one slice of the reference kernel; return its wall time in ms."""
    started = time.perf_counter()
    table: dict[int, str] = {}
    total = 0
    for index in range(KERNEL_TRIPS):
        key = index & 255
        table[key] = str(index)
        total += len(table[key])
    return (time.perf_counter() - started) * 1000.0


class Calibrator:
    """Collects calibration points and rescales samples with them."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.values_ms: list[float] = []
        #: Wall seconds spent inside the kernel (excluded from throughput).
        self.spent_seconds = 0.0

    def point(self) -> None:
        """Take one calibration point: the faster of two kernel slices.

        Call it only while no measured operation is in flight — the
        kernel competes for the same interpreter lock.
        """
        started = time.perf_counter()
        value = min(kernel_slice_ms(), kernel_slice_ms())
        ended = time.perf_counter()
        self.times.append((started + ended) / 2.0)
        self.values_ms.append(value)
        self.spent_seconds += ended - started

    def maybe_point(self, min_gap_seconds: float) -> None:
        """Take a point unless the last one is younger than the gap."""
        if not self.times or (
            time.perf_counter() - self.times[-1] >= min_gap_seconds
        ):
            self.point()

    def local_ref_ms(self, at: float) -> float:
        """Median of the ``NEAREST_POINTS`` points nearest to time ``at``."""
        if not self.times:
            raise ValueError("no calibration points were taken")
        count = min(NEAREST_POINTS, len(self.times))
        # Points are appended in time order: slide a window of ``count``
        # consecutive points to where it hugs ``at`` most closely.
        low = bisect.bisect_left(self.times, at) - count // 2 - 1
        low = max(0, min(low, len(self.times) - count))
        while (
            low + count < len(self.times)
            and abs(self.times[low + count] - at) < abs(self.times[low] - at)
        ):
            low += 1
        return statistics.median(self.values_ms[low:low + count])

    def scale(self, at: float) -> float:
        """Factor turning a wall time measured around ``at`` into
        calibrated time."""
        return REF_NOMINAL_MS / self.local_ref_ms(at)


def drift_spread(values_ms: list[float]) -> float:
    """p90 / p10 of calibration points — how much the machine drifted
    while they were taken."""
    if len(values_ms) < 10:
        return max(values_ms) / min(values_ms)
    deciles = statistics.quantiles(values_ms, n=10)
    return deciles[-1] / deciles[0]
