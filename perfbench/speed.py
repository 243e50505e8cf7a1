"""Processor-speed sampling, so that times can be given at a fixed speed.

The benchmark runs on a shared host whose processor speed changes by 1.5x
to 2x within seconds and stays changed for minutes.  A pass timed on the
wall clock moves with it.  While a block of code runs, a ``Speedometer``
times a small pure-Python kernel every ``INTERVAL_S`` of wall time from a
SIGALRM handler, in the same thread, so the kernel meets the same
processor as the code around it.  The block's time at the reference speed
is

    (elapsed - time spent in the handler) * mean(KERNEL_REF_S / kernel time)

that is, the block's time on a processor that runs the kernel in
``KERNEL_REF_S`` seconds.  Samples fall about evenly in wall time, so the
mean of the speed ratios weighs each moment by its share of the block; a
long call into C code is sampled once, when it returns.

Only the standard library is used, so that set-up probes can start a
speedometer before ``import deloc`` without importing anything it needs.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.008
# The kernel's fastest time on the 2-vCPU Intel Xeon (2.0 GHz) VM where the
# benchmark was written.  It only sets the scale: two runs compare alike.
KERNEL_REF_S = 0.00015
_FALLBACK_SAMPLES = 10


def kernel() -> int:
    """About 0.2 ms of interpreter arithmetic on a few objects."""
    s = 0
    for i in range(2500):
        s += (i * i) % 7
    return s


class Speedometer:
    """Samples the kernel's speed while a block runs.

        with Speedometer() as sp:
            work()
        sp.reference_seconds  # the block's time at the reference speed
    """

    def __init__(self):
        self.ratios: list[float] = []  # KERNEL_REF_S / kernel time, one per sample
        self.busy_s = 0.0  # time spent in the handler
        self.elapsed_s = 0.0
        self._prev = None
        self._t0 = 0.0

    def _sample(self) -> None:
        # the first call warms the caches that the code under test left
        # cold, so that only the processor's speed is timed
        kernel()
        t0 = time.perf_counter()
        kernel()
        self.ratios.append(KERNEL_REF_S / (time.perf_counter() - t0))

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._sample()
        self.busy_s += time.perf_counter() - t0

    def __enter__(self) -> Speedometer:
        self.ratios, self.busy_s = [], 0.0
        self._prev = signal.signal(signal.SIGALRM, self._tick)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.elapsed_s = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._prev)

    @property
    def seconds(self) -> float:
        """The block's wall time, less the time the samples took."""
        return self.elapsed_s - self.busy_s

    @property
    def speed(self) -> float:
        """Mean speed during the block relative to the reference.  A block
        too short to be sampled is given a few samples taken just after it."""
        if not self.ratios:
            for _ in range(_FALLBACK_SAMPLES):
                self._sample()
        return sum(self.ratios) / len(self.ratios)

    @property
    def reference_seconds(self) -> float:
        return self.seconds * self.speed
