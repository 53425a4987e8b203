"""Machine-speed sampling used to put times on a common scale.

On a shared host the speed of one vCPU drifts by up to 2x with the load of
its neighbours.  On the 2-vCPU Xeon VM this benchmark was written on, a
fixed 70 ms piece of pure-Python work flipped between two speeds 30% apart
every few seconds, the same workload run minutes apart differed by 20 to
50%, CPU time moved with wall time, and the two vCPUs' speeds were not
correlated.  So the speed is sampled on the measuring thread itself while
the ops run: ``Sampler`` interrupts them every ``SAMPLE_EVERY_S`` of wall
time, from a SIGALRM handler, to time ``sample``, a fixed 10 ms mix of the
kinds of work the package does (interpreted dict and call traffic,
``Fraction`` arithmetic, big-int products, numpy sorts and scans).  A time
``t`` of ops whose samples averaged ``p`` seconds is reported as
``t * REFERENCE_SAMPLE_S / p``: the time the same work would have taken at
the sample's reference speed.  The time spent sampling is taken out of
``t``.  A sample calls nothing in the package, loads no module, and runs
with the garbage collector off, so the heap an op leaves behind does not
slow it; a handler runs between bytecodes, so a long native call delays
the next sample instead of being split by it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

# A typical duration of one sample on the machine named above, where medians
# over a minute ranged from 0.011 to 0.015 s; it sets the scale of the
# reported times only.
REFERENCE_SAMPLE_S = 0.0125
SAMPLE_EVERY_S = 0.4


def sample() -> float:
    """Seconds taken by the fixed work now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def mean_sample(count: int) -> float:
    """Mean of `count` samples taken back to back."""
    return statistics.fmean(sample() for _ in range(count))


def scaled(seconds: float, mean_sample_s: float) -> float:
    """`seconds` at reference speed, given the mean sample time beside them."""
    return seconds * REFERENCE_SAMPLE_S / mean_sample_s


class Sampler:
    """Samples the speed every SAMPLE_EVERY_S of wall time while active.

    Also samples on entry and exit, so even a short stretch has samples.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.busy_s = 0.0  # wall time spent sampling

    def _take(self, *_signal) -> None:
        start = time.perf_counter()
        self.samples.append(sample())
        self.busy_s += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._take()
        self._previous = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._take()

    def scaled(self, seconds: float) -> float:
        return scaled(seconds, statistics.fmean(self.samples))


def _work() -> None:
    table: dict[int, int] = {}
    for i in range(30_000):
        table[i % 101] = table.get(i % 101, 0) + i * i
    f = Fraction(1, 3)
    for i in range(500):
        f = f * Fraction(i + 1, i + 2) + Fraction(1, i + 3)
    x = 3**20_000
    modulus = x + 7
    for i in range(4):
        x = x * (x + i) % modulus
    # a fixed scramble in place of a shuffle: numpy.random loads lazily, and
    # a sample must not load it ahead of the package
    keys = (np.arange(8 * 2001, dtype=np.int64) * 2654435761) % 4294967291
    order = np.argsort(keys.reshape(8, 2001), axis=1)
    steps = np.where(order < 1000, 1, -1).astype(np.int8)
    steps.cumsum(axis=1, dtype=np.int32).argmin(axis=1)
