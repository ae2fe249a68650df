"""Host-speed calibration.

The benchmark's host shares its CPUs with other tenants, and its speed
switches between regimes about 1.6x apart every few seconds.  A fixed
pure-Python loop that touches no program code is timed before every op
and set-up step (after every round for ``serve-small``).  End-to-end
times are reported in *reference-host seconds*: the measured time
scaled by ``(REFERENCE_S / loop time) ** EXPONENT``, with the loop time
taken as a rolling median so a single noisy sample moves nothing.  The
raw, unscaled figures are printed on standard error."""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from typing import Iterator, List

#: Loop time of :func:`sample` on the reference host (the 2-CPU
#: container the benchmark was written on, at its median speed).
REFERENCE_S = 0.0025
#: Samples in the rolling median.
WINDOW = 9
#: Sampled over 100 s of alternating loop and op samples, the loop slowed
#: 1.6-1.7x from the host's fast regime to its slow one, while the
#: benchmark's ops slowed 1.4-1.6x: op time grows as loop time ** 0.8.
EXPONENT = 0.8


def sample() -> float:
    """Time one pass of the calibration loop (2-4 ms).  Its working set
    is a few hundred bytes and it allocates no tracked objects, so what
    the program did just before cannot change its time: only the host's
    speed does."""
    start = time.perf_counter()
    acc = 0
    table = {}
    items: List[int] = []
    for i in range(12_000):
        acc = (acc + i * i) % 1_000_003
        table[i & 63] = acc
        items.append(table.get((i * 7) & 63, 0))
        if len(items) > 32:
            items.clear()
    return time.perf_counter() - start


def calibration(n: int = 3) -> float:
    """Median of *n* samples."""
    return statistics.median(sample() for _ in range(n))


def factors(samples: List[float]) -> List[float]:
    """Per-sample scale to reference-host time: (REFERENCE_S over the
    rolling median of the samples around it) ** EXPONENT."""
    half = WINDOW // 2
    return [(REFERENCE_S / statistics.median(samples[max(0, i - half):i + half + 1]))
            ** EXPONENT for i in range(len(samples))]


class Meter:
    """Times a sequence of steps, sampling the host before each one."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.durations: List[float] = []

    @contextmanager
    def step(self) -> Iterator[None]:
        self.samples.append(sample())
        start = time.perf_counter()
        try:
            yield
        finally:
            self.durations.append(time.perf_counter() - start)

    def scales(self) -> List[float]:
        return factors(self.samples)

    def mean_scale(self) -> float:
        """Time-weighted scale over all steps."""
        raw = sum(self.durations)
        return sum(d * f for d, f in zip(self.durations, self.scales())) / raw
