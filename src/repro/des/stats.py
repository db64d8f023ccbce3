"""Online simulation statistics.

* :class:`OnlineStatistics` — Welford's numerically stable running
  mean/variance.
* :class:`TimeWeightedAccumulator` — time-averaged quantities (e.g. the
  fraction of time a process spends on safeguard work).
* :func:`replication_interval` — confidence interval across independent
  replications (Student-t).
* :func:`batch_means` — batch-means interval for a single long run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConfidenceInterval:
    """A point estimate with a symmetric confidence interval."""

    mean: float
    half_width: float
    confidence: float
    samples: int

    @property
    def low(self) -> float:
        """Lower endpoint."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper endpoint."""
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        """True when ``value`` lies inside the interval."""
        return self.low <= value <= self.high

    def __str__(self) -> str:
        return (
            f"{self.mean:.6g} ± {self.half_width:.3g} "
            f"({self.confidence:.0%}, n={self.samples})"
        )


class OnlineStatistics:
    """Welford's online mean/variance accumulator."""

    def __init__(self):
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        """Incorporate one observation."""
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)

    def extend(self, values) -> None:
        """Incorporate an iterable of observations."""
        for value in values:
            self.add(value)

    @property
    def count(self) -> int:
        """Number of observations."""
        return self._count

    @property
    def mean(self) -> float:
        """Sample mean (0 when empty)."""
        return self._mean

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0 when fewer than two samples)."""
        if self._count < 2:
            return 0.0
        return self._m2 / (self._count - 1)

    @property
    def std_dev(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    @property
    def std_error(self) -> float:
        """Standard error of the mean."""
        if self._count == 0:
            return 0.0
        return self.std_dev / math.sqrt(self._count)


class TimeWeightedAccumulator:
    """Accumulates a piecewise-constant signal's time average.

    Call :meth:`update` whenever the signal changes; call
    :meth:`finalize` (or read :meth:`time_average`) at the end of the
    observation window.
    """

    def __init__(self, initial_value: float = 0.0, start_time: float = 0.0):
        self._value = initial_value
        self._last_time = start_time
        self._start_time = start_time
        self._integral = 0.0

    def update(self, time: float, new_value: float) -> None:
        """The signal takes ``new_value`` from ``time`` onwards."""
        if time < self._last_time:
            raise ValueError(
                f"time {time} precedes last update {self._last_time}"
            )
        self._integral += self._value * (time - self._last_time)
        self._value = new_value
        self._last_time = time

    def finalize(self, time: float) -> float:
        """Close the window at ``time`` and return the time average."""
        self.update(time, self._value)
        return self.time_average()

    def time_average(self) -> float:
        """Integral divided by elapsed observation time."""
        elapsed = self._last_time - self._start_time
        if elapsed <= 0:
            return self._value
        return self._integral / elapsed

    @property
    def integral(self) -> float:
        """The raw time integral accumulated so far."""
        return self._integral


def replication_interval(
    samples, confidence: float = 0.95
) -> ConfidenceInterval:
    """Student-t confidence interval over independent replications."""
    arr = np.asarray(list(samples), dtype=np.float64)
    n = len(arr)
    if n == 0:
        raise ValueError("no samples supplied")
    mean = float(arr.mean())
    if n == 1:
        return ConfidenceInterval(mean, float("inf"), confidence, 1)
    from scipy import stats as sps

    sem = float(arr.std(ddof=1) / math.sqrt(n))
    t_crit = float(sps.t.ppf(0.5 + confidence / 2.0, df=n - 1))
    return ConfidenceInterval(mean, t_crit * sem, confidence, n)


def batch_means(
    observations,
    num_batches: int = 20,
    confidence: float = 0.95,
) -> ConfidenceInterval:
    """Batch-means interval for a single (possibly correlated) run.

    The observation sequence is split into ``num_batches`` contiguous
    batches whose means are treated as approximately independent.
    """
    arr = np.asarray(list(observations), dtype=np.float64)
    if num_batches < 2:
        raise ValueError("need at least two batches")
    if len(arr) < num_batches:
        raise ValueError(
            f"{len(arr)} observations cannot fill {num_batches} batches"
        )
    batch_size = len(arr) // num_batches
    means = [
        float(arr[i * batch_size : (i + 1) * batch_size].mean())
        for i in range(num_batches)
    ]
    return replication_interval(means, confidence=confidence)
