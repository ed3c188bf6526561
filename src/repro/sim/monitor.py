"""Measurement helpers: counters, tallies, and time-weighted statistics.

The experiment harness needs the same quantities the paper measures:
counts (pageins, pageouts, transfers), durations (per-request latency),
and utilisations (server CPU, network busy fraction).  These helpers
accumulate them with O(1) memory unless sample retention is requested.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

__all__ = ["Counter", "Tally", "TimeWeighted", "UtilizationTracker"]


class Counter:
    """A named bag of monotonically increasing integer counters."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def add(self, name: str, amount: int = 1) -> None:
        """Increase counter ``name`` by ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError(f"counters only increase; got {amount}")
        self._counts[name] = self._counts.get(name, 0) + amount

    def __getitem__(self, name: str) -> int:
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        """Snapshot of every counter."""
        return dict(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self._counts!r})"


class Tally:
    """Streaming mean/variance/min/max of observed samples (Welford)."""

    def __init__(self, keep_samples: bool = False):
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.total = 0.0
        self._samples: Optional[List[float]] = [] if keep_samples else None
        #: Sorted view of ``_samples``, built lazily by :meth:`percentile`
        #: and invalidated by :meth:`observe`/:meth:`merge`.
        self._sorted: Optional[List[float]] = None

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.count += 1
        self.total += value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        if self._samples is not None:
            self._samples.append(value)
            self._sorted = None

    def merge(self, other: "Tally") -> "Tally":
        """Fold ``other``'s observations into this tally, exactly.

        Uses Chan et al.'s parallel Welford update, so merging per-shard
        tallies from parallel runs yields bit-for-bit the same count,
        total, min, max and (numerically stable) mean/variance as one
        stream would — the parallel experiment runner relies on this
        when reassembling multi-run reports.  Returns ``self``.
        """
        if other.count == 0:
            return self
        if self._samples is not None:
            if other._samples is None:
                raise ValueError(
                    "cannot merge a keep_samples tally with one that "
                    "dropped its samples"
                )
            self._samples.extend(other._samples)
            self._sorted = None
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
        else:
            combined = self.count + other.count
            delta = other._mean - self._mean
            self._mean += delta * other.count / combined
            self._m2 += other._m2 + delta * delta * self.count * other.count / combined
            self.count = combined
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        return self

    @property
    def mean(self) -> float:
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        """Population variance of the observations."""
        return self._m2 / self.count if self.count else math.nan

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance) if self.count else math.nan

    @property
    def samples(self) -> List[float]:
        if self._samples is None:
            raise ValueError("Tally was created with keep_samples=False")
        return list(self._samples)

    def percentile(self, q: float) -> float:
        """q-th percentile (0..100) by nearest-rank over kept samples.

        The sorted order is cached across calls (rendering a latency
        report asks for several percentiles of the same samples) and
        invalidated whenever a new sample arrives.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile out of range: {q}")
        if self._samples is None:
            raise ValueError("Tally was created with keep_samples=False")
        if not self._samples:
            return math.nan
        data = self._sorted
        if data is None:
            data = self._sorted = sorted(self._samples)
        rank = max(1, math.ceil(q / 100.0 * len(data)))
        return data[rank - 1]

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot (None statistics when empty, no NaN)."""
        empty = self.count == 0
        return {
            "count": self.count,
            "total": self.total,
            "mean": None if empty else self._mean,
            "m2": None if empty else self._m2,
            "stddev": None if empty else self.stddev,
            "min": None if empty else self.minimum,
            "max": None if empty else self.maximum,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Tally":
        """Rebuild a (sample-less) tally from :meth:`as_dict` output."""
        tally = cls()
        tally.count = int(data["count"])
        if tally.count:
            tally.total = float(data["total"])
            tally._mean = float(data["mean"])
            tally._m2 = float(data["m2"])
            tally.minimum = float(data["min"])
            tally.maximum = float(data["max"])
        return tally


class TimeWeighted:
    """Time-weighted average of a piecewise-constant quantity.

    Call :meth:`record` whenever the level changes; the average weights
    each level by how long it was held.
    """

    def __init__(self, now: float = 0.0, level: float = 0.0):
        self._last_time = now
        self._level = level
        self._area = 0.0
        self._start = now

    @property
    def level(self) -> float:
        return self._level

    def record(self, now: float, level: float) -> None:
        """The quantity changed to ``level`` at time ``now``."""
        if now < self._last_time:
            raise ValueError("time went backwards")
        self._area += self._level * (now - self._last_time)
        self._last_time = now
        self._level = level

    def average(self, now: float) -> float:
        """Time-weighted mean over [start, now]."""
        span = now - self._start
        if span <= 0:
            return self._level
        return (self._area + self._level * (now - self._last_time)) / span

    def area(self, now: float) -> float:
        """Integral of the level over [start, now] (level-seconds)."""
        return self._area + self._level * (now - self._last_time)


class UtilizationTracker:
    """Fraction of time a facility is busy (e.g. server CPU, the wire)."""

    def __init__(self, now: float = 0.0):
        self._tw = TimeWeighted(now=now, level=0.0)
        self._depth = 0

    def busy(self, now: float) -> None:
        """Mark the start of a busy interval (nestable)."""
        self._depth += 1
        if self._depth == 1:
            self._tw.record(now, 1.0)

    def idle(self, now: float) -> None:
        """Mark the end of a busy interval."""
        if self._depth <= 0:
            raise ValueError("idle() without matching busy()")
        self._depth -= 1
        if self._depth == 0:
            self._tw.record(now, 0.0)

    def utilization(self, now: float) -> float:
        """Busy fraction over the tracked lifetime."""
        return self._tw.average(now)

    def busy_seconds(self, now: float) -> float:
        """Cumulative busy time up to ``now`` — differentiating this
        between telemetry ticks yields *windowed* utilisation, where
        :meth:`utilization` only gives the lifetime average."""
        return self._tw.area(now)
