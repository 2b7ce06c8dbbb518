"""Streaming estimators: windowed selectivity, arrival rate, EWMA, drift.

These are the signals the future ``repro.optimizer`` transition trigger
consumes (ROADMAP, "close the optimizer loop"): Liu/Ives/Loo maintain
plan costs incrementally from *continuously observed* selectivities
(PAPERS.md, arxiv 1409.6288), and Megaphone paces migrations from live
latency/rate measurements (arxiv 1812.01371).  Everything here is O(1)
per observation, bounded-memory, and wall-clock-free.

* :class:`WindowedRatio` — exact hit ratio over the last *W* Bernoulli
  observations (per-operator selectivity over the last N probes).
* :class:`SampledRate` — a rate from periodic samples of a cumulative
  count (arrivals or outputs per unit virtual time).
* :class:`Ewma` — exponentially weighted moving average.
* :class:`PageHinkley` — two-sided Page–Hinkley mean-shift test; combined
  with an EWMA baseline in :class:`SelectivityDriftDetector`, which is
  the drift flag the dashboard renders and the trigger input the
  optimizer loop will consume.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple


class WindowedRatio:
    """Exact ratio of true observations over the last ``window`` samples.

    The ring holds one bit per observation, so ``estimate()`` equals a
    brute-force recompute over the retained window exactly (the property
    tests/test_telemetry_estimators.py certifies against drift
    workloads).
    """

    __slots__ = ("window", "_bits", "_hits", "total", "total_hits")

    def __init__(self, window: int = 5000):
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._bits: Deque[int] = deque(maxlen=window)
        self._hits = 0
        #: Lifetime observation count (not windowed), for warm-up gating.
        self.total = 0
        self.total_hits = 0

    def observe(self, hit: bool) -> None:
        bits = self._bits
        if len(bits) == self.window:
            self._hits -= bits[0]
        bit = 1 if hit else 0
        bits.append(bit)
        self._hits += bit
        self.total += 1
        self.total_hits += bit

    @property
    def count(self) -> int:
        """Observations currently inside the window."""
        return len(self._bits)

    def estimate(self) -> Optional[float]:
        """Windowed ratio, or ``None`` before the first observation."""
        n = len(self._bits)
        if n == 0:
            return None
        return self._hits / n

    def lifetime(self) -> Optional[float]:
        if self.total == 0:
            return None
        return self.total_hits / self.total


class SampledRate:
    """Rate from periodic ``(time, cumulative count)`` samples.

    The caller keeps a plain cumulative counter on its hot path and
    samples it here at a coarse cadence (the telemetry hub does so every
    :data:`~repro.telemetry.hub.PROBE_POLL_EVERY` arrivals); the rate is
    the count delta over the time span of the retained samples — nothing
    is recorded per event.
    """

    __slots__ = ("window", "_samples")

    def __init__(self, window: int = 64):
        if window < 2:
            raise ValueError("window must be at least 2 samples")
        self.window = window
        self._samples: Deque[Tuple[float, int]] = deque(maxlen=window)

    def sample(self, t: float, count: int) -> None:
        samples = self._samples
        if samples and samples[-1][0] >= t:
            # Re-sampling the same instant (e.g. repeated sync() calls
            # between events) replaces the last point instead of flooding
            # the window with duplicates.
            samples[-1] = (t, count)
            return
        samples.append((t, count))

    def rate(self) -> float:
        """Events per time unit over the retained span (0 when flat)."""
        samples = self._samples
        if len(samples) < 2:
            return 0.0
        t0, c0 = samples[0]
        t1, c1 = samples[-1]
        span = t1 - t0
        if span <= 0:
            return 0.0
        return (c1 - c0) / span


class Ewma:
    """Exponentially weighted moving average with bias-corrected start."""

    __slots__ = ("alpha", "value", "count")

    def __init__(self, alpha: float = 0.05):
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.value: Optional[float] = None
        self.count = 0

    def update(self, x: float) -> float:
        self.count += 1
        value = self.value
        if value is None:
            value = x
        else:
            value += self.alpha * (x - value)
        self.value = value
        return value


class PageHinkley:
    """Two-sided Page–Hinkley test for a shift in the mean of a stream.

    Classic formulation: maintain the running mean ``x̄_t`` and the
    cumulative deviations ``m_t = Σ (x_i - x̄_i - δ)`` (upward branch) and
    ``m'_t = Σ (x_i - x̄_i + δ)`` (downward branch); drift is declared
    when ``m_t - min m_t > λ`` or ``max m'_t - m'_t > λ``.  ``δ`` absorbs
    per-sample noise (it is subtracted from every deviation), ``λ`` sets
    how much *sustained* deviation constitutes a shift.  ``min_samples``
    suppresses verdicts while the mean estimate is still warming up.

    After firing, the test resets its statistics and starts tracking the
    post-shift regime — a workload with several phase changes fires once
    per change (tests/test_telemetry_estimators.py).
    """

    __slots__ = (
        "delta",
        "threshold",
        "min_samples",
        "count",
        "mean",
        "_up",
        "_up_min",
        "_down",
        "_down_max",
        "fired",
    )

    def __init__(
        self, delta: float = 0.005, threshold: float = 20.0, min_samples: int = 30
    ):
        if delta < 0 or threshold <= 0 or min_samples < 1:
            raise ValueError("need delta >= 0, threshold > 0, min_samples >= 1")
        self.delta = delta
        self.threshold = threshold
        self.min_samples = min_samples
        #: Number of drifts detected so far.
        self.fired = 0
        self._reset_stats()

    def _reset_stats(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._up = 0.0
        self._up_min = 0.0
        self._down = 0.0
        self._down_max = 0.0

    def update(self, x: float, weight: float = 1.0) -> bool:
        """Feed one observation; returns True when a mean shift fired.

        ``weight`` lets a caller feed the mean of ``weight`` underlying
        samples as one observation (the block-aggregated selectivity
        detectors do): the cumulative deviations and the sample count
        advance by ``weight``, so ``delta``/``threshold``/``min_samples``
        keep their per-underlying-sample meaning regardless of blocking.
        """
        if weight <= 0:
            raise ValueError("weight must be positive")
        self.count += weight
        self.mean += (x - self.mean) * (weight / self.count)
        dev = x - self.mean
        self._up += (dev - self.delta) * weight
        self._down += (dev + self.delta) * weight
        if self._up < self._up_min:
            self._up_min = self._up
        if self._down > self._down_max:
            self._down_max = self._down
        if self.count < self.min_samples:
            return False
        if (self._up - self._up_min > self.threshold) or (
            self._down_max - self._down > self.threshold
        ):
            self.fired += 1
            self._reset_stats()
            return True
        return False


class SelectivityDriftDetector:
    """EWMA-smoothed windowed selectivity + Page–Hinkley drift flag.

    Feed it every probe outcome.  Observations accumulate into blocks of
    ``block`` outcomes — per observation the work is two integer adds and
    a compare, cheap enough for the engine's per-probe hot path (the
    telemetry overhead gate counts on it).  Each completed block feeds
    the EWMA baseline and the Page–Hinkley test with the block mean,
    weighted by the block size so ``delta``/``threshold``/``min_samples``
    keep their per-probe meaning.

    The selectivity window retains ``window // block`` completed blocks
    (plus the partial block), so :meth:`estimate` tracks an exact
    recompute of the trailing window to within one block — with
    ``block=1`` (the default) it *is* the exact sliding-window ratio.
    ``drifted`` latches until :meth:`clear` so a dashboard frame rendered
    after the shift still shows the flag.
    """

    __slots__ = (
        "window",
        "block",
        "ewma",
        "ph",
        "drifted",
        "total",
        "total_hits",
        "_blocks",
        "_win_n",
        "_win_h",
        "_cur_n",
        "_cur_h",
    )

    def __init__(
        self,
        window: int = 5000,
        block: int = 1,
        alpha: float = 0.05,
        delta: float = 0.005,
        threshold: float = 20.0,
        min_samples: int = 30,
    ):
        if window <= 0:
            raise ValueError("window must be positive")
        if not 0 < block <= window:
            raise ValueError("block must be in [1, window]")
        self.window = window
        self.block = block
        self.ewma = Ewma(alpha)
        self.ph = PageHinkley(delta=delta, threshold=threshold, min_samples=min_samples)
        self.drifted = False
        #: Lifetime observation / hit counts (never windowed).
        self.total = 0
        self.total_hits = 0
        self._blocks: Deque[Tuple[int, int]] = deque()
        self._win_n = 0
        self._win_h = 0
        self._cur_n = 0
        self._cur_h = 0

    def observe(self, hit: bool) -> bool:
        """One probe outcome; returns True when its block fired the test."""
        self.total += 1
        n = self._cur_n + 1
        if hit:
            self.total_hits += 1
            self._cur_h += 1
        if n < self.block:
            self._cur_n = n
            return False
        h = self._cur_h
        self._cur_n = 0
        self._cur_h = 0
        return self._flush_block(n, h)

    def push_block(self, n: int, h: int) -> bool:
        """Fold in ``n`` outcomes of which ``h`` hit, as one batch.

        This is the polled-delta entry point (the telemetry hub reads
        operator probe tallies every few arrivals and pushes the deltas);
        batches accumulate until at least ``block`` outcomes are pending,
        then flush exactly like :meth:`observe` blocks do.  Returns True
        when the flushed block fired the drift test.
        """
        if n <= 0 or h < 0 or h > n:
            raise ValueError("need 0 <= h <= n with n > 0")
        self.total += n
        self.total_hits += h
        self._cur_n += n
        self._cur_h += h
        if self._cur_n < self.block:
            return False
        n2, h2 = self._cur_n, self._cur_h
        self._cur_n = 0
        self._cur_h = 0
        return self._flush_block(n2, h2)

    def _flush_block(self, n: int, h: int) -> bool:
        mean = h / n
        self.ewma.update(mean)
        blocks = self._blocks
        blocks.append((n, h))
        win_n = self._win_n + n
        win_h = self._win_h + h
        # Evict whole blocks while the window would still hold ``window``
        # observations without them (blocks may have ragged sizes when fed
        # via push_block, so the retained span is [window, window+block)).
        window = self.window
        while win_n - blocks[0][0] >= window:
            old_n, old_h = blocks.popleft()
            win_n -= old_n
            win_h -= old_h
        self._win_n = win_n
        self._win_h = win_h
        fired = self.ph.update(mean, float(n))
        if fired:
            self.drifted = True
        return fired

    @property
    def count(self) -> int:
        """Observations currently inside the window (incl. partial block)."""
        return self._win_n + self._cur_n

    @property
    def drift_count(self) -> int:
        return self.ph.fired

    def estimate(self) -> Optional[float]:
        """Windowed selectivity, or ``None`` before the first observation."""
        n = self._win_n + self._cur_n
        if n == 0:
            return None
        return (self._win_h + self._cur_h) / n

    def lifetime(self) -> Optional[float]:
        if self.total == 0:
            return None
        return self.total_hits / self.total

    def smoothed(self) -> Optional[float]:
        return self.ewma.value

    def clear(self) -> None:
        self.drifted = False

    def summary(self) -> Tuple[Optional[float], Optional[float], int, bool]:
        """(windowed estimate, EWMA, drifts fired, latched flag)."""
        return (self.estimate(), self.smoothed(), self.drift_count, self.drifted)
