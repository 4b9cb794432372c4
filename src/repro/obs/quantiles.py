"""Streaming quantile estimation for the SLO layer.

Two estimators plus two pure helpers:

- :func:`percentile` — exact linear-interpolation quantile of a sorted
  sample (numpy's default ``percentile`` method, without requiring numpy).
- :func:`bucket_quantile` — quantile interpolated from fixed histogram
  buckets; the coarse fallback when no sample is available.
- :class:`ReservoirSample` — uniform reservoir (Vitter's algorithm R) with
  a deterministic per-name seed.  Exact while the stream fits in the
  reservoir; an unbiased uniform subsample beyond that.  This is what
  :class:`repro.obs.metrics.Histogram` carries so snapshots can answer
  p50/p95/p99 in milliseconds rather than bucket bounds.
- :class:`P2Quantile` — the Jain & Chlamtac P² marker estimator: O(1)
  memory per tracked quantile, no sample retention.  Used where even a
  bounded reservoir is too much state (and property-tested against numpy
  percentiles in ``tests/test_obs_slo.py``).
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence

import numpy as np

__all__ = [
    "DEFAULT_RESERVOIR_CAP",
    "P2Quantile",
    "ReservoirSample",
    "bucket_quantile",
    "percentile",
    "pool_samples",
]

#: Default reservoir capacity: exact quantiles for every smoke/small run,
#: ~1.5% worst-case p99 sampling error at paper scale, 32 KiB per histogram.
DEFAULT_RESERVOIR_CAP = 4096


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of an ascending-sorted sample.

    Matches ``numpy.percentile(values, q * 100)`` (the default "linear"
    method).  ``q`` is a fraction in [0, 1].  Returns 0.0 for an empty
    sample.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    n = len(sorted_values)
    if n == 0:
        return 0.0
    if n == 1:
        return float(sorted_values[0])
    h = (n - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, n - 1)
    frac = h - lo
    return float(sorted_values[lo]) + frac * (
        float(sorted_values[hi]) - float(sorted_values[lo])
    )


def bucket_quantile(
    buckets: Sequence[float], counts: Sequence[int], q: float
) -> float:
    """Quantile interpolated from fixed histogram buckets (coarse).

    Assumes observations are uniform within each bucket; the overflow
    bucket reports its lower bound.  Only used when a histogram snapshot
    carries no reservoir sample.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = sum(counts)
    if total == 0:
        return 0.0
    target = q * total
    seen = 0.0
    for i, count in enumerate(counts):
        if count == 0:
            continue
        if seen + count >= target:
            lo = 0.0 if i == 0 else float(buckets[i - 1])
            if i >= len(buckets):  # overflow bucket: no upper bound
                return lo
            hi = float(buckets[i])
            frac = (target - seen) / count
            return lo + frac * (hi - lo)
        seen += count
    lo = float(buckets[-1]) if buckets else 0.0
    return lo


class ReservoirSample:
    """Uniform fixed-capacity reservoir (algorithm R), deterministic.

    The replacement RNG is seeded from ``name`` so two runs observing the
    same value stream produce the same reservoir — snapshots and the SLO
    tables built from them are reproducible.

    The ``i``-th observation past capacity replaces slot
    ``rng.randrange(i)`` when that is below ``cap``.  Those draws are made
    a batch at a time from the generator's 32-bit word stream (see
    :meth:`_draws`), so a batch costs a few array passes instead of one
    ``randrange`` call per value — and retains exactly the values a
    per-value ``randrange`` loop would.
    """

    __slots__ = ("cap", "seen", "_kept", "_rng", "_name", "_words", "_next")

    def __init__(self, name: str = "", cap: int = DEFAULT_RESERVOIR_CAP) -> None:
        if cap <= 0:
            raise ValueError(f"reservoir capacity must be positive, got {cap}")
        self.cap = cap
        self.seen = 0
        self._kept = np.empty(cap)
        self._name = name
        self._rng: Optional[random.Random] = None
        self._words = np.empty(0, dtype="<u4")  # pre-drawn, not yet used
        self._next = 0

    def _rand(self) -> random.Random:
        if self._rng is None:
            self._rng = random.Random(f"reservoir:{self._name}:{self.cap}")
        return self._rng

    @property
    def values(self) -> List[float]:
        """The retained observations, in slot order."""
        return self._kept[: min(self.seen, self.cap)].tolist()

    @property
    def exact(self) -> bool:
        """True while every observation is still retained."""
        return self.seen <= self.cap

    def observe(self, value: float) -> None:
        """Offer one value to the reservoir."""
        self.observe_many((value,))

    def observe_many(self, values: Sequence[float]) -> None:
        """Offer a batch (equivalent to per-value :meth:`observe`)."""
        arr = np.asarray(values, dtype=np.float64)
        filled = min(self.seen, self.cap)
        head = min(self.cap - filled, arr.size)
        self._kept[filled : filled + head] = arr[:head]
        if head < arr.size:
            slots = self._draws(self.seen + head + 1, arr.size - head)
            hit = slots < self.cap
            slots, kept = slots[hit], arr[head:][hit]
            # A slot drawn twice keeps its later value, as a loop would.
            order = np.argsort(slots, kind="stable")
            ordered = slots[order]
            last = np.ones(ordered.size, dtype=bool)
            last[:-1] = ordered[1:] != ordered[:-1]
            self._kept[ordered[last]] = kept[order[last]]
        self.seen += int(arr.size)

    def absorb(self, values: Sequence[float], count: int) -> None:
        """Fold in another reservoir's retained ``values`` of ``count``
        observations; ``seen`` becomes the pooled count.

        An exact sample (every observation retained) is replayed through
        :meth:`observe_many`, which is the stream a single reservoir would
        have seen, so a grid folded point by point retains what a serial
        run retains.  A subsample is pooled with :func:`pool_samples`.
        """
        if len(values) >= count:
            self.observe_many(values)
            return
        pooled = pool_samples(self._name, self.values, self.seen, list(values), count, self.cap)
        self._kept[: len(pooled)] = pooled
        self.seen += count

    def _draws(self, first: int, m: int) -> np.ndarray:
        """``[rng.randrange(first + i) for i in range(m)]``, without the loop.

        CPython's ``randrange(n)`` for ``n < 2**32`` takes one 32-bit
        Mersenne Twister word per try, ``r = word >> (32 - n.bit_length())``,
        and tries again while ``r >= n``.  ``getrandbits(32 * w)`` yields
        the next ``w`` words, least significant first, so the words are
        pulled in bulk and the accept test runs on arrays.  Draws are taken
        in runs whose ``n`` share a bit length: a word below the run's
        first ``n`` is accepted by any draw, one at or above its last ``n``
        by none, and only the few in between are walked in order.  Unused
        words stay in the buffer for the next call.
        """
        last = first + m - 1
        if last >= 1 << 32:
            raise OverflowError(
                f"reservoir {self._name!r}: draws are exact only below 2**32"
                f" observations, asked for {last}"
            )
        out = np.empty(m, dtype=np.int64)
        done = 0
        while done < m:
            n = first + done
            k = n.bit_length()
            # A run of about 8*sqrt(n) draws keeps the in-between words few.
            stop = min(m, (1 << k) - first, done + 8 * math.isqrt(n))
            done += self._draw_run(n, k, out[done:stop])
        return out

    def _draw_run(self, n: int, k: int, out: np.ndarray) -> int:
        """Fill a prefix of ``out`` with draws for ``n, n+1, ...``; its length."""
        need = out.size
        want = need * (1 << k) // n + 2 * math.isqrt(need) + 8
        self._reserve(want)
        words = self._words[self._next : self._next + want]
        r = (words >> (32 - k)).astype(np.int64)
        taken = (r < n).nonzero()[0]
        between = ((r >= n) & (r < n + need - 1)).nonzero()[0]
        if between.size:
            settled = []
            for pos, value, d in zip(
                between.tolist(), r[between].tolist(), taken.searchsorted(between).tolist()
            ):
                d += len(settled)  # the draw this word would serve
                if d >= need:
                    break
                if value < n + d:
                    settled.append(pos)
            if settled:
                taken = np.sort(np.concatenate((taken, settled)))
        used = taken[:need]
        out[: used.size] = r[used]
        self._next += int(used[-1]) + 1 if used.size == need else words.size
        return int(used.size)

    def _reserve(self, count: int) -> None:
        """Make sure at least ``count`` pre-drawn words are buffered."""
        short = count - (self._words.size - self._next)
        if short > 0:
            count = short + _PULL_AHEAD
            fresh = np.frombuffer(
                self._rand().getrandbits(32 * count).to_bytes(4 * count, "little"),
                dtype="<u4",
            )
            self._words = np.concatenate((self._words[self._next :], fresh))
            self._next = 0

    def quantile(self, q: float) -> float:
        """Quantile of the retained sample (exact while ``exact``)."""
        return percentile(sorted(self.values), q)


#: Words a refill pulls beyond what is asked for (32 KiB, one default
#: reservoir's worth), so one ``getrandbits`` call serves many batches.
_PULL_AHEAD = 8192


def pool_samples(
    name: str,
    mine: List[float],
    my_count: int,
    theirs: List[float],
    their_count: int,
    cap: int = DEFAULT_RESERVOIR_CAP,
) -> List[float]:
    """One uniform sample of two pooled streams, from each stream's sample.

    ``mine`` is a uniform sample of a stream of ``my_count`` observations
    and ``theirs`` of ``their_count``.  While both fit in ``cap`` they are
    concatenated.  Beyond that, the ``cap`` slots are split between the
    sides the way a uniform ``cap``-subset of all ``my_count +
    their_count`` observations splits (hypergeometric), and each side
    keeps that many of its values, chosen uniformly, in order.  A count
    below its sample's length (a diffed snapshot) counts as the length.
    Seeded per ``name``, so merges are reproducible.
    """
    if len(mine) + len(theirs) <= cap:
        return mine + theirs
    my_count, their_count = max(my_count, len(mine)), max(their_count, len(theirs))
    rng = random.Random(f"samples-merge:{name}")
    split = sum(1 for i in rng.sample(range(my_count + their_count), cap) if i < my_count)
    split = min(max(split, cap - len(theirs)), len(mine))
    keep_mine = sorted(rng.sample(range(len(mine)), split))
    keep_theirs = sorted(rng.sample(range(len(theirs)), cap - split))
    return [mine[i] for i in keep_mine] + [theirs[i] for i in keep_theirs]


class P2Quantile:
    """Jain & Chlamtac's P² single-quantile estimator (O(1) memory).

    Five markers track the running quantile without retaining the stream;
    heights are adjusted with the piecewise-parabolic (P²) formula.  Exact
    for the first five observations, a close estimate afterwards.
    """

    __slots__ = ("q", "_heights", "_positions", "_desired", "_increments", "count")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"P2 quantile must be in (0, 1), got {q}")
        self.q = q
        self.count = 0
        self._heights: List[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    def observe(self, value: float) -> None:
        """Feed one observation to the estimator."""
        value = float(value)
        self.count += 1
        if len(self._heights) < 5:
            self._heights.append(value)
            self._heights.sort()
            return
        h = self._heights
        if value < h[0]:
            h[0] = value
            k = 0
        elif value >= h[4]:
            h[4] = value
            k = 3
        else:
            k = 0
            while value >= h[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            self._positions[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]
        for i in (1, 2, 3):
            d = self._desired[i] - self._positions[i]
            n_i, n_lo, n_hi = self._positions[i], self._positions[i - 1], self._positions[i + 1]
            if (d >= 1.0 and n_hi - n_i > 1.0) or (d <= -1.0 and n_lo - n_i < -1.0):
                sign = 1.0 if d >= 1.0 else -1.0
                candidate = h[i] + (sign / (n_hi - n_lo)) * (
                    (n_i - n_lo + sign) * (h[i + 1] - h[i]) / (n_hi - n_i)
                    + (n_hi - n_i - sign) * (h[i] - h[i - 1]) / (n_i - n_lo)
                )
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:  # parabolic step overshot: fall back to linear
                    h[i] += sign * (h[i + int(sign)] - h[i]) / (
                        self._positions[i + int(sign)] - n_i
                    )
                self._positions[i] += sign

    @property
    def value(self) -> float:
        """The current quantile estimate (0.0 before any observation)."""
        if not self._heights:
            return 0.0
        if self.count <= 5:
            return percentile(sorted(self._heights), self.q)
        return self._heights[2]
