"""Serving policy as data: deadlines, retries, hedging, admission control.

Every knob the runtime honours lives in one frozen :class:`ServePolicy`;
the frontier loop itself stays policy-free (it only steps hops), and the
runtime consults these values between steps.  Keeping policy declarative
is what makes the outcome-invariance property testable at all: two runs
that differ only in policy must deliver identical routing outcomes on a
static network, differing only in latency and counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..core.routing import MAX_HOPS

__all__ = ["DomainBuckets", "NO_POLICY", "ServePolicy"]


@dataclass(frozen=True)
class ServePolicy:
    """Per-runtime serving policy (all knobs, no behaviour).

    Latency bookkeeping is virtual milliseconds: with a
    :class:`~repro.perf.latency.LatencyTable` each hop costs its true
    transit-stub ms, otherwise ``hop_ms`` per hop; a tick spent waiting
    (retry backoff) costs ``tick_ms``.  Deadlines are end-to-end per
    lookup — hops, backoff waits and the hedge runner all draw from the
    same budget.
    """

    #: End-to-end completion budget per lookup (virtual ms).
    deadline_ms: float = float("inf")
    #: Per-attempt hop bound; mirrors the scalar engines' ``MAX_HOPS``.
    hop_cap: int = MAX_HOPS
    #: Virtual cost of one scheduler tick for *waiting* slots.
    tick_ms: float = 1.0
    #: Per-hop cost when the runtime has no latency table.
    hop_ms: float = 1.0
    #: Total tries per lookup (1 = no retries).
    max_attempts: int = 1
    #: Backoff before attempt 2 (doubles per further attempt).
    retry_backoff_ms: float = 4.0
    #: Restart retry attempts from an alternate contact of the source
    #: (attempt ``k`` starts at the source's ``k``-th neighbor) instead of
    #: re-walking from the source itself.
    retry_alternates: bool = False
    #: Duplicate the slowest ``p``-quantile of in-flight lookups (None
    #: disables hedging).  First completion wins; the loser is cancelled.
    hedge_quantile: Optional[float] = None
    #: Never hedge a lookup younger than this (virtual ms).
    hedge_min_ms: float = 0.0
    #: Token-bucket refill per tick per top-level domain (None = no
    #: admission control).
    admit_rate: Optional[float] = None
    #: Token-bucket capacity (burst) per top-level domain.
    admit_burst: float = 64.0

    def __post_init__(self) -> None:
        """``ValueError`` naming the field for a knob out of its range (a
        NaN compares false, so it is out of every range)."""
        q, rate = self.hedge_quantile, self.admit_rate
        for name, ok, need in (
            ("deadline_ms", not math.isnan(self.deadline_ms), "a number"),
            ("hop_cap", self.hop_cap >= 1, "at least 1"),
            ("tick_ms", self.tick_ms > 0, "positive"),
            ("hop_ms", self.hop_ms > 0, "positive"),
            ("max_attempts", self.max_attempts >= 1, "at least 1"),
            ("retry_backoff_ms", self.retry_backoff_ms >= 0, "non-negative"),
            ("hedge_quantile", q is None or 0 <= q <= 1, "in [0, 1]"),
            ("hedge_min_ms", self.hedge_min_ms >= 0, "non-negative"),
            ("admit_rate", rate is None or rate >= 0, "non-negative"),
            ("admit_burst", self.admit_burst >= 0, "non-negative"),
        ):
            if not ok:
                value = getattr(self, name)
                raise ValueError(f"ServePolicy.{name} must be {need}, got {value!r}")


#: The identity policy: no deadlines, retries, hedging or admission.
NO_POLICY = ServePolicy()


class DomainBuckets:
    """Per-top-domain token buckets, vectorized over submission batches.

    Buckets refill by ``rate`` tokens per tick up to ``burst``; each
    admitted lookup consumes one token from its source's top-level
    domain.  Admission within a batch is first-come: when a domain's
    batch exceeds its available tokens, the earliest submissions win and
    the rest are shed.  Fully deterministic.
    """

    def __init__(self, rate: float, burst: float, domains: Sequence[str] = ()):
        self.rate = float(rate)
        self.burst = float(burst)
        self._codes: Dict[str, int] = {}
        self.tokens = np.zeros(0, dtype=np.float64)
        for domain in domains:
            self.code(domain)

    def code(self, domain: str) -> int:
        """Stable small-int code for a domain label (new buckets start full)."""
        code = self._codes.get(domain)
        if code is None:
            code = len(self._codes)
            self._codes[domain] = code
            self.tokens = np.append(self.tokens, self.burst)
        return code

    def codes(self, domains: Sequence[str]) -> np.ndarray:
        """Codes of a batch of labels, new buckets in first-seen order."""
        for domain in dict.fromkeys(domains):
            self.code(domain)
        return np.fromiter(
            map(self._codes.__getitem__, domains),
            dtype=np.int64,
            count=len(domains),
        )

    @property
    def domains(self) -> Sequence[str]:
        return tuple(self._codes)

    def refill(self) -> None:
        """Add one tick's ``rate`` tokens to every bucket, capped at burst."""
        if self.tokens.size:
            np.minimum(self.tokens + self.rate, self.burst, out=self.tokens)

    def admit(self, codes: np.ndarray) -> np.ndarray:
        """Consume tokens for a batch; True where admitted (batch order)."""
        admitted = np.zeros(codes.size, dtype=bool)
        if codes.size == 0:
            return admitted
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        starts = np.flatnonzero(
            np.r_[True, sorted_codes[1:] != sorted_codes[:-1]]
        )
        runs = np.diff(np.r_[starts, sorted_codes.size])
        rank = np.arange(sorted_codes.size) - np.repeat(starts, runs)
        quota = np.floor(self.tokens[sorted_codes]).astype(np.int64)
        admitted[order] = rank < quota
        taken = np.bincount(codes[admitted], minlength=self.tokens.size)
        self.tokens -= taken[: self.tokens.size]
        return admitted
