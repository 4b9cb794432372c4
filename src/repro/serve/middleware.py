"""Pluggable before/after middleware around the serving runtime.

Middleware attaches policy-adjacent concerns — tracing, SLO recording,
ACL-style domain checks (the §4.1 access-control story: a domain may
restrict who can query it) — to submit and complete *batches*, never to
individual hops: the frontier loop stays untouched no matter how many
middlewares are chained.

A middleware is any object with the two (optional) hooks of
:class:`Middleware`.  ``before_submit`` may veto submissions by returning
a deny mask; ``after_complete`` observes finished lookups.  Both receive
plain SoA batch views, so a middleware that wants numpy speed gets it and
one that wants a Python loop over a handful of completions pays only for
what it touches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..obs.slo import record_slo

__all__ = [
    "CompletionBatch",
    "DomainACL",
    "Middleware",
    "SLOMiddleware",
    "SubmitBatch",
    "TracingMiddleware",
]


@dataclass
class SubmitBatch:
    """One submit call's lookups, pre-admission (aligned arrays)."""

    sources: np.ndarray  # uint64
    keys: np.ndarray  # uint64
    domains: List[str]  # per-lookup top-level domain label


@dataclass
class CompletionBatch:
    """One tick's finished lookups (aligned arrays).

    ``status`` holds the runtime's ``STATUS_*`` codes; ``success`` is the
    routing verdict (meaningful for served lookups, False for shed /
    denied / expired ones).  ``delivered`` is the SLO notion: routed to
    the key's responsible node within policy.
    """

    tickets: np.ndarray  # int64
    sources: np.ndarray  # uint64
    keys: np.ndarray  # uint64
    terminals: np.ndarray  # uint64
    hops: np.ndarray  # int64
    latency_ms: np.ndarray  # float64
    attempts: np.ndarray  # int32
    success: np.ndarray  # bool
    status: np.ndarray  # int16

    @property
    def size(self) -> int:
        return int(self.tickets.size)

    @property
    def delivered(self) -> np.ndarray:
        return self.success.copy()


class Middleware:
    """Base middleware: override either hook; both default to no-ops."""

    def before_submit(self, batch: SubmitBatch) -> Optional[np.ndarray]:
        """Return a bool deny mask (True = reject) or None to pass all."""
        return None

    def after_complete(self, batch: CompletionBatch) -> None:
        """Observe one tick's completions (counters, tracing, SLO...)."""


class DomainACL(Middleware):
    """Deny submissions from (or to keys under) blocked top-level domains.

    The paper's §4.1 access-control semantics at the serving edge: a
    blocked source domain never reaches the frontier at all — its lookups
    complete immediately with ``STATUS_DENIED``.
    """

    def __init__(self, deny_sources: Sequence[str] = ()) -> None:
        self.deny_sources = frozenset(deny_sources)

    def before_submit(self, batch: SubmitBatch) -> Optional[np.ndarray]:
        """Deny mask: True for lookups sourced in a blocked domain."""
        if not self.deny_sources:
            return None
        return np.asarray(
            [d in self.deny_sources for d in batch.domains], dtype=bool
        )


class TracingMiddleware(Middleware):
    """Mark submit/complete batches on the active `repro.obs` tracer."""

    def before_submit(self, batch: SubmitBatch) -> Optional[np.ndarray]:
        """Emit a ``serve.submit`` mark with the batch size; denies nothing."""
        tracer = obs_trace.active_tracer()
        if tracer is not None:
            with tracer.span("serve.submit", lookups=int(batch.sources.size)):
                pass
        return None

    def after_complete(self, batch: CompletionBatch) -> None:
        """Emit a ``serve.complete`` mark with size and delivered count."""
        tracer = obs_trace.active_tracer()
        if tracer is not None:
            with tracer.span(
                "serve.complete",
                lookups=batch.size,
                delivered=int(np.count_nonzero(batch.delivered)),
            ):
                pass


class SLOMiddleware(Middleware):
    """Feed completions into the standard ``slo.*`` instrument family.

    Uses the exact names :class:`repro.obs.slo.SLOReport` parses —
    ``slo.samples.<label>`` / ``slo.delivered.<label>`` counters plus the
    ``slo.lookup_ms.<label>`` histogram over delivered lookups — so a
    serving run lands in the same report as scenario and experiment runs.
    """

    def __init__(self, label: str) -> None:
        self.label = label

    def after_complete(self, batch: CompletionBatch) -> None:
        """Record samples/delivered counters and the delivered-ms histogram."""
        registry = obs_metrics.active_registry()
        if registry is not None:
            delivered = batch.delivered
            record_slo(
                registry,
                self.label,
                batch.size,
                int(np.count_nonzero(delivered)),
                batch.latency_ms[delivered],
            )
