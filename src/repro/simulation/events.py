"""A minimal discrete-event simulator with message accounting.

Protocol code (node joins, leaves, stabilization, lookups) runs as events on
a virtual clock; every inter-node message is delayed by a pluggable latency
model and counted by type, so tests can verify the paper's O(log n) message
bound for Crescendo joins and experiments can measure protocol traffic.

Events are zero-argument closures (:meth:`Simulator.schedule`) run in
one total order (virtual time, then scheduling sequence) off a single
binary heap.

Observability (:mod:`repro.obs`): a :class:`Simulator` built while a tracer
is active (or given one explicitly) emits one trace event per drained
event, carrying the virtual time; a :class:`MessageLayer` built while a
metrics registry is active mirrors its per-type message counts into
``messages.<kind>`` counters — accumulated locally and flushed per queue
drain (see :meth:`MessageStats.flush`), not per message.  With neither
attached, the only overhead is one ``is None`` check per event.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional

from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace


def _action_name(action: object) -> str:
    """A drained event's trace label: its closure's name."""
    return getattr(action, "__qualname__", repr(action))


class Simulator:
    """Event queue + virtual clock.

    ``tracer`` defaults to the process-wide active tracer (if any) at
    construction time; pass ``tracer=None`` explicitly *after* activating a
    tracer only if you want this simulator silent — construction captures
    the active tracer, so the common case needs no wiring at all.
    """

    def __init__(self, tracer: Optional["obs_trace.Tracer"] = None) -> None:
        self.now = 0.0
        self._queue: list = []
        self._seq = itertools.count()
        self._drain_hooks: List[Callable[[], None]] = []
        self.events_run = 0
        self.tracer = tracer if tracer is not None else obs_trace.active_tracer()

    @property
    def pending(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------- scheduling

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Run ``action`` ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        heapq.heappush(self._queue, (self.now + delay, next(self._seq), action))

    def add_drain_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook()`` at the end of every :meth:`run` call.

        The flush point for batched accounting (see
        :meth:`MessageStats.flush`)."""
        self._drain_hooks.append(hook)

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> int:
        """Drain the queue (optionally up to virtual time ``until``).

        Returns the number of events executed.  Raises ``RuntimeError`` if
        runnable events remain after ``max_events`` executions — draining
        the queue with *exactly* the budget is not an error.
        """
        executed = 0
        tracer = self.tracer
        queue = self._queue
        while queue:
            when = queue[0][0]
            if until is not None and when > until:
                break
            if executed >= max_events:
                self.events_run += executed
                self._flush_drain_hooks()
                raise RuntimeError(
                    f"event budget exhausted: {executed} events run, virtual "
                    f"time {self.now:g} reached, {self.pending} still "
                    f"queued: runaway protocol?"
                )
            _, _, action = heapq.heappop(queue)
            self.now = when
            action()
            executed += 1
            if tracer is not None:
                tracer.event("sim.event", t=when, action=_action_name(action))
        self.events_run += executed
        self._flush_drain_hooks()
        return executed

    def _flush_drain_hooks(self) -> None:
        for hook in self._drain_hooks:
            hook()


class ConstantLatency:
    """Every message takes the same time (default 1 unit)."""

    def __init__(self, latency: float = 1.0) -> None:
        self.latency = latency

    def __call__(self, src: int, dst: int) -> float:
        return self.latency


@dataclass
class MessageStats:
    """Per-type message counters, resettable between measurement windows.

    ``batch_sink`` mirrors them into an external consumer such as a
    :class:`repro.obs.metrics.MetricsRegistry`: it receives a ``{kind:
    count}`` mapping on each :meth:`flush` — counts accumulate locally in
    ``pending`` between flushes, so the hot recording path is one Counter
    increment (see
    :meth:`~repro.obs.metrics.MetricsRegistry.message_sink_batch`).
    """

    counts: Counter = field(default_factory=Counter)
    batch_sink: Optional[Callable[[Mapping[str, int]], None]] = None
    pending: Counter = field(default_factory=Counter)

    def record(self, kind: str) -> None:
        """Count one message of the given type."""
        self.counts[kind] += 1
        if self.batch_sink is not None:
            self.pending[kind] += 1

    def record_many(self, kind: str, n: int) -> None:
        """Count ``n`` messages of one type (one increment, same mirroring)."""
        if n <= 0:
            return
        self.counts[kind] += n
        if self.batch_sink is not None:
            self.pending[kind] += n

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def flush(self) -> None:
        """Push counts accumulated since the last flush to ``batch_sink``."""
        if self.batch_sink is not None and self.pending:
            self.batch_sink(self.pending)
            self.pending.clear()

    def reset(self) -> Counter:
        """Zero the counters, returning the pre-reset snapshot.

        Pending batched counts are flushed first so no mirrored count is
        lost across a measurement-window boundary.
        """
        self.flush()
        snapshot = Counter(self.counts)
        self.counts.clear()
        return snapshot


class MessageLayer:
    """Delivers node-to-node messages through the simulator with latency.

    ``metrics`` defaults to the process-wide active registry (if any) at
    construction time; when present, per-kind message counts are mirrored
    into the registry's ``messages.<kind>`` counters — accumulated locally
    and flushed when the simulator drains its queue (a drain hook is
    registered here) or when :meth:`MessageStats.flush`/``reset`` runs,
    not on every message.
    """

    def __init__(
        self,
        sim: Simulator,
        latency_model: Callable[[int, int], float],
        metrics: Optional["obs_metrics.MetricsRegistry"] = None,
    ) -> None:
        self.sim = sim
        self.latency = latency_model
        registry = metrics if metrics is not None else obs_metrics.active_registry()
        self.stats = MessageStats(
            batch_sink=(
                registry.message_sink_batch() if registry is not None else None
            )
        )
        if registry is not None:
            sim.add_drain_hook(self.stats.flush)

    def send(self, src: int, dst: int, kind: str, action: Callable[[], None]) -> None:
        """Send one message; ``action`` runs at the destination on arrival."""
        self.stats.record(kind)
        self.sim.schedule(self.latency(src, dst), action)
