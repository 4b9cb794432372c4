"""Asynchronous, in-flight lookups on the virtual clock.

The base protocol evaluates one lookup atomically (RPC-level simulation).
:class:`AsyncEngine` instead advances a lookup one *message* at a time
through the discrete-event simulator: each hop is a scheduled delivery, the
next-hop decision uses the receiving node's state *at delivery time*, and
completions fire callbacks with the virtual-time latency.  Lookups therefore
genuinely interleave with joins, leaves, crashes and stabilization scheduled
on the same clock — the regime where mid-flight failures are visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..core.routing import MAX_HOPS
from ..obs.metrics import record_counter
from .protocol import SimulatedCrescendo


@dataclass
class AsyncResult:
    """Completion record of one asynchronous lookup."""

    key: int
    path: List[int]
    success: bool
    started_at: float
    completed_at: float

    @property
    def hops(self) -> int:
        return len(self.path) - 1

    @property
    def duration(self) -> float:
        return self.completed_at - self.started_at


class AsyncEngine:
    """Message-at-a-time lookups over a live :class:`SimulatedCrescendo`."""

    def __init__(self, net: SimulatedCrescendo) -> None:
        self.net = net
        self.completed: List[AsyncResult] = []
        self.in_flight = 0

    def lookup(
        self,
        src: int,
        key: int,
        on_complete: Optional[Callable[[AsyncResult], None]] = None,
    ) -> None:
        """Start a lookup; it progresses via scheduled message deliveries."""
        if src not in self.net.nodes or not self.net.nodes[src].alive:
            raise ValueError(f"source {src} is not a live node")
        self.in_flight += 1
        state = {"path": [src], "started": self.net.sim.now}
        self._step(src, key, state, on_complete)

    def _finish(self, key, state, success, on_complete) -> None:
        result = AsyncResult(
            key=key,
            path=state["path"],
            success=success,
            started_at=state["started"],
            completed_at=self.net.sim.now,
        )
        self.completed.append(result)
        self.in_flight -= 1
        record_counter("async.completed")
        if on_complete is not None:
            on_complete(result)

    def _step(self, cur: int, key: int, state, on_complete) -> None:
        """Decide the next hop *now*, at this node, with its current state."""
        net = self.net
        node = net.nodes.get(cur)
        if node is None or not node.alive:
            # The node died while the message was in flight: lost.
            record_counter("async.lost")
            self._finish(key, state, False, on_complete)
            return
        if len(state["path"]) > MAX_HOPS:
            self._finish(key, state, False, on_complete)
            return
        remaining = net.space.ring_distance(cur, key)
        if remaining == 0:
            self._finish(key, state, True, on_complete)
            return
        best: Optional[int] = None
        best_dist = 0
        for contact in node.routing_contacts():
            peer = net.nodes.get(contact)
            if peer is None or not peer.alive:
                continue
            dist = net.space.ring_distance(cur, contact)
            if 0 < dist <= remaining and dist > best_dist:
                best, best_dist = contact, dist
        if best is None:
            self._finish(
                key, state, net._responsible_live(cur, key), on_complete
            )
            return
        nxt = best

        def deliver() -> None:
            state["path"].append(nxt)
            self._step(nxt, key, state, on_complete)

        net.msgs.send(cur, nxt, "async_lookup", deliver)

    # ------------------------------------------------------------- reporting

    def delivery_rate(self) -> float:
        """Fraction of completed lookups that succeeded.

        ``NaN`` when nothing has completed yet: "no data" must not read
        as a perfect 1.0 delivery rate.
        """
        if not self.completed:
            return float("nan")
        return sum(r.success for r in self.completed) / len(self.completed)

    def mean_duration(self) -> float:
        """Mean virtual-time duration of successful lookups."""
        done = [r.duration for r in self.completed if r.success]
        return sum(done) / len(done) if done else 0.0
