"""The event-loop serving runtime: frontier-at-a-time batched lookups.

:class:`ServeRuntime` owns a :class:`~repro.serve.batcher.FrontierBatcher`
of in-flight lookups over one compiled network view.  Every
:meth:`~ServeRuntime.tick`:

1. waiting (backed-off) slots age and re-enter the frontier;
2. all RUNNING slots are gathered into contiguous arrays and advanced one
   greedy hop through a single fused
   :meth:`~repro.perf.kernels.CompiledNetwork.frontier_step` call — no
   per-message Python callbacks, no per-lookup dispatch;
3. policy is applied *between* hops as vector masks: dead-current-node
   losses, per-attempt hop caps, terminal outcomes with bounded
   exponential-backoff retries against alternate contacts, end-to-end
   deadline expiry, and hedge launches for the slowest p-quantile;
4. the tick's completions are emitted as one batch through the middleware
   chain and the ``serve.*`` metrics.

Outcome contract: on a static view, every lookup that completes with a
routing outcome (OK or FAIL) has the success/terminal verdict of the
scalar engines — policy shifts *when* and *whether* a lookup completes
(latency, shed/expired counters), never *where* it lands.  That is what
the property tests pin and what makes the runtime differentially
checkable against :class:`~repro.simulation.async_lookup.AsyncEngine`
(:func:`repro.verify.oracles.compare_serving`).

Under churn, call :meth:`~ServeRuntime.set_view` with a fresh
:func:`~repro.serve.batcher.compile_protocol_view` snapshot between
ticks.  A lookup knows where it stands: each slot carries its node's
*position* in the served view's ``ids``, resolved once at submit, so no
tick searches for a node id.  Positions belong to one ``ids`` array and
node ids are what survives a swap: ``set_view`` re-resolves the open
slots when the new view's ``ids`` is another array, and only then.
Lookups parked on nodes that died or were forgotten resolve as LOST
exactly like AsyncEngine's in-flight message losses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import metrics as obs_metrics
from ..perf.kernels import CompiledNetwork, _in_sorted
from ..perf.latency import LatencyTable
from .batcher import FREE, RUNNING, WAITING, FrontierBatcher
from .middleware import CompletionBatch, Middleware, SubmitBatch
from .policy import NO_POLICY, DomainBuckets, ServePolicy

__all__ = [
    "STATUS_DEADLINE",
    "STATUS_DENIED",
    "STATUS_FAIL",
    "STATUS_HOPCAP",
    "STATUS_LOST",
    "STATUS_OK",
    "STATUS_SHED",
    "ServeReport",
    "ServeRuntime",
    "run_closed_loop",
    "run_open_loop",
]

#: Completion status codes (``CompletionBatch.status``).
STATUS_OK = 0  # served; ``success`` holds the routing verdict (True)
STATUS_FAIL = 1  # served; stuck short of the key, not responsible
STATUS_LOST = 2  # current node died mid-flight (AsyncEngine's lost message)
STATUS_HOPCAP = 3  # exceeded the per-attempt hop cap
STATUS_DEADLINE = 4  # end-to-end deadline expired
STATUS_SHED = 5  # admission control: no token for the source's domain
STATUS_DENIED = 6  # vetoed by a before-submit middleware (ACL)

_STATUS_NAMES = {
    STATUS_OK: "ok",
    STATUS_FAIL: "fail",
    STATUS_LOST: "lost",
    STATUS_HOPCAP: "hop_limit",
    STATUS_DEADLINE: "deadline",
    STATUS_SHED: "shed",
    STATUS_DENIED: "denied",
}

#: Statuses that carry a routing outcome (the lookup was actually served).
SERVED_STATUSES = (STATUS_OK, STATUS_FAIL)


@dataclass
class ServeReport:
    """Everything a finished serving run produced, in completion order."""

    counters: Dict[str, int]
    tickets: np.ndarray
    sources: np.ndarray
    keys: np.ndarray
    terminals: np.ndarray
    hops: np.ndarray
    latency_ms: np.ndarray
    attempts: np.ndarray
    success: np.ndarray
    status: np.ndarray

    @property
    def size(self) -> int:
        return int(self.tickets.size)

    @property
    def delivered(self) -> np.ndarray:
        return self.success.copy()

    @property
    def served(self) -> np.ndarray:
        """Lookups that got a routing outcome (not shed/denied/expired)."""
        return np.isin(self.status, SERVED_STATUSES)

    def quantile_ms(self, q: float) -> float:
        """Latency quantile over delivered lookups (NaN when none)."""
        ms = self.latency_ms[self.delivered]
        return float(np.quantile(ms, q)) if ms.size else float("nan")

    def outcome_map(self) -> Dict[int, Tuple[bool, int, int]]:
        """ticket -> (success, terminal, status) for equivalence checks."""
        return {
            int(t): (bool(s), int(term), int(st))
            for t, s, term, st in zip(
                self.tickets, self.success, self.terminals, self.status
            )
        }

    def summary(self) -> str:
        """One-line human summary of counters and latency quantiles."""
        c = self.counters
        return (
            f"{c['submitted']} submitted / {c['completed']} completed / "
            f"{c['delivered']} delivered  "
            f"(shed {c['shed']}, denied {c['denied']}, expired {c['expired']}, "
            f"lost {c['lost']}, retries {c['retries']}, hedges {c['hedges']}, "
            f"p50 {self.quantile_ms(0.5):.1f} ms, "
            f"p99 {self.quantile_ms(0.99):.1f} ms, {c['ticks']} ticks)"
        )


def _live_positions(compiled: CompiledNetwork, alive: np.ndarray) -> np.ndarray:
    """Where each live id sits in ``compiled.ids``; rejects a live-id
    array the kernels would silently misread."""
    if not (
        isinstance(alive, np.ndarray)
        and alive.dtype == np.uint64
        and alive.ndim == 1
    ):
        raise ValueError("alive must be a one-dimensional uint64 id array")
    disorder = np.flatnonzero(alive[1:] <= alive[:-1])
    if disorder.size:
        i = int(disorder[0])
        raise ValueError(
            f"alive must be strictly increasing: id {int(alive[i + 1])} "
            f"follows {int(alive[i])} at index {i + 1}"
        )
    at = compiled._locate(alive)
    if np.any(at < 0):
        raise ValueError(
            f"alive id {int(alive[at < 0][0])} is not in the compiled view"
        )
    return at


class ServeRuntime:
    """Batched lookup serving over one compiled network view."""

    def __init__(
        self,
        compiled: CompiledNetwork,
        alive: Optional[np.ndarray] = None,
        *,
        policy: Optional[ServePolicy] = None,
        latency: Optional[LatencyTable] = None,
        middlewares: Sequence[Middleware] = (),
        domain_of: Optional[Callable[[int], str]] = None,
    ) -> None:
        self.policy = policy if policy is not None else NO_POLICY
        self.latency = latency
        self.batcher = FrontierBatcher()
        self.compiled: Optional[CompiledNetwork] = None
        self.set_view(compiled, alive)
        #: Whether any submit carried a finite deadline of its own.
        self._finite_deadlines = False
        self.middlewares = list(middlewares)
        self.domain_of = domain_of
        self._domain_cache: Dict[int, str] = {}
        self.buckets: Optional[DomainBuckets] = None
        if self.policy.admit_rate is not None:
            self.buckets = DomainBuckets(
                self.policy.admit_rate, self.policy.admit_burst
            )
        self._next_ticket = 0
        self.completed_tickets = 0
        self.counters: Dict[str, int] = {
            key: 0
            for key in (
                "submitted", "admitted", "shed", "denied", "completed",
                "delivered", "failed", "lost", "hop_limit", "expired",
                "retries", "hedges", "hedge_wins", "hedge_cancelled",
                "ticks",
            )
        }
        self._done: Dict[str, List[np.ndarray]] = {
            key: []
            for key in (
                "tickets", "sources", "keys", "terminals", "hops",
                "latency_ms", "attempts", "success", "status",
            )
        }

    # ------------------------------------------------------------- views

    def set_view(
        self, compiled: CompiledNetwork, alive: Optional[np.ndarray] = None
    ) -> None:
        """Swap the network snapshot (after churn); in-flight state survives.

        ``alive`` must be a strictly increasing uint64 array of ids the
        view knows (``ValueError`` otherwise).  Liveness is folded into
        per-view tables here, once, so no tick under the view searches or
        filters anything: a flag per position (one past the end, false,
        is where an unresolved ``-1`` reads) and, on a ring, the step
        table without its dead neighbors.  Open slots are re-resolved by
        node id when ``compiled.ids`` is not the array they stand in; a
        node the new view forgot leaves its slots at ``-1``, LOST on
        their next tick.
        """
        live = np.zeros(compiled.n + 1, dtype=bool)
        if alive is None:
            live[:-1] = True
        else:
            live[_live_positions(compiled, alive)] = True
            if compiled.metric == "ring":
                compiled.bind_alive(alive)
        if self.compiled is not None and compiled.ids is not self.compiled.ids:
            b = self.batcher
            held = np.flatnonzero(b.state != FREE)
            b.cur[held] = self.node_ids(held)
            b.pos[held] = compiled._locate(b.cur[held])
        self.compiled = compiled
        self.alive = alive
        self._live = live
        self._lat_state = compiled._latency_state(self.latency)

    @property
    def in_flight(self) -> int:
        """Slots (runners) currently RUNNING or WAITING."""
        return self.batcher.in_flight

    @property
    def outstanding(self) -> int:
        """Tickets admitted but not yet completed."""
        return self._next_ticket - self.completed_tickets

    def node_ids(self, slots: np.ndarray) -> np.ndarray:
        """The node id each slot stands on (the one it was last resolved
        from where the view does not hold it)."""
        b = self.batcher
        at = b.pos[slots]
        return np.where(at >= 0, self.compiled.ids[at], b.cur[slots])

    # ------------------------------------------------------------ submit

    def _domains(self, sources: List[int]) -> List[str]:
        """Top-level domain label per source (``domain_of`` once per node)."""
        cache = self._domain_cache
        for node_id in set(sources).difference(cache):
            cache[node_id] = self.domain_of(node_id) if self.domain_of else ""
        return list(map(cache.__getitem__, sources))

    def submit_many(
        self,
        sources: Sequence[int],
        keys: Sequence[int],
        deadline_ms: Optional[float] = None,
    ) -> np.ndarray:
        """Admit a batch of lookups; returns their tickets.

        Every submission gets a ticket and exactly one eventual
        completion: denied and shed lookups complete immediately with
        their status, the rest enter the frontier.  A source the view does
        not hold is a ``KeyError`` here, before anything is admitted, when
        the view has no live array; under one it is a dead node like any
        other and its lookup completes LOST on the first tick.
        """
        src = np.ascontiguousarray(np.asarray(sources, dtype=np.uint64))
        dst = np.ascontiguousarray(np.asarray(keys, dtype=np.uint64))
        if src.shape != dst.shape:
            raise ValueError(f"{src.size} sources vs {dst.size} keys")
        c = self.compiled
        at = c._positions(src) if self.alive is None else c._locate(src)
        if deadline_ms is not None and np.isfinite(deadline_ms):
            self._finite_deadlines = True
        n = int(src.size)
        tickets = np.arange(
            self._next_ticket, self._next_ticket + n, dtype=np.int64
        )
        self._next_ticket += n
        self.counters["submitted"] += n
        self._inc_obs("serve.submitted", n)
        deny = np.zeros(n, dtype=bool)
        domains: List[str] = []
        if self.middlewares or self.buckets is not None:
            domains = self._domains(src.tolist())
        if self.middlewares:
            batch = SubmitBatch(sources=src, keys=dst, domains=domains)
            for mw in self.middlewares:
                mask = mw.before_submit(batch)
                if mask is not None:
                    deny |= mask
        stage = _CompletionStage()
        denied_idx = np.flatnonzero(deny)
        if denied_idx.size:
            self.counters["denied"] += int(denied_idx.size)
            self._inc_obs("serve.denied", int(denied_idx.size))
            stage.add_immediate(tickets, src, dst, denied_idx, STATUS_DENIED)
        passed = np.flatnonzero(~deny)
        if self.buckets is not None and passed.size:
            if passed.size < n:
                domains = [domains[i] for i in passed.tolist()]
            admitted = self.buckets.admit(self.buckets.codes(domains))
            shed_idx = passed[~admitted]
            if shed_idx.size:
                self.counters["shed"] += int(shed_idx.size)
                self._inc_obs("serve.shed", int(shed_idx.size))
                stage.add_immediate(tickets, src, dst, shed_idx, STATUS_SHED)
            passed = passed[admitted]
        if passed.size:
            self.counters["admitted"] += int(passed.size)
            slots = self.batcher.alloc(int(passed.size))
            b = self.batcher
            b.ticket[slots] = tickets[passed]
            b.src[slots] = src[passed]
            b.pos[slots] = at[passed]
            b.cur[slots] = src[passed]
            b.dest[slots] = dst[passed]
            b.hops[slots] = 0
            b.elapsed_ms[slots] = 0.0
            b.deadline_ms[slots] = (
                self.policy.deadline_ms if deadline_ms is None else deadline_ms
            )
            b.attempt[slots] = 1
            b.wait[slots] = 0
            b.twin[slots] = -1
            b.is_hedge[slots] = False
            b.state[slots] = RUNNING
        self._emit(stage)
        return tickets

    # -------------------------------------------------------------- tick

    def tick(self) -> int:
        """One frontier iteration; returns the number of lookups stepped."""
        b = self.batcher
        policy = self.policy
        self.counters["ticks"] += 1
        if self.buckets is not None:
            self.buckets.refill()
        waiting = b.slots_in(WAITING)
        if waiting.size:
            b.elapsed_ms[waiting] += policy.tick_ms
            b.wait[waiting] -= 1
            ready = waiting[b.wait[waiting] <= 0]
            b.state[ready] = RUNNING
        stage = _CompletionStage()
        act = b.slots_in(RUNNING)
        moved_count = 0
        if act.size:
            lost = ~self._live[b.pos[act]]
            if np.any(lost):
                self._fail_or_retry(stage, act[lost], STATUS_LOST)
                act = act[~lost]
            if act.size:
                over = b.hops[act] >= policy.hop_cap
                if np.any(over):
                    self._fail_or_retry(stage, act[over], STATUS_HOPCAP)
                    act = act[~over]
            if act.size:
                next_pos, moved, success, hop_ms = self.compiled.frontier_step(
                    b.pos[act], b.dest[act], self.alive, self._lat_state
                )
                b.pos[act] = next_pos
                mv = act[moved]
                moved_count = int(mv.size)
                b.hops[mv] += 1
                if hop_ms is not None:
                    b.elapsed_ms[mv] += hop_ms[moved]
                else:
                    b.elapsed_ms[mv] += policy.hop_ms
                fin = act[~moved]
                if fin.size:
                    verdict = success[~moved]
                    ok = fin[verdict]
                    if ok.size:
                        self._stage_complete(stage, ok, STATUS_OK, True)
                    bad = fin[~verdict]
                    if bad.size:
                        self._fail_or_retry(stage, bad, STATUS_FAIL)
        if np.isfinite(policy.deadline_ms) or self._finite_deadlines:
            open_slots = np.flatnonzero(b.state != FREE)
            expired = open_slots[
                b.elapsed_ms[open_slots] > b.deadline_ms[open_slots]
            ]
            if expired.size:
                self.counters["expired"] += self._stage_complete(
                    stage, expired, STATUS_DEADLINE, False
                )
        self._maybe_hedge()
        self._emit(stage)
        return moved_count

    def drain(self, max_ticks: int = 1_000_000) -> None:
        """Tick until every admitted lookup has completed."""
        ticks = 0
        while self.in_flight:
            self.tick()
            ticks += 1
            if ticks > max_ticks:
                raise RuntimeError(f"serving did not drain in {max_ticks} ticks")

    def report(self) -> ServeReport:
        """Snapshot of all completions so far (completion order)."""
        def cat(key: str, dtype) -> np.ndarray:
            parts = self._done[key]
            return (
                np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)
            )

        return ServeReport(
            counters=dict(self.counters),
            tickets=cat("tickets", np.int64),
            sources=cat("sources", np.uint64),
            keys=cat("keys", np.uint64),
            terminals=cat("terminals", np.uint64),
            hops=cat("hops", np.int64),
            latency_ms=cat("latency_ms", np.float64),
            attempts=cat("attempts", np.int32),
            success=cat("success", bool),
            status=cat("status", np.int16),
        )

    # ------------------------------------------------------------ policy

    def _fail_or_retry(
        self, stage: "_CompletionStage", slots: np.ndarray, status: int
    ) -> None:
        b = self.batcher
        policy = self.policy
        # A slot _stage_complete already released this tick (its hedge twin
        # won) must not be set WAITING again.
        slots = slots[b.state[slots] != FREE]
        retryable = (b.attempt[slots] < policy.max_attempts) & ~b.is_hedge[slots]
        retry = slots[retryable]
        done = slots[~retryable]
        if retry.size:
            self.counters["retries"] += int(retry.size)
            self._inc_obs("serve.retries", int(retry.size))
            b.attempt[retry] += 1
            b.hops[retry] = 0
            starts = self.compiled._locate(b.src[retry])
            if policy.retry_alternates:
                starts = self._alternate_contacts(starts, b.attempt[retry])
            b.pos[retry] = starts
            b.cur[retry] = b.src[retry]
            backoff = policy.retry_backoff_ms * np.power(
                2.0, b.attempt[retry].astype(np.float64) - 2.0
            )
            b.wait[retry] = np.maximum(
                np.ceil(backoff / max(policy.tick_ms, 1e-9)), 1.0
            ).astype(np.int32)
            b.state[retry] = WAITING
        if done.size:
            # A failing runner whose hedge twin is still in flight does not
            # doom the ticket: drop it silently and let the twin race on.
            done = self._drop_if_twin_alive(done)
        if done.size:
            count = self._stage_complete(stage, done, status, False)
            key = {
                STATUS_LOST: "lost",
                STATUS_HOPCAP: "hop_limit",
                STATUS_FAIL: "failed",
            }[status]
            self.counters[key] += count

    def _live_twins(self, slots: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(twin, linked)``: each slot's hedge sibling and whether that
        sibling is still in flight on the same ticket."""
        b = self.batcher
        twin = b.twin[slots]
        linked = twin >= 0
        t = twin[linked]
        linked[linked] = (b.state[t] != FREE) & (
            b.ticket[t] == b.ticket[slots[linked]]
        )
        return twin, linked

    def _drop_if_twin_alive(self, slots: np.ndarray) -> np.ndarray:
        """Release failing runners (``slots`` ascending) whose twin races on.

        When both runners of a ticket fail in one pass the lower slot is
        dropped and the higher one, its link cleared, is kept to carry the
        failure.  Returns the kept slots, still ascending.
        """
        b = self.batcher
        twin, linked = self._live_twins(slots)
        if not linked.any():
            return slots
        drop = linked & ~(_in_sorted(slots, twin) & (twin < slots))
        self.counters["hedge_cancelled"] += int(np.count_nonzero(drop))
        b.twin[twin[drop]] = -1
        b.release(slots[drop])
        return slots[~drop]

    def _alternate_contacts(
        self, at: np.ndarray, attempts: np.ndarray
    ) -> np.ndarray:
        """Attempt ``k`` restarts at the source's ``(k-2)``-th contact: the
        sources' positions ``at`` (``-1``: not in the view) with each that
        has contacts moved to the one its attempt picks."""
        c = self.compiled
        start = c.indptr[at].astype(np.int64)
        count = c.indptr[at + 1] - start  # <= 0 at -1: indptr[0] - indptr[-1]
        has = np.flatnonzero(count > 0)
        pick = (attempts[has].astype(np.int64) - 2) % count[has]
        at[has] = c.nbr_pos[start[has] + pick]
        return at

    def _maybe_hedge(self) -> None:
        policy = self.policy
        if policy.hedge_quantile is None:
            return
        b = self.batcher
        running = b.slots_in(RUNNING)
        if running.size < 2:
            return
        elapsed = b.elapsed_ms[running]
        threshold = max(
            float(np.quantile(elapsed, policy.hedge_quantile)),
            policy.hedge_min_ms,
        )
        eligible = running[
            (elapsed >= threshold)
            & ~b.is_hedge[running]
            & (b.twin[running] < 0)
            & (b.attempt[running] == 1)
        ]
        if not eligible.size:
            return
        n = int(eligible.size)
        self.counters["hedges"] += n
        self._inc_obs("serve.hedges", n)
        slots = b.alloc(n)
        b.ticket[slots] = b.ticket[eligible]
        b.src[slots] = b.src[eligible]
        b.pos[slots] = self.compiled._locate(b.src[eligible])
        b.cur[slots] = b.src[eligible]
        b.dest[slots] = b.dest[eligible]
        b.hops[slots] = 0
        b.elapsed_ms[slots] = b.elapsed_ms[eligible]
        b.deadline_ms[slots] = b.deadline_ms[eligible]
        b.attempt[slots] = 1
        b.wait[slots] = 0
        b.is_hedge[slots] = True
        b.twin[slots] = eligible
        b.twin[eligible] = slots
        b.state[slots] = RUNNING

    # ------------------------------------------------------- completions

    def _stage_complete(
        self,
        stage: "_CompletionStage",
        slots: np.ndarray,
        status: int,
        success: bool,
    ) -> int:
        """Complete tickets (first runner wins; hedge siblings cancelled).

        ``slots`` is ascending.  A slot already FREE lost to its sibling in
        an earlier pass; a ticket whose two runners both finish in this
        pass goes to the lower slot.  Slots return to the free list twin
        first, then winner, winner by winner.
        """
        b = self.batcher
        slots = slots[b.state[slots] != FREE]
        twin, linked = self._live_twins(slots)
        if linked.any():
            won = ~(linked & _in_sorted(slots, twin) & (twin < slots))
            slots, twin, linked = slots[won], twin[won], linked[won]
            self.counters["hedge_cancelled"] += int(np.count_nonzero(linked))
            self.counters["hedge_wins"] += int(
                np.count_nonzero(linked & b.is_hedge[slots])
            )
            freed = np.stack([np.where(linked, twin, -1), slots], axis=1).ravel()
            freed = freed[freed >= 0]
        else:
            freed = slots
        b.cur[slots] = self.node_ids(slots)  # the terminals, read here alone
        stage.add_slots(b, slots, status, success)
        b.release(freed)
        return int(slots.size)

    def _emit(self, stage: "_CompletionStage") -> None:
        batch = stage.batch()
        if batch is None:
            return
        self.completed_tickets += batch.size
        self.counters["completed"] += batch.size
        delivered = int(np.count_nonzero(batch.delivered))
        self.counters["delivered"] += delivered
        registry = obs_metrics.active_registry()
        if registry is not None:
            registry.counter("serve.completed").inc(batch.size)
            registry.counter("serve.delivered").inc(delivered)
            served = np.isin(batch.status, SERVED_STATUSES)
            if np.any(served):
                registry.histogram("serve.latency_ms").observe_many(
                    batch.latency_ms[served]
                )
                registry.histogram("serve.hops").observe_many(batch.hops[served])
        for mw in self.middlewares:
            mw.after_complete(batch)
        done = self._done
        done["tickets"].append(batch.tickets)
        done["sources"].append(batch.sources)
        done["keys"].append(batch.keys)
        done["terminals"].append(batch.terminals)
        done["hops"].append(batch.hops)
        done["latency_ms"].append(batch.latency_ms)
        done["attempts"].append(batch.attempts)
        done["success"].append(batch.success)
        done["status"].append(batch.status)

    def _inc_obs(self, name: str, n: int) -> None:
        registry = obs_metrics.active_registry()
        if registry is not None:
            registry.counter(name).inc(n)


class _CompletionStage:
    """Per-tick accumulator assembling one :class:`CompletionBatch`.

    Holds one tuple of column slices per ``add_*`` call, in call order
    (columns in :class:`CompletionBatch` field order).
    """

    def __init__(self) -> None:
        self.parts: List[Tuple[np.ndarray, ...]] = []

    def add_slots(
        self, b: FrontierBatcher, slots: np.ndarray, status: int, success: bool
    ) -> None:
        """Completions of in-flight ``slots``, copied out before release."""
        n = slots.size
        if n:
            self.parts.append((
                b.ticket[slots],
                b.src[slots],
                b.dest[slots],
                b.cur[slots],
                b.hops[slots],
                b.elapsed_ms[slots],
                b.attempt[slots],
                np.full(n, success, dtype=bool),
                np.full(n, status, dtype=np.int16),
            ))

    def add_immediate(
        self,
        tickets: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        idx: np.ndarray,
        status: int,
    ) -> None:
        """Submit-time completions (denied/shed): never entered the frontier."""
        n = idx.size
        if n:
            self.parts.append((
                tickets[idx],
                src[idx],
                dst[idx],
                src[idx],
                np.zeros(n, dtype=np.int64),
                np.zeros(n, dtype=np.float64),
                np.zeros(n, dtype=np.int32),
                np.zeros(n, dtype=bool),
                np.full(n, status, dtype=np.int16),
            ))

    def batch(self) -> Optional[CompletionBatch]:
        if not self.parts:
            return None
        return CompletionBatch(*map(np.concatenate, zip(*self.parts)))


# ---------------------------------------------------------------- drivers


def run_closed_loop(
    runtime: ServeRuntime,
    sources: Sequence[int],
    keys: Sequence[int],
    concurrency: int = 1024,
    on_tick: Optional[Callable[[ServeRuntime, int], None]] = None,
) -> ServeReport:
    """Fixed-concurrency driver: each completion admits the next lookup.

    ``on_tick(runtime, tick_index)`` runs after every tick — the hook for
    injecting churn and swapping in a recompiled view mid-run.
    """
    src = np.asarray(sources, dtype=np.uint64)
    dst = np.asarray(keys, dtype=np.uint64)
    total = int(src.size)
    i = 0
    ticks = 0
    while i < total or runtime.in_flight:
        room = concurrency - runtime.outstanding
        if room > 0 and i < total:
            take = min(room, total - i)
            runtime.submit_many(src[i : i + take], dst[i : i + take])
            i += take
        runtime.tick()
        ticks += 1
        if on_tick is not None:
            on_tick(runtime, ticks)
    return runtime.report()


def run_open_loop(
    runtime: ServeRuntime,
    sources: Sequence[int],
    keys: Sequence[int],
    per_tick: int = 1024,
    on_tick: Optional[Callable[[ServeRuntime, int], None]] = None,
) -> ServeReport:
    """Offered-rate driver: ``per_tick`` lookups submitted every tick,
    regardless of completions (admission control does the protecting)."""
    src = np.asarray(sources, dtype=np.uint64)
    dst = np.asarray(keys, dtype=np.uint64)
    total = int(src.size)
    i = 0
    ticks = 0
    while i < total or runtime.in_flight:
        if i < total:
            take = min(per_tick, total - i)
            runtime.submit_many(src[i : i + take], dst[i : i + take])
            i += take
        runtime.tick()
        ticks += 1
        if on_tick is not None:
            on_tick(runtime, ticks)
    return runtime.report()
