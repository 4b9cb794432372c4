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

The completion log is the one ledger: each tick's batch joins
:attr:`ServeRuntime.log` before any middleware sees it, the outcome
counters are read off its status column there alone, and
:meth:`ServeRuntime.report` is the log concatenated.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
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

#: The counter each status code adds to, indexed by code (every completion
#: also adds to ``completed``).
_STATUS_COUNTERS = (
    "delivered", "failed", "lost", "hop_limit", "expired", "shed", "denied",
)

#: Statuses that carry a routing outcome (the lookup was actually served).
SERVED_STATUSES = (STATUS_OK, STATUS_FAIL)

#: The per-lookup columns a completion batch and a report share.
_COLUMNS = tuple(f.name for f in fields(CompletionBatch))
#: What a report concatenates before anything has completed.
_NO_COMPLETIONS = CompletionBatch(*(np.zeros(0, dtype) for dtype in (
    np.int64, np.uint64, np.uint64, np.uint64, np.int64, np.float64, np.int32,
    bool, np.int16,
)))


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
        self.counters: Dict[str, int] = {
            key: 0
            for key in (
                "submitted", "admitted", "shed", "denied", "completed",
                "delivered", "failed", "lost", "hop_limit", "expired",
                "retries", "hedges", "hedge_wins", "hedge_cancelled",
                "ticks",
            )
        }
        #: Every completion batch emitted so far, in completion order.
        self.log: List[CompletionBatch] = []

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
        return self.counters["submitted"] - self.counters["completed"]

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
        n = int(src.size)
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
        # Nothing above wrote to the runtime: a check that raises leaves no
        # ticket, counter or slot behind.
        if deadline_ms is not None and np.isfinite(deadline_ms):
            self._finite_deadlines = True
        first = self.counters["submitted"]
        tickets = np.arange(first, first + n, dtype=np.int64)
        self.counters["submitted"] += n
        self._inc_obs("serve.submitted", n)
        stage = _CompletionStage()
        stage.add_immediate(tickets, src, dst, np.flatnonzero(deny), STATUS_DENIED)
        passed = np.flatnonzero(~deny)
        if self.buckets is not None and passed.size:
            if passed.size < n:
                domains = [domains[i] for i in passed.tolist()]
            admitted = self.buckets.admit(self.buckets.codes(domains))
            stage.add_immediate(tickets, src, dst, passed[~admitted], STATUS_SHED)
            passed = passed[admitted]
        if passed.size:
            self.counters["admitted"] += int(passed.size)
            if deadline_ms is None:
                deadline_ms = self.policy.deadline_ms
            self._launch(
                tickets[passed], src[passed], at[passed], dst[passed], 0.0, deadline_ms
            )
        self._emit(stage)
        return tickets

    def _launch(
        self, tickets, src, pos, dest, elapsed_ms, deadline_ms, twin=None
    ) -> None:
        """Start one RUNNING runner per ticket on its first attempt at
        ``pos``; with ``twin``, each is the hedge of the runner there."""
        b = self.batcher
        slots = b.alloc(int(tickets.size))
        b.ticket[slots] = tickets
        b.src[slots] = src
        b.pos[slots] = pos
        b.cur[slots] = src
        b.dest[slots] = dest
        b.hops[slots] = 0
        b.elapsed_ms[slots] = elapsed_ms
        b.deadline_ms[slots] = deadline_ms
        b.attempt[slots] = 1
        b.wait[slots] = 0
        b.is_hedge[slots] = twin is not None
        if twin is None:
            b.twin[slots] = -1
        else:
            b.twin[slots] = twin
            b.twin[twin] = slots
        b.state[slots] = RUNNING

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
                self._stage_complete(stage, expired, STATUS_DEADLINE, False)
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
        log = self.log or [_NO_COMPLETIONS]
        return ServeReport(
            counters=dict(self.counters),
            **{
                name: np.concatenate([getattr(batch, name) for batch in log])
                for name in _COLUMNS
            },
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
                np.ceil(backoff / policy.tick_ms), 1.0
            ).astype(np.int32)
            b.state[retry] = WAITING
        if done.size:
            # A failing runner whose hedge twin is still in flight does not
            # doom the ticket: drop it silently and let the twin race on.
            done = self._drop_if_twin_alive(done)
            self._stage_complete(stage, done, status, False)

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
        src = b.src[eligible]
        self._launch(
            b.ticket[eligible], src, self.compiled._locate(src), b.dest[eligible],
            b.elapsed_ms[eligible], b.deadline_ms[eligible], twin=eligible,
        )

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
        self.log.append(batch)
        by_status = np.bincount(
            batch.status, minlength=len(_STATUS_COUNTERS)
        ).tolist()
        self.counters["completed"] += batch.size
        for key, count in zip(_STATUS_COUNTERS, by_status):
            self.counters[key] += count
        registry = obs_metrics.active_registry()
        if registry is not None:
            registry.counter("serve.completed").inc(batch.size)
            registry.counter("serve.delivered").inc(by_status[STATUS_OK])
            for status in (STATUS_DENIED, STATUS_SHED):
                if by_status[status]:
                    registry.counter(f"serve.{_STATUS_COUNTERS[status]}").inc(
                        by_status[status]
                    )
            served = np.isin(batch.status, SERVED_STATUSES)
            if np.any(served):
                registry.histogram("serve.latency_ms").observe_many(
                    batch.latency_ms[served]
                )
                registry.histogram("serve.hops").observe_many(batch.hops[served])
        for mw in self.middlewares:
            mw.after_complete(batch)

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
    return _drive(
        runtime, sources, keys, lambda: concurrency - runtime.outstanding, on_tick
    )


def run_open_loop(
    runtime: ServeRuntime,
    sources: Sequence[int],
    keys: Sequence[int],
    per_tick: int = 1024,
    on_tick: Optional[Callable[[ServeRuntime, int], None]] = None,
) -> ServeReport:
    """Offered-rate driver: ``per_tick`` lookups submitted every tick,
    regardless of completions (admission control does the protecting)."""
    return _drive(runtime, sources, keys, lambda: per_tick, on_tick)


def _drive(
    runtime: ServeRuntime,
    sources: Sequence[int],
    keys: Sequence[int],
    room: Callable[[], int],
    on_tick: Optional[Callable[[ServeRuntime, int], None]],
) -> ServeReport:
    """Submit up to ``room()`` of the remaining lookups, tick, repeat until
    every lookup is submitted and none is in flight."""
    src = np.asarray(sources, dtype=np.uint64)
    dst = np.asarray(keys, dtype=np.uint64)
    total = int(src.size)
    i = 0
    ticks = 0
    while i < total or runtime.in_flight:
        take = min(room(), total - i)
        if take > 0:
            runtime.submit_many(src[i : i + take], dst[i : i + take])
            i += take
        runtime.tick()
        ticks += 1
        if on_tick is not None:
            on_tick(runtime, ticks)
    return runtime.report()
