"""Property tests for the serving policy layer.

The policy contract (module docstring of ``repro.serve.policy``): on a
static network, deadlines, retry budgets and hedges may change *when* a
lookup completes and what the counters say — never *where* it lands.
Every test here compares per-ticket ``(success, terminal)`` outcomes
against the no-policy run and only lets policy show up in latency and
counters.  Admission control and ACLs are the exception by design: they
complete lookups without serving them, with their own statuses.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.obs.metrics import collecting
from repro.obs.slo import SLOReport
from repro.serve import (
    NO_POLICY,
    STATUS_DEADLINE,
    STATUS_DENIED,
    STATUS_FAIL,
    STATUS_OK,
    STATUS_SHED,
    DomainACL,
    DomainBuckets,
    SLOMiddleware,
    ServePolicy,
    ServeRuntime,
    compile_protocol_view,
    run_open_loop,
)
from repro.perf.kernels import CompiledNetwork
from repro.serve.batcher import FREE, RUNNING, WAITING
from repro.serve.runtime import _CompletionStage
from repro.serve.testbed import build_serving_net, domain_labeler, lookup_workload

SEEDS = (21, 22, 23)


def _serve(net, latency, sources, keys, policy, **kwargs):
    runtime = ServeRuntime(
        *compile_protocol_view(net), policy=policy, latency=latency, **kwargs
    )
    runtime.submit_many(sources, keys)
    runtime.drain()
    return runtime.report()


def _served_outcomes(report):
    """ticket -> (success, terminal) over lookups that got a routing verdict."""
    return {
        ticket: (ok, term)
        for ticket, (ok, term, status) in report.outcome_map().items()
        if status in (0, 1)  # STATUS_OK / STATUS_FAIL
    }


class TestOutcomeInvariance:
    """Seeded property sweep: policy never changes served outcomes."""

    def test_retries_and_hedges_match_no_policy_run(self):
        policies = {
            "retry x3": ServePolicy(max_attempts=3),
            "retry x3 alternates": ServePolicy(
                max_attempts=3, retry_alternates=True
            ),
            "hedge p50": ServePolicy(hedge_quantile=0.5),
            "hedge p50 floor": ServePolicy(hedge_quantile=0.5, hedge_min_ms=2.0),
        }
        for seed in SEEDS:
            net, latency = build_serving_net(160, seed=seed)
            sources, keys = lookup_workload(net, 150, seed=seed)
            baseline = _serve(net, latency, sources, keys, NO_POLICY)
            base_outcomes = _served_outcomes(baseline)
            assert len(base_outcomes) == 150
            for name, policy in policies.items():
                report = _serve(net, latency, sources, keys, policy)
                assert _served_outcomes(report) == base_outcomes, (name, seed)
                assert report.counters["expired"] == 0, (name, seed)

    def test_hedges_actually_fire_and_only_touch_counters(self):
        net, latency = build_serving_net(256, seed=31)
        sources, keys = lookup_workload(net, 400, seed=31)
        baseline = _serve(net, latency, sources, keys, NO_POLICY)
        hedged = _serve(
            net, latency, sources, keys, ServePolicy(hedge_quantile=0.5)
        )
        assert hedged.counters["hedges"] > 0
        # On a static net every spawned hedge pair resolves by exactly one
        # runner winning and the other being cancelled.
        assert hedged.counters["hedge_cancelled"] == hedged.counters["hedges"]
        assert hedged.counters["hedge_wins"] <= hedged.counters["hedges"]
        assert _served_outcomes(hedged) == _served_outcomes(baseline)
        # A winning hedge can only shorten a lookup, never lengthen it.
        assert hedged.quantile_ms(0.99) <= baseline.quantile_ms(0.99) + 1e-9

    def test_deadline_expiry_excludes_but_never_rewrites(self):
        for seed in SEEDS:
            net, latency = build_serving_net(160, seed=seed)
            sources, keys = lookup_workload(net, 150, seed=seed)
            baseline = _serve(net, latency, sources, keys, NO_POLICY)
            base_outcomes = _served_outcomes(baseline)
            cutoff = baseline.quantile_ms(0.5)
            report = _serve(
                net, latency, sources, keys, ServePolicy(deadline_ms=cutoff)
            )
            expired = {
                t
                for t, (_ok, _term, status) in report.outcome_map().items()
                if status == STATUS_DEADLINE
            }
            assert report.counters["expired"] == len(expired) > 0
            served = _served_outcomes(report)
            assert set(served) | expired == set(base_outcomes)
            # Every non-expired ticket keeps the baseline verdict.
            for ticket, outcome in served.items():
                assert outcome == base_outcomes[ticket], seed
            # All lookups the deadline reaped were slower than the cutoff
            # in the baseline run (same static net, same latency fold).
            base_ms = dict(
                zip(baseline.tickets.tolist(), baseline.latency_ms.tolist())
            )
            for ticket in expired:
                assert base_ms[ticket] > cutoff

    def test_retries_recover_lookups_under_churn(self):
        net, _ = build_serving_net(512, seed=33, with_latency=False)
        compiled, alive = compile_protocol_view(net)
        runtime = ServeRuntime(
            compiled, alive, policy=ServePolicy(max_attempts=4)
        )
        sources, keys = lookup_workload(net, 600, seed=33)
        runtime.submit_many(sources, keys)
        rng = random.Random("serve-policy-churn")
        for round_ in range(3):
            runtime.tick()
            victims = rng.sample(sorted(net.live_view()), 25)
            for victim in victims:
                net.crash(victim)
            runtime.set_view(*compile_protocol_view(net))
        runtime.drain()
        report = runtime.report()
        assert report.size == 600
        assert report.counters["retries"] > 0
        # A retry consumes a fresh attempt; the report must show it.
        assert int(report.attempts.max()) > 1


class TestDomainBuckets:
    def test_refill_caps_at_burst(self):
        buckets = DomainBuckets(rate=3.0, burst=5.0, domains=("a",))
        code = buckets.code("a")
        buckets.tokens[code] = 0.0
        buckets.refill()
        assert buckets.tokens[code] == 3.0
        buckets.refill()
        assert buckets.tokens[code] == 5.0  # capped, not 6

    def test_admit_is_fifo_within_batch(self):
        buckets = DomainBuckets(rate=0.0, burst=2.0, domains=("a", "b"))
        a, b = buckets.code("a"), buckets.code("b")
        codes = np.asarray([a, a, b, a, b], dtype=np.int64)
        admitted = buckets.admit(codes)
        # Two tokens per domain: the first two of each domain win, batch order.
        assert admitted.tolist() == [True, True, True, False, True]
        assert buckets.tokens[a] == 0.0 and buckets.tokens[b] == 0.0
        assert not buckets.admit(codes).any()

    def test_new_domains_start_with_full_burst(self):
        buckets = DomainBuckets(rate=1.0, burst=4.0)
        code = buckets.code("late")
        assert buckets.tokens[code] == 4.0
        assert buckets.domains == ("late",)


class TestAdmissionAndACL:
    def test_acl_denies_whole_domain_immediately(self):
        net, _ = build_serving_net(128, seed=41, with_latency=False)
        labeler = domain_labeler(net)
        sources, keys = lookup_workload(net, 120, seed=41)
        blocked = labeler(int(sources[0]))
        runtime = ServeRuntime(
            *compile_protocol_view(net),
            middlewares=[DomainACL(deny_sources=[blocked])],
            domain_of=labeler,
        )
        runtime.submit_many(sources, keys)
        runtime.drain()
        report = runtime.report()
        denied = report.status == STATUS_DENIED
        assert report.counters["denied"] == int(np.count_nonzero(denied)) > 0
        by_ticket = dict(zip(report.tickets.tolist(), report.status.tolist()))
        for ticket, src in enumerate(sources.tolist()):
            if labeler(src) == blocked:
                assert by_ticket[ticket] == STATUS_DENIED
            else:
                assert by_ticket[ticket] != STATUS_DENIED
        # Denied lookups never entered the frontier.
        assert np.all(report.hops[denied] == 0)
        assert not np.any(report.success[denied])

    def test_open_loop_sheds_over_admission_rate(self):
        net, _ = build_serving_net(256, seed=42, with_latency=False)
        sources, keys = lookup_workload(net, 800, seed=42)
        runtime = ServeRuntime(
            *compile_protocol_view(net),
            policy=ServePolicy(admit_rate=8.0, admit_burst=16.0),
            domain_of=domain_labeler(net),
        )
        report = run_open_loop(runtime, sources, keys, per_tick=200)
        c = report.counters
        assert c["shed"] > 0
        assert c["shed"] == int(np.count_nonzero(report.status == STATUS_SHED))
        # Shed or not, every submission completes exactly once.
        assert c["completed"] == c["submitted"] == 800
        assert c["admitted"] + c["shed"] + c["denied"] == 800

    def test_no_admission_control_without_rate(self):
        net, _ = build_serving_net(64, seed=43, with_latency=False)
        runtime = ServeRuntime(*compile_protocol_view(net))
        assert runtime.buckets is None


class TestSLOMiddleware:
    def test_serving_run_lands_in_slo_report(self):
        net, latency = build_serving_net(128, seed=51)
        sources, keys = lookup_workload(net, 90, seed=51)
        with collecting() as registry:
            report = _serve(
                net,
                latency,
                sources,
                keys,
                NO_POLICY,
                middlewares=[SLOMiddleware("serve.test")],
            )
        slo = SLOReport.from_snapshot(registry.snapshot())
        row = slo.row("serve.test")
        assert row is not None
        assert row.samples == 90
        assert row.delivered == report.counters["delivered"]
        assert row.p50_ms > 0
        counters = registry.snapshot().data["counters"]
        assert counters["serve.completed"] == 90
        assert counters["serve.submitted"] == 90


# ------------------------------------------------------- staging vs scalar


def _scalar_drop_if_twin_alive(runtime, slots):
    """The per-slot loop ``_drop_if_twin_alive`` replaced (reference)."""
    b = runtime.batcher
    keep = []
    for s in slots.tolist():
        t = int(b.twin[s])
        if t >= 0 and b.state[t] != FREE and b.ticket[t] == b.ticket[s]:
            runtime.counters["hedge_cancelled"] += 1
            b.twin[t] = -1
            b.release(np.asarray([s], dtype=np.int64))
        else:
            keep.append(s)
    return np.asarray(keep, dtype=np.int64)


def _scalar_stage_complete(runtime, rows, slots, status, success):
    """The per-slot loop ``_stage_complete`` replaced (reference).

    Appends one ``CompletionBatch``-ordered tuple per completion to ``rows``.
    """
    b = runtime.batcher
    completed = 0
    for s in slots.tolist():
        if b.state[s] == FREE:
            continue
        t = int(b.twin[s])
        if t >= 0 and b.state[t] != FREE and b.ticket[t] == b.ticket[s]:
            runtime.counters["hedge_cancelled"] += 1
            if bool(b.is_hedge[s]):
                runtime.counters["hedge_wins"] += 1
            b.release(np.asarray([t], dtype=np.int64))
        rows.append((
            int(b.ticket[s]), int(b.src[s]), int(b.dest[s]),
            int(runtime.node_ids(np.asarray([s]))[0]),
            int(b.hops[s]), float(b.elapsed_ms[s]), int(b.attempt[s]),
            bool(success), status,
        ))
        b.release(np.asarray([s], dtype=np.int64))
        completed += 1
    return completed


def _staged_rows(stage):
    batch = stage.batch()
    if batch is None:
        return []
    columns = (
        batch.tickets, batch.sources, batch.keys, batch.terminals, batch.hops,
        batch.latency_ms, batch.attempts, batch.success, batch.status,
    )
    return list(zip(*(column.tolist() for column in columns)))


@pytest.fixture(scope="module")
def staging_view():
    net, _ = build_serving_net(32, seed=61, with_latency=False)
    return compile_protocol_view(net)


def _place(runtime, slots, node_ids):
    """Park the runners in ``slots`` on ``node_ids`` the way a submit does:
    the id, and where the served view holds it (-1 where it does not)."""
    b = runtime.batcher
    b.cur[slots] = node_ids
    b.pos[slots] = runtime.compiled._locate(b.cur[slots])


def _hand_built(view, runners, policy=None):
    """A runtime whose slots 0..n-1 hold ``runners``.

    Each runner is ``(ticket, state, is_hedge, twin slot or -1)``; the other
    columns get values that differ per slot so a mixed-up row shows (the
    nodes they stand on, 3000 up, are none of the view's).
    """
    runtime = ServeRuntime(*view, policy=policy)
    b = runtime.batcher
    n = len(runners)
    slots = b.alloc(n)
    assert slots.tolist() == list(range(n))
    for slot, (ticket, state, is_hedge, twin) in enumerate(runners):
        b.ticket[slot], b.state[slot] = ticket, state
        b.is_hedge[slot], b.twin[slot] = is_hedge, twin
    b.src[slots] = 1000 + slots
    b.dest[slots] = 2000 + slots
    _place(runtime, slots, 3000 + slots)
    b.hops[slots] = 1 + slots
    b.elapsed_ms[slots] = 0.5 + slots
    b.attempt[slots] = 1 + slots % 3
    gone = np.flatnonzero(b.state[slots] == FREE)
    b.release(gone)  # FREE runners are really on the free list
    return runtime


def _assert_same_batcher(a, b):
    assert a._free == b._free
    for name in ("state", "ticket", "twin"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def _check_stage_complete(view, runners, slots, status=STATUS_OK, success=True):
    slots = np.asarray(slots, dtype=np.int64)
    model = _hand_built(view, runners)
    rows = []
    want = _scalar_stage_complete(model, rows, slots, status, success)
    runtime = _hand_built(view, runners)
    stage = _CompletionStage()
    got = runtime._stage_complete(stage, slots, status, success)
    assert got == want
    assert _staged_rows(stage) == rows
    assert len({row[0] for row in rows}) == len(rows)  # one per ticket
    assert runtime.counters == model.counters
    _assert_same_batcher(runtime.batcher, model.batcher)
    return runtime, rows


def _check_drop(view, runners, slots):
    slots = np.asarray(slots, dtype=np.int64)
    model = _hand_built(view, runners)
    want = _scalar_drop_if_twin_alive(model, slots)
    runtime = _hand_built(view, runners)
    got = runtime._drop_if_twin_alive(slots)
    assert got.dtype == np.int64 and got.tolist() == want.tolist()
    assert runtime.counters == model.counters
    _assert_same_batcher(runtime.batcher, model.batcher)
    return runtime, got


class TestStagingMatchesScalarLoop:
    """Vectorized ``_stage_complete`` / ``_drop_if_twin_alive`` against the
    per-slot loops they replaced, on hand-built batcher states."""

    # slot:            0 primary            1 hedge of 0         2 unhedged
    PAIR = [(7, RUNNING, False, 1), (7, RUNNING, True, 0), (8, RUNNING, False, -1)]
    # the hedge sits in the lower slot (its primary's slot was recycled later)
    PAIR_HEDGE_LOW = [(7, RUNNING, True, 1), (7, RUNNING, False, 0)]

    def test_both_twins_terminal_in_one_pass_go_to_the_lower_slot(self, staging_view):
        runtime, rows = _check_stage_complete(staging_view, self.PAIR, [0, 1, 2])
        assert [row[0] for row in rows] == [7, 8]
        assert rows[0][3] == 3000  # the primary's terminal, slot 0
        assert runtime.counters["hedge_cancelled"] == 1
        assert runtime.counters["hedge_wins"] == 0
        runtime, rows = _check_stage_complete(
            staging_view, self.PAIR_HEDGE_LOW, [0, 1]
        )
        assert [row[0] for row in rows] == [7]
        assert runtime.counters["hedge_wins"] == 1

    def test_hedge_wins_and_cancels_its_running_primary(self, staging_view):
        runtime, rows = _check_stage_complete(staging_view, self.PAIR, [1])
        assert [row[0] for row in rows] == [7] and rows[0][3] == 3001
        assert runtime.counters["hedge_wins"] == 1
        assert runtime.counters["hedge_cancelled"] == 1
        # twin first, then the winner: the next alloc hands back 1, then 0
        assert runtime.batcher._free[-2:] == [0, 1]
        assert runtime.batcher.state[0] == FREE

    def test_loser_already_free_is_skipped(self, staging_view):
        runners = [(7, RUNNING, False, -1), (-1, FREE, True, -1), (8, RUNNING, False, -1)]
        runtime, rows = _check_stage_complete(staging_view, runners, [0, 1, 2])
        assert [row[0] for row in rows] == [7, 8]
        assert runtime.counters["hedge_cancelled"] == 0

    def test_waiting_primary_is_cancelled_by_its_hedge(self, staging_view):
        runners = [(7, WAITING, False, 1), (7, RUNNING, True, 0)]
        runtime, _ = _check_stage_complete(staging_view, runners, [1])
        assert runtime.counters["hedge_wins"] == 1
        assert runtime.batcher.in_flight == 0

    def test_stale_twin_link_to_a_recycled_slot_cancels_nothing(self, staging_view):
        runners = [(7, RUNNING, False, 1), (9, RUNNING, False, -1)]
        runtime, rows = _check_stage_complete(staging_view, runners, [0])
        assert [row[0] for row in rows] == [7]
        assert runtime.batcher.state[1] == RUNNING
        assert runtime.counters["hedge_cancelled"] == 0

    def test_deadline_expiry_of_a_hedged_pair_completes_once(self, staging_view):
        runtime, rows = _check_stage_complete(
            staging_view, self.PAIR, [0, 1], status=STATUS_DEADLINE, success=False
        )
        assert rows == [(7, 1000, 2000, 3000, 1, 0.5, 1, False, STATUS_DEADLINE)]
        assert runtime.counters["hedge_cancelled"] == 1
        assert runtime.batcher.in_flight == 1  # the unhedged runner

    def test_deadline_expiry_through_tick(self, staging_view):
        runtime = _hand_built(
            staging_view, self.PAIR[:2], policy=ServePolicy(deadline_ms=0.25)
        )
        b = runtime.batcher
        b.src[:2] = staging_view[1][:2]
        _place(runtime, [0, 1], b.src[:2])
        b.deadline_ms[:2] = 0.25  # both runners are already past it
        runtime.counters["submitted"] = 8
        runtime.tick()
        report = runtime.report()
        assert report.tickets.tolist() == [7]
        assert report.status.tolist() == [STATUS_DEADLINE]
        assert report.counters["expired"] == 1
        assert report.counters["hedge_cancelled"] == 1
        assert runtime.in_flight == 0

    def test_primary_failing_in_the_tick_its_hedge_wins_is_not_retried(self):
        # Node 10 has no contacts and key 25 is node 20's: the primary stops
        # short at 10 (FAIL, one attempt left), its hedge is stuck at the
        # responsible node (OK) — both in this one tick.
        ids = np.asarray([10, 20, 30], dtype=np.uint64)
        view = CompiledNetwork.from_arrays(
            metric="ring",
            bits=8,
            ids=ids,
            indptr=np.asarray([0, 0, 1, 1], dtype=np.int64),
            neighbors=np.asarray([30], dtype=np.uint64),
            nbr_pos=np.asarray([2], dtype=np.int64),
        )
        runtime = ServeRuntime(view, ids, policy=ServePolicy(max_attempts=2))
        b = runtime.batcher
        primary, hedge = b.alloc(2).tolist()
        b.ticket[[primary, hedge]] = 0
        b.state[[primary, hedge]] = RUNNING
        b.src[[primary, hedge]] = 10
        _place(runtime, [primary, hedge], [10, 20])
        b.dest[[primary, hedge]] = 25
        b.attempt[[primary, hedge]] = 1
        b.deadline_ms[[primary, hedge]] = np.inf
        b.is_hedge[hedge] = True
        b.twin[[primary, hedge]] = hedge, primary
        runtime.counters["submitted"] = 1
        runtime.tick()
        report = runtime.report()
        assert report.tickets.tolist() == [0]
        assert report.status.tolist() == [STATUS_OK]
        assert report.counters["hedge_wins"] == 1
        # the ticket is settled: no slot both free and in flight, no retry
        assert all(b.state[slot] == FREE for slot in b._free)
        assert b.slots_in(WAITING).size == 0
        assert report.counters["retries"] == 0

    def test_failing_runner_with_a_live_twin_is_dropped(self, staging_view):
        runners = [(7, WAITING, False, 1), (7, RUNNING, True, 0), (8, RUNNING, False, -1)]
        runtime, kept = _check_drop(staging_view, runners, [1, 2])
        assert kept.tolist() == [2]
        assert runtime.batcher.twin[0] == -1 and runtime.batcher.state[1] == FREE
        assert runtime.counters["hedge_cancelled"] == 1

    def test_both_twins_failing_in_one_pass_keep_the_higher_slot(self, staging_view):
        runtime, kept = _check_drop(staging_view, self.PAIR, [0, 1, 2])
        assert kept.tolist() == [1, 2]
        assert runtime.batcher.twin[1] == -1
        stage = _CompletionStage()
        assert runtime._stage_complete(stage, kept, 1, False) == 2
        assert [row[0] for row in _staged_rows(stage)] == [7, 8]

    def test_random_states_match_the_scalar_loops(self, staging_view):
        rng = random.Random("staging-sweep")
        for _ in range(200):
            runners = []
            for ticket in range(rng.randrange(1, 9)):
                first = len(runners)
                states = [rng.choice((RUNNING, WAITING, FREE)) for _ in range(2)]
                if rng.random() < 0.6:  # a hedged pair, either slot order
                    hedge_low = rng.random() < 0.5
                    links = [
                        -1 if FREE in states else first + 1,
                        -1 if FREE in states else first,
                    ]
                    for k in range(2):
                        runners.append((
                            ticket if states[k] != FREE else -1,
                            states[k], (k == 0) == hedge_low, links[k],
                        ))
                else:
                    runners.append((
                        ticket if states[0] != FREE else -1, states[0], False, -1
                    ))
            slots = [s for s in range(len(runners)) if rng.random() < 0.7]
            _check_stage_complete(staging_view, runners, slots)
            _, kept = _check_drop(staging_view, runners, slots)
            assert set(kept.tolist()) <= set(slots)


# ------------------------------------------- where retries and hedges restart


def _five_node_view():
    """Ids 10..50 on an 8-bit ring: node 10 lists three contacts, node 20
    none, the others one each.  Every node is alive."""
    ids = np.asarray([10, 20, 30, 40, 50], dtype=np.uint64)
    neighbors = np.asarray([30, 40, 50, 40, 50, 10], dtype=np.uint64)
    view = CompiledNetwork.from_arrays(
        metric="ring",
        bits=8,
        ids=ids,
        indptr=np.asarray([0, 3, 3, 4, 5, 6], dtype=np.int64),
        neighbors=neighbors,
        nbr_pos=np.searchsorted(ids, neighbors).astype(np.int64),
    )
    return view, ids


class TestRestartPoints:
    """ROADMAP item 1(b): the lines that say where attempt ``k`` and a hedge
    start, each pinned against the one-token mutant that survived the audit."""

    RUNNERS = [(ticket, RUNNING, False, -1) for ticket in range(6)]

    def _failed(self, policy):
        """Six runners fail at once: four from node 10 on attempts 1-4, one
        from node 20 (no contacts), one from 99 (no node of the view's)."""
        runtime = _hand_built(_five_node_view(), self.RUNNERS, policy=policy)
        b = runtime.batcher
        b.src[:6] = 10, 10, 10, 10, 20, 99
        b.attempt[:6] = 1, 2, 3, 4, 1, 1
        runtime._fail_or_retry(_CompletionStage(), np.arange(6), STATUS_FAIL)
        assert b.attempt[:6].tolist() == [2, 3, 4, 5, 2, 2]
        assert b.state[:6].tolist() == [WAITING] * 6
        return runtime

    def test_attempt_k_restarts_at_the_sources_contact_k_minus_2(self):
        """Contact ``(k - 2) % count`` of the source's row; the source itself
        when the row is empty or the view does not hold the source.  Fails
        under ``- 2`` -> ``- 1`` in ``_alternate_contacts`` (attempt 2 would
        start at contact 1: 40, 50, 30, 40)."""
        runtime = self._failed(ServePolicy(max_attempts=6, retry_alternates=True))
        slots = np.arange(6)
        assert runtime.node_ids(slots).tolist() == [30, 40, 50, 30, 20, 99]
        assert runtime.batcher.pos[:6].tolist() == [2, 3, 4, 2, 1, -1]

    def test_without_alternates_every_attempt_restarts_at_the_source(self):
        runtime = self._failed(ServePolicy(max_attempts=6))
        assert runtime.node_ids(np.arange(6)).tolist() == [10, 10, 10, 10, 20, 99]
        assert runtime.batcher.pos[:6].tolist() == [0, 0, 0, 0, 1, -1]

    def test_a_retry_starts_its_hop_count_over(self):
        """The hop cap is per attempt.  Fails when ``b.hops[retry] = 0`` is
        dropped from ``_fail_or_retry`` (the runners keep hops 1..6)."""
        runtime = self._failed(ServePolicy(max_attempts=6))
        assert runtime.batcher.hops[:6].tolist() == [0] * 6

    def test_a_hedge_starts_at_the_source_on_the_primarys_clock(self):
        """A hedge is a second runner from ``src`` drawing on the same
        end-to-end budget: it inherits the primary's ``elapsed_ms`` and
        ``deadline_ms``.  Fails under hedge ``elapsed_ms`` -> ``0.0``."""
        runtime = _hand_built(
            _five_node_view(), self.RUNNERS[:2], policy=ServePolicy(hedge_quantile=0.5)
        )
        b = runtime.batcher
        b.src[:2] = 50, 10
        _place(runtime, [0, 1], [10, 40])
        b.attempt[:2] = 1
        b.elapsed_ms[:2] = 0.5, 7.25
        b.deadline_ms[:2] = np.inf, 90.0
        runtime._maybe_hedge()
        assert runtime.counters["hedges"] == 1
        assert b.slots_in(RUNNING).tolist() == [0, 1, 2]  # slot 1 was the slow one
        assert (b.twin[1], b.twin[2], b.is_hedge[2]) == (2, 1, True)
        assert runtime.node_ids(np.asarray([1, 2])).tolist() == [40, 10]
        assert (b.elapsed_ms[2], b.deadline_ms[2]) == (7.25, 90.0)
        assert (b.hops[2], b.attempt[2], b.dest[2]) == (0, 1, b.dest[1])

    def test_a_lookup_expires_only_past_its_deadline(self):
        """The deadline is a budget a lookup may use up: it expires once its
        ``elapsed_ms`` is *over* ``deadline_ms``, not on reaching it.  Two
        runners wait out a backoff, each tick charging ``tick_ms``; one lands
        on its deadline exactly and stays, the other lands past it.  Fails
        under ``>`` -> ``>=`` in the expiry pass of ``tick``."""
        runtime = _hand_built(
            _five_node_view(),
            [(0, WAITING, False, -1), (1, WAITING, False, -1)],
            policy=ServePolicy(deadline_ms=10.0, tick_ms=1.0),
        )
        b = runtime.batcher
        b.wait[:2] = 5
        b.elapsed_ms[:2] = 9.0, 9.5
        b.deadline_ms[:2] = 10.0
        runtime.counters["submitted"] = 2
        runtime.tick()
        assert b.elapsed_ms[0] == b.deadline_ms[0] == 10.0
        assert b.state[:2].tolist() == [WAITING, FREE]
        report = runtime.report()
        assert report.tickets.tolist() == [1]
        assert report.status.tolist() == [STATUS_DEADLINE]
        assert report.counters["expired"] == 1
        runtime.tick()  # 11.0 ms: now past it
        assert runtime.report().tickets.tolist() == [1, 0]
        assert runtime.in_flight == 0


def test_a_per_submit_deadline_expires_under_no_policy():
    """``NO_POLICY`` has no deadline, so the expiry pass runs only once some
    submit has carried a finite one of its own — and then for that lookup
    alone, with the outcomes the every-tick scan of the slots gave."""
    net, latency = build_serving_net(160, seed=21)
    sources, keys = lookup_workload(net, 150, seed=21)
    baseline = _serve(net, latency, sources, keys, NO_POLICY)
    cutoff = baseline.quantile_ms(0.5)
    runtime = ServeRuntime(*compile_protocol_view(net), latency=latency)
    runtime.submit_many(sources[:100], keys[:100])
    runtime.tick()
    assert not runtime._finite_deadlines
    runtime.submit_many(sources[100:], keys[100:], deadline_ms=cutoff)
    runtime.drain()
    report = runtime.report()
    status = dict(zip(report.tickets.tolist(), report.status.tolist()))
    base_ms = dict(zip(baseline.tickets.tolist(), baseline.latency_ms.tolist()))
    expired = {t for t, st in status.items() if st == STATUS_DEADLINE}
    assert expired == {t for t in range(100, 150) if base_ms[t] > cutoff}
    assert report.counters["expired"] == len(expired) > 0
    assert all(status[t] == STATUS_OK for t in range(100))
