"""The serving runtime's ledger and its slot-table invariant.

The completion log is the runtime's one record of finished lookups: the
outcome counters are read off it and the report is the log concatenated.
:func:`~repro.verify.invariants.check_serving_state` holds the slot table
against that log.  These tests assert the invariant after every tick of
randomized policy runs under churn, show each clause catching a corrupted
table, and inject failures (a raising middleware, a view that forgets a
waiting lookup's start node, malformed policy data) that must end in a
typed error or a counted completion, never a hang or a short report.

A runtime left on an older snapshot after a newer view carried its live
table is ``tests/test_serve_view.py::test_a_snapshot_outlives_later_refreshes``.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf.kernels import CompiledNetwork
from repro.serve import (
    STATUS_LOST,
    STATUS_OK,
    Middleware,
    ServePolicy,
    ServeRuntime,
    compile_protocol_view,
    run_closed_loop,
)
from repro.serve import __main__ as serve_cli
from repro.serve.batcher import FREE, RUNNING, WAITING
from repro.serve.testbed import build_serving_net, domain_labeler, lookup_workload
from repro.verify.invariants import check_serving_state, verify_serving_state
from repro.verify.fuzz import FUZZ_PATHS

policies = st.builds(
    ServePolicy,
    max_attempts=st.integers(1, 4),
    retry_alternates=st.booleans(),
    retry_backoff_ms=st.sampled_from([0.0, 1.0, 4.0]),
    hedge_quantile=st.none() | st.floats(0.0, 1.0),
    hedge_min_ms=st.floats(0.0, 4.0),
    deadline_ms=st.just(math.inf) | st.floats(2.0, 40.0),
    admit_rate=st.none() | st.floats(0.5, 8.0),
    admit_burst=st.floats(1.0, 16.0),
)


def _churn(net, rng):
    """One maintenance step: crashes mostly, and joins and stabilize
    rounds, which hand ``set_view`` a new ``ids`` array."""
    live = net.live_view()
    roll = rng.random()
    if roll < 0.6 and len(live) > 8:
        net.crash(live[rng.randrange(len(live))])
    elif roll < 0.8:
        node_id = rng.randrange(net.space.size)
        if node_id not in net.nodes:
            net.join(node_id, FUZZ_PATHS[rng.randrange(len(FUZZ_PATHS))])
    else:
        net.stabilize()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**16), policy=policies, concurrency=st.integers(4, 40))
def test_the_slot_table_holds_after_every_tick(seed, policy, concurrency):
    net, _ = build_serving_net(48, seed=seed, with_latency=False)
    sources, keys = lookup_workload(net, 120, seed=seed)
    runtime = ServeRuntime(
        *compile_protocol_view(net), policy=policy, domain_of=domain_labeler(net)
    )
    rng = random.Random(seed)

    def on_tick(rt, tick):
        if tick % 2 == 0:
            _churn(net, rng)
            rt.set_view(*compile_protocol_view(net))
        assert check_serving_state(rt) == []
        assert tick < 2_000, "serving did not finish"

    report = run_closed_loop(runtime, sources, keys, concurrency, on_tick=on_tick)
    assert sorted(report.tickets.tolist()) == list(range(120))
    assert report.size == report.counters["completed"] == 120
    counted = sum(
        report.counters[name]
        for name in (
            "delivered", "failed", "lost", "hop_limit", "expired", "shed", "denied",
        )
    )
    assert counted == 120


def _random_view(rng, ids):
    """A ring view over ``ids`` whose rows hold 0-3 random contacts each:
    sparse enough that lookups often get stuck (FAIL) and retry."""
    return _view({nid: rng.sample([i for i in ids if i != nid], rng.randrange(4))
                  for nid in ids})


racing = st.builds(
    ServePolicy,
    max_attempts=st.integers(2, 4),
    retry_alternates=st.booleans(),
    retry_backoff_ms=st.sampled_from([0.0, 1.0, 4.0]),
    hedge_quantile=st.floats(0.0, 1.0),
    deadline_ms=st.just(math.inf) | st.floats(2.0, 40.0),
    admit_rate=st.none() | st.floats(0.5, 8.0),
    admit_burst=st.floats(1.0, 16.0),
)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), policy=racing)
def test_the_slot_table_holds_on_sparse_random_views(seed, policy):
    """The same property on ten-odd-node views where failures, retries and
    hedges racing their primaries are the common case: every two ticks a
    node crashes (a new live array) or the view is redrawn over ids with
    one node forgotten and one new (a new ``ids`` array)."""
    rng = random.Random(seed)
    ids = rng.sample(range(256), 12)
    view, alive = _random_view(rng, ids)
    runtime = ServeRuntime(
        view, alive, policy=policy, domain_of=lambda nid: str(nid % 3)
    )
    dead = set()
    sources = [rng.choice(ids) for _ in range(60)]
    keys = [rng.randrange(256) for _ in range(60)]

    def on_tick(rt, tick):
        nonlocal view, ids
        if tick % 2 == 0:
            if rng.random() < 0.5 and len(dead) < 6:
                dead.add(rng.choice(ids))
            else:
                ids = ids[1:] + [rng.choice([i for i in range(256) if i not in ids])]
                view, _ = _random_view(rng, ids)
            live = np.asarray(sorted(set(ids) - dead), dtype=np.uint64)
            rt.set_view(view, live)
        assert check_serving_state(rt) == []
        assert tick < 2_000, "serving did not finish"

    report = run_closed_loop(runtime, sources, keys, 16, on_tick=on_tick)
    assert sorted(report.tickets.tolist()) == list(range(60))


# ----------------------------------------------------- the invariant bites


def _mid_run():
    """A runtime paused mid-run with hedged pairs, waiting retries and
    completions on record; the invariant holds here."""
    net, _ = build_serving_net(64, seed=9, with_latency=False)
    policy = ServePolicy(max_attempts=3, hedge_quantile=0.5, retry_backoff_ms=8.0)
    runtime = ServeRuntime(*compile_protocol_view(net), policy=policy)
    runtime.submit_many(*lookup_workload(net, 200, seed=9))
    for _ in range(3):
        runtime.tick()
        for victim in net.live_view()[::9]:
            net.crash(victim)
        runtime.set_view(*compile_protocol_view(net))
    b = runtime.batcher
    assert runtime.log and b.slots_in(WAITING).size
    assert np.any(b.is_hedge & (b.state != FREE))
    assert check_serving_state(runtime) == []
    return runtime


def _free_twice(rt):
    rt.batcher._free.append(rt.batcher._free[-1])


def _waiting_yet_free(rt):
    b = rt.batcher
    b.state[b._free[-1]] = WAITING
    b.ticket[b._free[-1]] = b.ticket[b.slots_in(RUNNING)[0]]


def _freed_yet_unlisted(rt):
    b = rt.batcher
    slot = b.slots_in(RUNNING)[0]
    b.state[slot] = FREE


def _ticket_never_issued(rt):
    rt.batcher.ticket[rt.batcher.slots_in(RUNNING)[0]] = rt.counters["submitted"]


def _ticket_already_completed(rt):
    rt.batcher.ticket[rt.batcher.slots_in(RUNNING)[0]] = rt.log[0].tickets[0]


def _both_hedges(rt):
    b = rt.batcher
    hedge = np.flatnonzero(b.is_hedge & (b.state != FREE))[0]
    b.is_hedge[b.twin[hedge]] = True


def _broken_link(rt):
    b = rt.batcher
    hedge = np.flatnonzero(b.is_hedge & (b.state != FREE))[0]
    b.twin[hedge] = -1


def _logged_twice(rt):
    rt.log.append(rt.log[0])
    rt.counters["completed"] += rt.log[0].size


def _counted_not_logged(rt):
    rt.counters["completed"] += 1


@pytest.mark.parametrize(
    "corrupt, check",
    [
        (_free_twice, "serve-free-list"),
        (_waiting_yet_free, "serve-free-list"),
        (_freed_yet_unlisted, "serve-free-list"),
        (_ticket_never_issued, "serve-held-ticket"),
        (_ticket_already_completed, "serve-held-ticket"),
        (_both_hedges, "serve-hedge-pair"),
        (_broken_link, "serve-hedge-pair"),
        (_logged_twice, "serve-log"),
        (_counted_not_logged, "serve-accounting"),
    ],
)
def test_each_clause_catches_its_corruption(corrupt, check):
    runtime = _mid_run()
    corrupt(runtime)
    found = {v.check for v in check_serving_state(runtime)}
    assert check in found
    with pytest.raises(AssertionError, match=check):
        verify_serving_state(runtime)


# ------------------------------------------------------- failure injection


class _RaiseOnce(Middleware):
    """Raises from one hook on its ``at``-th call, then behaves."""

    def __init__(self, hook: str, at: int) -> None:
        self.hook, self.at, self.calls = hook, at, 0

    def _maybe_raise(self, name):
        if name == self.hook:
            self.calls += 1
            if self.calls == self.at:
                raise RuntimeError(f"{name} failed")

    def before_submit(self, batch):
        self._maybe_raise("before_submit")
        return None

    def after_complete(self, batch):
        self._maybe_raise("after_complete")


def _served_net(lookups):
    net, _ = build_serving_net(96, seed=3, with_latency=False)
    sources, keys = lookup_workload(net, lookups, seed=3)
    return net, sources, keys


def test_a_raising_after_complete_leaves_the_report_whole():
    net, sources, keys = _served_net(400)
    middleware = _RaiseOnce("after_complete", at=2)
    runtime = ServeRuntime(*compile_protocol_view(net), middlewares=[middleware])
    with pytest.raises(RuntimeError, match="after_complete failed"):
        run_closed_loop(runtime, sources, keys, concurrency=400)
    assert runtime.report().size == runtime.counters["completed"] > 0
    assert check_serving_state(runtime) == []
    runtime.drain()
    report = runtime.report()
    assert sorted(report.tickets.tolist()) == list(range(400))
    assert report.counters["completed"] == 400
    assert check_serving_state(runtime) == []


def test_a_raising_before_submit_issues_nothing():
    net, sources, keys = _served_net(40)
    middleware = _RaiseOnce("before_submit", at=1)
    runtime = ServeRuntime(*compile_protocol_view(net), middlewares=[middleware])
    before = dict(runtime.counters)
    with pytest.raises(RuntimeError, match="before_submit failed"):
        runtime.submit_many(sources[:10], keys[:10])
    assert runtime.counters == before
    assert runtime.outstanding == 0 and runtime.in_flight == 0
    assert runtime.log == []

    def on_tick(rt, tick):
        assert tick < 1_000, "the closed loop did not terminate"

    report = run_closed_loop(runtime, sources, keys, concurrency=10, on_tick=on_tick)
    assert sorted(report.tickets.tolist()) == list(range(40))


def _view(rows):
    """A ring view over ``rows`` (node id -> contact ids), all alive."""
    ids = np.asarray(sorted(rows), dtype=np.uint64)
    neighbors = np.asarray(
        [c for nid in sorted(rows) for c in sorted(rows[nid])], dtype=np.uint64
    )
    indptr = np.zeros(ids.size + 1, dtype=np.int64)
    np.cumsum([len(rows[nid]) for nid in sorted(rows)], out=indptr[1:])
    view = CompiledNetwork.from_arrays(
        metric="ring",
        bits=8,
        ids=ids,
        indptr=indptr,
        neighbors=neighbors,
        nbr_pos=np.searchsorted(ids, neighbors).astype(np.int64),
    )
    return view, ids


@pytest.mark.parametrize("alternates", [False, True])
def test_a_view_that_forgets_a_waiting_start_node(alternates):
    """Key 45 is node 40's.  Node 20 has no contacts and node 30 only node
    20, so both lookups of it fail and wait out a backoff; with alternate
    contacts, 30's retry waits to start at node 20.  The next view forgets
    node 20 and gives 30 the contact 40.  The lookup from 20 has nowhere
    to start and ends LOST on its last attempt; the one from 30 is retried
    (once more where its retry stood on node 20) and delivered."""
    policy = ServePolicy(
        max_attempts=3, retry_backoff_ms=2.0, retry_alternates=alternates
    )
    old = _view({10: [30, 40, 50], 20: [], 30: [20], 40: [50], 50: [10]})
    new = _view({10: [30, 40, 50], 30: [40], 40: [50], 50: [10], 60: [10]})
    runtime = ServeRuntime(*old, policy=policy)
    runtime.submit_many([20, 30], [45, 45])
    runtime.tick()
    assert runtime.batcher.slots_in(WAITING).size == 2
    runtime.set_view(*new)
    assert runtime.compiled.ids is not old[0].ids
    assert check_serving_state(runtime) == []
    for _ in range(50):
        if not runtime.in_flight:
            break
        runtime.tick()
        assert check_serving_state(runtime) == []
    assert runtime.in_flight == 0
    report = runtime.report()
    rows = sorted(
        zip(report.tickets.tolist(), report.status.tolist(), report.attempts.tolist())
    )
    second = 3 if alternates else 2
    assert rows == [(0, STATUS_LOST, 3), (1, STATUS_OK, second)]
    assert report.counters["lost"] == 1
    assert report.counters["retries"] == 2 + second - 1


# ------------------------------------------------- policy validates itself


@pytest.mark.parametrize(
    "field, value",
    [
        ("deadline_ms", math.nan),
        ("hop_cap", 0),
        ("tick_ms", 0.0),
        ("tick_ms", -1.0),
        ("hop_ms", 0.0),
        ("hop_ms", math.nan),
        ("max_attempts", 0),
        ("retry_backoff_ms", -0.5),
        ("hedge_quantile", 1.5),
        ("hedge_quantile", -0.1),
        ("hedge_quantile", math.nan),
        ("hedge_min_ms", -1.0),
        ("admit_rate", -1.0),
        ("admit_rate", math.nan),
        ("admit_burst", -1.0),
    ],
)
def test_a_malformed_policy_names_its_field(field, value):
    with pytest.raises(ValueError, match=f"ServePolicy.{field} "):
        ServePolicy(**{field: value})


def test_the_range_edges_are_policies():
    ServePolicy(hedge_quantile=0.0, hedge_min_ms=0.0, admit_rate=0.0, admit_burst=0.0)
    ServePolicy(hedge_quantile=1.0, retry_backoff_ms=0.0, deadline_ms=0.0)
    ServePolicy(max_attempts=1, hop_cap=1, tick_ms=1e-9, hop_ms=1e-9)


def test_the_cli_rejects_a_malformed_policy_before_building(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("built the net for a malformed policy")

    monkeypatch.setattr(serve_cli, "build_serving_net", refuse)
    with pytest.raises(SystemExit) as exit_info:
        serve_cli.main(["--hedge-quantile", "1.5"])
    assert exit_info.value.code == 2
    assert "ServePolicy.hedge_quantile must be in [0, 1]" in capsys.readouterr().err
