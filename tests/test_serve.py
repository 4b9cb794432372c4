"""Tests for the ``repro.serve`` batched lookup-serving runtime.

The load-bearing claims: frontier stepping is hop-for-hop the batch
router (kernel level), the runtime completes every admitted ticket with
the routing verdict of :meth:`CompiledNetwork.route` on a static view,
and — the differential anchor — batched serving agrees with the scalar
:class:`AsyncEngine` per lookup on a *live, churning* network.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from conftest import scalar_view, serving_net
from repro.core.routing import LiveSet, route_ring
from repro.serve import (
    STATUS_LOST,
    STATUS_OK,
    DomainACL,
    ServeRuntime,
    compile_protocol_view,
    run_closed_loop,
)
from repro.perf.kernels import CompiledNetwork
from repro.serve.batcher import FREE, RUNNING, FrontierBatcher
from repro.serve.testbed import build_serving_net, domain_labeler, lookup_workload
from repro.verify.fuzz import FUZZ_PATHS
from repro.verify.oracles import compare_serving


class TestFrontierBatcher:
    def test_alloc_release_recycles_slots(self):
        b = FrontierBatcher(capacity=16)
        slots = b.alloc(10)
        assert b.in_flight == 10
        b.state[slots] = RUNNING
        b.ticket[slots] = np.arange(10)
        b.release(slots[:4])
        assert b.in_flight == 6
        assert np.all(b.state[slots[:4]] == FREE)
        assert np.all(b.ticket[slots[:4]] == -1)
        again = b.alloc(4)
        assert set(again.tolist()) == set(slots[:4].tolist())

    def test_slots_leave_the_free_list_last_freed_first(self):
        b = FrontierBatcher(capacity=16)
        assert b.alloc(3).tolist() == [0, 1, 2]
        assert b.alloc(0).size == 0 and b.in_flight == 3
        b.release(np.asarray([2, 0], dtype=np.int64))
        assert b.alloc(3).tolist() == [0, 2, 3]
        # growth stacks the new slots on top of the ones still free
        assert b.alloc(20).tolist() == list(range(16, 32)) + [4, 5, 6, 7]

    def test_grow_preserves_existing_state(self):
        b = FrontierBatcher(capacity=16)
        first = b.alloc(16)
        b.ticket[first] = np.arange(16)
        b.state[first] = RUNNING
        more = b.alloc(20)
        assert b.capacity >= 36
        assert np.array_equal(np.sort(b.ticket[first]), np.arange(16))
        assert np.all(b.ticket[more] == -1)
        assert b.in_flight == 36

    def test_slots_in_filters_by_state(self):
        b = FrontierBatcher(capacity=16)
        slots = b.alloc(6)
        b.state[slots[:2]] = RUNNING
        running = b.slots_in(RUNNING)
        assert set(running.tolist()) == set(slots[:2].tolist())


class TestFrontierStepping:
    """Repeated frontier_step calls must reproduce the scalar engine exactly
    (``compiled.route(alive=...)`` is the same stepping, so no referee)."""

    def test_stepping_matches_batch_route_with_latency(self):
        net, latency = build_serving_net(192, seed=3)
        compiled, alive = compile_protocol_view(net)
        sources, keys = lookup_workload(net, 300, seed=3)
        state = compiled.begin_frontier(sources, keys)
        for _ in range(10_000):
            if compiled.step_frontier(state, alive, latency=latency) == 0:
                break
        assert np.all(state.done)
        view, live = scalar_view(compiled), LiveSet(alive.tolist())
        for i, (src, key) in enumerate(zip(sources.tolist(), keys.tolist())):
            want = route_ring(view, src, key, alive=live)
            assert int(state.hops[i]) == want.hops
            assert int(compiled.ids[state.pos[i]]) == want.terminal
            assert bool(state.success[i]) == want.success
            assert float(state.latency_ms[i]) == want.latency(latency.node_latency)

    def test_only_a_tick_calls_the_public_step(self, monkeypatch):
        """Timing ``frontier_step`` times serving ticks and nothing else:
        whole routes loop the private step, one tick is one public call."""
        net, latency = build_serving_net(128, seed=4)
        compiled, alive = compile_protocol_view(net)
        sources, keys = lookup_workload(net, 100, seed=4)
        step = CompiledNetwork.frontier_step

        def refuse(*args, **kwargs):
            raise AssertionError("whole routes went through frontier_step")

        monkeypatch.setattr(CompiledNetwork, "frontier_step", refuse)
        for router in (compiled.route, compiled.route_ring, compiled.route_xor):
            for live in (None, set(alive.tolist())):
                got = router(sources, keys, alive=live, paths=True, latency=latency)
                assert got.latency_ms is not None and len(got.paths) == 100
        runtime = ServeRuntime(compiled, alive, latency=latency)
        runtime.submit_many(sources, keys)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return step(*args, **kwargs)

        monkeypatch.setattr(CompiledNetwork, "frontier_step", counted)
        runtime.tick()
        assert len(calls) == 1


class TestRuntimeBasics:
    def test_every_ticket_completes_with_route_verdict(self):
        net, _ = build_serving_net(128, seed=5, with_latency=False)
        compiled, alive = compile_protocol_view(net)
        runtime = ServeRuntime(compiled, alive)
        sources, keys = lookup_workload(net, 200, seed=5)
        tickets = runtime.submit_many(sources, keys)
        assert tickets.size == 200 and runtime.outstanding == 200
        runtime.drain()
        assert runtime.outstanding == 0 and runtime.in_flight == 0
        report = runtime.report()
        assert report.size == 200
        assert sorted(report.tickets.tolist()) == tickets.tolist()
        expected = compiled.route(sources, keys, alive=set(alive.tolist()))
        want = {
            (int(s), int(k)): (bool(ok), int(term))
            for s, k, ok, term in zip(
                sources, keys, expected.success, expected.terminals
            )
        }
        for i in range(report.size):
            pair = (int(report.sources[i]), int(report.keys[i]))
            assert want[pair] == (
                bool(report.success[i]),
                int(report.terminals[i]),
            )
        c = report.counters
        assert c["submitted"] == c["completed"] == 200
        assert c["delivered"] == int(np.count_nonzero(report.success))
        assert c["shed"] == c["denied"] == c["expired"] == 0

    def test_domain_labels_are_cached_per_node(self):
        net, _ = build_serving_net(64, seed=6, with_latency=False)
        compiled, alive = compile_protocol_view(net)
        calls = []
        labeler = domain_labeler(net)

        def domain_of(node_id):
            calls.append(node_id)
            return labeler(node_id)

        runtime = ServeRuntime(
            compiled, alive, middlewares=[DomainACL()], domain_of=domain_of
        )
        sources, keys = lookup_workload(net, 50, seed=6)
        runtime.submit_many(sources, keys)
        runtime.submit_many(sources, keys)
        runtime.drain()
        live = set(net.live_view())
        assert sorted(calls) == sorted(set(sources.tolist()))  # once per node
        assert set(runtime._domain_cache) == set(calls)
        for node_id, label in runtime._domain_cache.items():
            assert node_id in live
            assert label == str(net.nodes[node_id].path[0])

    def test_labels_are_not_computed_without_a_consumer(self):
        net, _ = build_serving_net(64, seed=6, with_latency=False)

        def domain_of(node_id):
            raise AssertionError("no middleware or bucket reads the labels")

        runtime = ServeRuntime(*compile_protocol_view(net), domain_of=domain_of)
        runtime.submit_many(*lookup_workload(net, 20, seed=6))
        runtime.drain()
        assert runtime.report().size == 20

    def test_unsorted_alive_array_is_rejected(self):
        net, _ = build_serving_net(64, seed=2, with_latency=False)
        compiled, alive = compile_protocol_view(net)
        shuffled = alive.copy()
        shuffled[[3, 4]] = shuffled[[4, 3]]
        with pytest.raises(ValueError, match=f"id {int(alive[3])} follows {int(alive[4])}"):
            ServeRuntime(compiled, shuffled)
        runtime = ServeRuntime(compiled, alive)
        with pytest.raises(ValueError, match="strictly increasing"):
            runtime.set_view(compiled, shuffled)
        with pytest.raises(ValueError, match="strictly increasing"):
            runtime.set_view(compiled, np.repeat(alive, 2))
        with pytest.raises(ValueError, match="uint64"):
            runtime.set_view(compiled, alive.astype(np.int64))
        assert runtime.alive is alive  # a rejected view is not installed

    def test_alive_ids_outside_the_view_are_rejected(self):
        net, _ = build_serving_net(64, seed=2, with_latency=False)
        compiled, alive = compile_protocol_view(net)
        stranger = next(i for i in range(1, 1 << 16) if i not in net.nodes)
        widened = np.sort(np.append(alive, np.uint64(stranger)))
        with pytest.raises(ValueError, match=f"alive id {stranger} is not in"):
            ServeRuntime(compiled, widened)
        runtime = ServeRuntime(compiled, alive)
        with pytest.raises(ValueError, match=f"alive id {stranger} is not in"):
            runtime.set_view(compiled, widened)
        assert runtime.alive is alive

    def test_set_view_after_churn_keeps_inflight_tickets(self):
        net, _ = build_serving_net(256, seed=7, with_latency=False)
        compiled, alive = compile_protocol_view(net)
        runtime = ServeRuntime(compiled, alive)
        sources, keys = lookup_workload(net, 300, seed=7)
        runtime.submit_many(sources, keys)
        runtime.tick()
        runtime.tick()
        rng = random.Random("serve-test-churn")
        for victim in rng.sample(sorted(net.live_view()), 40):
            net.crash(victim)
        runtime.set_view(*compile_protocol_view(net))
        runtime.drain()
        report = runtime.report()
        # Every admitted ticket still resolves exactly once; runners parked
        # on crashed nodes surface as LOST rather than hanging.
        assert report.size == 300
        assert report.counters["lost"] == int(
            np.count_nonzero(report.status == STATUS_LOST)
        )

    def test_closed_loop_caps_outstanding(self):
        net, _ = build_serving_net(128, seed=8, with_latency=False)
        compiled, alive = compile_protocol_view(net)
        runtime = ServeRuntime(compiled, alive)
        sources, keys = lookup_workload(net, 400, seed=8)
        seen = []
        report = run_closed_loop(
            runtime,
            sources,
            keys,
            concurrency=64,
            on_tick=lambda rt, _t: seen.append(rt.outstanding),
        )
        assert report.size == 400
        assert max(seen) <= 64

    def test_report_quantiles_and_summary(self):
        net, latency = build_serving_net(128, seed=9)
        compiled, alive = compile_protocol_view(net)
        runtime = ServeRuntime(compiled, alive, latency=latency)
        sources, keys = lookup_workload(net, 100, seed=9)
        runtime.submit_many(sources, keys)
        runtime.drain()
        report = runtime.report()
        assert report.quantile_ms(0.5) <= report.quantile_ms(0.99)
        text = report.summary()
        assert "100 submitted" in text and "p99" in text

    def test_mismatched_batch_shapes_rejected(self):
        net, _ = build_serving_net(64, seed=1, with_latency=False)
        runtime = ServeRuntime(*compile_protocol_view(net))
        with pytest.raises(ValueError):
            runtime.submit_many([1, 2, 3], [4, 5])

    def test_unknown_source_is_an_error_at_the_door_without_a_live_array(self):
        net, _ = build_serving_net(64, seed=1, with_latency=False)
        compiled, alive = compile_protocol_view(net)
        stranger = next(i for i in range(1, 1 << 16) if i not in net.nodes)
        runtime = ServeRuntime(compiled)
        before = dict(runtime.counters)
        with pytest.raises(KeyError, match=str(stranger)):
            runtime.submit_many([int(alive[0]), stranger], [5, 6])
        # nothing was admitted: no ticket, no counter, no slot
        assert runtime.counters == before
        assert runtime.outstanding == 0 and runtime.in_flight == 0
        assert runtime.submit_many([int(alive[0])], [5]).tolist() == [0]
        runtime.drain()
        assert runtime.report().status.tolist() == [STATUS_OK]

    def test_unknown_source_under_a_live_array_is_lost_on_the_first_tick(self):
        net, _ = build_serving_net(64, seed=1, with_latency=False)
        compiled, alive = compile_protocol_view(net)
        stranger = next(i for i in range(1, 1 << 16) if i not in net.nodes)
        runtime = ServeRuntime(compiled, alive)
        runtime.submit_many([stranger], [5])
        assert runtime.tick() == 0 and runtime.in_flight == 0
        report = runtime.report()
        assert report.status.tolist() == [STATUS_LOST]
        assert report.terminals.tolist() == [stranger]
        assert report.hops.tolist() == [0]

    @pytest.mark.parametrize("with_alive", [False, True])
    def test_a_node_the_next_view_forgets_loses_the_lookups_parked_on_it(
        self, with_alive
    ):
        def ring(ids):
            """Every node's one contact is the next node round the ring."""
            ids = np.asarray(ids, dtype=np.uint64)
            return CompiledNetwork.from_arrays(
                metric="ring",
                bits=8,
                ids=ids,
                indptr=np.arange(ids.size + 1, dtype=np.int64),
                neighbors=np.roll(ids, -1),
                nbr_pos=np.roll(np.arange(ids.size, dtype=np.int64), -1),
            )

        old, new = ring([10, 20, 30, 40]), ring([5, 10, 30, 35, 40])
        runtime = ServeRuntime(old, old.ids if with_alive else None)
        runtime.submit_many([10, 10, 30], [45, 25, 45])
        assert runtime.tick() == 3  # now on 20, 20 (its key's node) and 40
        runtime.set_view(new, new.ids if with_alive else None)
        runtime.drain()
        report = runtime.report()
        by_ticket = dict(zip(report.tickets.tolist(), zip(
            report.status.tolist(), report.terminals.tolist(), report.hops.tolist()
        )))
        # 20 is gone: both lookups on it are lost, reported where they stood
        assert by_ticket[0] == by_ticket[1] == (STATUS_LOST, 20, 1)
        # 40 went from position 3 to 4: the lookup on it is re-resolved and
        # finishes there, at the node responsible for 45
        assert by_ticket[2] == (STATUS_OK, 40, 1)


class TestDifferentialAsync:
    """Pin batched frontier serving to AsyncEngine, hop for hop."""

    def test_agrees_with_async_engine_on_static_net(self):
        net, _ = build_serving_net(200, seed=12, with_latency=False)
        live = sorted(net.live_view())
        rng = random.Random("serve-diff-static")
        lookups = [
            (rng.choice(live), rng.randrange(net.space.size)) for _ in range(250)
        ]
        comparison = compare_serving(
            lambda: build_serving_net(200, seed=12, with_latency=False)[0],
            lookups,
        )
        assert comparison.equivalent, comparison.violations
        assert len(comparison.scalar) == 250

    def test_agrees_with_async_engine_under_live_churn(self):
        """Mid-flight crashes: the batched runtime must lose, fail and
        deliver exactly the lookups the discrete-event engine does."""

        def factory():
            return serving_net(300, 13, "reference")

        net = factory()
        live = sorted(net.live_view())
        rng = random.Random("serve-diff-churn")
        lookups = [
            (rng.choice(live), rng.randrange(net.space.size)) for _ in range(250)
        ]
        victims = rng.sample(live, 30)

        def crash_some(target, batch):
            for victim in batch:
                if victim in target.nodes and target.nodes[victim].alive:
                    target.crash(victim)

        churn = [
            (2, lambda n: crash_some(n, victims[:15])),
            (4, lambda n: crash_some(n, victims[15:])),
        ]
        comparison = compare_serving(factory, lookups, churn=churn)
        assert comparison.equivalent, comparison.violations
        statuses = comparison.report.status
        assert comparison.report.size == 250
        # The schedule is hot enough that churn actually bites: at least
        # one lookup must terminate off the happy path on both engines.
        assert np.any(statuses != STATUS_OK)
        assert any(not r.success for r in comparison.scalar)

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_agrees_with_async_engine_while_the_views_ids_change(
        self, engine, monkeypatch
    ):
        """Joins, leaves and purges between ticks: each refresh hands
        ``set_view`` a view over other ``ids``, so every in-flight lookup's
        carried position is re-resolved mid-route — and must still lose,
        fail and deliver exactly what the discrete-event engine does."""

        def factory():
            return serving_net(300, 14, engine)

        net = factory()
        live = sorted(net.live_view())
        rng = random.Random("serve-diff-ids")
        lookups = [
            (rng.choice(live), rng.randrange(net.space.size)) for _ in range(250)
        ]
        gone = rng.sample(live, 60)
        fresh = rng.sample(sorted(set(range(1, 1 << 32, 977)) - set(live)), 20)

        def churn_some(target, leavers, crashers, joiners):
            for node_id in leavers:
                target.leave(node_id)
            for node_id in crashers:
                target.crash(node_id)
            for node_id in joiners:
                target.join(node_id, FUZZ_PATHS[node_id % len(FUZZ_PATHS)])

        churn = [
            (1, lambda n: churn_some(n, gone[:15], gone[15:30], fresh[:10])),
            (2, lambda n: n.stabilize()),  # purges the crashed: forgotten ids
            (3, lambda n: churn_some(n, gone[30:45], gone[45:], fresh[10:])),
            (5, lambda n: n.stabilize()),
        ]
        views = []
        set_view = ServeRuntime.set_view
        monkeypatch.setattr(
            ServeRuntime,
            "set_view",
            lambda self, *view: (views.append(view[0].ids), set_view(self, *view))[1],
        )
        comparison = compare_serving(factory, lookups, churn=churn)
        assert comparison.equivalent, comparison.violations
        assert comparison.report.size == 250
        assert len({ids.tobytes() for ids in views}) == len(views) == 5
        assert np.any(comparison.report.status == STATUS_LOST)
        assert np.any(comparison.report.status == STATUS_OK)
