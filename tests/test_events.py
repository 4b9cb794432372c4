"""Tests for the discrete-event simulator core."""

from __future__ import annotations

import pytest

from repro.obs.trace import Tracer
from repro.simulation.events import (
    ConstantLatency,
    MessageLayer,
    MessageStats,
    Simulator,
)


class TestSimulator:
    def test_runs_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(5, lambda: log.append("b"))
        sim.schedule(1, lambda: log.append("a"))
        sim.schedule(9, lambda: log.append("c"))
        sim.run()
        assert log == ["a", "b", "c"]
        assert sim.now == 9

    def test_fifo_for_ties(self):
        sim = Simulator()
        log = []
        sim.schedule(1, lambda: log.append(1))
        sim.schedule(1, lambda: log.append(2))
        sim.run()
        assert log == [1, 2]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1, lambda: None)

    def test_run_until(self):
        sim = Simulator()
        log = []
        sim.schedule(1, lambda: log.append("early"))
        sim.schedule(10, lambda: log.append("late"))
        sim.run(until=5)
        assert log == ["early"]
        assert sim.pending == 1
        sim.run()
        assert log == ["early", "late"]

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        log = []

        def chain():
            log.append(sim.now)
            if sim.now < 3:
                sim.schedule(1, chain)

        sim.schedule(1, chain)
        sim.run()
        assert log == [1, 2, 3]

    def test_event_budget(self):
        sim = Simulator()

        def forever():
            sim.schedule(1, forever)

        sim.schedule(1, forever)
        with pytest.raises(RuntimeError):
            sim.run(max_events=100)

    def test_exact_budget_drain_is_not_an_error(self):
        # Regression: draining the queue with exactly max_events events used
        # to raise a spurious "budget exhausted" error.
        sim = Simulator()
        for i in range(100):
            sim.schedule(i, lambda: None)
        assert sim.run(max_events=100) == 100
        assert sim.pending == 0
        assert sim.events_run == 100

    def test_budget_error_reports_events_and_virtual_time(self):
        sim = Simulator()

        def forever():
            sim.schedule(1, forever)

        sim.schedule(1, forever)
        with pytest.raises(RuntimeError) as excinfo:
            sim.run(max_events=50)
        message = str(excinfo.value)
        assert "50 events run" in message
        assert "virtual time 50" in message
        assert sim.events_run == 50

    def test_tracer_sees_each_drained_event(self):
        tracer = Tracer()
        sim = Simulator(tracer=tracer)
        sim.schedule(1, lambda: None)
        sim.schedule(2, lambda: None)
        sim.run()
        assert len(tracer) == 2
        assert [r["attrs"]["t"] for r in tracer.records] == [1, 2]

    def test_sim_event_records(self):
        """One ``sim.event`` per drained event, in execution order: virtual
        time ``t``, and the closure's qualified name as ``action``, across
        closures, nested schedules and drains."""
        tracer = Tracer()
        sim = Simulator(tracer=tracer)
        log = []

        def make_cascade(depth):
            def cascade():
                log.append(("cascade", depth))
                if depth:
                    sim.schedule(0.5, make_cascade(depth - 1))

            return cascade

        def ping():
            log.append("ping")

        for i in range(5):
            sim.schedule(float(i % 3), ping)
        sim.schedule(1.25, make_cascade(3))
        sim.run()
        sim.schedule(0.0, ping)
        sim.run()
        events = [
            (r["attrs"]["t"], r["attrs"]["action"])
            for r in tracer.records
            if r["name"] == "sim.event"
        ]
        cascade, pinged = make_cascade(0).__qualname__, ping.__qualname__
        assert events == [
            (0.0, pinged), (0.0, pinged), (1.0, pinged), (1.0, pinged),
            (1.25, cascade), (1.75, cascade), (2.0, pinged), (2.25, cascade),
            (2.75, cascade), (2.75, pinged),
        ]
        assert len(events) == len(log)

    def test_active_tracer_captured_at_construction(self):
        from repro.obs.trace import tracing

        with tracing() as tracer:
            sim = Simulator()
        sim.schedule(1, lambda: None)
        sim.run()
        assert len(tracer) == 1

    def test_events_run_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(i, lambda: None)
        assert sim.run() == 5
        assert sim.events_run == 5


class TestLatencyAndStats:
    def test_constant_latency(self):
        assert ConstantLatency(3.5)(1, 2) == 3.5

    def test_stats_counts(self):
        stats = MessageStats()
        stats.record("x")
        stats.record("x")
        stats.record("y")
        assert stats.total == 3
        assert stats.counts["x"] == 2

    def test_stats_reset(self):
        stats = MessageStats()
        stats.record("x")
        snapshot = stats.reset()
        assert snapshot["x"] == 1
        assert stats.total == 0

    def test_message_layer_delays_and_counts(self):
        sim = Simulator()
        layer = MessageLayer(sim, ConstantLatency(2.0))
        log = []
        layer.send(1, 2, "ping", lambda: log.append(sim.now))
        sim.run()
        assert log == [2.0]
        assert layer.stats.counts["ping"] == 1

    def test_message_layer_feeds_metrics_registry(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        sim = Simulator()
        layer = MessageLayer(sim, ConstantLatency(), metrics=registry)
        layer.send(1, 2, "join", lambda: None)
        layer.send(2, 3, "stabilize", lambda: None)
        layer.send(3, 1, "join", lambda: None)
        # Mirroring is batched: counts land in the registry when the
        # simulator drains its queue, not per message.
        assert registry.counter("messages.join").value == 0
        sim.run()
        assert registry.counter("messages.join").value == 2
        assert registry.counter("messages.stabilize").value == 1
        # The layer's own Counter keeps working alongside the batch sink.
        assert layer.stats.total == 3

    def test_message_layer_captures_active_registry(self):
        from repro.obs.metrics import collecting

        with collecting() as registry:
            layer = MessageLayer(Simulator(), ConstantLatency())
        layer.send(1, 2, "ping", lambda: None)
        layer.stats.flush()
        assert registry.counter("messages.ping").value == 1

    def test_stats_reset_flushes_pending_batched_counts(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        stats = MessageStats(batch_sink=registry.message_sink_batch())
        stats.record("join")
        stats.record("join")
        assert registry.counter("messages.join").value == 0
        snapshot = stats.reset()
        assert snapshot["join"] == 2
        assert registry.counter("messages.join").value == 2
        assert not stats.pending


class TestLightweightEvents:
    def test_drain_hook_runs_per_drain(self):
        sim = Simulator()
        calls = []
        sim.add_drain_hook(lambda: calls.append(sim.now))
        sim.schedule(1, lambda: None)
        sim.run()
        sim.run()
        assert calls == [1, 1]
