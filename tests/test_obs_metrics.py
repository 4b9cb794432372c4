"""Tests for the metrics registry (`repro.obs.metrics`).

Includes the snapshot/diff/merge round-trip property tests required by the
observability issue: serialising a snapshot to JSON and back is loss-free,
``later.diff(earlier).merge(earlier) == later`` for counter/histogram
state, and merge is commutative on counts.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    active_registry,
    collecting,
)
from repro.obs.quantiles import DEFAULT_RESERVOIR_CAP


def populated_registry(hop_values, message_counts):
    """A registry with one histogram and per-kind message counters."""
    registry = MetricsRegistry()
    hist = registry.histogram("route.hops")
    for value in hop_values:
        hist.observe(value)
    for kind, count in message_counts.items():
        registry.counter(f"messages.{kind}").inc(count)
    return registry


class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.counter("x").inc(4)
        assert registry.counter("x").value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("deg").set(3.5)
        registry.gauge("deg").set(4.5)
        assert registry.gauge("deg").value == 4.5

    def test_histogram_bucketing(self):
        hist = Histogram("h", buckets=(1, 4, 16))
        for value in (0, 1, 2, 4, 5, 100):
            hist.observe(value)
        assert hist.counts == [2, 2, 1, 1]  # le_1, le_4, le_16, overflow
        assert hist.count == 6
        assert hist.sum == 112
        assert hist.mean == pytest.approx(112 / 6)

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(4, 1))

    def test_histogram_recreate_with_other_buckets_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1, 2))
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(1, 2, 3))


class TestSnapshotOperations:
    def test_json_roundtrip_is_lossless(self):
        registry = populated_registry([1, 3, 9], {"join": 5, "lookup": 2})
        registry.gauge("n").set(512)
        snap = registry.snapshot()
        assert MetricsSnapshot.from_json(snap.to_json()) == snap

    def test_diff_isolates_a_measurement_window(self):
        registry = populated_registry([2], {"join": 1})
        before = registry.snapshot()
        registry.counter("messages.join").inc(3)
        registry.histogram("route.hops").observe(7)
        window = registry.snapshot().diff(before)
        assert window.counters["messages.join"] == 3
        assert window.histograms["route.hops"]["count"] == 1
        assert window.histograms["route.hops"]["sum"] == 7

    def test_diff_then_merge_recovers_later_snapshot(self):
        registry = populated_registry([1, 5], {"lookup": 4})
        earlier = registry.snapshot()
        registry.histogram("route.hops").observe(9)
        registry.counter("messages.lookup").inc(2)
        later = registry.snapshot()
        recovered = later.diff(earlier).merge(earlier)
        assert recovered.counters == later.counters
        assert recovered.histograms == later.histograms

    def test_merge_adds_shards(self):
        a = populated_registry([1, 2], {"join": 1}).snapshot()
        b = populated_registry([8], {"join": 2, "leave": 5}).snapshot()
        merged = a.merge(b)
        assert merged.counters == {"messages.join": 3, "messages.leave": 5}
        assert merged.histograms["route.hops"]["count"] == 3
        assert merged.histograms["route.hops"]["sum"] == 11

    def test_merge_rejects_mismatched_buckets(self):
        a = MetricsRegistry()
        a.histogram("h", buckets=(1, 2))
        b = MetricsRegistry()
        b.histogram("h", buckets=(1, 2, 3))
        with pytest.raises(ValueError):
            a.snapshot().merge(b.snapshot())

    def test_csv_export(self, tmp_path):
        registry = populated_registry([1], {"join": 2})
        registry.gauge("n").set(64)
        out = tmp_path / "metrics.csv"
        registry.export_csv(str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "kind,name,field,value"
        assert "counter,messages.join,value,2" in lines
        assert "gauge,n,value,64" in lines
        assert any(line.startswith("histogram,route.hops,le_1,") for line in lines)

    def test_export_json_file(self, tmp_path):
        registry = populated_registry([3], {})
        out = tmp_path / "metrics.json"
        registry.export_json(str(out))
        snap = MetricsSnapshot.from_json(out.read_text())
        assert snap.histograms["route.hops"]["count"] == 1


hop_lists = st.lists(st.integers(0, 2000), max_size=40)
msg_maps = st.dictionaries(
    st.sampled_from(["join", "leave", "lookup", "stabilize"]),
    st.integers(0, 1000),
    max_size=4,
)


class TestSnapshotProperties:
    @settings(max_examples=30, deadline=None)
    @given(hops=hop_lists, msgs=msg_maps)
    def test_json_roundtrip_property(self, hops, msgs):
        snap = populated_registry(hops, msgs).snapshot()
        assert MetricsSnapshot.from_json(snap.to_json()) == snap

    @settings(max_examples=30, deadline=None)
    @given(hops_a=hop_lists, msgs_a=msg_maps, hops_b=hop_lists, msgs_b=msg_maps)
    def test_merge_commutes_on_counts(self, hops_a, msgs_a, hops_b, msgs_b):
        a = populated_registry(hops_a, msgs_a).snapshot()
        b = populated_registry(hops_b, msgs_b).snapshot()
        ab, ba = a.merge(b), b.merge(a)
        assert ab.counters == ba.counters
        assert ab.histograms == ba.histograms

    @settings(max_examples=30, deadline=None)
    @given(hops=hop_lists, msgs=msg_maps, extra=hop_lists)
    def test_diff_merge_roundtrip_property(self, hops, msgs, extra):
        registry = populated_registry(hops, msgs)
        earlier = registry.snapshot()
        for value in extra:
            registry.histogram("route.hops").observe(value)
        registry.counter("messages.lookup").inc(len(extra))
        later = registry.snapshot()
        recovered = later.diff(earlier).merge(earlier)
        assert recovered.counters == later.counters
        assert recovered.histograms == later.histograms


class TestWeightedSampleMerge:
    """Pooled reservoirs weigh each side by its histogram count, not by
    how many values it happened to retain."""

    NAME = "slo.lookup_ms.t"

    def shard(self, value, count):
        registry = MetricsRegistry()
        registry.histogram(self.NAME).observe_many([value] * count)
        return registry.snapshot()

    def assert_weighted(self, values):
        # 100,000 observations of 1.0 and 2,000 of 1000.0: a uniform pooled
        # sample is about 2/102 of 1000s, and its p90 is 1.0.
        assert len(values) == DEFAULT_RESERVOIR_CAP
        assert abs(values.count(1000.0) / len(values) - 2 / 102) <= 0.01

    def test_absorb_weighs_each_side_by_its_count(self):
        parent = MetricsRegistry()
        parent.absorb(self.shard(1.0, 100_000))
        parent.absorb(self.shard(1000.0, 2_000))
        hist = parent.histogram(self.NAME)
        assert hist.count == hist.sample.seen == 102_000
        assert hist.quantile(0.9) == 1.0
        self.assert_weighted(hist.sample.values)

    def test_merge_weighs_each_side_by_its_count(self):
        merged = self.shard(1.0, 100_000).merge(self.shard(1000.0, 2_000))
        assert merged.histograms[self.NAME]["count"] == 102_000
        assert merged.quantile(self.NAME, 0.9) == 1.0
        self.assert_weighted(merged.samples[self.NAME])

    def test_samples_that_fit_are_concatenated(self):
        a, b = self.shard(1.0, 300), self.shard(2.0, 200)
        assert a.merge(b).samples[self.NAME] == [1.0] * 300 + [2.0] * 200
        parent = MetricsRegistry()
        parent.absorb(a)
        parent.absorb(b)
        assert parent.snapshot().samples == a.merge(b).samples
        assert parent.histogram(self.NAME).sample.seen == 500


class TestActiveRegistry:
    def test_collecting_installs_and_restores(self):
        assert active_registry() is None
        with collecting() as registry:
            assert active_registry() is registry
            with collecting() as inner:
                assert active_registry() is inner
            assert active_registry() is registry
        assert active_registry() is None

    def test_default_buckets_cover_hops(self):
        assert DEFAULT_BUCKETS[0] == 1
        assert DEFAULT_BUCKETS[-1] >= 1024
