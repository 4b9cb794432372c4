"""Quantile machinery and the SLO report layer.

The quantile estimators in ``repro.obs.quantiles`` back the latency SLO
numbers, so they are property-tested against numpy's reference linear
interpolation; the ``SLOReport`` half checks the name-parsing, the table
maths (availability, stretch) and the ``python -m repro.obs report`` CLI.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.obs.quantiles import (
    DEFAULT_RESERVOIR_CAP,
    P2Quantile,
    ReservoirSample,
    bucket_quantile,
    percentile,
)
from repro.obs.slo import SLOReport, _split_level

# ----------------------------------------------------------------- percentile

values_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)
q_strategy = st.floats(min_value=0.0, max_value=1.0)


@settings(max_examples=100, deadline=None)
@given(values_strategy, q_strategy)
def test_percentile_matches_numpy(values, q):
    ordered = sorted(values)
    ours = percentile(ordered, q)
    ref = float(np.percentile(ordered, q * 100.0, method="linear"))
    assert ours == pytest.approx(ref, rel=1e-9, abs=1e-9)


def test_percentile_edges():
    assert percentile([5.0], 0.0) == 5.0
    assert percentile([5.0], 1.0) == 5.0
    assert percentile([1.0, 3.0], 0.5) == 2.0


# ------------------------------------------------------------ ReservoirSample


def test_reservoir_exact_below_capacity():
    sample = ReservoirSample("t", cap=64)
    data = [float(i) for i in range(50)]
    sample.observe_many(data)
    assert sorted(sample.values) == data
    assert sample.quantile(0.5) == float(np.percentile(data, 50))


def test_reservoir_is_deterministic_per_name():
    rng = random.Random(0)
    data = [rng.uniform(0, 100) for _ in range(5000)]
    a = ReservoirSample("same", cap=256)
    b = ReservoirSample("same", cap=256)
    a.observe_many(data)
    for v in data:
        b.observe(v)
    assert a.values == b.values  # same name+cap => same replacement choices
    c = ReservoirSample("different", cap=256)
    c.observe_many(data)
    assert c.values != a.values


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000_000))
def test_reservoir_quantiles_converge(seed):
    """Over capacity, reservoir quantiles stay near the exact ones."""
    rng = random.Random(seed)
    data = [rng.gauss(100.0, 15.0) for _ in range(4 * DEFAULT_RESERVOIR_CAP)]
    sample = ReservoirSample(f"conv-{seed}")
    sample.observe_many(data)
    assert sample.seen == len(data)
    assert len(sample.values) == DEFAULT_RESERVOIR_CAP
    for q in (0.5, 0.95):
        exact = float(np.percentile(data, q * 100))
        assert sample.quantile(q) == pytest.approx(exact, abs=5.0)


# -------------------------------------- batched draws == per-value randrange


def reference_reservoir(name, cap, batches):
    """Algorithm R with one ``randrange`` per value: what a batch must equal."""
    rng = random.Random(f"reservoir:{name}:{cap}")
    values, seen = [], 0
    for batch in batches:
        for v in batch:
            seen += 1
            if len(values) < cap:
                values.append(float(v))
                continue
            j = rng.randrange(seen)
            if j < cap:
                values[j] = float(v)
    return values, seen


@pytest.mark.parametrize(
    "first, m",
    [
        (1, 1),
        (1, 70),  # n = 1, 2, 3, 4, ...: a new bit length almost every draw
        (4094, 5),
        (4097, 4096),  # one whole bit length, and into the next
        (60_000, 20_000),  # across 2**16
        ((1 << 20) - 3, 3000),
        ((1 << 32) - 700, 599),  # near the largest n drawn exactly
    ],
)
def test_batched_draws_equal_randrange(first, m):
    sample = ReservoirSample("draws", cap=8)
    rng = random.Random("reservoir:draws:8")
    assert sample._draws(first, m).tolist() == [rng.randrange(first + i) for i in range(m)]
    # The unused words stay buffered: the next batch continues the stream.
    assert sample._draws(first + m, 50).tolist() == [
        rng.randrange(first + m + i) for i in range(50)
    ]


def test_draws_past_two_to_the_32_are_refused():
    sample = ReservoirSample("huge", cap=8)
    with pytest.raises(OverflowError):
        sample._draws((1 << 32) - 2, 3)


@pytest.mark.parametrize("cap", [1, 3, 64])
def test_batch_crossing_the_cap_matches_per_value_loop(cap):
    rng = random.Random(cap)
    batches = [[rng.random() for _ in range(size)] for size in (2, 250, 0, 1, 4000, 7)]
    sample = ReservoirSample("cross", cap=cap)
    for batch in batches:
        sample.observe_many(batch)
    assert (sample.values, sample.seen) == reference_reservoir("cross", cap, batches)


def test_observe_and_observe_many_interleaved_share_one_stream():
    rng = random.Random(5)
    batches = [[rng.uniform(0, 9) for _ in range(rng.choice([1, 1, 30, 900]))] for _ in range(60)]
    sample = ReservoirSample("mixed", cap=100)
    for batch in batches:
        if len(batch) == 1:
            sample.observe(batch[0])
        else:
            sample.observe_many(np.asarray(batch))
    assert (sample.values, sample.seen) == reference_reservoir("mixed", 100, batches)


def test_int_arrays_are_retained_as_floats():
    """``serve.hops`` hands the reservoir an integer array."""
    hops = np.random.default_rng(3).integers(0, 20, size=9000).astype(np.int32)
    sample = ReservoirSample("serve.hops", cap=DEFAULT_RESERVOIR_CAP)
    for chunk in np.array_split(hops, 37):
        sample.observe_many(chunk)
    expected = reference_reservoir(
        "serve.hops", DEFAULT_RESERVOIR_CAP, [hops.tolist()]
    )
    assert (sample.values, sample.seen) == expected
    assert all(type(v) is float for v in sample.values)


class CountingRandom(random.Random):
    """A ``random.Random`` counting its ``getrandbits`` calls (``randrange``
    goes through ``getrandbits`` too, one call per try)."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


def test_observing_past_capacity_pulls_words_in_bulk():
    """A deterministic cost pin: 100,000 values past a full reservoir,
    observed in serving-sized batches of 1,000, cost at most 100
    ``getrandbits`` calls (a per-value ``randrange`` costs over 100,000)."""
    cap = DEFAULT_RESERVOIR_CAP
    values = np.random.default_rng(11).uniform(0.0, 2000.0, cap + 100_000)
    sample = ReservoirSample("cost", cap=cap)
    counting = sample._rng = CountingRandom(f"reservoir:cost:{cap}")
    batches = [values[:cap]] + np.split(values[cap:], 100)
    for batch in batches:
        sample.observe_many(batch)
    assert counting.calls <= 100
    assert (sample.values, sample.seen) == reference_reservoir(
        "cost", cap, [b.tolist() for b in batches]
    )


# ----------------------------------------------------------------- P2Quantile


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000_000))
def test_p2_tracks_the_median(seed):
    rng = random.Random(seed)
    data = [rng.uniform(0.0, 1000.0) for _ in range(3000)]
    est = P2Quantile(0.5)
    for v in data:
        est.observe(v)
    exact = float(np.percentile(data, 50))
    assert est.value == pytest.approx(exact, rel=0.1, abs=20.0)


def test_p2_small_streams_are_exact():
    est = P2Quantile(0.5)
    for v in (3.0, 1.0, 2.0):
        est.observe(v)
    assert est.value == 2.0  # below 5 observations: exact order statistic


# ------------------------------------------------- Histogram + snapshot wiring


def test_histogram_quantile_uses_reservoir():
    registry = MetricsRegistry()
    hist = registry.histogram("slo.lookup_ms.t")
    data = [float(v) for v in range(1, 101)]
    hist.observe_many(data)
    assert hist.quantile(0.5) == float(np.percentile(data, 50))
    p50, p99 = hist.quantiles((0.5, 0.99))
    assert p50 == float(np.percentile(data, 50))
    assert p99 == float(np.percentile(data, 99))


def test_snapshot_quantile_roundtrips_through_json():
    registry = MetricsRegistry()
    data = [float(v) for v in range(200)]
    registry.histogram("slo.lookup_ms.t").observe_many(data)
    snap = registry.snapshot()
    back = MetricsSnapshot.from_json(snap.to_json())
    assert back.quantile("slo.lookup_ms.t", 0.95) == snap.quantile(
        "slo.lookup_ms.t", 0.95
    )
    with pytest.raises(KeyError):
        snap.quantile("no.such.histogram", 0.5)


def test_snapshot_quantile_falls_back_to_buckets():
    registry = MetricsRegistry()
    registry.histogram("h").observe_many([10.0] * 50)
    snap = registry.snapshot()
    data = dict(snap.data)
    data["samples"] = {}  # as if the reservoir had been stripped
    stripped = MetricsSnapshot(data)
    bucketed = stripped.quantile("h", 0.5)
    hist = snap.histograms["h"]
    assert bucketed == bucket_quantile(hist["buckets"], hist["counts"], 0.5)


# ---------------------------------------------------------------- SLO report


def test_split_level():
    assert _split_level("chord") == ("chord", "all")
    assert _split_level("chord.L2") == ("chord", "L2")
    assert _split_level("churn.heavy.L10") == ("churn.heavy", "L10")
    assert _split_level("weird.Lx") == ("weird.Lx", "all")


def _recorded_registry():
    registry = MetricsRegistry()
    lookups = [100.0, 200.0, 300.0, 400.0]
    registry.histogram("slo.lookup_ms.fam").observe_many(lookups)
    registry.histogram("slo.lookup_ms.fam.L0").observe_many(lookups[:2])
    registry.histogram("slo.lookup_ms.fam.L1").observe_many(lookups[2:])
    registry.histogram("slo.direct_ms.fam").observe_many([50.0, 100.0, 150.0, 200.0])
    registry.counter("slo.samples.fam").inc(5)  # one lookup failed
    registry.counter("slo.delivered.fam").inc(4)
    return registry


def test_slo_report_from_snapshot():
    report = SLOReport.from_snapshot(_recorded_registry().snapshot())
    assert [(r.family, r.level) for r in report.rows] == [
        ("fam", "L0"),
        ("fam", "L1"),
        ("fam", "all"),
    ]
    row = report.row("fam")
    assert row.samples == 5 and row.delivered == 4
    assert row.availability == pytest.approx(0.8)
    assert row.mean_ms == pytest.approx(250.0)
    assert row.stretch == pytest.approx(2.0)  # mean lookup 250 / mean direct 125
    assert row.p50_ms == float(np.percentile([100, 200, 300, 400], 50))
    level0 = report.row("fam", "L0")
    assert level0.samples == 2 and level0.delivered == 2
    assert report.row("fam", "L7") is None


def test_slo_report_exports():
    report = SLOReport.from_snapshot(_recorded_registry().snapshot())
    doc = report.to_json()
    assert '"rows"' in doc and '"fam"' in doc
    csv = report.to_csv().splitlines()
    assert csv[0].startswith("family,level,samples")
    assert len(csv) == 1 + len(report)
    text = report.render()
    assert "fam" in text and "p99 ms" in text
    assert SLOReport([]).render() == "no slo.* instruments found in this snapshot"


def test_slo_report_markdown():
    report = SLOReport.from_snapshot(_recorded_registry().snapshot())
    md = report.to_markdown(title="Nightly SLO").splitlines()
    assert md[0] == "**Nightly SLO**"
    header = md[2]
    assert header.startswith("| family |")
    assert "p99 ms" in header
    assert md[3].startswith("|---")
    assert sum(1 for line in md if line.startswith("| fam |")) == 3
    assert "no slo.* instruments" in SLOReport([]).to_markdown()


def test_report_cli(tmp_path, capsys):
    from repro.obs.__main__ import main

    snapshot_path = tmp_path / "m.json"
    snapshot_path.write_text(_recorded_registry().snapshot().to_json())
    json_out = tmp_path / "slo.json"
    csv_out = tmp_path / "slo.csv"
    md_out = tmp_path / "slo.md"
    code = main(
        [
            "report",
            str(snapshot_path),
            "--json",
            str(json_out),
            "--csv",
            str(csv_out),
            "--markdown",
            str(md_out),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "fam" in printed
    report = SLOReport.from_json_file(str(snapshot_path))
    assert json_out.read_text().strip().startswith("{")
    assert csv_out.read_text().splitlines()[0].startswith("family,")
    assert md_out.read_text().startswith("**SLO report**")
    assert len(report) == 3


def test_sample_routing_records_slo():
    """End to end: sample_routing(slo_label=...) feeds the report."""
    import random as _random

    from repro.analysis.metrics import sample_routing
    from repro.core.idspace import IdSpace
    from repro.dhts.crescendo import CrescendoNetwork
    from repro.topology.transit_stub import TopologyParams, TransitStubTopology

    rng = _random.Random("slo-e2e")
    topology = TransitStubTopology(TopologyParams(2, 2, 2, 4), rng=rng)
    space = IdSpace(32)
    hierarchy = topology.attach_nodes(space.random_ids(48, rng), rng)
    net = CrescendoNetwork(space, hierarchy).build()
    with obs_metrics.collecting() as registry:
        stats = sample_routing(
            net, rng, samples=40, latency_fn=topology.node_latency, slo_label="e2e"
        )
    report = SLOReport.from_snapshot(registry.snapshot())
    row = report.row("e2e")
    assert row is not None
    assert row.samples == 40
    assert row.delivered == stats.delivered
    assert row.mean_ms == pytest.approx(stats.mean_latency)
    assert row.stretch > 1.0  # overlay routing is never faster than direct
    # Per-level rows exist and partition the delivered lookups.
    level_rows = [r for r in report.rows if r.family == "e2e" and r.level != "all"]
    assert sum(r.samples for r in level_rows) == row.delivered
