"""Tests for the analysis layer: metrics, overlap fractions, tables."""

from __future__ import annotations

import math
import random
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IdSpace, build_uniform_hierarchy
from repro.analysis.metrics import DegreeStats, exact_mean, sample_routing, stretch
from repro.analysis.overlap import (
    common_suffix_edges,
    mean_overlap,
    overlap_fractions,
)
from repro.analysis.tables import Table
from repro.dhts.chord import ChordNetwork
from repro.obs.metrics import collecting
from repro.perf.kernels import compile_network
from repro.topology.transit_stub import TopologyParams, TransitStubTopology
from repro.workloads.queries import random_pair


@pytest.fixture(scope="module")
def net():
    rng = random.Random(0)
    space = IdSpace(32)
    ids = space.random_ids(300, rng)
    h = build_uniform_hierarchy(ids, 3, 1, rng)
    return ChordNetwork(space, h).build()


class TestDegreeStats:
    def test_of_network(self, net):
        stats = DegreeStats.of(net)
        assert stats.minimum <= stats.mean <= stats.maximum
        assert abs(sum(stats.pdf.values()) - 1.0) < 1e-9


def assert_mean_of_list(values: np.ndarray) -> None:
    """``exact_mean`` is ``statistics.mean`` over the list, value and type."""
    got, want = exact_mean(values), statistics.mean(values.tolist())
    assert type(got) is type(want)
    assert got == want or (math.isnan(got) and math.isnan(want))


# A float of 53 random bits anywhere in 81 binades, either sign.
wide_floats = st.builds(
    lambda fraction, exponent, sign: math.ldexp(sign * fraction, exponent),
    st.floats(0.5, 1.0, exclude_max=True),
    st.integers(-40, 40),
    st.sampled_from([-1.0, 1.0]),
)


class TestExactMean:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-(10**9), 10**9), min_size=1, max_size=300))
    def test_int_arrays(self, values):
        assert_mean_of_list(np.asarray(values, dtype=np.int64))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(wide_floats, min_size=1, max_size=300))
    def test_floats_over_many_binades(self, values):
        """Two fixed extremes make every array span 80 binades."""
        extremes = [math.ldexp(0.75, -40), math.ldexp(-0.75, 40)]
        assert_mean_of_list(np.asarray(values + extremes, dtype=np.float64))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50
        )
    )
    def test_any_finite_floats(self, values):
        """Subnormals to the largest finite double, mixed in one array."""
        assert_mean_of_list(np.asarray(values, dtype=np.float64))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(), min_size=1, max_size=20),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    def test_non_finite(self, values, special):
        assert_mean_of_list(np.asarray(values + [special], dtype=np.float64))

    def test_divisible_int_sum_is_an_int(self):
        assert exact_mean(np.array([2, 4, 9], dtype=np.int64)) == 5
        assert type(exact_mean(np.array([2, 4, 9], dtype=np.int64))) is int
        assert type(exact_mean(np.array([1, 2], dtype=np.int64))) is float
        assert type(exact_mean(np.array([3.0, 5.0]))) is float

    @pytest.mark.parametrize("n", [1, 2, 999, 4096])
    def test_sizes_and_signs(self, n):
        rng = np.random.default_rng(n)
        signs = rng.choice([-1.0, 1.0], n)
        assert_mean_of_list(rng.integers(-1000, 1000, n))
        assert_mean_of_list(rng.integers(0, 40, n))
        # Log-normal magnitudes spanning about 60 binades.
        assert_mean_of_list(signs * rng.lognormal(0.0, 10.0, n))
        assert_mean_of_list(np.round(rng.uniform(0.0, 500.0, n), 3))

    def test_empty_raises_like_statistics(self):
        with pytest.raises(statistics.StatisticsError):
            exact_mean(np.array([], dtype=np.float64))


class TestSampleRouting:
    def test_basic(self, net):
        stats = sample_routing(net, random.Random(1), samples=100)
        assert stats.samples == 100
        assert stats.success_rate == 1.0
        assert stats.mean_hops > 0
        assert stats.mean_latency is None

    def test_with_latency(self, net):
        stats = sample_routing(
            net, random.Random(2), samples=50, latency_fn=lambda a, b: 1.0
        )
        assert stats.mean_latency == pytest.approx(stats.mean_hops)

    def test_explicit_pairs(self, net):
        ids = net.node_ids
        pairs = [(ids[0], ids[5]), (ids[1], ids[9])]
        stats = sample_routing(net, random.Random(3), pairs=pairs)
        assert stats.samples == 2

    def test_stretch(self, net):
        value, latency = stretch(
            net, random.Random(4), lambda a, b: 2.0, direct_latency=2.0, samples=50
        )
        assert value == pytest.approx(latency / 2.0)

    def test_stretch_bad_direct(self, net):
        with pytest.raises(ValueError):
            stretch(net, random.Random(5), lambda a, b: 1.0, 0.0, samples=10)

    def test_network_too_wide_to_compile_routes_scalar(self):
        """62 id bits + 1 + 5 row bits: the kernels' ring table sort keys
        would need 68 bits, so compiling fails and the scalar engine routes."""
        rng = random.Random(6)
        space = IdSpace(62)
        ids = space.random_ids(20, rng)
        wide = ChordNetwork(space, build_uniform_hierarchy(ids, 2, 1, rng)).build()
        with pytest.raises(ValueError, match="ring table sort keys"):
            compile_network(wide)
        stats = sample_routing(wide, random.Random(7), samples=40)
        assert stats.samples == 40
        assert stats.success_rate == 1.0


def test_bare_sample_routing_never_calls_statistics_mean(monkeypatch):
    """Unobserved accounting stays in arrays: 4,096 routed pairs on a
    compiled ring net with a latency table, and no per-route Python mean."""
    rng = random.Random("bare-accounting")
    params = TopologyParams(
        transit_domains=2,
        transit_per_domain=2,
        stub_domains_per_transit=2,
        stub_per_domain=4,
    )
    topology = TransitStubTopology(params, rng=rng)
    space = IdSpace(32)
    ids = space.random_ids(256, rng)
    net = ChordNetwork(space, topology.attach_nodes(ids, rng)).build()
    pairs = [random_pair(ids, rng) for _ in range(4096)]
    table = topology.latency_table()
    with collecting():
        observed = sample_routing(net, None, latency_fn=table, pairs=pairs)

    def refuse(data):
        raise AssertionError("statistics.mean called on the bare path")

    monkeypatch.setattr("repro.analysis.metrics.statistics.mean", refuse)
    bare = sample_routing(net, None, latency_fn=table, pairs=pairs)
    assert bare == observed
    assert bare.delivered == 4096


class TestOverlap:
    def test_common_suffix(self):
        assert common_suffix_edges([1, 2, 3, 4], [9, 3, 4]) == [(3, 4)]

    def test_no_overlap(self):
        assert common_suffix_edges([1, 2], [3, 4]) == []

    def test_identical_paths(self):
        path = [1, 2, 3]
        assert common_suffix_edges(path, path) == [(1, 2), (2, 3)]

    def test_suffix_only_not_middle(self):
        """A shared middle segment that diverges again does not count."""
        assert common_suffix_edges([1, 2, 3, 9], [0, 2, 3, 8]) == []

    def test_overlap_fractions_hops(self):
        hop, lat = overlap_fractions([1, 2, 3, 4], [9, 3, 4])
        assert hop == pytest.approx(0.5)
        assert lat is None

    def test_overlap_fractions_latency(self):
        hop, lat = overlap_fractions(
            [1, 2, 3, 4], [9, 3, 4], latency_fn=lambda a, b: abs(b - a)
        )
        # second path edges: (9,3)=6, (3,4)=1; shared suffix latency 1.
        assert lat == pytest.approx(1 / 7)

    def test_trivial_second_path(self):
        hop, lat = overlap_fractions([1, 2], [5], latency_fn=lambda a, b: 1.0)
        assert hop == 1.0
        assert lat == 1.0

    def test_mean_overlap(self):
        pairs = [([1, 2, 3], [9, 2, 3]), ([1, 2], [4, 5])]
        hop, lat = mean_overlap(pairs)
        assert hop == pytest.approx((0.5 + 0.0) / 2)


class TestTable:
    def test_render_contains_cells(self):
        table = Table("Demo", ["a", "b"])
        table.add_row(1, 2.5)
        out = table.render()
        assert "Demo" in out
        assert "2.50" in out

    def test_wrong_arity(self):
        table = Table("Demo", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_markdown(self):
        table = Table("Demo", ["x"])
        table.add_row("v")
        md = table.to_markdown()
        assert md.startswith("**Demo**")
        assert "| v |" in md

    def test_column_access(self):
        table = Table("Demo", ["x", "y"])
        table.add_row(1, 2)
        table.add_row(3, 4)
        assert table.column("y") == ["2", "4"]

    def test_empty_table_renders(self):
        assert "Demo" in Table("Demo", ["x"]).render()
