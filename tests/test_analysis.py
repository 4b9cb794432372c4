"""Tests for the analysis layer: metrics, overlap fractions, tables."""

from __future__ import annotations

import random

import pytest

from repro import IdSpace, build_uniform_hierarchy
from repro.analysis.metrics import DegreeStats, sample_routing, stretch
from repro.analysis.overlap import (
    common_suffix_edges,
    mean_overlap,
    overlap_fractions,
)
from repro.analysis.tables import Table
from repro.dhts.chord import ChordNetwork
from repro.perf.kernels import compile_network


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
        """62 id bits + 1 + 5 index bits: the kernels' augmented keys would
        need 68 bits, so compiling fails and the scalar engine routes."""
        rng = random.Random(6)
        space = IdSpace(62)
        ids = space.random_ids(20, rng)
        wide = ChordNetwork(space, build_uniform_hierarchy(ids, 2, 1, rng)).build()
        with pytest.raises(ValueError, match="augmented keys"):
            compile_network(wide)
        stats = sample_routing(wide, random.Random(7), samples=40)
        assert stats.samples == 40
        assert stats.success_rate == 1.0


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
