"""Bulk builders must be equivalent to the scalar reference constructions.

The comparisons themselves live in :mod:`repro.verify.oracles` (so the
fuzzer and CLI share them); this module pins the per-family comparison
profile.  Six families have a bulk form: Chord, Crescendo, Kademlia, Kandy
and the two proximity variants.  Their deterministic builds must produce
*identical* link tables on both paths (Crescendo and Kandy on ragged
hierarchies too).  Randomized Kademlia/Kandy consume randomness in a
different order, so they compare every RNG-independent output exactly
instead: degree sequences and Kandy's ``contact_depth``.  Every other
family builds by its reference (:class:`TestDispatch`).
"""

from __future__ import annotations

import inspect
import random
import statistics

import numpy as np
import pytest

from repro.analysis.metrics import DegreeStats
from repro.core.hierarchy import Hierarchy, build_uniform_hierarchy
from repro.core.idspace import IdSpace
from repro.core.network import DHTNetwork
from repro.dhts.can import CANNetwork, PrefixTree
from repro.dhts.chord import ChordNetwork
from repro.dhts.crescendo import CrescendoNetwork
from repro.dhts.kademlia import KademliaNetwork
from repro.dhts.kandy import KandyNetwork
from repro.dhts.naive import NaiveHierarchicalChord
from repro.dhts.symphony import draw_long_links
from repro.obs import metrics as obs_metrics
from repro.perf import build as perf_build
from repro.perf.build import BULK_THRESHOLD, hierarchy_codes
from repro.proximity.groups import ProximityChordNetwork, ProximityCrescendoNetwork
from repro.topology.transit_stub import TopologyParams, TransitStubTopology
from repro.verify.oracles import compare_builders

SIZE = 300
BITS = 32


def _space():
    return IdSpace(BITS)


def _hierarchy(size, seed=11, levels=3, fanout=4):
    rng = random.Random(seed)
    space = _space()
    ids = space.random_ids(size, rng)
    return space, build_uniform_hierarchy(ids, fanout, levels, rng)


def _prefix_input(leaves, paths, bits=BITS):
    """(hierarchy, prefixes) placing the i-th prefix-tree leaf at ``paths[i]``."""
    hierarchy = Hierarchy()
    prefixes = {}
    for leaf, path in zip(leaves, paths):
        padded = leaf.padded(bits)
        prefixes[padded] = leaf
        hierarchy.place(padded, path)
    return hierarchy, prefixes


def _exact(factory, side_attrs=()):
    """Oracle profile for deterministic families: identical link tables."""
    comparison = compare_builders(factory, exact=True, side_attrs=side_attrs)
    comparison.raise_on_violations()
    return comparison


def _randomized(factory, side_attrs=()):
    """Oracle profile for randomized Kademlia/Kandy: the id population fixes
    the degree sequence whichever contacts the rng picked, so it and every
    other RNG-independent side output must match exactly."""
    comparison = compare_builders(
        factory, exact=False, compare_degrees=True, side_attrs=side_attrs
    )
    comparison.raise_on_violations()
    return comparison


# ------------------------------------------------------ deterministic families


class TestDeterministicEquality:
    def test_kademlia_deterministic(self):
        space, hierarchy = _hierarchy(SIZE)
        _exact(lambda: KademliaNetwork(space, hierarchy, None, 1))

    def test_kandy_deterministic(self):
        space, hierarchy = _hierarchy(SIZE)
        _exact(
            lambda: KandyNetwork(space, hierarchy, None, 1),
            side_attrs=("contact_depth",),
        )

    def test_deterministic_kademlia_wide_bucket_stays_reference(self):
        space, hierarchy = _hierarchy(SIZE)
        # Bulk has no deterministic multi-contact path; the build must fall
        # back to the scalar reference rather than raise or approximate.
        for cls in (KademliaNetwork, KandyNetwork):
            assert cls(space, hierarchy, None, 3).build().built_with == "python"
        net = KademliaNetwork(space, hierarchy, None, 3)
        with pytest.raises(ValueError):
            perf_build.kandy_edges(net.node_ids, space, None, bucket_size=3)


# --------------------------------------------------------- randomized families


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("bucket_size", [1, 3])
    def test_kademlia_random_degree_sequence(self, bucket_size):
        # Degree is the number of occupied (bucket, slot) pairs.
        space, hierarchy = _hierarchy(SIZE)
        _randomized(
            lambda: KademliaNetwork(space, hierarchy, random.Random(25), bucket_size)
        )

    @pytest.mark.parametrize("bucket_size", [1, 3])
    def test_kandy_random_contact_depth(self, bucket_size):
        space, hierarchy = _hierarchy(SIZE)
        _randomized(
            lambda: KandyNetwork(space, hierarchy, random.Random(26), bucket_size),
            side_attrs=("contact_depth",),
        )

# ------------------------------------------------------------ ragged depths

#: Leaf paths of one to three labels with their node counts.  Deep domains
#: nest under shallow leaves, so one depth's rings hold leaf and merge
#: members together, and rings range from one member to hundreds.
RAGGED_PATHS = (
    (("a",), 120),
    (("a", "x"), 150),
    (("a", "x", "1"), 90),
    (("a", "x", "2"), 3),
    (("a", "y"), 2),
    (("b",), 1),
    (("b", "z", "3"), 40),
    (("c", "w"), 70),
    (("c", "v", "4"), 1),
    (("e",), 1),
) + tuple(((f"d{i}",), 1) for i in range(6)) + tuple(
    ((f"d{i}", "e", "f"), 2) for i in range(6)
)


def _ragged(seed=31):
    rng = random.Random(seed)
    space = _space()
    paths = [path for path, count in RAGGED_PATHS for _ in range(count)]
    rng.shuffle(paths)
    hierarchy = Hierarchy()
    for node, path in zip(space.random_ids(len(paths), rng), paths):
        hierarchy.place(node, path)
    return space, hierarchy


def _fake_latency(a, b):
    return float((a ^ b) % 97)


def _attached(hierarchy, seed=37):
    """A 36-router transit-stub graph with every node attached: many nodes
    share a router, so latency ties are common."""
    rng = random.Random(seed)
    topology = TransitStubTopology(TopologyParams(2, 2, 2, 4), rng=rng)
    for node in hierarchy.node_ids:
        topology.attach_node(node, rng)
    return topology


class TestRaggedHierarchies:
    """Paths of different lengths: a node joins the rings of every depth
    down to its own leaf domain, where it takes full Chord fingers."""

    def test_ring_sizes_straddle_the_bulk_threshold(self):
        _, hierarchy = _ragged()
        sizes = [hierarchy.member_count(d.path) for d in hierarchy.domains()]
        assert min(sizes) == 1 and max(sizes) > BULK_THRESHOLD
        assert {len(hierarchy.path_of(n)) for n in hierarchy.node_ids} == {1, 2, 3}

    def test_crescendo(self):
        space, hierarchy = _ragged()
        _exact(
            lambda: CrescendoNetwork(space, hierarchy),
            side_attrs=("gap", "level_successors"),
        )

    def test_crescendo_prox(self):
        space, hierarchy = _ragged()
        _exact(
            lambda: ProximityCrescendoNetwork(
                space, hierarchy, _fake_latency, random.Random(41)
            ),
            side_attrs=("gap", "level_successors"),
        )

    def test_chord_prox(self):
        space, hierarchy = _ragged()
        latency = _attached(hierarchy).node_latency
        rngs = []

        def factory():
            rngs.append(random.Random(41))
            return ProximityChordNetwork(space, hierarchy, latency, rngs[-1])

        _exact(factory)
        # Crescendo (Prox.) draws from the same rng next.
        assert rngs[0].getstate() == rngs[1].getstate()

    @pytest.mark.parametrize("case", ["plain-latency", "group-over-sample"])
    def test_chord_prox_without_bulk_form(self, case):
        space, hierarchy = _ragged()
        latency, sample = _attached(hierarchy).node_latency, 32
        if case == "plain-latency":
            latency = _fake_latency
        else:
            sample = 4
        net = ProximityChordNetwork(
            space, hierarchy, latency, random.Random(41), sample=sample
        )
        assert net.build().built_with == "python"

    def test_kandy_deterministic(self):
        space, hierarchy = _ragged()
        _exact(
            lambda: KandyNetwork(space, hierarchy, None, 1),
            side_attrs=("contact_depth",),
        )

    @pytest.mark.parametrize("bucket_size", [1, 3])
    def test_kandy_random_contact_depth(self, bucket_size):
        space, hierarchy = _ragged()
        _randomized(
            lambda: KandyNetwork(space, hierarchy, random.Random(42), bucket_size),
            side_attrs=("contact_depth",),
        )

    def test_hierarchy_codes(self):
        _, hierarchy = _ragged()
        nodes = sorted(hierarchy.node_ids)
        codes = hierarchy_codes(hierarchy, nodes).tolist()
        paths = [hierarchy.path_of(node) for node in nodes]
        assert len(codes[0]) == 3
        code_of = {}
        for row, path in zip(codes, paths):
            # Labels are sibling indexes; -1 pads past the path's end.
            assert min(row[: len(path)]) >= 0
            assert row[len(path):] == [-1] * (3 - len(path))
            for depth in range(len(path) + 1):
                prefix = tuple(row[:depth])
                assert code_of.setdefault(path[:depth], prefix) == prefix
        # Distinct domains get distinct code prefixes ...
        assert len(set(code_of.values())) == len(code_of)
        # ... ordered as domains() visits each depth's domains.
        visited = [domain.path for domain in hierarchy.domains()]
        for depth in range(4):
            at_depth = [path for path in visited if len(path) == depth]
            assert sorted(at_depth, key=code_of.__getitem__) == at_depth

    def test_keys_wider_than_64_bits_build_the_reference(self):
        space = IdSpace(60)
        ids = space.random_ids(80, random.Random(43))
        # 20 depth-1 domains need 5 rank bits above 60 id bits; 16 need 4.
        wide, narrow = Hierarchy(), Hierarchy()
        for i, node in enumerate(ids):
            wide.place(node, (f"d{i % 20}",))
            narrow.place(node, (f"d{i % 16}",))
        for factory in (CrescendoNetwork, lambda s, h: KandyNetwork(s, h, None, 1)):
            assert factory(space, wide).build().built_with == "python"
            assert factory(space, narrow).build().built_with == "numpy"
        _exact(
            lambda: CrescendoNetwork(space, narrow),
            side_attrs=("gap", "level_successors"),
        )
        sorted_ids = sorted(ids)
        with pytest.raises(ValueError, match="exceed 64 bits"):
            perf_build.canon_merge(
                np.asarray(sorted_ids, dtype=np.uint64),
                hierarchy_codes(wide, sorted_ids),
                space,
            )


# --------------------------------------------------------- short-draw counter


class TestShortDrawCounter:
    def test_scalar_reports_exhausted_budget(self):
        space = _space()
        members = sorted(random.Random(1).sample(range(space.size), 3))
        with obs_metrics.collecting() as registry:
            links = draw_long_links(members[0], members, 5, space, random.Random(2))
        # Only two distinct non-self targets exist; 5 are impossible.
        assert len(links) < 5
        assert registry.counter("build.symphony.short_draws").value >= 5 - len(links)

# ---------------------------------------------------- dispatch and metrics

def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


#: Every network class the package defines (importing it loads them all).
NETWORK_CLASSES = sorted(set(_subclasses(DHTNetwork)), key=lambda cls: cls.__name__)
#: The families with a bulk form; every other class builds by its reference.
BULK_CLASSES = {
    ChordNetwork,
    CrescendoNetwork,
    KademliaNetwork,
    KandyNetwork,
    ProximityChordNetwork,
    ProximityCrescendoNetwork,
}


def _unbuilt(cls, size, bits=BITS):
    """A fresh ``size``-node ``cls`` network on a ``bits``-bit id space."""
    rng = random.Random(size)
    space = IdSpace(bits)
    kwargs = {"rng": rng} if "rng" in inspect.signature(cls).parameters else {}
    if issubclass(cls, CANNetwork):
        paths = [("lan%d" % (i % 3),) for i in range(size)]
        leaves = PrefixTree(bits).grow_aligned(paths, rng)
        return cls(space, *_prefix_input(leaves, paths, bits), **kwargs)
    ids = space.random_ids(size, rng)
    hierarchy = build_uniform_hierarchy(ids, 4, 2, rng)
    if "latency_fn" in inspect.signature(cls).parameters:
        kwargs["latency_fn"] = _attached(hierarchy).node_latency
    return cls(space, hierarchy, **kwargs)


class TestDispatch:
    @pytest.mark.parametrize("cls", NETWORK_CLASSES, ids=lambda cls: cls.__name__)
    def test_input_picks_the_builder(self, cls):
        assert _unbuilt(cls, BULK_THRESHOLD).build().built_with == "python"
        built = _unbuilt(cls, BULK_THRESHOLD + 1).build()
        reference = _unbuilt(cls, BULK_THRESHOLD + 1).build_reference()
        assert reference.built_with == "python"
        if cls in BULK_CLASSES:
            assert built.built_with == "numpy"
            wide = _unbuilt(cls, BULK_THRESHOLD + 1, bits=64).build()
            assert wide.built_with == "python"
            return
        # No bulk form of its own, inherited or not: build() is the reference.
        assert built.built_with == "python"
        assert built.links == reference.links
        for attr in ("gap", "edge_depth"):
            assert getattr(built, attr, None) == getattr(reference, attr, None)

    def test_degree_stats_vectorized_path_matches_scalar(self):
        space, hierarchy = _hierarchy(SIZE)
        net = NaiveHierarchicalChord(space, hierarchy).build()
        stats = DegreeStats.of(net)
        degrees = net.degrees()
        assert stats.mean == statistics.mean(degrees)
        assert stats.maximum == max(degrees)
        assert stats.minimum == min(degrees)
        assert stats.pdf == net.degree_distribution()
