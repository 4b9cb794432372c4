"""Micro-benchmarks: network construction throughput.

Compares the vectorised bulk builder against the pure-Python reference and
tracks the cost of building each DHT family at a fixed size — regressions
here make the paper-scale (65536-node) figure runs impractical.
"""

from __future__ import annotations

import random

import pytest

from repro import IdSpace, build_uniform_hierarchy
from repro.dhts.cacophony import CacophonyNetwork
from repro.dhts.chord import ChordNetwork
from repro.dhts.crescendo import CrescendoNetwork
from repro.dhts.kademlia import KademliaNetwork
from repro.dhts.kandy import KandyNetwork
from repro.dhts.ndchord import NDCrescendoNetwork
from repro.dhts.symphony import SymphonyNetwork

SIZE = 2000
LEVELS = 3


def make_inputs(seed=0, levels=LEVELS):
    rng = random.Random(seed)
    space = IdSpace(32)
    ids = space.random_ids(SIZE, rng)
    hierarchy = build_uniform_hierarchy(ids, 10, levels, rng)
    return space, hierarchy, rng


def test_build_chord_numpy(benchmark):
    space, hierarchy, rng = make_inputs()
    net = benchmark(lambda: ChordNetwork(space, hierarchy).build())
    assert net.size == SIZE


def test_build_crescendo_numpy(benchmark):
    space, hierarchy, rng = make_inputs()
    net = benchmark(
        lambda: CrescendoNetwork(space, hierarchy).build()
    )
    assert net.size == SIZE


def test_build_crescendo_python(benchmark):
    space, hierarchy, rng = make_inputs()
    net = benchmark(
        lambda: CrescendoNetwork(space, hierarchy).build_reference()
    )
    assert net.size == SIZE


def test_build_symphony(benchmark):
    space, hierarchy, rng = make_inputs()
    net = benchmark(lambda: SymphonyNetwork(space, hierarchy, rng).build())
    assert net.size == SIZE


def test_build_symphony_python(benchmark):
    space, hierarchy, rng = make_inputs()
    net = benchmark(
        lambda: SymphonyNetwork(space, hierarchy, rng).build_reference()
    )
    assert net.size == SIZE


def test_build_cacophony(benchmark):
    space, hierarchy, rng = make_inputs()
    net = benchmark(lambda: CacophonyNetwork(space, hierarchy, rng).build())
    assert net.size == SIZE


def test_build_nd_crescendo(benchmark):
    space, hierarchy, rng = make_inputs()
    net = benchmark(lambda: NDCrescendoNetwork(space, hierarchy, rng).build())
    assert net.size == SIZE


def test_build_kademlia(benchmark):
    space, hierarchy, rng = make_inputs()
    net = benchmark(lambda: KademliaNetwork(space, hierarchy, rng).build())
    assert net.size == SIZE


def test_build_kademlia_python(benchmark):
    space, hierarchy, rng = make_inputs()
    net = benchmark(
        lambda: KademliaNetwork(space, hierarchy, rng).build_reference()
    )
    assert net.size == SIZE


def test_build_kandy(benchmark):
    space, hierarchy, rng = make_inputs()
    net = benchmark(lambda: KandyNetwork(space, hierarchy, rng).build())
    assert net.size == SIZE
