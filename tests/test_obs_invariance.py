"""Tracing must never change routing decisions.

Property tests over every DHT family and every routing engine: the path a
traced route takes is bit-identical to the untraced route, and the
aggregate statistics of `sample_routing` are unchanged when a tracer and a
metrics registry are active.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IdSpace, build_uniform_hierarchy
from repro.analysis.metrics import sample_routing
from repro.core.routing import route, route_ring, route_ring_lookahead, route_xor
from repro.dhts.cacophony import CacophonyNetwork
from repro.dhts.chord import ChordNetwork
from repro.dhts.crescendo import CrescendoNetwork
from repro.dhts.kandy import KandyNetwork
from repro.dhts.ndchord import NDCrescendoNetwork
from repro.dhts.symphony import SymphonyNetwork
from repro.obs.metrics import collecting
from repro.obs.trace import Tracer, tracing
from repro.proximity.groups import ProximityChordNetwork, route_grouped
from repro.topology.transit_stub import TopologyParams, TransitStubTopology
from repro.verify.builders import build_family as build_over
from repro.workloads.queries import random_pair

FAMILIES = {
    "chord": (lambda s, h, r: ChordNetwork(s, h).build(), route_ring),
    "crescendo": (
        lambda s, h, r: CrescendoNetwork(s, h).build_reference(), route_ring
    ),
    "cacophony": (lambda s, h, r: CacophonyNetwork(s, h, r).build(), route_ring),
    "nd-crescendo": (lambda s, h, r: NDCrescendoNetwork(s, h, r).build(), route_ring),
    "symphony": (
        lambda s, h, r: SymphonyNetwork(s, h, r).build(), route_ring_lookahead
    ),
    "kandy": (lambda s, h, r: KandyNetwork(s, h, r).build(), route_xor),
    "chord-prox": (
        lambda s, h, r: ProximityChordNetwork(
            s, h, lambda a, b: (a ^ b) % 97, r
        ).build(),
        route_grouped,
    ),
}


def build_family(name, seed, size, fanout, levels):
    """A built network of the given family on a random hierarchy."""
    rng = random.Random(seed)
    space = IdSpace(16)
    ids = space.random_ids(size, rng)
    hierarchy = build_uniform_hierarchy(ids, fanout, levels, rng)
    builder, router = FAMILIES[name]
    return builder(space, hierarchy, rng), router


hier_params = st.tuples(
    st.integers(0, 5000),  # seed
    st.integers(20, 100),  # size
    st.integers(2, 5),     # fanout
    st.integers(1, 3),     # levels
)


@pytest.mark.parametrize("name", sorted(FAMILIES))
@settings(max_examples=10, deadline=None)
@given(params=hier_params)
def test_traced_route_equals_untraced(name, params):
    """Same path, success flag and destination — with and without a tracer."""
    seed, size, fanout, levels = params
    net, router = build_family(name, seed, size, fanout, levels)
    rng = random.Random(seed + 1)
    for _ in range(10):
        src, dst = rng.sample(net.node_ids, 2)
        plain = router(net, src, dst)
        tracer = Tracer()
        traced = router(net, src, dst, tracer=tracer)
        assert traced.path == plain.path
        assert traced.success == plain.success
        assert traced.dest_key == plain.dest_key
        assert len(tracer) == 1
        assert tracer.records[0]["hops"] == plain.hops


@pytest.mark.parametrize("name", ["crescendo", "kandy"])
def test_dispatcher_forwards_tracer(name):
    """`route()` passes the tracer through to the metric-matched engine."""
    net, _ = build_family(name, seed=11, size=60, fanout=3, levels=2)
    rng = random.Random(12)
    src, dst = rng.sample(net.node_ids, 2)
    tracer = Tracer()
    traced = route(net, src, dst, tracer=tracer)
    assert traced.path == route(net, src, dst).path
    assert len(tracer) == 1


def test_sample_routing_stats_invariant_under_observability():
    """Active tracer + registry leave RoutingStats bit-identical."""
    net, router = build_family("crescendo", seed=5, size=80, fanout=4, levels=3)
    pairs = [
        tuple(random.Random(i).sample(net.node_ids, 2)) for i in range(40)
    ]
    plain = sample_routing(net, random.Random(0), router=router, pairs=pairs)
    with tracing() as tracer, collecting() as registry:
        observed = sample_routing(net, random.Random(0), router=router, pairs=pairs)
    assert observed == plain
    assert len(tracer) == len(pairs)
    assert registry.counter("route.samples").value == len(pairs)
    assert registry.histogram("route.hops").count == plain.delivered


@pytest.mark.parametrize("family", ["crescendo", "kademlia"])
def test_array_and_list_accounting_agree_with_latency_table(family):
    """The bare run accounts in arrays, the observed run per route in lists:
    equal RoutingStats, and equal types of both means (``6 == 6.0`` would
    hide an int/float drift)."""
    rng = random.Random(f"accounting:{family}")
    params = TopologyParams(
        transit_domains=2,
        transit_per_domain=2,
        stub_domains_per_transit=2,
        stub_per_domain=4,
    )
    topology = TransitStubTopology(params, rng=rng)
    space = IdSpace(32)
    ids = space.random_ids(150, rng)
    net = build_over(family, space, hierarchy=topology.attach_nodes(ids, rng), rng=rng)
    router = route_ring if net.metric == "ring" else route_xor
    pairs = [random_pair(ids, rng) for _ in range(300)]
    pairs += [(src, src) for src in ids[:8]]  # zero-hop lookups
    table = topology.latency_table()
    bare = sample_routing(net, None, router=router, latency_fn=table, pairs=pairs)
    with tracing() as tracer, collecting():
        observed = sample_routing(
            net, None, router=router, latency_fn=table, pairs=pairs
        )
    assert len(tracer) == len(pairs)
    assert bare == observed
    assert type(bare.mean_hops) is type(observed.mean_hops)
    assert type(bare.mean_latency) is type(observed.mean_latency) is float
    # Only the zero-hop lookups: a divisible hop sum is an int both ways.
    zero = pairs[-8:]
    bare = sample_routing(net, None, router=router, latency_fn=table, pairs=zero)
    with collecting():
        observed = sample_routing(net, None, router=router, latency_fn=table, pairs=zero)
    assert bare == observed
    assert type(bare.mean_hops) is type(observed.mean_hops) is int
