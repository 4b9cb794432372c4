"""Cross-construction Canon properties, property-tested.

The paradigm's promises must hold for *every* Canonical construction, on
*random* hierarchies: total routing, intra-domain path locality, and the
flat-equivalent degree budget.  Hypothesis draws the hierarchy shape, the
population, and the seed.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IdSpace, build_uniform_hierarchy
from repro.core.routing import route, route_ring, route_xor
from repro.dhts.cacophony import CacophonyNetwork
from repro.dhts.crescendo import CrescendoNetwork
from repro.dhts.kandy import KandyNetwork
from repro.dhts.ndchord import NDCrescendoNetwork

RING_BUILDERS = {
    "crescendo": lambda s, h, r: CrescendoNetwork(s, h).build_reference(),
    "cacophony": lambda s, h, r: CacophonyNetwork(s, h, r).build(),
    "nd-crescendo": lambda s, h, r: NDCrescendoNetwork(s, h, r).build(),
}

XOR_BUILDERS = {
    "kandy": lambda s, h, r: KandyNetwork(s, h, r).build(),
}

ALL_BUILDERS = {**RING_BUILDERS, **XOR_BUILDERS}


def build(name, seed, size, fanout, levels):
    rng = random.Random(seed)
    space = IdSpace(16)
    ids = space.random_ids(size, rng)
    hierarchy = build_uniform_hierarchy(ids, fanout, levels, rng)
    return ALL_BUILDERS[name](space, hierarchy, rng)


hier_params = st.tuples(
    st.integers(0, 5000),        # seed
    st.integers(20, 120),        # size
    st.integers(2, 5),           # fanout
    st.integers(1, 4),           # levels
)


@pytest.mark.parametrize("name", sorted(ALL_BUILDERS))
@settings(max_examples=15, deadline=None)
@given(params=hier_params)
def test_routing_total(name, params):
    """Every pair of nodes is mutually reachable by greedy routing."""
    seed, size, fanout, levels = params
    net = build(name, seed, size, fanout, levels)
    rng = random.Random(seed + 1)
    router = route_ring if name in RING_BUILDERS else route_xor
    for _ in range(10):
        a, b = rng.choice(net.node_ids), rng.choice(net.node_ids)
        result = router(net, a, b)
        assert result.success and result.terminal == b


@pytest.mark.parametrize("name", sorted(ALL_BUILDERS))
@settings(max_examples=15, deadline=None)
@given(params=hier_params)
def test_intra_domain_locality(name, params):
    """Routes never leave the endpoints' lowest common domain."""
    seed, size, fanout, levels = params
    net = build(name, seed, size, fanout, levels)
    rng = random.Random(seed + 2)
    router = route_ring if name in RING_BUILDERS else route_xor
    hierarchy = net.hierarchy
    for _ in range(10):
        a, b = rng.choice(net.node_ids), rng.choice(net.node_ids)
        shared = hierarchy.lca_of_nodes(a, b)
        result = router(net, a, b)
        assert all(
            hierarchy.path_of(n)[: len(shared)] == shared for n in result.path
        )


@pytest.mark.parametrize("name", sorted(ALL_BUILDERS))
@settings(max_examples=10, deadline=None)
@given(params=hier_params)
def test_degree_budget(name, params):
    """Average degree stays within the flat ~log2(n) budget (+ slack for
    level successors in the randomized constructions)."""
    import math

    seed, size, fanout, levels = params
    net = build(name, seed, size, fanout, levels)
    budget = math.log2(max(2, net.size - 1)) + levels + 2
    assert net.average_degree() <= budget


@settings(max_examples=10, deadline=None)
@given(params=hier_params)
def test_crescendo_convergence_property(params):
    """Inter-domain paths from one domain to one key share their exit node."""
    seed, size, fanout, levels = params
    if levels == 1:
        levels = 2
    net = build("crescendo", seed, size, fanout, levels)
    rng = random.Random(seed + 3)
    hierarchy = net.hierarchy
    for _ in range(5):
        src = rng.choice(net.node_ids)
        domain = hierarchy.path_of(src)[:1]
        key = net.space.random_id(rng)
        owner = net.responsible_node(key)
        if hierarchy.path_of(owner)[:1] == domain:
            continue
        expected = net.exit_node(domain, key)
        path = route_ring(net, src, key).path
        inside = [n for n in path if hierarchy.path_of(n)[:1] == domain]
        assert inside[-1] == expected
