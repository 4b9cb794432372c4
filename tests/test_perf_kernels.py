"""Batch kernels vs scalar engines: hop-for-hop path identity.

The batch kernels of :mod:`repro.perf.kernels` claim to replicate every
branch of the scalar greedy engines exactly.  These property tests verify
it route-by-route — full path, success flag, terminal and hop count — for
all five flat and all five Canonical DHT families, over multiple seeds,
node-id *and* arbitrary-key destinations, with and without alive filters.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IdSpace, build_uniform_hierarchy
from repro.core.routing import LiveSet, route_ring, route_xor
from repro.dhts.cacophony import CacophonyNetwork
from repro.dhts.can import build_can
from repro.dhts.cancan import build_cancan
from repro.dhts.chord import ChordNetwork
from repro.dhts.crescendo import CrescendoNetwork
from repro.dhts.kademlia import KademliaNetwork
from repro.dhts.kandy import KandyNetwork
from repro.dhts.ndchord import NDChordNetwork, NDCrescendoNetwork
from repro.dhts.symphony import SymphonyNetwork
from repro.perf.kernels import (
    CompiledNetwork,
    batch_route,
    batch_route_ring,
    compile_network,
)
from repro.perf.latency import LatencyTable

SIZE = 220
BITS = 16


def _hierarchy(space, rng, levels=3):
    ids = space.random_ids(SIZE, rng)
    return build_uniform_hierarchy(ids, 4, levels, rng)


def _cancan_paths(rng):
    return [
        tuple(str(rng.randrange(4)) for _ in range(2)) for _ in range(SIZE)
    ]


FAMILIES = {
    "chord": lambda s, h, r: ChordNetwork(s, h).build(),
    "crescendo": lambda s, h, r: CrescendoNetwork(s, h).build(),
    "symphony": lambda s, h, r: SymphonyNetwork(s, h, r).build(),
    "cacophony": lambda s, h, r: CacophonyNetwork(s, h, r).build(),
    "ndchord": lambda s, h, r: NDChordNetwork(s, h, r).build(),
    "ndcrescendo": lambda s, h, r: NDCrescendoNetwork(s, h, r).build(),
    "kademlia": lambda s, h, r: KademliaNetwork(s, h, r).build(),
    "kandy": lambda s, h, r: KandyNetwork(s, h, r).build(),
    "can": lambda s, h, r: build_can(s, SIZE, r),
    "cancan": lambda s, h, r: build_cancan(s, SIZE, r, _cancan_paths(r)),
}


def build_family(name, seed):
    rng = random.Random(f"perf-kernels:{name}:{seed}")
    space = IdSpace(BITS)
    hierarchy = _hierarchy(space, rng)
    return FAMILIES[name](space, hierarchy, rng), rng


def workload(network, rng, count=120):
    """Node-to-node pairs plus lookups of arbitrary (non-node) keys."""
    ids = network.node_ids
    pairs = [tuple(rng.sample(ids, 2)) for _ in range(count)]
    pairs += [
        (rng.choice(ids), rng.randrange(network.space.size))
        for _ in range(count // 2)
    ]
    pairs.append((ids[0], ids[0]))  # src == dest
    return pairs


def scalar_router(network):
    return route_ring if network.metric == "ring" else route_xor


def assert_identical(network, pairs, alive=None):
    router = scalar_router(network)
    result = batch_route(network, pairs, alive=alive, paths=True)
    for i, (src, dst) in enumerate(pairs):
        expected = router(network, src, dst, alive=alive)
        assert result.paths[i] == expected.path, (i, src, dst)
        assert bool(result.success[i]) == expected.success, (i, src, dst)
        assert int(result.hops[i]) == expected.hops
        assert int(result.terminals[i]) == expected.terminal


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", [0, 1])
class TestPathIdentity:
    def test_all_routes_identical(self, family, seed):
        network, rng = build_family(family, seed)
        assert_identical(network, workload(network, rng))

    def test_identical_under_alive_filter(self, family, seed):
        network, rng = build_family(family, seed)
        pairs = workload(network, rng, count=80)
        survivors = LiveSet(rng.sample(network.node_ids, (3 * SIZE) // 4))
        assert_identical(network, pairs, alive=survivors)

    def test_identical_under_plain_set_filter(self, family, seed):
        network, rng = build_family(family, seed)
        pairs = workload(network, rng, count=40)
        survivors = set(rng.sample(network.node_ids, SIZE // 2))
        assert_identical(network, pairs, alive=survivors)


class TestAliveEdgeCases:
    def test_empty_alive_set_never_delivers(self):
        network, rng = build_family("crescendo", 0)
        pairs = workload(network, rng, count=20)
        assert_identical(network, pairs, alive=LiveSet())

    def test_sparse_alive_set(self):
        network, rng = build_family("chord", 0)
        pairs = workload(network, rng, count=40)
        assert_identical(
            network, pairs, alive=LiveSet(rng.sample(network.node_ids, 5))
        )


class TestCompiledLayout:
    def test_csr_arrays_mirror_link_table(self):
        network, _ = build_family("crescendo", 0)
        compiled = compile_network(network)
        assert compiled.ids.tolist() == network.node_ids
        for i, node in enumerate(network.node_ids):
            start, end = compiled.indptr[i], compiled.indptr[i + 1]
            assert compiled.neighbors[start:end].tolist() == network.links[node]
        # Augmented keys are globally strictly increasing: one searchsorted
        # performs every node's binary search at once.
        assert np.all(np.diff(compiled.aug) > 0)

    def test_compile_is_memoized_per_network(self):
        network, _ = build_family("chord", 0)
        assert compile_network(network) is compile_network(network)
        fresh = compile_network(network, cached=False)
        assert fresh is not compile_network(network)

    def test_unknown_source_rejected(self):
        network, _ = build_family("chord", 0)
        compiled = compile_network(network)
        missing = next(
            i for i in range(network.space.size) if i not in network._id_set
        )
        with pytest.raises(KeyError):
            compiled.route_ring([missing], [network.node_ids[0]])

    def test_too_wide_id_space_rejected(self):
        rng = random.Random(0)
        space = IdSpace(60)
        ids = space.random_ids(64, rng)
        h = build_uniform_hierarchy(ids, 4, 1, rng)
        net = ChordNetwork(space, h).build()
        with pytest.raises(ValueError):
            compile_network(net)

    def test_mismatched_batch_lengths_rejected(self):
        network, _ = build_family("chord", 0)
        compiled = compile_network(network)
        with pytest.raises(ValueError):
            compiled.route_ring(network.node_ids[:3], network.node_ids[:2])


class TestBatchResult:
    def test_routes_requires_paths(self):
        network, rng = build_family("crescendo", 0)
        result = batch_route_ring(network, workload(network, rng, count=10))
        with pytest.raises(ValueError):
            next(result.routes())

    def test_delivered_counts_key_hits(self):
        network, rng = build_family("crescendo", 0)
        pairs = [tuple(rng.sample(network.node_ids, 2)) for _ in range(50)]
        result = batch_route_ring(network, pairs)
        assert result.delivered == 50  # node-id lookups always deliver
        assert result.size == 50

    def test_empty_batch(self):
        network, _ = build_family("chord", 0)
        result = batch_route_ring(network, [])
        assert result.size == 0 and result.delivered == 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**20), data=st.data())
def test_property_random_pairs_identical(seed, data):
    """Hypothesis sweep: random Crescendo workloads are path-identical."""
    network, rng = build_family("crescendo", seed % 3)
    n = network.space.size
    pairs = data.draw(
        st.lists(
            st.tuples(st.sampled_from(network.node_ids), st.integers(0, n - 1)),
            min_size=1,
            max_size=25,
        )
    )
    assert_identical(network, pairs)


# ------------------------------------------- live table vs the scan reference

RING_BITS = 10


def _random_ring_view(rng):
    """A random ring CSR (any links, self-links and empty rows included)
    and a latency table over it — nothing a DHT builder would guarantee."""
    n = int(rng.integers(2, 48))
    ids = np.sort(rng.choice(1 << RING_BITS, size=n, replace=False)).astype(np.uint64)
    rows = [
        np.sort(rng.choice(ids, size=int(rng.integers(0, min(n, 9))), replace=False))
        for _ in range(n)
    ]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([row.size for row in rows], out=indptr[1:])
    neighbors = np.concatenate(rows).astype(np.uint64)
    compiled = CompiledNetwork.from_arrays(
        metric="ring",
        bits=RING_BITS,
        ids=ids,
        indptr=indptr,
        neighbors=neighbors,
        nbr_pos=np.searchsorted(ids, neighbors).astype(np.int64),
    )
    routers = rng.integers(0, 6, size=n)
    matrix = rng.random((6, 6)).astype(np.float32) * 40
    return compiled, LatencyTable(ids, routers, matrix, host_ms=1.5)


def _random_live(compiled, rng, share):
    """A live subset in which some linked node has lost every neighbor."""
    alive = compiled.ids[rng.random(compiled.n) < share]
    linked = np.flatnonzero(np.diff(compiled.indptr) > 0)
    if linked.size:
        i = int(rng.choice(linked))
        dead = compiled.neighbors[compiled.indptr[i] : compiled.indptr[i + 1]]
        alive = alive[~np.isin(alive, dead)]
    return alive


def _random_lookups(compiled, alive, rng, count=40):
    """Lookups parked on live and dead nodes alike, keys on and off nodes."""
    cur = rng.choice(compiled.ids, size=count)
    dead = compiled.ids[~np.isin(compiled.ids, alive)]
    if dead.size:
        cur[0] = dead[0]
    rows = np.split(compiled.neighbors, compiled.indptr[1:-1])
    cut_off = [i for i, row in enumerate(rows) if row.size and not np.isin(row, alive).any()]
    if cut_off:
        cur[1] = compiled.ids[cut_off[0]]
    dest = rng.integers(0, 1 << RING_BITS, size=count).astype(np.uint64)
    dest[::5] = rng.choice(compiled.ids, size=dest[::5].size)
    return cur, dest


def _scan_step(compiled, cur_ids, dest, alive, lat_state):
    """One hop by the CSR scan: ``_ring_step_alive`` + ``_responsible``."""
    pos = compiled._positions(cur_ids)
    remaining = (dest - cur_ids) & compiled.mask
    at_dest = remaining == 0
    nxt, moved = compiled._ring_step_alive(pos, cur_ids, remaining, alive)
    stuck = ~moved & ~at_dest
    success = at_dest.copy()
    success[stuck] = compiled._responsible(cur_ids[stuck], dest[stuck], alive)
    next_ids = np.where(moved, compiled.ids[nxt], cur_ids)
    routers, matrix, hop2 = lat_state
    hop_ms = np.zeros(cur_ids.shape, dtype=np.float64)
    hop_ms[moved] = hop2 + matrix[
        routers[pos[moved]], routers[nxt[moved]]
    ].astype(np.float64)
    return next_ids, moved, success, hop_ms


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    shares=st.lists(st.sampled_from([0.0, 0.2, 0.6, 0.9, 1.0]), min_size=2, max_size=4),
)
def test_property_live_table_step_matches_scan(seed, shares):
    """``frontier_step`` over the per-view table is the scan step, hop by
    hop, across view swaps (a new live array between steps)."""
    rng = np.random.default_rng(seed)
    compiled, latency = _random_ring_view(rng)
    lat_state = compiled._latency_state(latency)
    alive = _random_live(compiled, rng, shares[0])
    cur, dest = _random_lookups(compiled, alive, rng)
    for share in shares:
        alive = _random_live(compiled, rng, share)  # the view swap
        for _ in range(3):
            want = _scan_step(compiled, cur, dest, alive, lat_state)
            got = compiled.frontier_step(cur, dest, alive, lat_state)
            for name, a, b in zip(("next_ids", "moved", "success", "hop_ms"), got, want):
                assert np.array_equal(a, b), (name, share)
            cur = got[0]
    assert compiled._live_table[0] is alive  # one table, the last view's


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**20), share=st.sampled_from([0.0, 0.3, 0.7, 1.0]))
def test_property_stepping_to_quiescence_equals_route(seed, share):
    """``step_frontier`` until nothing moves is ``route(alive=...)`` hop for
    hop, with bit-equal latency."""
    rng = np.random.default_rng(seed)
    compiled, latency = _random_ring_view(rng)
    alive = _random_live(compiled, rng, share)
    sources, keys = _random_lookups(compiled, alive, rng)
    want = compiled.route(
        sources, keys, alive=set(alive.tolist()), paths=True, latency=latency
    )
    state = compiled.begin_frontier(sources, keys)
    paths = [[int(s)] for s in sources]
    while True:
        before = state.cur.copy()
        if compiled.step_frontier(state, alive, latency=latency) == 0:
            break
        for i in np.flatnonzero(state.cur != before):
            paths[i].append(int(state.cur[i]))
    assert np.all(state.done)
    assert paths == want.paths
    assert np.array_equal(state.hops, want.hops)
    assert np.array_equal(state.cur, want.terminals)
    assert np.array_equal(state.success, want.success)
    assert np.array_equal(state.latency_ms, want.latency_ms)
