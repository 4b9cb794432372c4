"""Tests for the vectorized data plane (``repro.perf.storage``).

The load-bearing property is scalar equivalence: bulk placement, batch
put/get and the vectorized repair scans must be observably — and, where
latency is priced, bit-for-bit — indistinguishable from the scalar
storage stack (:mod:`repro.storage`) and the scalar data layer
(:mod:`repro.simulation.data`).  Every latency assertion is ``==``,
never ``pytest.approx``.
"""

from __future__ import annotations

import gc
import random

import numpy as np
import pytest

from repro.core.idspace import IdSpace
from repro.dhts.crescendo import CrescendoNetwork
from repro.obs import metrics as obs_metrics
from repro.perf.dynamic import make_protocol
from repro.perf.storage import (
    CompiledStore,
    FastDataLayer,
    bulk_put,
    bulk_put_replicated,
    plan_puts,
    repair_scan,
    scalar_search_latency,
    store_domain_index,
)
from repro.simulation.churn import Event, run_schedule
from repro.simulation.data import DataLayer
from repro.storage.replication import ReplicatedStore
from repro.storage.store import HierarchicalStore
from repro.topology.transit_stub import TopologyParams, TransitStubTopology
from repro.verify import FAMILIES, compare_storage, small_network
from repro.verify.fuzz import FuzzConfig, generate_schedule, replay
from repro.verify.oracles import (
    DurabilityMonitor,
    check_durability,
    storage_workload,
)

SMALL_PARAMS = TopologyParams(
    transit_domains=2,
    transit_per_domain=2,
    stub_domains_per_transit=2,
    stub_per_domain=4,
)


@pytest.fixture(scope="module")
def attached():
    """A transit-stub topology with a built Crescendo over 72 nodes."""
    rng = random.Random("perf-storage")
    topology = TransitStubTopology(SMALL_PARAMS, rng=rng)
    space = IdSpace(32)
    node_ids = space.random_ids(72, rng)
    hierarchy = topology.attach_nodes(node_ids, rng)
    net = CrescendoNetwork(space, hierarchy).build()
    return topology, net


# ---------------------------------------------------------------- placement


class TestPlanPuts:
    def test_homes_match_scalar_home_node(self, attached):
        _, net = attached
        store = HierarchicalStore(net)
        index = store_domain_index(store)
        rng = random.Random(0)
        keys = [rng.randrange(1 << 32) for _ in range(200)]
        for origin in list(net.node_ids)[:4]:
            path = net.hierarchy.path_of(origin)
            for depth in range(len(path) + 1):
                domain = path[:depth]
                plan = plan_puts(index, keys, domain)
                for kh, home in zip(keys, plan.homes.tolist()):
                    assert home == store.home_node(kh, domain)

    def test_pointer_nodes_match_scalar(self, attached):
        _, net = attached
        store = HierarchicalStore(net)
        index = store_domain_index(store)
        rng = random.Random(1)
        keys = [rng.randrange(1 << 32) for _ in range(100)]
        origin = net.node_ids[0]
        domain = net.hierarchy.path_of(origin)
        plan = plan_puts(index, keys, domain, access_domain=domain[:1])
        assert plan.pointer_nodes is not None
        for kh, ptr in zip(keys, plan.pointer_nodes.tolist()):
            assert ptr == store.home_node(kh, domain[:1])
        # Same domain pair -> no pointers, like the scalar put.
        assert plan_puts(index, keys, domain, access_domain=domain).pointer_nodes is None

    def test_replica_sets_match_scalar(self, attached):
        _, net = attached
        rstore = ReplicatedStore(HierarchicalStore(net), replicas=3)
        index = store_domain_index(rstore.store)
        rng = random.Random(2)
        keys = [rng.randrange(1 << 32) for _ in range(100)]
        domain = net.hierarchy.path_of(net.node_ids[0])[:1]
        plan = plan_puts(index, keys, domain, replicas=3)
        for kh, row in zip(keys, plan.replica_sets.tolist()):
            assert row == rstore.replica_nodes(kh, domain)

    def test_empty_domain_raises(self, attached):
        _, net = attached
        index = store_domain_index(HierarchicalStore(net))
        with pytest.raises(ValueError, match="no members"):
            plan_puts(index, [1, 2], ("no", "such", "domain"))


class TestBulkPut:
    def test_state_identical_to_scalar_sequence(self, attached):
        _, net = attached
        ref = HierarchicalStore(net)
        fast = HierarchicalStore(net)
        rng = random.Random(3)
        put_ops, _ = storage_workload(net, rng, puts=60, gets=0)
        groups = {}
        for op in put_ops:
            groups.setdefault((op[3], op[4]), []).append(op)
        returns = [ref.put(*op) for op in put_ops]
        planned = {}
        for (sd, ad), ops in groups.items():
            plan = bulk_put(
                fast, [o[0] for o in ops], [o[1] for o in ops],
                [o[2] for o in ops], sd, ad,
            )
            for j, op in enumerate(ops):
                pointer = (
                    int(plan.pointer_nodes[j])
                    if plan.pointer_nodes is not None
                    else None
                )
                planned[op[1]] = (int(plan.homes[j]), pointer)
        assert ref._items == fast._items
        assert ref._pointers == fast._pointers
        for op, ret in zip(put_ops, returns):
            assert planned[op[1]] == ret

    def test_validation_errors_match_scalar(self, attached):
        _, net = attached
        store = HierarchicalStore(net)
        origin = net.node_ids[0]
        other = next(
            n for n in net.node_ids
            if net.hierarchy.path_of(n)[:1] != net.hierarchy.path_of(origin)[:1]
        )
        foreign = net.hierarchy.path_of(other)
        with pytest.raises(ValueError) as bulk_err:
            bulk_put(store, [origin], ["k"], ["v"], foreign)
        with pytest.raises(ValueError) as scalar_err:
            store.put(origin, "k", "v", foreign)
        assert str(bulk_err.value) == str(scalar_err.value)
        own = net.hierarchy.path_of(origin)
        with pytest.raises(ValueError) as bulk_err:
            bulk_put(store, [origin], ["k"], ["v"], own[:1], own)
        with pytest.raises(ValueError) as scalar_err:
            store.put(origin, "k", "v", own[:1], own)
        assert str(bulk_err.value) == str(scalar_err.value)

    def test_replicated_state_identical(self, attached):
        _, net = attached
        ref = ReplicatedStore(HierarchicalStore(net), replicas=3)
        fast = ReplicatedStore(HierarchicalStore(net), replicas=3)
        rng = random.Random(4)
        put_ops, _ = storage_workload(net, rng, puts=40, gets=0)
        for op in put_ops:
            ref.put(*op)
        groups = {}
        for op in put_ops:
            groups.setdefault((op[3], op[4]), []).append(op)
        for (sd, ad), ops in groups.items():
            bulk_put_replicated(
                fast, [o[0] for o in ops], [o[1] for o in ops],
                [o[2] for o in ops], sd, ad,
            )
        assert ref.store._items == fast.store._items
        assert ref.replica_sets == fast.replica_sets

    def test_counters_recorded(self, attached):
        _, net = attached
        store = HierarchicalStore(net)
        origin = net.node_ids[0]
        with obs_metrics.collecting() as registry:
            bulk_put(store, [origin] * 5, [f"k{i}" for i in range(5)],
                     ["v"] * 5)
            assert registry.counter("storage.puts").value == 5


# ---------------------------------------------------------------- batch get


class TestBatchGet:
    def test_matches_scalar_fields_and_latency(self, attached):
        topology, net = attached
        table = topology.latency_table()
        assert compare_storage(
            net, puts=60, gets=200, latency=table, rng=random.Random(7)
        ) == []

    def test_replicated_matches_scalar(self, attached):
        topology, net = attached
        table = topology.latency_table()
        assert compare_storage(
            net, puts=50, gets=150, replicas=3, latency=table,
            rng=random.Random(8),
        ) == []

    def test_pointer_latency_is_walk_plus_double_fetch(self, attached):
        topology, net = attached
        table = topology.latency_table()
        store = HierarchicalStore(net)
        rng = random.Random(9)
        put_ops, get_ops = storage_workload(net, rng, puts=80, gets=300)
        for op in put_ops:
            store.put(*op)
        compiled = CompiledStore(store)
        batch = compiled.batch_get(
            [op[0] for op in get_ops], [op[1] for op in get_ops], latency=table
        )
        pointer_rows = [
            i for i, r in enumerate(batch.results()) if r.via_pointer
        ]
        assert pointer_rows, "workload produced no pointer resolutions"
        for i, result in enumerate(batch.results()):
            assert float(batch.latency_ms[i]) == scalar_search_latency(
                net, table, result
            )

    def test_unknown_key_misses_without_probe_hits(self, attached):
        _, net = attached
        store = HierarchicalStore(net)
        store.put(net.node_ids[0], "present", "value")
        batch = CompiledStore(store).batch_get(
            [net.node_ids[1]], ["absent"]
        )
        result = next(batch.results())
        assert not result.found and result.values == []

    def test_counters_recorded(self, attached):
        _, net = attached
        store = HierarchicalStore(net)
        store.put(net.node_ids[0], "k", "v")
        compiled = CompiledStore(store)
        with obs_metrics.collecting() as registry:
            compiled.batch_get([net.node_ids[1]] * 3, ["k", "k", "absent"])
            assert registry.counter("storage.gets").value == 3
            assert registry.counter("storage.batch.probes").value > 0

    def test_all_families_equivalent(self):
        for family in FAMILIES:
            net = small_network(family, seed=3, size=60)
            violations = compare_storage(
                net, puts=30, gets=60, rng=random.Random(f"fam:{family}")
            )
            assert violations == [], f"{family}: {violations[:3]}"


# ---------------------------------------- batch get on crowded/empty buckets


@pytest.fixture(scope="module")
def crowded():
    """A 60-node Crescendo on an 8-bit ring: distinct keys share hashes, so
    buckets hold several entries — which no unique-key workload reaches."""
    rng = random.Random("perf-storage-crowded")
    topology = TransitStubTopology(SMALL_PARAMS, rng=rng)
    space = IdSpace(8)
    node_ids = space.random_ids(60, rng)
    hierarchy = topology.attach_nodes(node_ids, rng)
    return topology, CrescendoNetwork(space, hierarchy).build()


RESULT_FIELDS = (
    "values", "path", "found_at", "via_pointer", "pointer_hops", "content_node",
)


def assert_batch_equals_scalar(store, origins, keys, table=None):
    """``batch_get`` over a fresh compile vs one scalar ``get`` per query."""
    batch = CompiledStore(store).batch_get(origins, keys, latency=table)
    results = list(batch.results())
    assert len(results) == len(keys)
    for i, fast in enumerate(results):
        slow = store.get(origins[i], keys[i])
        for name in RESULT_FIELDS:
            assert getattr(slow, name) == getattr(fast, name), (i, name)
        if table is not None:
            assert float(batch.latency_ms[i]) == scalar_search_latency(
                store.network, table, slow
            )
    return results


def random_domains(net, rng, origin):
    """A random legal ``(storage, access)`` pair for a put from ``origin``."""
    path = net.hierarchy.path_of(origin)
    storage = path[: rng.randrange(len(path) + 1)]
    return storage, storage[: rng.randrange(len(storage) + 1)]


def hash_twins(space, key, count):
    """``count`` other key names with the same hash as ``key``."""
    target = space.hash_key(key)
    names = (f"twin-{i}" for i in range(1_000_000))
    twins = (name for name in names if space.hash_key(name) == target)
    return [next(twins) for _ in range(count)]


class TestBatchGetCrowdedBuckets:
    def test_repeated_keys_and_dangling_pointers_match_scalar(self, crowded):
        topology, net = crowded
        rng = random.Random("crowded-ops")
        ids = list(net.node_ids)
        store = HierarchicalStore(net)
        for i in range(400):
            origin = rng.choice(ids)
            store.put(origin, f"key-{rng.randrange(40)}", f"value-{i}",
                      *random_domains(net, rng, origin))
        buckets = [b for per_node in store._items.values() for b in per_node.values()]
        for bucket in buckets[::3]:
            bucket.clear()  # pointers at this home now dangle
        origins = [rng.choice(ids) for _ in range(800)]
        keys = [f"key-{rng.randrange(50)}" for _ in range(800)]
        results = assert_batch_equals_scalar(
            store, origins, keys, topology.latency_table()
        )
        assert sum(len(r.values) > 1 for r in results) > 0
        assert sum(r.via_pointer for r in results) > 0
        assert sum(not r.found for r in results) > 0

    def test_empty_batch(self, crowded):
        topology, net = crowded
        store = HierarchicalStore(net)
        store.put(net.node_ids[0], "k", "v")
        batch = CompiledStore(store).batch_get([], [], latency=topology.latency_table())
        assert batch.size == 0 and batch.probes == 0
        assert batch.paths == [] and batch.values == []
        assert batch.hops.size == 0 and batch.hops.dtype == np.int64
        assert batch.found_at.size == batch.latency_ms.size == 0
        assert list(batch.results()) == []

    def test_items_without_pointers(self, crowded):
        _, net = crowded
        rng = random.Random("no-pointers")
        ids = list(net.node_ids)
        store = HierarchicalStore(net)
        for i in range(120):
            origin = rng.choice(ids)
            storage, _ = random_domains(net, rng, origin)
            store.put(origin, f"key-{rng.randrange(30)}", f"value-{i}", storage, storage)
        assert not store._pointers
        keys = [f"key-{rng.randrange(40)}" for _ in range(300)]
        results = assert_batch_equals_scalar(
            store, [rng.choice(ids) for _ in keys], keys
        )
        assert any(r.found for r in results)

    def test_all_items_removed(self, crowded):
        _, net = crowded
        rng = random.Random("emptied")
        ids = list(net.node_ids)
        store = HierarchicalStore(net)
        for i in range(120):
            origin = rng.choice(ids)
            store.put(origin, f"key-{i % 30}", f"value-{i}",
                      *random_domains(net, rng, origin))
        assert store._pointers
        store._items.clear()
        compiled = CompiledStore(store)
        assert compiled._item_value == []
        keys = [f"key-{rng.randrange(30)}" for _ in range(200)]
        results = assert_batch_equals_scalar(
            store, [rng.choice(ids) for _ in keys], keys
        )
        assert not any(r.found for r in results)

    def test_only_unknown_keys_walk_toward_their_hash(self, crowded):
        _, net = crowded
        store = HierarchicalStore(net)
        store.put(net.node_ids[0], "present", "value", (), ())
        ids = list(net.node_ids)
        keys = [f"absent-{i}" for i in range(len(ids))]
        results = assert_batch_equals_scalar(store, ids, keys)
        assert not any(r.found for r in results)
        assert any(len(r.path) > 1 for r in results)

    def test_hash_collision_twins_share_buckets_not_answers(self, crowded):
        _, net = crowded
        rng = random.Random("twin")
        ids = list(net.node_ids)
        store = HierarchicalStore(net)
        stored_twin, absent_twin = hash_twins(net.space, "known", 2)
        for i in range(60):  # both stored keys, items and pointers, all over
            origin = rng.choice(ids)
            key = ("known", stored_twin)[i % 2]
            store.put(origin, key, f"{key}-{i}", *random_domains(net, rng, origin))
        assert store._pointers
        assert any(
            len({item.key for item in bucket}) > 1
            for per_node in store._items.values() for bucket in per_node.values()
        )
        origins = ids * 3
        keys = ["known"] * len(ids) + [stored_twin] * len(ids) + [absent_twin] * len(ids)
        results = assert_batch_equals_scalar(store, origins, keys)
        for key, group in (("known", results[: len(ids)]),
                           (stored_twin, results[len(ids): 2 * len(ids)])):
            assert any(r.found for r in group)
            assert all(v.startswith(key) for r in group for v in r.values)
        assert not any(r.found for r in results[2 * len(ids):])

    def test_key_put_after_compile_is_unknown_until_recompiled(self, crowded):
        _, net = crowded
        store = HierarchicalStore(net)
        origin = net.node_ids[0]
        store.put(origin, "early", "v0")
        compiled = CompiledStore(store)
        store.put(origin, "late", "v1")
        stale = next(compiled.batch_get([origin], ["late"]).results())
        assert not stale.found and stale.values == []
        # Blind, but the same walk: a global put's home ends the greedy path.
        assert stale.path == store.get(origin, "late").path
        fresh = next(CompiledStore(store).batch_get([origin], ["late"]).results())
        assert fresh.found and fresh.values == ["v1"]


# ------------------------------------------------- columnar batch results


@pytest.fixture(scope="module")
def mixed_batch(attached):
    """A compiled store and 4,096 gets over it: item hits, pointer answers
    and misses (keys never stored) all present."""
    _, net = attached
    store = HierarchicalStore(net)
    rng = random.Random("columnar")
    put_ops, get_ops = storage_workload(net, rng, puts=200, gets=4000)
    for op in put_ops:
        store.put(*op)
    ids = list(net.node_ids)
    get_ops += [(rng.choice(ids), f"never-stored-{i}") for i in range(96)]
    return CompiledStore(store), [o for o, _ in get_ops], [k for _, k in get_ops]


class TestColumnarResult:
    def test_hops_is_path_length_minus_one(self, mixed_batch):
        compiled, origins, keys = mixed_batch
        batch = compiled.batch_get(origins, keys)
        assert batch.hops.dtype == np.int64
        assert batch.hops.tolist() == [len(p) - 1 for p in batch.paths]
        assert batch.via_pointer.any()
        assert (batch.found & ~batch.via_pointer).any()
        assert (~batch.found).any()

    def test_csr_columns_hold_the_lists(self, mixed_batch):
        compiled, origins, keys = mixed_batch
        batch = compiled.batch_get(origins, keys)
        assert batch.path_ends.size == batch.value_ends.size == batch.size
        assert batch.path_ids.tolist() == [n for p in batch.paths for n in p]
        column = batch.value_column
        flat = [column[e] for e in batch.value_entries.tolist()]
        assert flat == [v for vs in batch.values for v in vs]

    def test_lists_are_built_once(self, mixed_batch):
        compiled, origins, keys = mixed_batch
        batch = compiled.batch_get(origins[:50], keys[:50])
        assert batch.paths is batch.paths
        assert batch.values is batch.values
        rows = list(batch.results())
        assert all(r.path is p for r, p in zip(rows, batch.paths))
        assert all(r.values is v for r, v in zip(rows, batch.values))

    def test_no_per_query_objects_until_read(self, mixed_batch):
        """The walk's result is a few arrays: per-query lists appear only
        once ``paths`` or ``values`` is read."""
        compiled, origins, keys = mixed_batch
        m = len(keys)
        assert m == 4096
        compiled.batch_get(origins[:8], keys[:8])  # warm any lazy imports
        gc.collect()
        before = len(gc.get_objects())
        batch = compiled.batch_get(origins, keys)
        assert len(gc.get_objects()) - before < m // 8
        batch.paths
        assert len(gc.get_objects()) - before >= m
        batch.values
        assert len(gc.get_objects()) - before >= 2 * m


# ------------------------------------------------------------- repair scans


def grown(size=120, seed=0, replicas=2, engine="reference", layer=DataLayer):
    rng = random.Random(seed)
    space = IdSpace(32)
    net = make_protocol(space, engine=engine)
    paths = [("a", "x"), ("a", "y"), ("b", "x")]
    for node_id in space.random_ids(size, rng):
        net.join(node_id, paths[rng.randrange(len(paths))])
    net.stabilize()
    return net, layer(net, replicas=replicas), rng


def data_schedule(net, rng, events=250):
    """A deterministic mixed churn + put/get schedule over ``net``'s ids."""
    out = []
    for i in range(events):
        roll = rng.random()
        if roll < 0.25:
            out.append(Event("put", rank=rng.randrange(1 << 20),
                             key=rng.randrange(1 << 20),
                             depth=rng.randrange(3)))
        elif roll < 0.55:
            out.append(Event("get", rank=rng.randrange(1 << 20),
                             key=rng.randrange(64)))
        elif roll < 0.70:
            out.append(Event("leave", rank=rng.randrange(1 << 20)))
        elif roll < 0.85:
            out.append(Event("crash", rank=rng.randrange(1 << 20)))
        elif roll < 0.92:
            out.append(Event("join", node=net.space.random_id(rng),
                             path=("a", "x")))
        else:
            out.append(Event("stabilize"))
    out.append(Event("checkpoint"))
    return out


class TestFastDataLayer:
    def test_redefines_only_the_repair_sweep(self):
        assert issubclass(FastDataLayer, DataLayer)
        own = {name for name in vars(FastDataLayer) if not name.startswith("__")}
        assert own == {"_rebalance"}

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_equivalent_to_scalar_layer(self, engine):
        ref_net, ref_data, _ = grown(seed=5, engine=engine, layer=DataLayer)
        fast_net, fast_data, _ = grown(seed=5, engine=engine, layer=FastDataLayer)
        schedule = data_schedule(ref_net, random.Random("schedule:5"))
        ref_report = run_schedule(ref_net, schedule, data=ref_data)
        fast_report = run_schedule(fast_net, schedule, data=fast_data)
        assert ref_report.data_outcomes == fast_report.data_outcomes
        assert ref_report.puts == fast_report.puts
        assert dict(ref_net.msgs.stats.counts) == dict(fast_net.msgs.stats.counts)
        assert ref_data.holders == fast_data.holders
        assert ref_data.items == fast_data.items
        assert sorted(map(str, ref_data.lost_keys())) == sorted(
            map(str, fast_data.lost_keys())
        )

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_suspended_primary_holds_no_new_copy(self, engine):
        ref_net, ref_data, _ = grown(seed=11, engine=engine, layer=DataLayer)
        fast_net, fast_data, _ = grown(seed=11, engine=engine, layer=FastDataLayer)
        origin = next(iter(ref_net.nodes))
        primary = ref_data.put(origin, "k", "v")[0]
        fast_data.put(origin, "k", "v")

        def step(action):
            for net, data in ((ref_net, ref_data), (fast_net, fast_data)):
                action(net, data)
            assert ref_data.holders == fast_data.holders
            assert ref_net.msgs.stats.counts.get("replicate", 0) == (
                fast_net.msgs.stats.counts.get("replicate", 0)
            )
            return ref_data.holders[ref_net.space.hash_key("k")]

        step(lambda net, data: net.suspend(primary))
        assert primary not in step(lambda net, data: data.put(origin, "k", "v"))
        step(lambda net, data: net.revive(primary))
        assert step(lambda net, data: data.put(origin, "k", "v"))[0] == primary
        step(lambda net, data: net.stabilize())

    def test_repair_scan_matches_rebalance_counts(self):
        net, data, rng = grown(seed=6, replicas=3, layer=DataLayer)
        origin = next(iter(net.nodes))
        for i in range(40):
            data.put(origin, f"k{i}", f"v{i}")
        live = [n for n in net.live_view()]
        for victim in rng.sample([n for n in live if n != origin], 10):
            net.crash(victim)
        key_list = list(data.items)

        def members_of(domain):
            return np.asarray(
                sorted(
                    n for n in net.hierarchy.members(domain)
                    if net.nodes[n].alive
                ),
                dtype=np.uint64,
            )

        plan = repair_scan(
            key_list,
            [data.items[kh].storage_domain for kh in key_list],
            [data.holders.get(kh, []) for kh in key_list],
            members_of,
            [n for n, node in net.nodes.items() if node.alive],
            data.replicas,
        )
        before = net.msgs.stats.counts["replicate"]
        data._rebalance()
        scalar_msgs = net.msgs.stats.counts["replicate"] - before
        assert plan.replicate_msgs == scalar_msgs
        for row, kh in enumerate(key_list):
            assert plan.holders_of(row) == data.holders[kh]
            assert bool(plan.lost[row]) == (not data.holders[kh])

    def test_surviving_copy_counts(self):
        net, data, _ = grown(seed=7, replicas=3, layer=FastDataLayer)
        origin = next(iter(net.nodes))
        holders = data.put(origin, "k", "v")
        assert len(holders) == 3
        net.crash(holders[0])
        assert data.value_available("k")
        for holder in holders[1:]:
            net.crash(holder)
        assert not data.value_available("k")


# ---------------------------------------------------------------- durability


class TestDurability:
    def test_clean_fuzz_run_has_no_violations(self):
        config = FuzzConfig(
            seed=13, events=400, families=(), checkpoints=4, data_replicas=2
        )
        report = replay(config, generate_schedule(config))
        assert report.replay.puts > 0 and report.replay.data_gets > 0
        assert report.violations == []

    def test_monitor_flags_unexplained_loss(self):
        net, data, _ = grown(seed=8, layer=FastDataLayer)
        monitor = DurabilityMonitor(net, data)
        origin = next(iter(net.nodes))
        data.put(origin, "k", "v")
        key_hash = net.space.hash_key("k")
        data.holders[key_hash] = []  # planted: lost with no crash to blame
        net.stabilize()
        violations = check_durability(net, data, monitor)
        assert any("no crash" in v.message for v in violations)

    def test_monitor_accepts_crash_losses(self):
        net, data, _ = grown(seed=9, replicas=1, layer=FastDataLayer)
        monitor = DurabilityMonitor(net, data)
        origin = next(iter(net.nodes))
        holders = data.put(origin, "k", "v")
        net.crash(holders[0])  # single copy: loss is legitimate
        net.stabilize()
        assert "k" in [str(k) for k in data.lost_keys()]
        assert check_durability(net, data, monitor) == []

    def test_check_flags_diverged_holders(self):
        net, data, _ = grown(seed=10, layer=FastDataLayer)
        origin = next(iter(net.nodes))
        data.put(origin, "k", "v")
        net.stabilize()
        key_hash = net.space.hash_key("k")
        data.holders[key_hash] = [data.holders[key_hash][0]]  # drop a replica
        violations = check_durability(net, data)
        assert any("not re-converged" in v.message for v in violations)

    def test_schedules_with_data_events_stay_deterministic(self):
        config = FuzzConfig(seed=21, events=300, data_replicas=2)
        first = generate_schedule(config)
        second = generate_schedule(config)
        assert first == second
        assert any(e.kind == "put" for e in first)
        assert any(e.kind == "get" for e in first)

    def test_bare_schedules_have_no_data_events(self):
        schedule = generate_schedule(FuzzConfig(seed=21, events=300))
        assert not any(e.kind in ("put", "get") for e in schedule)
