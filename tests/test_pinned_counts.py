"""Pinned counts: numbers a seeded workload must reproduce exactly.

Every number below is a pure function of the code and its seeds, so any
change to one is a change in behaviour.  Three groups:

- **Serving.** Three runs of :mod:`repro.serve` over the 1,024-node
  testbed (seed 7, 12,000 lookups): a closed loop without policy, an
  open loop behind per-domain admission, and a closed loop under crash
  churn with retries and hedging.  The policy counters are pinned, and so
  is a sha256 of each whole :class:`~repro.serve.ServeReport`.  Together
  they are what catches a wrong hedge threshold, hedge eligibility,
  retry backoff or waiting-tick charge.  The churn run is repeated with
  metrics and ``SLOMiddleware`` on, and its whole metrics snapshot is
  pinned too.
- **Storage.** Placement, put/get and crash-era repair counts of the
  vectorized data plane at 1,024 keys.
- **Compiled size.** The exact bytes of each family's compiled routing
  state (the CSR arrays plus the ring step table or the XOR search
  table), which the dtype-minimization rules fix.
- **Builders.** A sha256 over the finalized link table and the side
  outputs (``gap``, ``level_successors``, ``contact_depth``) of the bulk
  builds the figure path runs, over one 1,024-node transit-stub
  hierarchy, and of the Canon ring families' reference builds over it.

When a change moves a pin on purpose, say why in the change and re-pin.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.core.hierarchy import Hierarchy, build_uniform_hierarchy
from repro.core.idspace import IdSpace
from repro.dhts.cacophony import CacophonyNetwork
from repro.dhts.can import CANNetwork, PrefixTree
from repro.dhts.cancan import CanCanNetwork
from repro.dhts.chord import ChordNetwork
from repro.dhts.crescendo import CrescendoNetwork
from repro.dhts.kademlia import KademliaNetwork
from repro.dhts.kandy import KandyNetwork
from repro.dhts.mixed import LanCrescendoNetwork
from repro.dhts.naive import NaiveHierarchicalChord
from repro.dhts.ndchord import NDChordNetwork, NDCrescendoNetwork
from repro.dhts.symphony import SymphonyNetwork
from repro.experiments.common import FANOUT, ZIPF_EXPONENT
from repro.perf.kernels import compile_network
from repro.perf.storage import (
    CompiledStore,
    FastDataLayer,
    bulk_put_replicated,
    plan_puts,
    store_domain_index,
)
from repro.obs import metrics as obs_metrics
from repro.proximity.groups import ProximityChordNetwork, ProximityCrescendoNetwork
from repro.serve import (
    SLOMiddleware,
    ServePolicy,
    ServeRuntime,
    compile_protocol_view,
    run_closed_loop,
    run_open_loop,
)
from repro.serve.testbed import build_serving_net, domain_labeler, lookup_workload
from repro.simulation.protocol import SimulatedCrescendo
from repro.storage.replication import ReplicatedStore
from repro.storage.store import HierarchicalStore
from repro.topology.transit_stub import TopologyParams, TransitStubTopology
from repro.verify.builders import small_network
from repro.verify.oracles import storage_workload

# ------------------------------------------------------------------ serving

SERVE_NODES = 1024
SERVE_LOOKUPS = 12000
SERVE_SEED = 7

#: The nine ServeReport arrays, in the order the digest reads them.
REPORT_FIELDS = (
    "tickets", "sources", "keys", "terminals", "hops",
    "latency_ms", "attempts", "success", "status",
)

SERVING_COUNTS = {
    "closed": {"delivered": 12000},
    "open": {"shed": 10128, "delivered": 1872},
    "churn": {"lost": 79, "retries": 226, "hedges": 2037, "delivered": 11921},
}

SERVING_DIGESTS = {
    "closed": "033a9cdb76a66ebc3cfceff29075260f06331949a43d36b1a1f286efe29de79c",
    "open": "086a1aae44390a5cf69895d5ae8d7d980996b8f4b42832382a5dde34e8eb1f03",
    "churn": "eec4216055fbccd1377db0ac20d72b95e3d42ccee9e4eb7b6b1134fe851a8146",
}


def report_digest(report) -> str:
    """sha256 over each array's field name, dtype and bytes, then the
    counters as sorted JSON (the recipe ``docs/performance.md`` gives)."""
    h = hashlib.sha256()
    for name in REPORT_FIELDS:
        array = getattr(report, name)
        h.update(name.encode())
        h.update(str(array.dtype).encode())
        h.update(array.tobytes())
    h.update(json.dumps(report.counters, sort_keys=True).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def serving_reports():
    """The three serving runs, churn last: it crashes nodes of the net."""
    net, latency = build_serving_net(SERVE_NODES, seed=SERVE_SEED)
    sources, keys = lookup_workload(net, SERVE_LOOKUPS, seed=SERVE_SEED)
    concurrency = min(4096, SERVE_LOOKUPS)
    reports = {}

    runtime = ServeRuntime(*compile_protocol_view(net), latency=latency)
    reports["closed"] = run_closed_loop(
        runtime, sources, keys, concurrency=concurrency
    )

    runtime = ServeRuntime(
        *compile_protocol_view(net),
        policy=ServePolicy(admit_rate=48.0, admit_burst=96.0),
        latency=latency,
        domain_of=domain_labeler(net),
    )
    reports["open"] = run_open_loop(runtime, sources, keys, per_tick=1024)

    reports["churn"] = churn_run(net, latency, sources, keys)
    return reports


def churn_run(net, latency, sources, keys, middlewares=()):
    """The closed loop under crash churn, retries and hedging (crashes ``net``)."""
    runtime = ServeRuntime(
        *compile_protocol_view(net),
        policy=ServePolicy(max_attempts=3, hedge_quantile=0.9, hedge_min_ms=400.0),
        latency=latency,
        middlewares=middlewares,
    )
    churn_rng = random.Random(f"serving-baseline-churn:{SERVE_SEED}")

    def crash_a_slice(rt, tick):
        if tick % 5 == 0:
            live = sorted(net.live_view())
            for victim in churn_rng.sample(live, min(SERVE_NODES // 128, len(live) - 8)):
                net.crash(victim)
            rt.set_view(*compile_protocol_view(net))

    return run_closed_loop(
        runtime, sources, keys, concurrency=min(4096, SERVE_LOOKUPS), on_tick=crash_a_slice
    )


@pytest.mark.parametrize("run", sorted(SERVING_COUNTS))
def test_serving_counts(serving_reports, run):
    report = serving_reports[run]
    assert report.counters["completed"] == SERVE_LOOKUPS
    pinned = SERVING_COUNTS[run]
    assert {name: report.counters[name] for name in pinned} == pinned


def test_closed_loop_latency_quantiles(serving_reports):
    report = serving_reports["closed"]
    assert (report.quantile_ms(0.5), report.quantile_ms(0.99)) == (
        950.0,
        1911.0100000000002,
    )


@pytest.mark.parametrize("run", sorted(SERVING_DIGESTS))
def test_serve_report_digest(serving_reports, run):
    assert report_digest(serving_reports[run]) == SERVING_DIGESTS[run]


#: sha256 of ``snapshot().to_json()`` after the churn run under ``SLOMiddleware``.
OBSERVED_CHURN_SNAPSHOT = "180e2e50fd928bb08621512f06c590b8151aa0d109f062a44ce53663a60c9825"


def test_observed_churn_run_pins_its_registry():
    """The churn run with metrics and SLO middleware on serves exactly what
    it serves with them off, and its registry is pinned to the byte.  Each
    of its three histograms sees 11,921 values against a 4,096-value
    reservoir, so the pin covers every replacement draw."""
    net, latency = build_serving_net(SERVE_NODES, seed=SERVE_SEED)
    sources, keys = lookup_workload(net, SERVE_LOOKUPS, seed=SERVE_SEED)
    with obs_metrics.collecting() as registry:
        report = churn_run(net, latency, sources, keys, [SLOMiddleware("churn")])
    assert report_digest(report) == SERVING_DIGESTS["churn"]
    for name in ("serve.hops", "serve.latency_ms", "slo.lookup_ms.churn"):
        hist = registry.histogram(name)
        assert hist.count == hist.sample.seen == 11921
    snapshot = registry.snapshot().to_json()
    assert hashlib.sha256(snapshot.encode()).hexdigest() == OBSERVED_CHURN_SNAPSHOT


# ------------------------------------------------------------------ storage

STORE_KEYS = 1024
REPLICAS = 3
REPAIR_PATHS = [("a", "x"), ("a", "y"), ("b", "x")]


@pytest.fixture(scope="module")
def store_network():
    return small_network("crescendo", seed=9, size=2048)


def _by_domain_pair(put_ops):
    """Puts grouped by (storage, access) pair in first-occurrence order."""
    groups = {}
    for origin, key, value, storage, access in put_ops:
        groups.setdefault((storage, access), []).append((origin, key, value))
    return groups


def test_placement_counts(store_network):
    rng = random.Random(f"storage-bench-placement:{STORE_KEYS}")
    put_ops, _ = storage_workload(store_network, rng, puts=STORE_KEYS, gets=0)
    store = HierarchicalStore(store_network)
    index = store_domain_index(store)
    homes = set()
    pointer_keys = 0
    for (storage, access), ops in _by_domain_pair(put_ops).items():
        hashes = [store.space.hash_key(key) for _, key, _ in ops]
        plan = plan_puts(index, hashes, storage, access, replicas=REPLICAS)
        homes.update(plan.replica_sets[:, 0].tolist())
        if access != storage:
            pointer_keys += int((plan.pointer_nodes != plan.homes).sum())
    assert (len(homes), pointer_keys) == (714, 143)


def test_put_get_counts(store_network):
    rng = random.Random(f"storage-bench:{STORE_KEYS}")
    put_ops, get_ops = storage_workload(
        store_network, rng, puts=STORE_KEYS, gets=STORE_KEYS
    )
    rstore = ReplicatedStore(HierarchicalStore(store_network), replicas=REPLICAS)
    for (storage, access), ops in _by_domain_pair(put_ops).items():
        origins, names, values = zip(*ops)
        bulk_put_replicated(rstore, origins, names, values, storage, access)
    batch = CompiledStore(rstore.store).batch_get(
        [origin for origin, _ in get_ops], [key for _, key in get_ops]
    )
    rows = list(batch.results())
    gets_found = sum(row.found_at is not None for row in rows)
    pointer_hops_total = sum(row.pointer_hops for row in rows)
    assert (gets_found, pointer_hops_total) == (692, 1412)


def test_repair_counts():
    """One crash era: 15 % of a 512-node protocol net, then one repair."""
    rng = random.Random(9)
    net = SimulatedCrescendo(IdSpace(32))
    for node_id in net.space.random_ids(512, rng):
        net.join(node_id, REPAIR_PATHS[rng.randrange(3)])
    net.stabilize()
    data = FastDataLayer(net, replicas=REPLICAS)
    rng = random.Random(f"storage-bench-repair:{STORE_KEYS}")
    live = sorted(net.nodes)
    for i in range(STORE_KEYS):
        origin = live[rng.randrange(len(live))]
        domain = net.hierarchy.path_of(origin)[: rng.randrange(3)]
        data.put(origin, f"k{i}", f"v{i}", domain)
    for victim in rng.sample(live, int(len(live) * 0.15)):
        net.crash(victim)
    before = net.msgs.stats.counts.get("replicate", 0)
    data.stabilized()
    replicate_msgs = net.msgs.stats.counts.get("replicate", 0) - before
    lost_keys = len(data.lost_keys())
    assert (STORE_KEYS - lost_keys, lost_keys, replicate_msgs) == (1022, 2, 466)


# --------------------------------------------------------- compiled size

COMPILED_NODES = 512
#: CAN / Can-Can build from an aligned prefix tree at half the population.
COMPILED_PREFIX_NODES = 256

COMPILED_BYTES = {
    "chord": 116780,
    "crescendo": 122224,
    "symphony": 111360,
    "cacophony": 117964,
    "ndchord": 117788,
    "ndcrescendo": 124924,
    "mixed": 561184,
    "naive": 209384,
    "kademlia": 116432,
    "kandy": 124840,
    "can": 55012,
    "cancan": 48564,
}
#: The families above that build in bulk; the others build by reference.
COMPILED_BULK = {"chord", "crescendo", "kademlia", "kandy"}

#: family -> constructor over (space, hierarchy); the hierarchy seed is
#: the family's position here, plus one.
HIERARCHICAL = {
    "chord": ChordNetwork,
    "crescendo": CrescendoNetwork,
    "symphony": lambda s, h: SymphonyNetwork(s, h, random.Random(101)),
    "cacophony": lambda s, h: CacophonyNetwork(s, h, random.Random(102)),
    "ndchord": lambda s, h: NDChordNetwork(s, h, random.Random(103)),
    "ndcrescendo": lambda s, h: NDCrescendoNetwork(s, h, random.Random(104)),
    "mixed": LanCrescendoNetwork,
    "naive": NaiveHierarchicalChord,
    "kademlia": lambda s, h: KademliaNetwork(s, h, None, 1),
    "kandy": lambda s, h: KandyNetwork(s, h, None, 1),
}


def _compiled_network(family):
    space = IdSpace(32)
    if family in HIERARCHICAL:
        rng = random.Random(list(HIERARCHICAL).index(family) + 1)
        ids = space.random_ids(COMPILED_NODES, rng)
        hierarchy = build_uniform_hierarchy(
            ids, FANOUT, 3, rng, distribution="zipf", zipf_exponent=ZIPF_EXPONENT
        )
        return HIERARCHICAL[family](space, hierarchy).build()
    rng = random.Random(90)
    paths = [(f"lan{i % FANOUT}",) for i in range(COMPILED_PREFIX_NODES)]
    hierarchy = Hierarchy()
    prefixes = {}
    for path, leaf in zip(paths, PrefixTree(space.bits).grow_aligned(paths, rng)):
        padded = leaf.padded(space.bits)
        prefixes[padded] = leaf
        hierarchy.place(padded, path)
    if family == "can":
        return CANNetwork(space, hierarchy, prefixes).build()
    return CanCanNetwork(space, hierarchy, prefixes, None).build()


@pytest.mark.parametrize("family", sorted(COMPILED_BYTES))
def test_compiled_bytes(family):
    net = _compiled_network(family)
    assert net.built_with == ("numpy" if family in COMPILED_BULK else "python")
    compiled = compile_network(net)
    arrays = [compiled.ids, compiled.indptr, compiled.neighbors, compiled.nbr_pos]
    if compiled.metric == "ring":
        arrays += compiled._step_table(None)
    else:
        arrays += compiled._xor_table()
    assert sum(array.nbytes for array in arrays) == COMPILED_BYTES[family]


# ------------------------------------------------------------------ builders

BUILD_NODES = 1024

#: name -> constructor over (space, hierarchy, topology); randomized
#: flavours draw from an rng seeded by their name.
PINNED_BUILDS = {
    "chord": lambda s, h, t: ChordNetwork(s, h),
    "crescendo": lambda s, h, t: CrescendoNetwork(s, h),
    "chord-prox": lambda s, h, t: ProximityChordNetwork(
        s, h, t.node_latency, random.Random("chord-prox")
    ),
    "crescendo-prox": lambda s, h, t: ProximityCrescendoNetwork(
        s, h, t.node_latency, random.Random("crescendo-prox")
    ),
    "kademlia": lambda s, h, t: KademliaNetwork(s, h, None, 1),
    "kandy": lambda s, h, t: KandyNetwork(s, h, None, 1),
    "kademlia-random": lambda s, h, t: KademliaNetwork(
        s, h, random.Random("kademlia-random"), 1
    ),
    "kandy-random": lambda s, h, t: KandyNetwork(
        s, h, random.Random("kandy-random"), 1
    ),
    "kademlia-random-b3": lambda s, h, t: KademliaNetwork(
        s, h, random.Random("kademlia-random-b3"), 3
    ),
    "kandy-random-b3": lambda s, h, t: KandyNetwork(
        s, h, random.Random("kandy-random-b3"), 3
    ),
}

BUILD_DIGESTS = {
    "chord": "00d87e1baeaf8b91ff486b45182554951917295cdd17ccc33a402c959df13882",
    "chord-prox": "0732575e5166459fe938e6c176f31ccdf07de0db5734a288585584ea7f2e68b1",
    "crescendo": "d3a4911eacb976a15ff76b2fa78a909abff5980d8d79faa54117af0284fd3d4c",
    "crescendo-prox": "ca0f73398b7ab69cb5df9109ef85de1b4989bad507bb37c95ea1a25c2f1e64fa",
    "kademlia": "1bb31c6a333034a4d7877e39953ca66f695e30da32faed0588d16abe1de54ef0",
    "kademlia-random": "f51b836f4b19a421ce2fbaba972ee66ec03e37d3be92a5207f8e5ccbe6cc098e",
    "kademlia-random-b3": "445a9b987f5d72f7a44db8b69baee5d6b74ccede74a8b2ae25dfd54623461336",
    "kandy": "456c6835895073b1728c068e517b741f558ca977e0a9da53d889891191a05031",
    "kandy-random": "35e1aa9eb55147aa95a6eafa6fca93569372c4427227c938b2ddedaaa919b030",
    "kandy-random-b3": "5dba63b7901494be9eb2c0ad187b2ed25a2a583c38b5467facbee4d3fbe2b7e9",
}


def build_digest(net) -> str:
    """sha256 over the ``repr`` of one row per node in id order: the node,
    its sorted links, its ``gap``, its ``level_successors`` and its
    ``contact_depth`` items sorted by bucket (None / [] when the family
    has no such output)."""
    gap = getattr(net, "gap", {})
    successors = getattr(net, "level_successors", {})
    depths = getattr(net, "contact_depth", {})
    rows = [
        (
            node,
            net.links[node],
            gap.get(node),
            successors.get(node),
            sorted(depths.get(node, {}).items()),
        )
        for node in net.node_ids
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@pytest.fixture(scope="module")
def build_input():
    """One 1,024-node hierarchy over the paper's 2,040-router graph."""
    rng = random.Random(f"pinned-builders:{BUILD_NODES}")
    topology = TransitStubTopology(TopologyParams(), rng)
    space = IdSpace(32)
    hierarchy = topology.attach_nodes(space.random_ids(BUILD_NODES, rng), rng)
    return space, hierarchy, topology


@pytest.mark.parametrize("name", sorted(PINNED_BUILDS))
def test_build_digest(build_input, name):
    net = PINNED_BUILDS[name](*build_input).build()
    assert net.built_with == "numpy"
    assert build_digest(net) == BUILD_DIGESTS[name]


#: The Canon ring families' reference (bottom-up merge) builds over the
#: same input.  Crescendo and Crescendo (Prox.) must equal their bulk pins;
#: the three families without a bulk form are pinned here on their own.
REFERENCE_BUILDS = {
    "crescendo": PINNED_BUILDS["crescendo"],
    "crescendo-prox": PINNED_BUILDS["crescendo-prox"],
    "cacophony": lambda s, h, t: CacophonyNetwork(s, h, random.Random("cacophony")),
    "ndcrescendo": lambda s, h, t: NDCrescendoNetwork(
        s, h, random.Random("ndcrescendo")
    ),
    "mixed": lambda s, h, t: LanCrescendoNetwork(s, h),
}

REFERENCE_DIGESTS = {
    "crescendo": BUILD_DIGESTS["crescendo"],
    "crescendo-prox": BUILD_DIGESTS["crescendo-prox"],
    "cacophony": "af34bedb2e1dc933740be42b831222456ee97b416ec85cfe95ec1adbdceea814",
    "ndcrescendo": "54524c37fb8aa6953a2357a6d1a67d5b349aaf8716567ce6ab59d7491d3df6b9",
    "mixed": "c182c1bd75392a56786b03cd7b87097562d468e65ceb17bdbca1dd958b7f7a3c",
}


@pytest.mark.parametrize("name", sorted(REFERENCE_BUILDS))
def test_reference_build_digest(build_input, name):
    net = REFERENCE_BUILDS[name](*build_input).build_reference()
    assert net.built_with == "python"
    assert build_digest(net) == REFERENCE_DIGESTS[name]
