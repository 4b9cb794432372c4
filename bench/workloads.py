"""The five workloads: which layer each makes work and which it leaves idle.

Every size is a constructor argument (the tests run each workload tiny);
the defaults are what ``BENCHMARK.json`` names and what the driver runs.
The *system* of each workload — node ids, hierarchy, router topology, the
scenario's phases — is fixed (``SYSTEM_SEED``), so simulated results of
two seeds are comparable; its *traffic* — lookups, crash victims, put/get
operations, route pairs, lookup sources of the scenario — derives from
``--seed``.  The library only ever receives the generated inputs.

Numbers reported as *simulated* (``Round.sim``) are properties of the
modelled DHT and repeat exactly; host seconds are how long this simulator
took to produce them.  A lookup the modelled network loses to a crash is a
simulated outcome (it lowers ``delivered_share``), not a failed operation:
``failed`` counts units of work the program dropped without any outcome.
"""

from __future__ import annotations

import dataclasses
import random
import statistics
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.metrics import sample_routing
from repro.core.idspace import IdSpace
from repro.core.routing import route_ring, route_xor
from repro.obs import metrics as obs_metrics
from repro.perf.dynamic import make_protocol
from repro.perf.kernels import compile_network
from repro.perf.latency import LatencyTable
from repro.perf.storage import (
    CompiledStore,
    FastDataLayer,
    bulk_put_replicated,
    plan_puts,
    store_domain_index,
)
from repro.scenarios.catalog import flash_crowd
from repro.scenarios.dsl import bootstrap_scenario, compile_scenario
from repro.scenarios.runner import scenario_latency
from repro.serve import (
    NO_POLICY,
    ServePolicy,
    ServeReport,
    ServeRuntime,
    SLOMiddleware,
    batcher,
    run_closed_loop,
)
from repro.serve.scenario import serve_schedule
from repro.serve.testbed import (
    SERVE_TOPOLOGY,
    build_serving_net,
    domain_labeler,
    lookup_workload,
)
from repro.storage.replication import ReplicatedStore
from repro.storage.store import HierarchicalStore
from repro.topology.transit_stub import TopologyParams, TransitStubTopology
from repro.verify.builders import build_family, small_network
from repro.verify.fuzz import FUZZ_PATHS
from repro.verify.oracles import (
    compare_routing,
    compare_serving,
    compare_storage,
    storage_workload,
)
from repro.workloads.queries import random_pair

from harness import GateFailure, Round, Workload

FAMILIES = ("chord", "crescendo", "kademlia", "kandy")
#: Seeds the system under test (who is in the network, and where).
SYSTEM_SEED = 0


# ------------------------------------------------------------------ helpers


def serving_gate(seed: int, nodes: int = 512, lookups: int = 400, crashes: int = 30) -> str:
    """``compare_serving``: batched runtime vs. the scalar ``AsyncEngine``,
    same lookups, same mid-flight crashes; outcomes must agree exactly."""

    def factory():
        return build_serving_net(nodes, seed=SYSTEM_SEED, with_latency=False)[0]

    rng = random.Random(f"bench-serving-gate:{seed}")
    live = sorted(factory().live_view())
    pairs = [
        (live[rng.randrange(len(live))], rng.randrange(1 << 32)) for _ in range(lookups)
    ]
    victims = rng.sample(live, crashes)

    def crash(part):
        def apply(net) -> None:
            for victim in part:
                if victim in net.nodes and net.nodes[victim].alive:
                    net.crash(victim)

        return apply

    half = crashes // 2
    churn = [(2, crash(victims[:half])), (4, crash(victims[half:]))]
    comparison = compare_serving(factory, pairs, churn=churn)
    if not comparison.equivalent:
        raise GateFailure(f"compare_serving: {comparison.violations[:3]}")
    return f"compare_serving ok: {lookups} lookups, {nodes} nodes, {crashes} mid-flight crashes"


def check_report(name: str, report: ServeReport, submitted: int) -> int:
    """Conservation: one completion per submission, every ticket once.

    Returns the number of lookups that ended without an outcome.
    """
    counters = report.counters
    if counters["submitted"] != submitted:
        raise GateFailure(f"{name}: {counters['submitted']} submitted, expected {submitted}")
    if np.unique(report.tickets).size != report.size:
        raise GateFailure(f"{name}: duplicate tickets in the report")
    return submitted - int(counters["completed"])


def serve_sim(report: ServeReport) -> Dict[str, float]:
    """Simulated results of one serving run (all deterministic)."""
    counters = report.counters
    delivered = report.delivered
    sim = {
        "delivered_share": counters["delivered"] / counters["submitted"],
        "sim_p50_ms": report.quantile_ms(0.5),
        "sim_p99_ms": report.quantile_ms(0.99),
        "mean_hops": float(report.hops[delivered].mean()),
    }
    sim.update({f"serve.{k}": int(v) for k, v in counters.items()})
    return sim


def serve_layer(report: ServeReport) -> Dict[str, float]:
    c = report.counters
    return {
        "serve.lookups": c["submitted"],
        "serve.retries": c["retries"],
        "serve.hedges": c["hedges"],
        "serve.hedge_wins": c["hedge_wins"],
        "serve.shed": c["shed"],
        "serve.lost": c["lost"],
        "serve.expired": c["expired"],
        "serve.hedge_win_ratio": c["hedge_wins"] / c["hedges"] if c["hedges"] else 0.0,
        "serve.attempts_per_delivered": (
            float(report.attempts.sum() + c["hedges"]) / c["delivered"] if c["delivered"] else 0.0
        ),
    }


def messages_total(net) -> int:
    return int(sum(net.msgs.stats.counts.values()))


def fold_cost(compiled, sources, keys, table) -> Tuple[float, float]:
    """Seconds the fused latency fold adds to one whole-route batch."""

    def best(latency) -> float:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            compiled.route(sources, keys, latency=latency)
            times.append(time.perf_counter() - start)
        return min(times)

    bare, folded = best(None), best(table)
    return folded - bare, (folded - bare) / folded


# ------------------------------------------------------------- serve_static


class ServeStatic(Workload):
    """Uniform lookups through ``run_closed_loop`` on a frozen view.

    Works: ``frontier_step`` and the per-lookup Python of ``submit_many`` /
    ``_stage_complete``.  Idle: policy, view recompiles, maintenance, obs.
    """

    name = "serve_static"
    ops_unit = "lookups"
    build_unit = "nodes"

    def __init__(self, nodes: int = 4096, lookups: int = 60_000, concurrency: int = 4096):
        self.nodes, self.lookups, self.concurrency = nodes, lookups, concurrency

    def setup(self, seed, tracer):
        start = time.perf_counter()
        self.net, self.latency = build_serving_net(self.nodes, seed=SYSTEM_SEED)
        build_s = time.perf_counter() - start
        self.view = batcher.compile_protocol_view(self.net)
        self.sources, self.keys = lookup_workload(self.net, self.lookups, seed=seed)
        return self.nodes, build_s

    def gate(self, seed):
        return serving_gate(seed)

    def _serve(self, middlewares=()) -> Tuple[ServeReport, float]:
        runtime = ServeRuntime(
            *self.view, policy=NO_POLICY, latency=self.latency, middlewares=middlewares
        )
        start = time.perf_counter()
        report = run_closed_loop(runtime, self.sources, self.keys, concurrency=self.concurrency)
        return report, time.perf_counter() - start

    def round(self, tracer):
        report, ops_s = self._serve()
        failed = check_report(self.name, report, self.lookups)
        if report.counters["delivered"] != self.lookups:
            raise GateFailure(
                f"{self.name}: static view delivered {report.counters['delivered']}"
                f" of {self.lookups}"
            )
        layer = serve_layer(report)
        layer["dynamic.msgs_total"] = messages_total(self.net)
        return Round(self.lookups, ops_s, serve_sim(report), failed=failed, layer=layer)

    def extras(self, untraced_round_s):
        observed = []
        for _ in range(3):
            with obs_metrics.collecting():
                observed.append(self._serve([SLOMiddleware("bench")])[1])
        observed_s = statistics.median(observed)
        fold_s, fold_share = fold_cost(self.view[0], self.sources, self.keys, self.latency)
        return {
            "obs.metrics_on_cost_share": observed_s / untraced_round_s - 1.0,
            "latency.fold_s": fold_s,
            "latency.fold_share": fold_share,
        }


# -------------------------------------------------------------- serve_churn


class ServeChurn(Workload):
    """The same runtime under crash churn with the whole policy switched on.

    Works: retry/hedge/deadline/admission masks, LOST handling, middleware
    and metrics, ``compile_protocol_view`` after every crash slice.  The
    kernel's share shrinks.  Each round serves a freshly built net.
    """

    name = "serve_churn"
    ops_unit = "lookups"
    build_unit = "nodes"

    POLICY = ServePolicy(
        max_attempts=3,
        hedge_quantile=0.9,
        hedge_min_ms=400.0,
        deadline_ms=6000.0,
        admit_rate=400.0,
        admit_burst=800.0,
    )

    def __init__(
        self,
        nodes: int = 2048,
        lookups: int = 40_000,
        concurrency: int = 4096,
        crash_every: int = 5,
        crash_count: int = 4,
    ):
        self.nodes, self.lookups, self.concurrency = nodes, lookups, concurrency
        self.crash_every, self.crash_count = crash_every, crash_count

    def setup(self, seed, tracer):
        self.seed = seed
        return None

    def gate(self, seed):
        return serving_gate(seed)

    def prepare(self):
        start = time.perf_counter()
        self.net, self.latency = build_serving_net(self.nodes, seed=SYSTEM_SEED)
        build_s = time.perf_counter() - start
        self.sources, self.keys = lookup_workload(self.net, self.lookups, seed=self.seed)
        return self.nodes, build_s

    def round(self, tracer):
        net = self.net
        rng = random.Random(f"bench-churn:{self.seed}")

        def on_tick(runtime, tick) -> None:
            if tick % self.crash_every:
                return
            live = sorted(net.live_view())
            for victim in rng.sample(live, min(self.crash_count, len(live) - 8)):
                net.crash(victim)
            runtime.set_view(*batcher.compile_protocol_view(net))

        with obs_metrics.collecting():
            runtime = ServeRuntime(
                *batcher.compile_protocol_view(net),
                policy=self.POLICY,
                latency=self.latency,
                middlewares=[SLOMiddleware("bench")],
                domain_of=domain_labeler(net),
            )
            start = time.perf_counter()
            report = run_closed_loop(
                runtime,
                self.sources,
                self.keys,
                concurrency=self.concurrency,
                on_tick=on_tick,
            )
            ops_s = time.perf_counter() - start
        failed = check_report(self.name, report, self.lookups)
        layer = serve_layer(report)
        layer["dynamic.msgs_total"] = messages_total(net)
        return Round(self.lookups, ops_s, serve_sim(report), failed=failed, layer=layer)


# ------------------------------------------------------------- scenario_e2e


class ScenarioE2E(Workload):
    """``flash_crowd`` re-scaled: bootstrap, maintenance events, put/get,
    view compiles, serve ticks and SLO recording under one clock.

    Works: ``perf.dynamic`` (stabilize dominates) and ``compile_protocol_view``.
    Nearly idle: the hop kernel.
    """

    name = "scenario_e2e"
    ops_unit = "schedule events"
    build_unit = "nodes"

    def __init__(self, population: int = 512, mix: int = 75, burst: int = 10_000, replicas: int = 2):
        base = flash_crowd("full")
        counts = {"mix": mix, "traffic": burst}
        phases = tuple(
            dataclasses.replace(p, count=counts[p.op]) if p.op in counts else p
            for p in base.phases
        )
        self.spec = dataclasses.replace(
            base, population=population, data_replicas=replicas, phases=phases
        )

    def setup(self, seed, tracer):
        with tracer.span("scenarios.compile"):
            events = compile_scenario(self.spec, SYSTEM_SEED)
        # Who asks is the traffic: re-draw every lookup's rank-addressed source.
        rng = random.Random(f"bench-scenario:{seed}")
        self.events = [
            dataclasses.replace(e, rank=rng.randrange(1 << 30)) if e.kind == "lookup" else e
            for e in events
        ]
        with tracer.span("scenarios.latency"):
            topology, _ = scenario_latency(self.spec, SYSTEM_SEED, self.events)
            self.table = topology.latency_table()
        return None

    def gate(self, seed):
        return serving_gate(seed)

    def round(self, tracer):
        spec = self.spec
        with obs_metrics.collecting():
            start = time.perf_counter()
            with tracer.span("scenarios.bootstrap"):
                net = bootstrap_scenario(spec, SYSTEM_SEED, engine="fast")
            build_s = time.perf_counter() - start
            data = FastDataLayer(net, replicas=spec.data_replicas)
            with tracer.span("serve.schedule"):
                report, slices = serve_schedule(
                    net,
                    self.events,
                    latency=self.table,
                    label=f"{spec.name}.serve",
                    data=data,
                )
            ops_s = time.perf_counter() - start
        submitted = int(report.counters["submitted"])
        failed = check_report(self.name, report, submitted)
        sim = serve_sim(report)
        gets = [found for part in slices for _, found in part.data_outcomes]
        sim.update(
            {
                "scenario.puts": sum(part.puts for part in slices),
                "scenario.gets": len(gets),
                "scenario.gets_found": sum(gets),
                "scenario.lost_keys": len(data.lost_keys()),
                "scenario.final_population": slices[-1].final_population,
                "scenario.messages": messages_total(net),
            }
        )
        layer = serve_layer(report)
        layer["dynamic.msgs_total"] = messages_total(net)
        layer["storage.replicate_msgs"] = int(net.msgs.stats.counts.get("replicate", 0))
        return Round(
            len(self.events),
            ops_s,
            sim,
            built=spec.population,
            build_s=build_s,
            failed=failed,
            layer=layer,
        )


# ------------------------------------------------------------- figure_sweep


class FigureSweep(Workload):
    """The paper's figure path (Figs. 5-6): bulk-build four families over
    one transit-stub hierarchy, then whole-route sampling with latency.

    Works: ``dhts`` + ``perf.build``, the whole-route ring and xor kernels
    (no alive filter), ``analysis.metrics``.  Idle: ``repro.serve`` and
    ``perf.dynamic`` never run.
    """

    name = "figure_sweep"
    ops_unit = "routes"
    build_unit = "nodes"

    def __init__(self, nodes: int = 4096, samples: int = 50_000, params: Optional[TopologyParams] = None):
        self.nodes, self.samples = nodes, samples
        self.params = params if params is not None else TopologyParams()

    def _topology(self, nodes: int, params: TopologyParams):
        rng = random.Random(f"bench-figure:{SYSTEM_SEED}:{nodes}")
        topology = TransitStubTopology(params, rng)
        space = IdSpace()
        ids = space.random_ids(nodes, rng)
        hierarchy = topology.attach_nodes(ids, rng)
        topology.latency_table()  # cached: sample_routing finds it behind node_latency
        return topology, space, ids, hierarchy

    def _build(self, family: str, space, hierarchy):
        return build_family(
            family, space, hierarchy=hierarchy, rng=random.Random(f"bench-build:{family}")
        )

    def setup(self, seed, tracer):
        self.topology, self.space, ids, self.hierarchy = self._topology(self.nodes, self.params)
        rng = random.Random(f"bench-pairs:{seed}")
        self.pairs = [random_pair(ids, rng) for _ in range(self.samples)]
        self.src = np.asarray([p[0] for p in self.pairs], dtype=np.uint64)
        self.dst = np.asarray([p[1] for p in self.pairs], dtype=np.uint64)
        return None

    def gate(self, seed, pairs: int = 2000, nodes: int = 1024):
        topology, space, ids, hierarchy = self._topology(nodes, SERVE_TOPOLOGY)
        rng = random.Random(f"bench-figure-gate:{seed}")
        sample = [random_pair(ids, rng) for _ in range(pairs)]
        for family in FAMILIES:
            net = self._build(family, space, hierarchy)
            violations = compare_routing(net, sample, latency=topology.latency_table())
            if violations:
                raise GateFailure(f"compare_routing[{family}]: {violations[:3]}")
        return f"compare_routing ok: {pairs} pairs x {len(FAMILIES)} families, {nodes} nodes"

    def round(self, tracer):
        table = self.topology.latency_table()
        build_s = route_s = 0.0
        delivered = links = 0
        sim: Dict[str, float] = {}
        layer: Dict[str, float] = {}
        for family in FAMILIES:
            start = time.perf_counter()
            with tracer.span(f"build.{family}"):
                net = self._build(family, self.space, self.hierarchy)
            compiled = compile_network(net)
            build_s += time.perf_counter() - start
            router = route_ring if net.metric == "ring" else route_xor
            start = time.perf_counter()
            with tracer.span("analysis.sample_routing"):
                stats = sample_routing(
                    net,
                    None,
                    router=router,
                    latency_fn=self.topology.node_latency,
                    pairs=self.pairs,
                )
            route_s += time.perf_counter() - start
            delivered += stats.delivered
            links += int(compiled.neighbors.size)
            sim[f"analysis.mean_hops.{family}"] = stats.mean_hops
            sim[f"analysis.mean_ms.{family}"] = stats.mean_latency
            if family == "crescendo":
                # RoutingStats carries means only; the quantiles come from
                # the same compiled network and pairs, outside the timing.
                batch = compiled.route(self.src, self.dst, latency=table)
                ok = batch.success & (batch.terminals == batch.dest_keys)
                ms = batch.latency_ms[ok]
                if not np.isclose(ms.mean(), stats.mean_latency, rtol=1e-9):
                    raise GateFailure("figure_sweep: sample_routing and route() disagree")
                sim["sim_p50_ms"] = float(np.quantile(ms, 0.5))
                sim["sim_p99_ms"] = float(np.quantile(ms, 0.99))
                sim["mean_hops"] = stats.mean_hops
                self._crescendo = compiled
        total = self.samples * len(FAMILIES)
        sim["delivered_share"] = delivered / total
        layer.update({k: v for k, v in sim.items() if k.startswith("analysis.")})
        layer["build.links_total"] = links
        return Round(
            total,
            route_s,
            sim,
            built=self.nodes * len(FAMILIES),
            build_s=build_s,
            layer=layer,
        )

    def extras(self, untraced_round_s):
        fold_s, fold_share = fold_cost(
            self._crescendo, self.src, self.dst, self.topology.latency_table()
        )
        return {"latency.fold_s": fold_s, "latency.fold_share": fold_share}


# ---------------------------------------------------------------- store_mix


class StoreMix(Workload):
    """Writes beside reads on the data plane, which no serving workload
    touches: (a) replicated bulk puts, store compile and batch gets over a
    static Crescendo; (b) a data layer on a protocol net losing 15 % of its
    nodes, then repairing.

    Works: ``perf.storage``.  Idle: ``repro.serve``; ``perf.dynamic`` only
    builds the small net of (b).
    """

    name = "store_mix"
    ops_unit = "gets"
    build_unit = "puts"

    def __init__(
        self,
        nodes: int = 4096,
        puts: int = 24_576,
        gets: int = 49_152,
        replicas: int = 3,
        layer_nodes: int = 512,
        layer_puts: int = 8192,
        crash_share: float = 0.15,
    ):
        self.nodes, self.puts, self.gets, self.replicas = nodes, puts, gets, replicas
        self.layer_nodes, self.layer_puts, self.crash_share = layer_nodes, layer_puts, crash_share

    def setup(self, seed, tracer):
        fixed = random.Random(f"bench-store:{SYSTEM_SEED}")
        rng = random.Random(f"bench-store-ops:{seed}")
        self.network = small_network("crescendo", seed=SYSTEM_SEED, size=self.nodes)
        put_ops, get_ops = storage_workload(self.network, rng, puts=self.puts, gets=self.gets)
        # One bulk call per (storage, access) domain pair, first-occurrence order.
        groups: Dict[Tuple, List[Tuple]] = {}
        for origin, key, value, storage_domain, access_domain in put_ops:
            groups.setdefault((storage_domain, access_domain), []).append((origin, key, value))
        self.groups = [(pair, *map(list, zip(*ops))) for pair, ops in groups.items()]
        self.get_origins = [origin for origin, _ in get_ops]
        self.get_keys = [key for _, key in get_ops]
        topology = TransitStubTopology(SERVE_TOPOLOGY, fixed)
        node_ids = sorted(self.network.node_ids)
        for node_id in node_ids:
            topology.attach_node(node_id)
        self.table = LatencyTable.from_topology(topology, node_ids)
        # Phase (b): members, puts and victims, all fixed before any round.
        space = IdSpace(32)
        self.members = [
            (node_id, FUZZ_PATHS[fixed.randrange(len(FUZZ_PATHS))])
            for node_id in space.random_ids(self.layer_nodes, fixed)
        ]
        self.layer_ops = [
            (rng.randrange(self.layer_nodes), rng.randrange(3)) for _ in range(self.layer_puts)
        ]
        self.victims = rng.sample(
            sorted(m[0] for m in self.members), int(self.layer_nodes * self.crash_share)
        )
        return None

    def gate(self, seed):
        violations = compare_storage(
            small_network("crescendo", seed=SYSTEM_SEED, size=512),
            puts=2000,
            gets=1000,
            replicas=self.replicas,
            rng=random.Random(f"bench-store-gate:{seed}"),
        )
        if violations:
            raise GateFailure(f"compare_storage: {violations[:3]}")
        return "compare_storage ok: 2000 puts dict-identical, 1000 gets field-identical, 512 nodes"

    def prepare(self):
        self.net = make_protocol(IdSpace(32), engine="fast")
        for node_id, path in self.members:
            self.net.join(node_id, path)
        self.net.stabilize_to_convergence()
        return None

    def round(self, tracer):
        # (a) static data plane.
        rstore = ReplicatedStore(HierarchicalStore(self.network), replicas=self.replicas)
        start = time.perf_counter()
        with tracer.span("storage.bulk_put"):
            for (storage_domain, access_domain), origins, keys, values in self.groups:
                bulk_put_replicated(rstore, origins, keys, values, storage_domain, access_domain)
        put_s = time.perf_counter() - start
        start = time.perf_counter()
        with tracer.span("storage.compile_store"):
            compiled = CompiledStore(rstore.store)
        with tracer.span("storage.batch_get"):
            batch = compiled.batch_get(self.get_origins, self.get_keys, latency=self.table)
        get_s = time.perf_counter() - start
        found = batch.found
        hops = np.fromiter((len(p) - 1 for p in batch.paths), dtype=np.int64, count=batch.size)

        # (b) data layer under crashes; crash and hook order as run_schedule
        # does it: crash, then one stabilize round fires the repair hook.
        net = self.net
        data = FastDataLayer(net, replicas=self.replicas)
        ids = [m[0] for m in self.members]
        for index, (member, depth) in enumerate(self.layer_ops):
            origin = ids[member]
            data.put(origin, f"k{index}", f"v{index}", net.hierarchy.path_of(origin)[:depth])
        for victim in self.victims:
            net.crash(victim)
        net.stabilize()
        lost = len(data.lost_keys())

        sim = {
            "delivered_share": 1.0 - lost / self.layer_puts,
            "sim_p50_ms": float(np.quantile(batch.latency_ms[found], 0.5)),
            "sim_p99_ms": float(np.quantile(batch.latency_ms[found], 0.99)),
            "mean_hops": float(hops.mean()),
            "storage.gets_found": int(found.sum()),
            "storage.pointer_hops_total": int(batch.pointer_hops.sum()),
            "storage.probes": int(batch.probes),
            "storage.lost_keys": lost,
            "storage.replicate_msgs": int(net.msgs.stats.counts.get("replicate", 0)),
        }
        layer = {
            "storage.pointer_hops_total": sim["storage.pointer_hops_total"],
            "storage.gets_found_ratio": sim["storage.gets_found"] / self.gets,
            "storage.replicate_msgs": sim["storage.replicate_msgs"],
            "storage.repair_keys": self.layer_puts,
            "dynamic.msgs_total": messages_total(net),
        }
        return Round(self.gets, get_s, sim, built=self.puts, build_s=put_s, layer=layer)

    def extras(self, untraced_round_s):
        store = HierarchicalStore(self.network)
        index = store_domain_index(store)
        start = time.perf_counter()
        for (storage_domain, access_domain), _, keys, _ in self.groups:
            hashes = [store.space.hash_key(key) for key in keys]
            plan_puts(index, hashes, storage_domain, access_domain, replicas=self.replicas)
        return {"storage.plan_puts_s": time.perf_counter() - start}


WORKLOADS = {
    cls.name: cls for cls in (ServeStatic, ServeChurn, ScenarioE2E, FigureSweep, StoreMix)
}
