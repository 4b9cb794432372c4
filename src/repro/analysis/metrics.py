"""Measurement helpers: degree, hops, latency, stretch.

These are the quantities on the axes of the paper's Figures 3-7.  All
sampling helpers take an explicit ``rng`` and a ``router`` callable so the
same harness measures every network family (greedy ring, lookahead, XOR,
grouped-proximity routing).
"""

from __future__ import annotations

import itertools
import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.hierarchy import format_name, lca
from ..core.network import DHTNetwork
from ..core.routing import Route, route_ring, route_xor
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..obs.profile import PROFILER
from ..obs.slo import record_slo
from ..perf.kernels import CompiledNetwork, compile_network
from ..perf.latency import LatencyTable, latency_table_of
from ..workloads.queries import random_pair

Router = Callable[[DHTNetwork, int, int], Route]
LatencyFn = Callable[[int, int], float]


@dataclass
class DegreeStats:
    mean: float
    maximum: int
    minimum: int
    pdf: Dict[int, float]

    @classmethod
    def of(cls, network: DHTNetwork) -> "DegreeStats":
        arr = np.asarray(network.degrees(), dtype=np.int64)
        values, counts = np.unique(arr, return_counts=True)
        n = arr.size
        return cls(
            mean=float(exact_mean(arr)),
            maximum=int(values[-1]),
            minimum=int(values[0]),
            pdf={int(v): int(c) / n for v, c in zip(values, counts)},
        )


@dataclass
class RoutingStats:
    samples: int
    delivered: int
    mean_hops: float
    mean_latency: Optional[float] = None

    @property
    def success_rate(self) -> float:
        return self.delivered / self.samples if self.samples else 0.0


def exact_mean(values: np.ndarray) -> Union[int, float]:
    """``statistics.mean(values.tolist())`` bit for bit, type included,
    with no Python object per value.

    ``statistics.mean`` sums exactly and rounds once, and so does this.  An
    integer array divides its int64 sum: an ``int`` when the division is
    exact, else the correctly rounded ``float``.  A float array is split by
    ``np.frexp`` into 53-bit integer mantissas, which are summed per binary
    exponent in int64 halves of 27 and 26 bits (no group sum overflows
    below 2**36 values); the group sums are shifted together as Python ints
    and divided by ``n`` once.  ``np.mean`` or ``math.fsum(x) / n`` round
    twice.  Empty, non-finite or overflow-prone input defers to
    ``statistics.mean``.
    """
    n = values.size
    if values.dtype.kind in "iu":
        if n and max(-int(values.min()), int(values.max())) * n < 1 << 63:
            total = int(values.sum(dtype=np.int64))
            quotient, remainder = divmod(total, n)
            return total / n if remainder else quotient
    elif values.dtype.kind == "f" and 0 < n < 1 << 36 and np.isfinite(values).all():
        fractions, exponents = np.frexp(values.astype(np.float64, copy=False))
        mantissas = (fractions * 2.0**53).astype(np.int64)  # exact: < 2**53
        base = int(exponents.min())
        group = exponents - base
        width = int(group.max()) + 1
        high = np.zeros(width, dtype=np.int64)
        low = np.zeros(width, dtype=np.int64)
        np.add.at(high, group, mantissas >> 26)
        np.add.at(low, group, mantissas & ((1 << 26) - 1))
        total = 0
        for shift, (high_sum, low_sum) in enumerate(zip(high.tolist(), low.tolist())):
            total += ((high_sum << 26) + low_sum) << shift
        # The exact sum is total * 2**(base - 53).
        if base >= 53:
            return (total << (base - 53)) / n
        return total / (n << (53 - base))
    return statistics.mean(values.tolist())


def _workload(
    network: DHTNetwork,
    rng,
    samples: int,
    pairs: Optional[Sequence[Tuple[int, int]]],
) -> Sequence[Tuple[int, int]]:
    """The (src, key) workload to route: given pairs as-is, else generated.

    Provided pair sequences are used without copying (no throwaway list);
    generated pairs are materialized once and threaded through whichever
    engine routes them, so scalar and batch sample identical workloads.
    """
    if pairs is None:
        return [random_pair(network.node_ids, rng) for _ in range(samples)]
    if isinstance(pairs, Sequence):
        return pairs
    return list(pairs)


def _batch_compiled(
    network: DHTNetwork, router: Router
) -> Optional[CompiledNetwork]:
    """The compiled network to use, or ``None`` for the scalar engine.

    The batch kernels replicate exactly ``route_ring`` on ring-metric
    networks and ``route_xor`` on XOR-metric ones; any other router (or a
    mismatched metric) runs scalar.  So does a network too wide to
    compile: ``compile_network`` refuses id spaces whose ring table sort
    keys ``(row << (bits + 1)) | distance`` need more than 64 bits.
    """
    eligible = (router is route_ring and network.metric == "ring") or (
        router is route_xor and network.metric == "xor"
    )
    if not eligible:
        return None
    try:
        return compile_network(network)
    except ValueError:
        return None


def sample_routing(
    network: DHTNetwork,
    rng,
    samples: int = 500,
    router: Router = route_ring,
    latency_fn: Optional[LatencyFn] = None,
    pairs: Optional[Sequence[Tuple[int, int]]] = None,
    slo_label: Optional[str] = None,
) -> RoutingStats:
    """Route random (or given) node pairs and aggregate hops/latency.

    The router picks the implementation: the vectorized batch kernels of
    :mod:`repro.perf.kernels` route whenever it *is* the plain greedy
    engine matching the network's metric (``route_ring`` or
    ``route_xor``; they are hop-for-hop identical, so results do not
    change), and any other router runs per route, scalar.

    Latency: when ``latency_fn`` is the transit-stub topology's
    ``node_latency`` (or a :class:`~repro.perf.latency.LatencyTable`), the
    batch engine accumulates per-hop latency *inside* the routing kernels
    with vectorized router-matrix gathers — no Python call per hop, no
    path materialization just for latency — and the totals are bit-for-bit
    what the scalar fold produces.  Any other callable falls back to the
    per-hop scalar fold over materialized paths.

    When an observability tracer or metrics registry is active
    (:mod:`repro.obs`), every sampled route is additionally recorded: the
    tracer gets one hop-annotated route record per attempt (with a
    ``latency_ms`` attr when latency is measured), and the registry
    accumulates ``route.hops``/``route.latency``/``route.crossings``
    histograms (crossings = top-level domain boundaries crossed, via
    :meth:`~repro.core.routing.Route.domain_crossings`) plus
    ``route.samples``/``route.delivered``/``messages.lookup`` counters (each
    routing hop is one lookup message in a deployed DHT).  With an
    ``slo_label``, delivered-lookup latencies are additionally recorded as
    the ``slo.*`` instruments :class:`repro.obs.slo.SLOReport` consumes:
    ``slo.lookup_ms.<label>`` (plus per-level ``.L<k>`` splits by the
    source/target lowest-common-domain depth), matching ``slo.direct_ms``
    histograms for the stretch denominator, offered/delivered counters,
    and per-top-level-domain traffic counters.  Neither changes any
    routing decision.  Wall-clock time spent here accrues to the ``route``
    phase of :data:`repro.obs.profile.PROFILER`.
    """
    tracer = obs_trace.active_tracer()
    registry = obs_metrics.active_registry()
    workload = _workload(network, rng, samples, pairs)
    compiled = _batch_compiled(network, router)
    table = latency_table_of(latency_fn)
    track_slo = registry is not None and slo_label is not None
    mean: Callable[..., Union[int, float]] = statistics.mean
    hops: Union[List[int], np.ndarray] = []
    latencies: Union[List[float], np.ndarray] = []
    crossings: List[int] = []
    delivered_pairs: List[Tuple[int, int]] = []
    delivered = 0
    total = len(workload)
    with PROFILER.phase("route"):
        batch = None
        if compiled is not None:
            # Full paths are only materialized when something consumes
            # them; a latency table needs none (the kernels accumulate).
            need_paths = (
                tracer is not None
                or registry is not None
                or (latency_fn is not None and table is None)
            )
            # The (src, key) pairs become two uint64 columns in one pass.
            sources, keys = (
                np.fromiter(
                    itertools.chain.from_iterable(workload),
                    dtype=np.uint64,
                    count=2 * total,
                )
                .reshape(total, 2)
                .T.copy()
            )
            batch = compiled.route(sources, keys, paths=need_paths, latency=table)
        if batch is not None and batch.paths is None:
            # Nothing observes single routes: account in arrays, with the
            # exact means statistics.mean would give over their lists.
            ok = batch.success & (batch.terminals == batch.dest_keys)
            delivered = int(ok.sum())
            mean = exact_mean
            hops = batch.hops[ok]
            if table is not None:
                latencies = batch.latency_ms[ok]
        else:
            # One accounting loop over (route, kernel latency or None),
            # whichever engine routed.
            if batch is None:
                routed = ((router(network, src, dst), None) for src, dst in workload)
            elif table is None:
                routed = ((result, None) for result in batch.routes())
            else:
                routed = zip(batch.routes(), batch.latency_ms.tolist())
            for pair, (result, lat) in zip(workload, routed):
                if lat is None and latency_fn is not None:
                    lat = result.latency(latency_fn)
                if tracer is not None:
                    extra = {} if lat is None else {"latency_ms": lat}
                    tracer.route(result, hierarchy=network.hierarchy, **extra)
                if not (result.success and result.terminal == pair[1]):
                    continue
                delivered += 1
                hops.append(result.hops)
                if registry is not None:
                    crossings.append(result.domain_crossings(network.hierarchy))
                if lat is not None:
                    latencies.append(lat)
                if track_slo:
                    delivered_pairs.append(pair)
    if registry is not None:
        registry.counter("route.samples").inc(total)
        registry.counter("route.delivered").inc(delivered)
        registry.counter("messages.lookup").inc(sum(hops))
        registry.histogram("route.hops").observe_many(hops)
        registry.histogram("route.crossings").observe_many(crossings)
        if latencies:
            registry.histogram("route.latency").observe_many(latencies)
        if track_slo:
            _record_slo(
                registry,
                slo_label,
                network,
                total,
                delivered_pairs,
                latencies,
                latency_fn,
                table,
            )
    return RoutingStats(
        samples=total,
        delivered=delivered,
        mean_hops=mean(hops) if len(hops) else 0.0,
        mean_latency=mean(latencies) if len(latencies) else None,
    )


def _record_slo(
    registry: "obs_metrics.MetricsRegistry",
    label: str,
    network: DHTNetwork,
    offered: int,
    delivered_pairs: Sequence[Tuple[int, int]],
    latencies: Sequence[float],
    latency_fn: Optional[LatencyFn],
    table: Optional[LatencyTable],
) -> None:
    """Record the ``slo.*`` instruments for one measured family.

    ``delivered_pairs`` and ``latencies`` are aligned (delivered lookups
    only).  Levels are the depth of the source/target lowest common
    domain; the per-domain counters attribute each delivered lookup to its
    top-level LCA domain (``root`` for cross-domain traffic).
    """
    directs: Optional[List[float]] = None
    levels: List[int] = []
    domains: List[str] = []
    if latencies:
        if table is not None:
            directs = table.hop_ms(
                np.asarray([p[0] for p in delivered_pairs], dtype=np.uint64),
                np.asarray([p[1] for p in delivered_pairs], dtype=np.uint64),
            ).tolist()
        elif latency_fn is not None:
            directs = [latency_fn(src, dst) for src, dst in delivered_pairs]
        hierarchy = network.hierarchy
        for src, dst in delivered_pairs:
            common = lca(hierarchy.path_of(src), hierarchy.path_of(dst))
            levels.append(len(common))
            domains.append(format_name(common[:1]) if common else "root")
    record_slo(
        registry, label, offered, len(delivered_pairs), latencies, directs, levels, domains
    )


def stretch(
    network: DHTNetwork,
    rng,
    latency_fn: LatencyFn,
    direct_latency: float,
    samples: int = 500,
    router: Router = route_ring,
    slo_label: Optional[str] = None,
) -> Tuple[float, float]:
    """(stretch, mean overlay latency) relative to mean direct latency.

    Stretch 1 means overlay routing is as fast as routing directly between
    the two hosts on the modelled internet (Figure 6).  ``slo_label``
    passes through to :func:`sample_routing`'s SLO recording.
    """
    stats = sample_routing(
        network,
        rng,
        samples=samples,
        router=router,
        latency_fn=latency_fn,
        slo_label=slo_label,
    )
    if stats.mean_latency is None or direct_latency <= 0:
        raise ValueError("latency sampling failed")
    return stats.mean_latency / direct_latency, stats.mean_latency
