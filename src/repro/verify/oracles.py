"""Differential oracles: reference vs. fast-path equivalence as a library.

Two harnesses, both returning structured violations so any test, CLI or
fuzzer checkpoint can call them:

- :func:`compare_builders` builds the same network twice — scalar
  reference (``build_reference()``) vs. bulk numpy path (``build()``) —
  and compares the results.  Deterministic families compare link tables
  exactly, as the two builds' CSRs; randomized Kademlia/Kandy consume
  randomness in a different order, so they compare every RNG-independent
  output exactly instead (degree sequences, ``contact_depth``).  Both
  builds also pass
  :meth:`~repro.core.network.DHTNetwork.check_links_valid`.

- :func:`compare_routing` routes identical (source, key) pairs — with an
  optional alive-set — through the scalar engines of
  :mod:`repro.core.routing` and the batch kernels of
  :mod:`repro.perf.kernels`, and requires hop-for-hop agreement (and,
  with a latency table, bit-for-bit latency totals).

- :func:`compare_protocols` replays one churn schedule through the
  reference and fast dynamic-maintenance engines
  (:class:`~repro.simulation.protocol.SimulatedCrescendo` vs.
  :class:`~repro.perf.dynamic.FastSimulatedCrescendo`) and requires
  identical delivery outcomes, identical per-kind message counts and
  identical final protocol state (link tables, leaf sets, predecessors).
  Its judging half, :func:`compare_replays`, also serves
  :func:`repro.verify.fuzz.lockstep`, through which the churn fuzzer and
  the scenario zoo run every schedule; given both engines' data layers,
  it also compares their final holders.

- :func:`compare_storage` drives one deterministic mixed-domain put/get
  workload (:func:`storage_workload`) through the scalar hierarchical
  store and through the vectorized data plane of
  :mod:`repro.perf.storage` (bulk placement + batch get), and requires
  identical placements, identical internal store state and field-for-field
  identical :class:`~repro.storage.store.SearchResult` outcomes — with a
  latency table, bit-identical overlay milliseconds too.

- :func:`check_durability` (with its :class:`DurabilityMonitor` listener)
  is the data-layer durability oracle for churn schedules: no acknowledged
  write goes lost without a crash or a domain-emptying departure to blame,
  holders re-converge to the desired replica run at every quiescent point,
  and copies never escape their storage domain.

When a :mod:`repro.obs.metrics` registry is active, ``verify.checks`` and
``verify.violations`` count oracle runs and findings.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.hierarchy import DomainPath, is_ancestor
from ..core.idspace import predecessor_index
from ..core.network import DHTNetwork, LinkTableError
from ..core.routing import route
from ..obs import metrics as obs_metrics
from ..perf.kernels import batch_route
from ..perf.latency import LatencyTable
from ..simulation.churn import Event, ScheduleReport, run_schedule
from ..simulation.protocol import SimulatedCrescendo
from .violations import InvariantViolationError, Violation

# ------------------------------------------------------- builder equivalence


@dataclass
class BuildComparison:
    """Both builds plus every disagreement found between them."""

    ref: DHTNetwork
    bulk: DHTNetwork
    violations: List[Violation] = field(default_factory=list)

    @property
    def equivalent(self) -> bool:
        return not self.violations

    def raise_on_violations(self) -> "BuildComparison":
        """Raise :class:`InvariantViolationError` unless equivalent."""
        if self.violations:
            raise InvariantViolationError(self.violations)
        return self


def _count_check(extra_violations: int) -> None:
    registry = obs_metrics.active_registry()
    if registry is not None:
        registry.counter("verify.checks").inc()
        if extra_violations:
            registry.counter("verify.violations").inc(extra_violations)


def _table_differences(
    ref: DHTNetwork,
    bulk: DHTNetwork,
    violation: Callable[..., Violation],
    max_reported: int,
) -> List[Violation]:
    """One violation per node whose link set differs, compared as CSRs.

    Only the rows of the nodes named are turned into ids.  A table with a
    link to no node has no CSR, and one whose rows repeat or run out of
    order is not a set; the validity check reports both.
    """
    try:
        tables = ref.link_csr(), bulk.link_csr()
    except ValueError:
        return []
    n = ref.size
    keys = [np.repeat(np.arange(n), np.diff(ptr)) * n + pos for ptr, pos in tables]
    rows = np.unique(np.setxor1d(*keys) // n).tolist()
    ids = ref.node_ids
    out = []
    for row in rows[:max_reported]:
        want, have = (
            {ids[p] for p in pos[ptr[row] : ptr[row + 1]].tolist()}
            for ptr, pos in tables
        )
        out.append(
            violation(
                f"link tables differ (bulk missing {sorted(want - have)[:4]}, "
                f"extra {sorted(have - want)[:4]})",
                node=ids[row],
            )
        )
    if len(rows) > max_reported:
        out.append(violation("... further differing nodes suppressed"))
    return out


def compare_builders(
    factory: Callable[[], DHTNetwork],
    exact: bool = True,
    side_attrs: Sequence[str] = (),
    compare_degrees: bool = False,
    max_reported: int = 20,
) -> BuildComparison:
    """Compare ``factory().build_reference()`` with ``factory().build()``.

    ``factory`` takes no arguments and returns a fresh unbuilt network whose
    input has a bulk form, so ``build()`` must take the bulk path (checked
    through ``built_with``).  With ``exact`` the link tables must match
    node-for-node (:func:`_table_differences`).  A randomized build draws
    in another order than its reference, so it compares with ``exact``
    off and ``compare_degrees`` (exact degree sequences) on.
    ``side_attrs`` names attributes that must compare equal either way
    (e.g. ``("gap",)``, or ``("contact_depth",)`` for randomized Kandy).
    """
    ref = factory().build_reference()
    bulk = factory().build()
    family = getattr(bulk, "family", "network")

    def violation(message: str, **kw) -> Violation:
        return Violation(check="oracle-build", family=family, message=message, **kw)

    out: List[Violation] = []
    if ref.built_with != "python":
        out.append(violation(f"reference build took the {ref.built_with} path"))
    if bulk.built_with != "numpy":
        out.append(violation(f"bulk build took the {bulk.built_with} path"))
    same_population = ref.node_ids == bulk.node_ids
    if not same_population:
        out.append(violation("builds disagree on the node population"))
    elif exact:
        out.extend(_table_differences(ref, bulk, violation, max_reported))
    for net, label in ((ref, "reference"), (bulk, "bulk")):
        try:
            net.check_links_valid()
        except LinkTableError as err:
            out.append(
                violation(
                    f"{label} build has an invalid link table: {err.reason}",
                    node=err.node,
                    link=err.link,
                )
            )
    if same_population and compare_degrees and ref.degrees() != bulk.degrees():
        out.append(violation("degree sequences differ"))
    for attr in side_attrs:
        if getattr(ref, attr) != getattr(bulk, attr):
            out.append(violation(f"rng-independent side output {attr!r} differs"))
    _count_check(len(out))
    return BuildComparison(ref=ref, bulk=bulk, violations=out)


# ------------------------------------------------------ protocol equivalence


@dataclass
class ProtocolComparison:
    """Both engines' replays plus every disagreement found between them."""

    ref: SimulatedCrescendo
    fast: SimulatedCrescendo
    ref_report: ScheduleReport
    fast_report: ScheduleReport
    violations: List[Violation] = field(default_factory=list)

    @property
    def equivalent(self) -> bool:
        return not self.violations


def compare_protocols(
    factory: Callable[[str], SimulatedCrescendo],
    events: Sequence[Event],
    max_reported: int = 20,
    latency: Optional[LatencyTable] = None,
) -> ProtocolComparison:
    """Replay one schedule through both maintenance engines and compare.

    ``factory`` receives an engine name (``"reference"`` or ``"fast"``) and
    returns a bootstrapped network; both instances then replay ``events``
    via :func:`~repro.simulation.churn.run_schedule`, and
    :func:`compare_replays` judges the pair.
    """
    ref, fast = factory("reference"), factory("fast")
    ref_report = run_schedule(ref, list(events))
    fast_report = run_schedule(fast, list(events))
    return compare_replays(ref, ref_report, fast, fast_report, max_reported, latency)


def compare_replays(
    ref: SimulatedCrescendo,
    ref_report: ScheduleReport,
    fast: SimulatedCrescendo,
    fast_report: ScheduleReport,
    max_reported: int = 20,
    latency: Optional[LatencyTable] = None,
    data: Optional[Tuple[object, object]] = None,
) -> ProtocolComparison:
    """Judge a reference and a fast engine's replay of the same schedule.

    Equivalence demands:

    - identical replay reports, including every per-lookup
      (delivered, terminal node) outcome and hop path and the live
      membership at every checkpoint;
    - identical per-kind protocol message counts;
    - identical final protocol state: live membership, link tables, and
      per-level leaf sets and predecessor pointers;
    - with a ``latency`` table (covering every id the schedule can
      route through): bit-identical per-lookup latency totals, computing
      the reference side with the scalar per-hop fold and the fast side
      with the table's vectorized gather — the engine-parity contract of
      the fused latency accumulator;
    - with ``data``, a (reference, fast) pair of data layers: identical
      final holders for every key, and so identical lost keys.
    """

    def violation(message: str, **kw) -> Violation:
        return Violation(
            check="oracle-protocol", family="protocol", message=message, **kw
        )

    out: List[Violation] = []
    if ref.engine != "reference":
        out.append(violation(f"reference side ran the {ref.engine} engine"))
    if fast.engine != "fast":
        out.append(violation(f"fast side ran the {fast.engine} engine"))
    for field_name, ref_value in dataclasses.asdict(ref_report).items():
        fast_value = getattr(fast_report, field_name)
        if ref_value != fast_value:
            out.append(
                violation(
                    f"replay reports disagree on {field_name}: "
                    f"reference {ref_value!r} vs fast {fast_value!r}"
                )
            )
    if latency is not None:
        for idx, (ref_path, fast_path) in enumerate(
            zip(ref_report.lookup_paths, fast_report.lookup_paths)
        ):
            if ref_path != fast_path:
                continue  # path divergence is already reported above
            ref_ms = sum(
                latency.node_latency(a, b)
                for a, b in zip(ref_path, ref_path[1:])
            )
            fast_ms = latency.path_ms(fast_path)
            if ref_ms != fast_ms:
                out.append(
                    violation(
                        f"lookup {idx}: reference latency {ref_ms!r} ms vs "
                        f"fast vectorized {fast_ms!r} ms"
                    )
                )
    ref_counts = dict(ref.msgs.stats.counts)
    fast_counts = dict(fast.msgs.stats.counts)
    for kind in sorted(set(ref_counts) | set(fast_counts)):
        a, b = ref_counts.get(kind, 0), fast_counts.get(kind, 0)
        if a != b:
            out.append(
                violation(
                    f"message counts disagree for {kind!r}: "
                    f"reference {a} vs fast {b}"
                )
            )
    if data is not None:
        ref_holders, fast_holders = data[0].holders, data[1].holders
        differing = [
            key_hash
            for key_hash in sorted(set(ref_holders) | set(fast_holders))
            if ref_holders.get(key_hash) != fast_holders.get(key_hash)
        ]
        for key_hash in differing[:max_reported]:
            out.append(
                violation(
                    f"data holders of key {key_hash} disagree: reference "
                    f"{ref_holders.get(key_hash)} vs fast "
                    f"{fast_holders.get(key_hash)}"
                )
            )
    ref_links = ref.static_links()
    fast_links = fast.static_links()
    if set(ref_links) != set(fast_links):
        out.append(violation("engines disagree on the live membership"))
    else:
        reported = 0
        for node_id in sorted(ref_links):
            if ref_links[node_id] != fast_links[node_id]:
                out.append(
                    violation("final link tables differ", node=node_id)
                )
                reported += 1
            else:
                ref_node = ref.nodes[node_id]
                fast_node = fast.nodes[node_id]
                for depth in range(ref_node.leaf_depth + 1):
                    a, b = ref_node.rings[depth], fast_node.rings[depth]
                    if a.successors != b.successors or a.predecessor != b.predecessor:
                        out.append(
                            violation(
                                "final ring state differs",
                                node=node_id,
                                level=depth,
                            )
                        )
                        reported += 1
                        break
            if reported >= max_reported:
                out.append(violation("... further differing nodes suppressed"))
                break
    _count_check(len(out))
    return ProtocolComparison(
        ref=ref,
        fast=fast,
        ref_report=ref_report,
        fast_report=fast_report,
        violations=out,
    )


# ------------------------------------------------------- routing equivalence


def compare_routing(
    network: DHTNetwork,
    pairs: Sequence[Tuple[int, int]],
    alive: Optional[Set[int]] = None,
    max_reported: int = 20,
    latency: Optional["LatencyTable"] = None,
) -> List[Violation]:
    """Scalar engines vs. batch kernels on identical inputs, hop-for-hop.

    Routes every (source, key) pair through
    :func:`repro.core.routing.route` and through
    :func:`repro.perf.kernels.batch_route` (same optional alive-set) and
    reports any disagreement in success flag, terminal node or the exact
    hop sequence.  With a ``latency`` table, additionally demands that the
    kernels' fused per-hop latency accumulator reproduces the scalar
    ``Route.latency`` fold bit-for-bit on every route.
    """
    family = getattr(network, "family", "network")
    out: List[Violation] = []
    batch = batch_route(network, pairs, alive=alive, paths=True, latency=latency)
    for idx, ((src, key), fast) in enumerate(zip(pairs, batch.routes())):
        slow = route(network, src, key, alive=alive)
        if latency is not None and slow.path == fast.path:
            slow_ms = slow.latency(latency.node_latency)
            fast_ms = float(batch.latency_ms[idx])
            if slow_ms != fast_ms:
                out.append(
                    Violation(
                        check="oracle-routing",
                        family=family,
                        message=(
                            f"route {src}->{key}: scalar latency {slow_ms!r} ms "
                            f"but batch accumulated {fast_ms!r} ms"
                        ),
                        node=src,
                    )
                )
        if slow.success != fast.success:
            out.append(
                Violation(
                    check="oracle-routing",
                    family=family,
                    message=(
                        f"route {src}->{key}: scalar success={slow.success} "
                        f"but batch success={fast.success}"
                    ),
                    node=src,
                )
            )
        elif slow.path != fast.path:
            hop = next(
                (i for i, (a, b) in enumerate(zip(slow.path, fast.path)) if a != b),
                min(len(slow.path), len(fast.path)),
            )
            out.append(
                Violation(
                    check="oracle-routing",
                    family=family,
                    message=(
                        f"route {src}->{key} diverges at hop {hop}: scalar "
                        f"{slow.path[hop:hop + 2]} vs batch {fast.path[hop:hop + 2]}"
                    ),
                    node=src,
                    level=hop,
                )
            )
        if len(out) >= max_reported:
            out.append(
                Violation(
                    check="oracle-routing",
                    family=family,
                    message="... further route disagreements suppressed",
                )
            )
            break
    _count_check(len(out))
    return out


# ------------------------------------------------------- storage equivalence


def storage_workload(
    network: DHTNetwork,
    rng: random.Random,
    puts: int = 64,
    gets: int = 128,
    max_depth: Optional[int] = None,
) -> Tuple[List[Tuple], List[Tuple[int, object]]]:
    """A deterministic mixed-domain put/get workload over a built network.

    Put operations are ``(origin, key, value, storage_domain,
    access_domain)`` tuples: the storage domain is a random-length prefix of
    the origin's hierarchy path (clamped to ``max_depth`` when given) and
    the access domain a random-length prefix of the storage domain — every
    legal pair, including the pointer-producing ones.  Get operations are
    ``(origin, key)`` with 80% of keys drawn from the puts and the rest
    guaranteed absent.
    """
    ids = list(network.node_ids)
    hierarchy = network.hierarchy
    put_ops: List[Tuple] = []
    for i in range(puts):
        origin = ids[rng.randrange(len(ids))]
        path = hierarchy.path_of(origin)
        depth = len(path) if max_depth is None else min(max_depth, len(path))
        storage_domain = path[: rng.randrange(depth + 1)]
        access_domain = storage_domain[: rng.randrange(len(storage_domain) + 1)]
        put_ops.append(
            (origin, f"key-{i}", f"value-{i}", storage_domain, access_domain)
        )
    get_ops: List[Tuple[int, object]] = []
    for i in range(gets):
        origin = ids[rng.randrange(len(ids))]
        if put_ops and rng.random() < 0.8:
            key = put_ops[rng.randrange(len(put_ops))][1]
        else:
            key = f"absent-{i}"
        get_ops.append((origin, key))
    return put_ops, get_ops


def compare_storage(
    network: DHTNetwork,
    puts: int = 64,
    gets: int = 128,
    replicas: Optional[int] = None,
    latency: Optional[LatencyTable] = None,
    rng: Optional[random.Random] = None,
    max_reported: int = 20,
) -> List[Violation]:
    """Scalar store vs. vectorized data plane on one workload, bit-for-bit.

    Runs :func:`storage_workload` twice over two fresh stores on the same
    network: the reference side as a sequence of scalar
    :meth:`~repro.storage.store.HierarchicalStore.put` /
    :meth:`~repro.storage.store.HierarchicalStore.get` calls, the fast side
    through :func:`repro.perf.storage.bulk_put` (one call per domain pair,
    first-occurrence order) and :meth:`repro.perf.storage.CompiledStore.batch_get`.
    Equivalence demands identical placements (homes, pointer nodes, replica
    sets when ``replicas`` is given), identical internal item/pointer state,
    and per-get identical values, path, found_at, via_pointer, pointer_hops
    and content_node — plus, with a ``latency`` table, bit-identical overlay
    milliseconds against :func:`repro.perf.storage.scalar_search_latency`.

    The prefix families (CAN, Can-Can) pin domains to the root: their
    ``responsible_node`` is zone containment over a partition of the full
    ring (identical to the predecessor rule there), but a proper sub-domain
    of zones does not cover the keyspace, so domain-scoped placement is
    undefined for them in the scalar store too.
    """
    from ..perf.storage import (
        CompiledStore,
        bulk_put,
        bulk_put_replicated,
        scalar_search_latency,
    )
    from ..storage.replication import ReplicatedStore
    from ..storage.store import HierarchicalStore
    from .builders import PREFIX_FAMILIES

    family = getattr(network, "family", "network")
    rng = rng if rng is not None else random.Random(f"storage-oracle:{family}")
    max_depth = 0 if family in PREFIX_FAMILIES else None
    put_ops, get_ops = storage_workload(
        network, rng, puts=puts, gets=gets, max_depth=max_depth
    )

    def violation(message: str, **kw) -> Violation:
        return Violation(
            check="oracle-storage", family=family, message=message, **kw
        )

    out: List[Violation] = []
    ref_store = HierarchicalStore(network)
    bulk_store = HierarchicalStore(network)
    ref_rep = ReplicatedStore(ref_store, replicas) if replicas else None
    bulk_rep = ReplicatedStore(bulk_store, replicas) if replicas else None

    scalar_returns = []
    for origin, key, value, storage_domain, access_domain in put_ops:
        target = ref_rep if ref_rep is not None else ref_store
        scalar_returns.append(
            target.put(origin, key, value, storage_domain, access_domain)
        )

    # Bulk side: one call per (storage, access) pair in first-occurrence
    # order; with unique keys the per-bucket append order is unchanged, so
    # the stores must end up dict-identical.
    groups: Dict[Tuple[DomainPath, DomainPath], List[int]] = {}
    for idx, op in enumerate(put_ops):
        groups.setdefault((op[3], op[4]), []).append(idx)
    for (storage_domain, access_domain), rows in groups.items():
        origins = [put_ops[i][0] for i in rows]
        keys = [put_ops[i][1] for i in rows]
        values = [put_ops[i][2] for i in rows]
        if bulk_rep is not None:
            plan = bulk_put_replicated(
                bulk_rep, origins, keys, values, storage_domain, access_domain
            )
        else:
            plan = bulk_put(
                bulk_store, origins, keys, values, storage_domain, access_domain
            )
        for j, i in enumerate(rows):
            if bulk_rep is not None:
                planned = plan.replica_sets[j].tolist()
            else:
                pointer = (
                    int(plan.pointer_nodes[j])
                    if plan.pointer_nodes is not None
                    else None
                )
                planned = (int(plan.homes[j]), pointer)
            if planned != scalar_returns[i] and len(out) < max_reported:
                out.append(
                    violation(
                        f"put {keys[j]!r}: scalar placed {scalar_returns[i]!r} "
                        f"but the vectorized plan says {planned!r}",
                        node=origins[j],
                    )
                )
    if ref_store._items != bulk_store._items:
        out.append(
            violation("bulk puts left different items than the scalar sequence")
        )
    if ref_store._pointers != bulk_store._pointers:
        out.append(
            violation("bulk puts left different pointers than the scalar sequence")
        )
    if ref_rep is not None and ref_rep.replica_sets != bulk_rep.replica_sets:
        out.append(violation("replica sets differ between scalar and bulk puts"))

    compiled = CompiledStore(bulk_store)
    batch = compiled.batch_get(
        [op[0] for op in get_ops], [op[1] for op in get_ops], latency=latency
    )
    reader = ref_rep if ref_rep is not None else ref_store
    for idx, ((origin, key), fast) in enumerate(zip(get_ops, batch.results())):
        slow = reader.get(origin, key)
        for field_name in (
            "values", "path", "found_at", "via_pointer",
            "pointer_hops", "content_node",
        ):
            a, b = getattr(slow, field_name), getattr(fast, field_name)
            if a != b:
                out.append(
                    violation(
                        f"get {key!r} from {origin}: {field_name} scalar "
                        f"{a!r} vs batch {b!r}",
                        node=origin,
                    )
                )
        if latency is not None and slow.path == fast.path:
            slow_ms = scalar_search_latency(network, latency, slow)
            fast_ms = float(batch.latency_ms[idx])
            if slow_ms != fast_ms:
                out.append(
                    violation(
                        f"get {key!r}: scalar latency {slow_ms!r} ms vs "
                        f"batch accumulated {fast_ms!r} ms",
                        node=origin,
                    )
                )
        if len(out) >= max_reported:
            out.append(violation("... further storage disagreements suppressed"))
            break
    _count_check(len(out))
    return out


# --------------------------------------------------------------- durability


class DurabilityMonitor:
    """Listener classifying data-layer key losses as legitimate or not.

    Register *after* the data layer on the same network, so every hook
    observes the layer's post-handoff / post-rebalance holder state.  An
    acknowledged write may legitimately go lost only when

    - at least one **crash** happened since the last repair opportunity
      (crash faults can destroy every copy before stabilization runs), or
    - a **graceful departure emptied the key's storage domain** (content is
      pinned inside its domain and cannot follow the leaver out).

    Any other transition to the lost state is recorded as an
    ``oracle-durability`` violation; :func:`check_durability` drains them
    at the next quiescent point.
    """

    def __init__(self, net: SimulatedCrescendo, data) -> None:
        self.net = net
        self.data = data
        self.crashes_since_repair = 0
        self.known_lost: Set[int] = set()
        self.violations: List[Violation] = []
        net.listeners.append(self)

    def drain(self) -> List[Violation]:
        """Collected violations since the last drain (clears the buffer)."""
        out, self.violations = self.violations, []
        return out

    def _newly_lost(self) -> List[int]:
        fresh = [
            kh
            for kh, holders in self.data.holders.items()
            if not holders and kh not in self.known_lost
        ]
        self.known_lost.update(fresh)
        return fresh

    def _flag(self, key_hash: int, message: str) -> None:
        self.violations.append(
            Violation(check="oracle-durability", family="data", message=message)
        )

    # ------------------------------------------------------------- listeners

    def node_joined(self, node_id: int) -> None:
        """A join rebalance may never lose a key absent unrepaired crashes."""
        for kh in self._newly_lost():
            if self.crashes_since_repair == 0:
                self._flag(
                    kh,
                    f"key {self.data.items[kh].key!r} went lost at a join "
                    f"rebalance with no crash since the last repair",
                )
        self.crashes_since_repair = 0

    def node_leaving(self, node_id: int) -> None:
        """A graceful departure may only lose keys whose domain it empties."""
        for kh in self._newly_lost():
            domain = self.data.items[kh].storage_domain
            survivors = [
                n
                for n in self.net.hierarchy.members(domain)
                if n != node_id and self.net.nodes[n].alive
            ]
            if survivors:
                self._flag(
                    kh,
                    f"key {self.data.items[kh].key!r} went lost on the "
                    f"graceful departure of {node_id} although domain "
                    f"{domain!r} still has {len(survivors)} live members",
                )

    def node_crashed(self, node_id: int) -> None:
        """Crashes legitimize losses until the next repair-bearing event."""
        self.crashes_since_repair += 1

    def stabilized(self) -> None:
        """A stabilization repair may only lose crash-orphaned keys."""
        for kh in self._newly_lost():
            if self.crashes_since_repair == 0:
                self._flag(
                    kh,
                    f"key {self.data.items[kh].key!r} went lost at "
                    f"stabilization with no crash since the last repair",
                )
        self.crashes_since_repair = 0


def check_durability(
    net: SimulatedCrescendo,
    data,
    monitor: Optional[DurabilityMonitor] = None,
    max_reported: int = 20,
) -> List[Violation]:
    """Quiescent-point durability oracle over a data layer.

    Drains the monitor's loss classifications, then demands for every
    non-lost key: all holders alive, all holders inside the key's storage
    domain (domain scoping survives churn and migration), and the holder
    list exactly equal to the recomputed desired replica run (responsible
    node + ring predecessors over the live domain members) — i.e. repair
    has re-converged.  Call at a stabilized point (the layer rebalances on
    the ``stabilized`` hook), as the fuzzer's checkpoints do.
    """
    out: List[Violation] = [] if monitor is None else monitor.drain()

    def violation(message: str, **kw) -> Violation:
        return Violation(
            check="oracle-durability", family="data", message=message, **kw
        )

    live = {n for n, node in net.nodes.items() if node.alive}
    members_cache: Dict[DomainPath, List[int]] = {}
    reported = 0
    for key_hash, holders in data.holders.items():
        if not holders:
            continue  # lost keys are the monitor's business
        item = data.items[key_hash]
        domain = item.storage_domain
        members = members_cache.get(domain)
        if members is None:
            members = sorted(
                n for n in net.hierarchy.members(domain) if n in live
            )
            members_cache[domain] = members
        problems = []
        dead = [h for h in holders if h not in live]
        if dead:
            problems.append(f"dead holders {dead}")
        outside = [
            h
            for h in holders
            if h not in dead and not is_ancestor(domain, net.hierarchy.path_of(h))
        ]
        if outside:
            problems.append(f"holders {outside} outside domain {domain!r}")
        if members:
            start = predecessor_index(members, item.key_hash)
            count = min(data.replicas, len(members))
            desired = [members[(start - i) % len(members)] for i in range(count)]
        else:
            desired = []
        if holders != desired:
            problems.append(f"holders {holders} not re-converged to {desired}")
        if problems:
            out.append(
                violation(
                    f"key {item.key!r}: " + "; ".join(problems),
                )
            )
            reported += 1
            if reported >= max_reported:
                out.append(violation("... further durability findings suppressed"))
                break
    _count_check(len(out))
    return out

# ------------------------------------------------------- serving equivalence


@dataclass
class ServingComparison:
    """Scalar vs. batched serving of one lookup schedule."""

    scalar: List  # AsyncResult completions, scalar-completion order
    report: object  # repro.serve.ServeReport from the batched run
    violations: List[Violation] = field(default_factory=list)

    @property
    def equivalent(self) -> bool:
        return not self.violations

    def raise_on_violations(self) -> "ServingComparison":
        """Raise :class:`InvariantViolationError` unless equivalent."""
        if self.violations:
            raise InvariantViolationError(self.violations)
        return self


def compare_serving(
    factory: Callable[[], SimulatedCrescendo],
    lookups: Sequence[Tuple[int, int]],
    churn: Sequence[Tuple[int, Callable[[SimulatedCrescendo], None]]] = (),
    hop_time: float = 1.0,
    policy=None,
    max_reported: int = 20,
) -> ServingComparison:
    """Scalar ``AsyncEngine`` vs. batched ``ServeRuntime``, same schedule.

    Builds the net twice via ``factory()`` (which must be deterministic and
    leave messages on a constant-``hop_time`` latency model), launches every
    ``(source, key)`` lookup at once on both engines, and requires
    per-lookup agreement on success flag, terminal node and hop count.

    ``churn`` entries are ``(after_ticks, fn)``: each ``fn(net)`` is a
    *synchronous* mutator (e.g. ``net.crash``) applied after the batched
    runtime's tick ``after_ticks`` (ticks count from 1), followed by a view
    recompile.  On the scalar side the same mutator is scheduled at virtual
    time ``(after_ticks - 0.5) * hop_time`` past launch — strictly between
    the message deliveries of hops ``after_ticks`` and ``after_ticks + 1``,
    which is the same point in routing progress: both engines decide hop
    ``k+1`` with post-churn state and hop ``k`` without.  This pins the
    batched frontier stepping to the discrete-event engine hop for hop on
    a *live, churning* network, not just a frozen snapshot.

    ``policy`` (default: no policy) must be outcome-invariant for the
    comparison to make sense — retries with ``retry_alternates`` or finite
    deadlines change outcomes by design and will be reported as
    violations.
    """
    from ..simulation.async_lookup import AsyncEngine
    from ..serve import ServeRuntime, compile_protocol_view
    from ..serve.policy import NO_POLICY

    out: List[Violation] = []

    def violation(message: str, **kw) -> Violation:
        return Violation(
            check="oracle-serving", family="serving", message=message, **kw
        )

    # --- scalar side: all lookups at once, churn on the virtual clock.
    net_a = factory()
    engine = AsyncEngine(net_a)
    for after_ticks, fn in churn:
        if after_ticks < 1:
            raise ValueError("churn entries start at tick 1")
        net_a.sim.schedule(
            (after_ticks - 0.5) * hop_time, (lambda f=fn: f(net_a))
        )
    for src, key in lookups:
        engine.lookup(src, key)
    net_a.sim.run()
    scalar_by_pair: Dict[Tuple[int, int], List[Tuple[bool, int, int]]] = {}
    for result in engine.completed:
        scalar_by_pair.setdefault((result.path[0], result.key), []).append(
            (result.success, result.path[-1], result.hops)
        )

    # --- batched side: same lookups, same churn keyed to tick counts.
    net_b = factory()
    runtime = ServeRuntime(
        *compile_protocol_view(net_b),
        policy=policy if policy is not None else NO_POLICY,
    )
    runtime.submit_many([s for s, _ in lookups], [k for _, k in lookups])
    pending = sorted(churn, key=lambda entry: entry[0])
    ticks = idx = 0
    while runtime.in_flight:
        runtime.tick()
        ticks += 1
        recompiled = False
        while idx < len(pending) and pending[idx][0] == ticks:
            pending[idx][1](net_b)
            idx += 1
            recompiled = True
        if recompiled:
            runtime.set_view(*compile_protocol_view(net_b))
    report = runtime.report()

    if len(engine.completed) != report.size:
        out.append(
            violation(
                f"scalar completed {len(engine.completed)} lookups "
                f"but batched completed {report.size}"
            )
        )
    batched_by_pair: Dict[Tuple[int, int], List[Tuple[bool, int, int]]] = {}
    for src, key, term, hops, success in zip(
        report.sources, report.keys, report.terminals,
        report.hops, report.success,
    ):
        batched_by_pair.setdefault((int(src), int(key)), []).append(
            (bool(success), int(term), int(hops))
        )
    for pair in dict.fromkeys((int(s), int(k)) for s, k in lookups):
        expected = sorted(scalar_by_pair.get(pair, []))
        got = sorted(batched_by_pair.get(pair, []))
        if expected != got:
            out.append(
                violation(
                    f"lookup {pair[0]}->{pair[1]}: scalar "
                    f"(success, terminal, hops) {expected} "
                    f"but batched {got}",
                    node=pair[0],
                )
            )
            if len(out) >= max_reported:
                out.append(
                    violation("... further serving disagreements suppressed")
                )
                break
    _count_check(len(out))
    return ServingComparison(
        scalar=list(engine.completed), report=report, violations=out
    )
