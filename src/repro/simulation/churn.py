"""Churn workloads over the dynamic protocol (Section 2.3 in motion).

Drives a :class:`~repro.simulation.protocol.SimulatedCrescendo` with
interleaved joins, graceful leaves, crashes, periodic stabilization and
application lookups on the virtual clock, and reports delivery rates and
protocol traffic.

Two drivers share the event vocabulary: :func:`run_churn` shuffles a
random mix onto the virtual clock, while :func:`run_schedule` replays an
*explicit* :class:`Event` list deterministically — the substrate of the
:mod:`repro.verify` fuzzer, whose failing schedules must replay and
shrink bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..core.hierarchy import DomainPath, lca as _lca
from .protocol import SimulatedCrescendo


@dataclass
class ChurnConfig:
    """Event mix for one churn run (counts, not rates: runs are bounded)."""

    joins: int = 50
    leaves: int = 25
    crashes: int = 10
    lookups: int = 200
    #: stabilization rounds interleaved through the run.
    stabilize_rounds: int = 5
    duration: float = 1000.0


@dataclass
class ChurnReport:
    lookups_attempted: int = 0
    lookups_delivered: int = 0
    join_messages: int = 0
    leave_messages: int = 0
    stabilize_messages: int = 0
    lookup_messages: int = 0
    final_population: int = 0
    converged_to_oracle: bool = False
    #: Per delivered lookup: end-to-end latency (ms) and the hierarchy
    #: level of the source/terminal lowest common domain.  Populated only
    #: when :func:`run_churn` is given a latency oracle.
    lookup_ms: List[float] = field(default_factory=list)
    lookup_levels: List[int] = field(default_factory=list)

    @property
    def delivery_rate(self) -> float:
        if not self.lookups_attempted:
            return 1.0
        return self.lookups_delivered / self.lookups_attempted

    def latency_quantile(self, q: float) -> float:
        """Quantile of the delivered-lookup latencies (0.0 without data)."""
        from ..obs.quantiles import percentile

        return percentile(sorted(self.lookup_ms), q)

    @property
    def p50_ms(self) -> float:
        return self.latency_quantile(0.50)

    @property
    def p99_ms(self) -> float:
        return self.latency_quantile(0.99)


def run_churn(
    net: SimulatedCrescendo,
    rng,
    domain_paths: Sequence[DomainPath],
    config: ChurnConfig = ChurnConfig(),
    latency: Optional[Callable[[int, int], float]] = None,
    attach: Optional[Callable[[int], None]] = None,
) -> ChurnReport:
    """Run an interleaved churn schedule; the network must be non-empty.

    Events (joins, leaves, crashes, lookups, stabilize rounds) are shuffled
    onto the virtual clock uniformly over ``config.duration``.  Lookups are
    only counted against nodes alive at lookup time; a lookup is *delivered*
    when it terminates at the live node responsible for the key.

    ``latency`` turns on latency accounting: per delivered lookup, the
    end-to-end milliseconds of its hop path land in
    :attr:`ChurnReport.lookup_ms` (and ``slo.*``-style level tags in
    :attr:`ChurnReport.lookup_levels` — the depth of the source/terminal
    lowest common domain).  Pass a
    :class:`~repro.perf.latency.LatencyTable` to accumulate each path with
    one vectorized gather instead of a Python call per hop, or any
    ``(a, b) -> ms`` callable for the scalar fold — the totals are
    bit-identical either way.  ``attach`` is called with each joining node
    id *before* the join, so a topology latency oracle can attach nodes
    that enter after the initial population.
    """
    if not net.nodes:
        raise ValueError("bootstrap the network before running churn")
    report = ChurnReport()
    path_ms = getattr(latency, "path_ms", None)

    events: List[Tuple[float, int, str]] = []
    for kind, count in (
        ("join", config.joins),
        ("leave", config.leaves),
        ("crash", config.crashes),
        ("lookup", config.lookups),
    ):
        events.extend((rng.random() * config.duration, i, kind) for i in range(count))
    for i in range(config.stabilize_rounds):
        events.append(((i + 1) * config.duration / (config.stabilize_rounds + 1), i, "stab"))
    events.sort()

    for when, _, kind in events:
        live = net.live_view()
        if kind == "join":
            new_id = net.space.random_id(rng)
            while new_id in net.nodes:
                new_id = net.space.random_id(rng)
            path = domain_paths[rng.randrange(len(domain_paths))]
            if attach is not None:
                attach(new_id)
            report.join_messages += net.join(new_id, path)
        elif kind == "leave" and len(live) > 2:
            report.leave_messages += net.leave(rng.choice(live))
        elif kind == "crash" and len(live) > 2:
            net.crash(rng.choice(live))
        elif kind == "stab":
            report.stabilize_messages += net.stabilize()
        elif kind == "lookup" and len(live) >= 2:
            src = rng.choice(live)
            key = net.space.random_id(rng)
            before = net.msgs.stats.counts["lookup"]
            result = net.lookup(src, key)
            report.lookup_messages += net.msgs.stats.counts["lookup"] - before
            report.lookups_attempted += 1
            report.lookups_delivered += bool(result.success)
            if latency is not None and result.success:
                report.lookup_ms.append(
                    path_ms(result.path)
                    if path_ms is not None
                    else result.latency(latency)
                )
                terminal = result.path[-1]
                report.lookup_levels.append(
                    len(_lca(net.nodes[src].path, net.nodes[terminal].path))
                )

    try:
        net.stabilize_to_convergence()
        report.converged_to_oracle = True
    except RuntimeError:
        report.converged_to_oracle = False
    report.final_population = len(net.nodes)
    return report


# ---------------------------------------------------- replayable schedules


@dataclass(frozen=True)
class Event:
    """One deterministic schedule step.

    Replay never draws randomness: joins carry the concrete node id and
    leaf domain; leaves, crashes and lookup sources address a node by
    ``rank`` into the *sorted live id list at execution time*, which stays
    meaningful when a shrinker deletes earlier events.  ``checkpoint``
    marks a quiescent point: the network is stabilized to convergence and
    handed to the caller's callback (the fuzzer runs its invariant
    registry there).
    """

    kind: str  # join | leave | crash | lookup | stabilize | checkpoint | put | get
    #            | kill_domain | partition | heal
    node: Optional[int] = None  # join: the id to add
    #: join: its leaf domain; kill_domain/partition: the domain prefix to
    #: take down (() = everything); heal: revive only this prefix's
    #: suspended nodes (None = all suspended nodes).
    path: Optional[DomainPath] = None
    rank: Optional[int] = None  # leave/crash/lookup/put/get: live-list index
    key: Optional[int] = None  # lookup: the key; put/get: the data key token
    #: put: storage-domain depth — the origin's path truncated to this many
    #: components (0 = global).  Clamped to the origin's actual depth.
    depth: Optional[int] = None

    KINDS = (
        "join", "leave", "crash", "lookup", "stabilize", "checkpoint",
        "put", "get", "kill_domain", "partition", "heal",
    )


@dataclass
class ScheduleReport:
    """Execution counts for one :func:`run_schedule` replay."""

    joins: int = 0
    skipped_joins: int = 0
    leaves: int = 0
    crashes: int = 0
    #: correlated-failure events executed (``kill_domain``) and the nodes
    #: they crashed (the latter are *not* double-counted in ``crashes``).
    domain_kills: int = 0
    killed: int = 0
    #: partition events executed and the nodes they suspended / revived.
    partitions: int = 0
    suspended: int = 0
    heals: int = 0
    revived: int = 0
    lookups_attempted: int = 0
    lookups_delivered: int = 0
    stabilize_rounds: int = 0
    checkpoints: int = 0
    unconverged_checkpoints: int = 0
    final_population: int = 0
    #: Per-lookup (delivered, terminal-node) outcomes in schedule order —
    #: the observable the engine-equivalence oracle compares verbatim.
    lookup_outcomes: List[Tuple[bool, int]] = field(default_factory=list)
    #: Per-lookup hop paths in schedule order: the substrate of the
    #: oracle's latency-equivalence check (identical paths across engines
    #: imply identical latency totals; both are asserted).
    lookup_paths: List[List[int]] = field(default_factory=list)
    #: Data-layer activity (``put`` / ``get`` events; requires a layer).
    puts: int = 0
    data_gets: int = 0
    #: Per-get (key token, value found) outcomes in schedule order.
    data_outcomes: List[Tuple[int, bool]] = field(default_factory=list)
    #: Sorted live ids at each checkpoint, after its stabilization.
    checkpoint_members: List[List[int]] = field(default_factory=list)
    #: Stabilize rounds each checkpoint took to converge (-1: it did not).
    checkpoint_rounds: List[int] = field(default_factory=list)


def run_schedule(
    net: SimulatedCrescendo,
    events: Sequence[Event],
    on_checkpoint: Optional[Callable[[SimulatedCrescendo, int, bool], None]] = None,
    min_population: int = 3,
    data=None,
) -> ScheduleReport:
    """Replay an explicit event list; fully deterministic, no RNG.

    Events that cannot execute are skipped rather than failed — a join of
    an existing id, or a leave/crash that would push the live population
    below ``min_population`` — so shrunk sub-schedules always replay.
    The correlated events honour the same floor: ``kill_domain`` and
    ``partition`` take down a domain subtree node by node (sorted id
    order) and stop early rather than drop the live population below
    ``min_population``; ``heal`` revives whatever is suspended under its
    prefix (everything when the prefix is absent).
    ``on_checkpoint(net, index, converged)`` runs after each checkpoint's
    stabilization; ``converged`` is False when
    :meth:`~repro.simulation.protocol.SimulatedCrescendo.stabilize_to_convergence`
    gave up.

    ``data`` attaches a content layer (a
    :class:`~repro.simulation.data.DataLayer` or
    :class:`~repro.perf.storage.FastDataLayer` registered on ``net``):
    ``put`` events store ``k<token>`` from a rank-addressed live origin
    into its path truncated to ``event.depth``, ``get`` events look the
    token up the same way.  Without a layer both kinds are skipped, so
    schedules stay replayable on bare networks.
    """
    if not net.nodes:
        raise ValueError("bootstrap the network before replaying a schedule")
    report = ScheduleReport()
    for event in events:
        live = net.live_view()
        if event.kind == "join":
            if event.node in net.nodes:
                report.skipped_joins += 1
            else:
                net.join(event.node, event.path)
                report.joins += 1
        elif event.kind == "leave":
            if len(live) > min_population:
                net.leave(live[event.rank % len(live)])
                report.leaves += 1
        elif event.kind == "crash":
            if len(live) > min_population:
                net.crash(live[event.rank % len(live)])
                report.crashes += 1
        elif event.kind == "kill_domain":
            # Correlated regional failure: crash every live node under the
            # prefix (sorted id order), stopping at the population floor.
            prefix = event.path or ()
            depth = len(prefix)
            victims = [n for n in live if net.nodes[n].path[:depth] == prefix]
            report.domain_kills += 1
            remaining = len(live)
            for victim in victims:
                if remaining <= min_population:
                    break
                net.crash(victim)
                report.killed += 1
                remaining -= 1
        elif event.kind == "partition":
            # The prefix's subtree goes dark (state retained; see
            # SimulatedCrescendo.suspend): the reachable side routes
            # around it until a later ``heal`` event revives it.
            prefix = event.path or ()
            depth = len(prefix)
            victims = [n for n in live if net.nodes[n].path[:depth] == prefix]
            report.partitions += 1
            remaining = len(live)
            for victim in victims:
                if remaining <= min_population:
                    break
                net.suspend(victim)
                report.suspended += 1
                remaining -= 1
        elif event.kind == "heal":
            # Revive suspended nodes (all of them, or one prefix's worth).
            # Their ring state is stale until stabilization repairs it —
            # deliberately: scheduling (or omitting) the repair is what
            # the partition/rejoin scenarios and their negative controls
            # exercise.
            report.heals += 1
            for node_id in net.suspended_ids():
                if (
                    event.path is None
                    or net.nodes[node_id].path[: len(event.path)] == event.path
                ):
                    net.revive(node_id)
                    report.revived += 1
        elif event.kind == "lookup":
            if len(live) >= 2:
                src = live[event.rank % len(live)]
                result = net.lookup(src, event.key)
                report.lookups_attempted += 1
                report.lookups_delivered += bool(result.success)
                report.lookup_outcomes.append(
                    (bool(result.success), result.path[-1])
                )
                report.lookup_paths.append(list(result.path))
        elif event.kind == "put":
            if data is not None and live:
                origin = live[event.rank % len(live)]
                origin_path = net.hierarchy.path_of(origin)
                depth = min(event.depth or 0, len(origin_path))
                data.put(
                    origin, f"k{event.key}", f"v{event.key}",
                    origin_path[:depth],
                )
                report.puts += 1
        elif event.kind == "get":
            if data is not None and len(live) >= 2:
                origin = live[event.rank % len(live)]
                value, _route = data.get(origin, f"k{event.key}")
                report.data_gets += 1
                report.data_outcomes.append((event.key, value is not None))
        elif event.kind == "stabilize":
            net.stabilize()
            report.stabilize_rounds += 1
        elif event.kind == "checkpoint":
            try:
                rounds = net.stabilize_to_convergence()
            except RuntimeError:
                rounds = -1
                report.unconverged_checkpoints += 1
            report.checkpoint_rounds.append(rounds)
            report.checkpoint_members.append(list(net.live_view()))
            if on_checkpoint is not None:
                on_checkpoint(net, report.checkpoints, rounds >= 0)
            report.checkpoints += 1
        else:
            raise ValueError(f"unknown event kind {event.kind!r}")
    report.final_population = sum(
        1 for node in net.nodes.values() if node.alive
    )
    return report
