"""Churn workloads over the dynamic protocol (Section 2.3 in motion).

:func:`run_schedule` drives a
:class:`~repro.simulation.protocol.SimulatedCrescendo` through an
explicit :class:`Event` list — interleaved joins, graceful leaves,
crashes, correlated failures, partitions, stabilization, application
lookups and data-layer traffic — deterministically, with no RNG.  Every
churn workload replays through it: the :mod:`repro.verify` fuzzer (whose
failing schedules must replay and shrink bit-for-bit), the scenario zoo
and the churn study, all three through
:func:`repro.verify.fuzz.lockstep`, and the serving scenarios.  Its
:class:`ScheduleReport` counts what executed and what the replay cost,
per message kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.hierarchy import DomainPath
from .protocol import SimulatedCrescendo


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
    #: Protocol messages the replay sent, per kind (checkpoint
    #: stabilization included; whatever the network sent before the
    #: replay, such as its bootstrap, is not).
    messages: Dict[str, int] = field(default_factory=dict)


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
    counts = net.msgs.stats.counts
    before = dict(counts)
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
    report.messages = {
        kind: counts[kind] - before.get(kind, 0)
        for kind in sorted(counts)
        if counts[kind] != before.get(kind, 0)
    }
    return report
