"""Replay scenarios with oracles attached; build the scenario matrix.

:func:`run_scenario` replays one compiled schedule on both maintenance
engines through :func:`repro.verify.fuzz.lockstep`, the same lockstep the
churn fuzzer uses.  The fast engine runs the full verify battery at every
quiescent checkpoint — live protocol-state audit, static family rebuild
through the invariant registry, scalar-vs-batch routing differential,
durability oracle when a data layer rides along — and the reference
engine runs the protocol-state and durability half.  The two replays must
agree on reports, message counts, final ring state, data holders and
per-lookup latency; any divergence fails the run, negative controls
included.  A post-replay protocol audit of the *final* state, stabilized
or not, is what the partition negative control trips: its schedule ends
right after the ``heal`` event, so the rejoined subtree's stale ring
state is still visible.

Latency is real: every node id the schedule can route through (bootstrap
plus compiled joins) is attached to a seed-derived transit-stub topology
up front, and per-lookup milliseconds come from the cached
:class:`~repro.perf.latency.LatencyTable` vectorized path gather.  With a
metrics registry active, delivered lookups land in the standard ``slo.*``
instruments (scenario name as the label), so ``python -m repro.obs
report`` renders scenario SLOs with no extra plumbing.

:func:`run_matrix` runs a set of catalog scenarios and renders the
scenario summary and scenario x family tables as text, JSON and markdown
— the artifact the nightly CI job publishes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.tables import Table
from ..core.hierarchy import DomainPath, lca
from ..obs import metrics as obs_metrics
from ..obs.quantiles import percentile
from ..obs.slo import record_slo
from ..perf.kernels import batch_route
from ..simulation.churn import Event, ScheduleReport
from ..simulation.protocol import SimulatedCrescendo
from ..topology.transit_stub import TopologyParams, TransitStubTopology
from ..verify.builders import PREFIX_FAMILIES
from ..verify.fuzz import check_protocol_state, lockstep, static_checks
from ..verify.oracles import ProtocolComparison
from ..verify.violations import Violation
from .catalog import CATALOG
from .dsl import ScenarioSpec, bootstrap_placement, bootstrap_scenario, compile_scenario

#: Default matrix families: the six hierarchy families whose member ids
#: the latency table covers.  The prefix families (CAN, Can-Can) route
#: over zone ids, so they get hops-only rows when explicitly requested.
MATRIX_FAMILIES: Tuple[str, ...] = (
    "chord", "crescendo", "symphony", "cacophony", "kademlia", "kandy",
)

#: Router graph for scenario latency: small (104 routers) but the same
#: transit-stub shape and link speeds as the paper-scale topology.
SCENARIO_TOPOLOGY = TopologyParams(
    transit_domains=2,
    transit_per_domain=4,
    stub_domains_per_transit=3,
    stub_per_domain=4,
)


def scenario_latency(
    spec: ScenarioSpec, seed: int, events: Sequence[Event]
) -> Tuple[TransitStubTopology, Dict[int, DomainPath]]:
    """A seed-derived topology with every routable id attached.

    Attachment order is bootstrap ids then join events in schedule order,
    all from one seeded RNG — so identical (spec, seed, events) yield
    bit-identical latencies, and the returned id -> domain-path map covers
    nodes even after the protocol has purged them.
    """
    rng = random.Random(f"scenario-topology:{spec.name}:{seed}")
    topology = TransitStubTopology(SCENARIO_TOPOLOGY, rng)
    node_paths: Dict[int, DomainPath] = {}
    for node_id, path in bootstrap_placement(spec, seed):
        topology.attach_node(node_id)
        node_paths[node_id] = path
    for event in events:
        if event.kind == "join" and event.node not in node_paths:
            topology.attach_node(event.node)
            node_paths[event.node] = event.path
    return topology, node_paths


@dataclass
class FamilyStats:
    """Per-family routing samples and oracle tallies across checkpoints."""

    hops: List[int] = field(default_factory=list)
    ms: List[float] = field(default_factory=list)
    checks: int = 0
    violations: int = 0

    def p99_hops(self) -> float:
        """p99 of the sampled hop counts (0.0 when nothing routed)."""
        return percentile(sorted(self.hops), 0.99)

    def p99_ms(self) -> float:
        """p99 of the sampled per-lookup milliseconds."""
        return percentile(sorted(self.ms), 0.99)


@dataclass
class ScenarioResult:
    """One scenario replay plus everything the oracles observed."""

    spec: ScenarioSpec
    seed: int
    events: List[Event]
    #: both engines' replays and every divergence between them.
    comparison: ProtocolComparison
    #: checkpoint-oracle findings (invariants, routing, durability, state).
    violations: List[Violation]
    #: the post-replay audit of the final (possibly unstabilized) state.
    residual: List[Violation]
    families: Dict[str, FamilyStats]
    lookup_ms: List[float]
    lookup_levels: List[int]

    @property
    def report(self) -> ScheduleReport:
        """The fast engine's replay report."""
        return self.comparison.fast_report

    @property
    def messages(self) -> Dict[str, int]:
        """The fast engine's per-kind message counts, bootstrap included."""
        return dict(self.comparison.fast.msgs.stats.counts)

    @property
    def divergence(self) -> List[Violation]:
        """Engine disagreements (``oracle-protocol`` findings)."""
        return self.comparison.violations

    @property
    def availability(self) -> float:
        if not self.report.lookups_attempted:
            return 1.0
        return self.report.lookups_delivered / self.report.lookups_attempted

    @property
    def message_total(self) -> int:
        return sum(self.messages.values())

    def p99_ms(self) -> float:
        """p99 of the delivered schedule-lookup milliseconds."""
        return percentile(sorted(self.lookup_ms), 0.99)

    @property
    def findings(self) -> int:
        """Checkpoint, final-state and engine-divergence findings."""
        return len(self.violations) + len(self.residual) + len(self.divergence)

    @property
    def failed(self) -> bool:
        return bool(self.findings)

    @property
    def ok(self) -> bool:
        """Did the run match the spec's expectation (clean, or tripped)?

        A divergence between the engines is never expected, not even on
        a negative control.
        """
        return not self.divergence and self.failed == self.spec.expect_violations

    def to_dict(self) -> Dict[str, object]:
        """The JSON-artifact row for this replay."""
        return {
            "scenario": self.spec.name,
            "seed": self.seed,
            "events": len(self.events),
            "population": self.report.final_population,
            "availability": self.availability,
            "lookups_attempted": self.report.lookups_attempted,
            "lookups_delivered": self.report.lookups_delivered,
            "messages": self.message_total,
            "messages_by_kind": dict(sorted(self.messages.items())),
            "p99_ms": self.p99_ms(),
            "checkpoint_violations": len(self.violations),
            "residual_violations": len(self.residual),
            "engine_divergences": len(self.divergence),
            "expect_violations": self.spec.expect_violations,
            "ok": self.ok,
            "families": {
                name: {
                    "p99_hops": stats.p99_hops(),
                    "p99_ms": stats.p99_ms(),
                    "checks": stats.checks,
                    "violations": stats.violations,
                }
                for name, stats in sorted(self.families.items())
            },
        }


def run_scenario(
    spec: ScenarioSpec,
    seed: int = 0,
    families: Sequence[str] = MATRIX_FAMILIES,
    routing_pairs: int = 12,
    events: Optional[Sequence[Event]] = None,
    latency: bool = True,
    slo_label: Optional[str] = None,
) -> ScenarioResult:
    """Replay one scenario on both engines in lockstep, oracles attached.

    ``events`` overrides the compiled schedule (fixture replay, shrunk
    sub-schedules); ``latency=False`` skips the topology attach and all
    millisecond accounting (hops and oracles still run).  ``slo_label``
    overrides the scenario name as the ``slo.*`` instrument label.
    """
    event_list = (
        compile_scenario(spec, seed) if events is None else list(events)
    )
    table = None
    node_paths: Dict[int, DomainPath] = {}
    if latency:
        topology, node_paths = scenario_latency(spec, seed, event_list)
        table = topology.latency_table()
    stats = {family: FamilyStats() for family in families}

    def statics(net: SimulatedCrescendo, index: int) -> List[Violation]:
        rng = random.Random(f"scenario-checkpoint:{spec.name}:{seed}:{index}")
        out: List[Violation] = []
        for family, static, pairs, found in static_checks(
            net, families, routing_pairs, rng
        ):
            fam = stats[family]
            fam.checks += 1
            fam.violations += len(found)
            out.extend(found)
            if not pairs:
                continue
            hop_table = None if family in PREFIX_FAMILIES else table
            batch = batch_route(static, pairs, paths=True, latency=hop_table)
            for idx, route in enumerate(batch.routes()):
                if not route.success:
                    continue
                fam.hops.append(len(route.path) - 1)
                if hop_table is not None:
                    fam.ms.append(float(batch.latency_ms[idx]))
        return out

    comparison, violations = lockstep(
        lambda engine: bootstrap_scenario(spec, seed, engine=engine),
        event_list,
        statics,
        spec.data_replicas,
        latency=table,
    )
    report = comparison.fast_report
    lookup_ms: List[float] = []
    lookup_levels: List[int] = []
    direct_ms: List[float] = []
    if table is not None:
        for (delivered, _terminal), path in zip(
            report.lookup_outcomes, report.lookup_paths
        ):
            if not delivered:
                continue
            lookup_ms.append(table.path_ms(path))
            src, terminal = path[0], path[-1]
            lookup_levels.append(
                len(lca(node_paths[src], node_paths[terminal]))
            )
            direct_ms.append(table.node_latency(src, terminal))
    result = ScenarioResult(
        spec=spec,
        seed=seed,
        events=event_list,
        comparison=comparison,
        violations=violations,
        residual=check_protocol_state(comparison.fast),
        families=stats,
        lookup_ms=lookup_ms,
        lookup_levels=lookup_levels,
    )
    registry = obs_metrics.active_registry()
    if registry is not None:
        record_slo(
            registry,
            slo_label or spec.name,
            report.lookups_attempted,
            report.lookups_delivered,
            lookup_ms,
            direct_ms,
            lookup_levels,
        )
    return result


# -------------------------------------------------------------- the matrix


@dataclass
class MatrixResult:
    """Every scenario's result plus the rendered artifact tables."""

    scale: str
    seed: int
    results: Dict[str, ScenarioResult]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results.values())

    def summary_table(self) -> Table:
        """One row per scenario: availability, cost, p99, status."""
        table = Table(
            f"Scenario matrix (scale={self.scale} seed={self.seed})",
            (
                "scenario", "events", "pop", "avail", "p99 ms",
                "messages", "violations", "status",
            ),
        )
        for name, r in self.results.items():
            status = "ok" if r.ok else "FAIL"
            if r.spec.expect_violations and r.ok:
                status = "tripped (expected)"
            table.add_row(
                name,
                len(r.events),
                r.report.final_population,
                f"{r.availability:.3f}",
                r.p99_ms(),
                r.message_total,
                r.findings,
                status,
            )
        return table

    def family_table(self) -> Table:
        """One row per scenario x family: p99 hops/ms, oracle tallies."""
        table = Table(
            "Scenario x family routing (per-checkpoint rebuild samples)",
            ("scenario", "family", "p99 hops", "p99 ms", "violations"),
        )
        for name, r in self.results.items():
            for family, stats in sorted(r.families.items()):
                table.add_row(
                    name,
                    family,
                    stats.p99_hops(),
                    stats.p99_ms(),
                    stats.violations,
                )
        return table

    def to_dict(self) -> Dict[str, object]:
        """The full matrix document (what the JSON artifact contains)."""
        return {
            "scale": self.scale,
            "seed": self.seed,
            "ok": self.ok,
            "scenarios": {
                name: r.to_dict() for name, r in self.results.items()
            },
        }

    def to_json(self, indent: int = 2) -> str:
        """The matrix document as JSON text."""
        import json

        return json.dumps(self.to_dict(), indent=indent)

    def to_markdown(self) -> str:
        """Both tables plus verdicts as a markdown artifact."""
        lines = [
            "# Scenario matrix",
            "",
            f"scale `{self.scale}` · seed `{self.seed}` · overall: "
            + ("**ok**" if self.ok else "**FAILED**"),
            "",
            self.summary_table().to_markdown(),
            "",
            self.family_table().to_markdown(),
        ]
        return "\n".join(lines) + "\n"

    def render(self) -> str:
        """Both tables as aligned terminal text."""
        return (
            self.summary_table().render()
            + "\n\n"
            + self.family_table().render()
        )


def run_matrix(
    names: Optional[Sequence[str]] = None,
    scale: str = "smoke",
    seed: int = 0,
    families: Sequence[str] = MATRIX_FAMILIES,
    routing_pairs: int = 12,
    latency: bool = True,
) -> MatrixResult:
    """Run catalog scenarios and collect the matrix artifact."""
    if names is None:
        names = list(CATALOG)
    unknown = [n for n in names if n not in CATALOG]
    if unknown:
        raise ValueError(
            f"unknown scenarios {unknown} (known: {', '.join(CATALOG)})"
        )
    results = {
        name: run_scenario(
            CATALOG[name](scale),
            seed=seed,
            families=families,
            routing_pairs=routing_pairs,
            latency=latency,
        )
        for name in names
    }
    return MatrixResult(scale=scale, seed=seed, results=results)
