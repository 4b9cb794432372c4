"""Churn study: delivery, maintenance traffic and lookup latency vs churn.

Not a paper figure — the paper treats dynamic maintenance analytically
(§2.3: O(log n) messages per join, leaf sets for departures).  This study
exercises that machinery end-to-end: a 150-node Crescendo absorbs rising
churn (joins + graceful leaves + crashes interleaved with a fixed
stabilization budget) while application lookups run, and we record the
delivery rate, per-join message cost, whether the network converges back
to the static oracle, and — through a small transit-stub topology serving
as the latency oracle — p50/p99 lookup milliseconds under churn.  The
protocol's abstract domain hierarchy (``PATHS``) is unchanged; the
topology only prices hops, with joining nodes attached on the fly.

Run: ``python -m repro.experiments churn --scale smoke``.  With a metrics
registry active (``--metrics``/``--slo``), per-intensity latencies are
recorded as ``slo.*`` instruments under the ``churn.<intensity>`` family.
"""

from __future__ import annotations

from typing import Dict

from ..core.idspace import IdSpace
from ..analysis.tables import Table
from ..obs import metrics as obs_metrics
from ..obs.slo import record_slo
from ..perf.dynamic import make_protocol
from ..simulation.churn import ChurnConfig, run_churn
from ..topology.transit_stub import TopologyParams, TransitStubTopology
from .common import seeded_rng

PATHS = [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y"), ("c", "x")]

INTENSITIES = {
    "light": ChurnConfig(joins=10, leaves=5, crashes=2, lookups=150),
    "moderate": ChurnConfig(joins=40, leaves=20, crashes=8, lookups=150),
    "heavy": ChurnConfig(joins=80, leaves=50, crashes=20, lookups=150),
}

#: Small transit-stub graph (120 routers) — ample stub diversity for a few
#: hundred nodes without the 2040-router all-pairs cost per intensity.
TOPOLOGY_PARAMS = TopologyParams(
    transit_domains=2,
    transit_per_domain=5,
    stub_domains_per_transit=2,
    stub_per_domain=11,
)


def measurements(scale: str = "smoke") -> Dict[str, Dict[str, float]]:
    """intensity -> delivery/traffic/convergence/latency metrics."""
    size = 150 if scale == "smoke" else 400
    registry = obs_metrics.active_registry()
    out: Dict[str, Dict[str, float]] = {}
    for label, config in INTENSITIES.items():
        rng = seeded_rng("churn", label, size)
        space = IdSpace()
        topology = TransitStubTopology(
            TOPOLOGY_PARAMS, rng=seeded_rng("churn-topo", label, size)
        )
        net = make_protocol(space)
        for node_id in space.random_ids(size, rng):
            topology.attach_node(node_id)
            net.join(node_id, PATHS[rng.randrange(len(PATHS))])
        report = run_churn(
            net,
            rng,
            PATHS,
            config,
            latency=topology,
            attach=topology.attach_node,
        )
        if registry is not None:
            record_slo(
                registry,
                f"churn.{label}",
                report.lookups_attempted,
                report.lookups_delivered,
                report.lookup_ms,
                levels=report.lookup_levels,
            )
        total_events = config.joins + config.leaves + config.crashes
        out[label] = {
            "events": float(total_events),
            "delivery_rate": report.delivery_rate,
            "join_msgs_per_join": report.join_messages / max(1, config.joins),
            "stabilize_msgs": float(report.stabilize_messages),
            "converged": float(report.converged_to_oracle),
            "p50_ms": report.p50_ms,
            "p99_ms": report.p99_ms,
        }
    return out


def run(scale: str = "smoke") -> Table:
    """Render the churn-intensity table."""
    data = measurements(scale)
    table = Table(
        "Churn study — delivery, maintenance traffic and latency vs intensity",
        [
            "intensity",
            "events",
            "delivery",
            "msgs/join",
            "stabilize msgs",
            "converged",
            "p50 ms",
            "p99 ms",
        ],
    )
    for label in ("light", "moderate", "heavy"):
        row = data[label]
        table.add_row(
            label,
            int(row["events"]),
            row["delivery_rate"],
            row["join_msgs_per_join"],
            int(row["stabilize_msgs"]),
            bool(row["converged"]),
            row["p50_ms"],
            row["p99_ms"],
        )
    return table
