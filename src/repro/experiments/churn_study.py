"""Churn study: delivery, maintenance traffic and lookup latency vs churn.

Not a paper figure — the paper treats dynamic maintenance analytically
(§2.3: O(log n) messages per join, leaf sets for departures).  Each churn
intensity is a :class:`~repro.scenarios.dsl.ScenarioSpec`: a 150-node
(smoke) or 400-node Crescendo over ``PATHS`` absorbs one ``mix`` phase of
joins, leaves, crashes, stabilize rounds and lookups, then a checkpoint.
:func:`~repro.scenarios.runner.run_scenario` replays it on both
maintenance engines in lockstep with the checkpoint battery, pricing each
lookup on a transit-stub topology; any finding raises, naming the
intensity.  Join cost counts ``join_lookup`` + ``join_finger`` messages
per executed join; maintenance counts ``ping`` + ``verify`` +
``refresh_finger`` + ``repair_lookup``.  Joins and stabilization both
send ``notify``, so neither column counts it.

Run: ``python -m repro.experiments churn --scale smoke``.  With a metrics
registry active (``--metrics``/``--slo``), latencies and stretch land in
the ``slo.*`` instruments labelled ``churn.<intensity>``.
"""

from __future__ import annotations

from typing import Dict

from ..analysis.tables import Table
from ..obs.quantiles import percentile
from ..scenarios.dsl import Phase, ScenarioSpec
from ..scenarios.runner import run_scenario
from ..verify.violations import summarize

PATHS = (("a", "x"), ("a", "y"), ("b", "x"), ("b", "y"), ("c", "x"))

#: intensity -> event weights of its ``mix`` phase, which draws as many
#: events as the weights sum to.
INTENSITIES = {
    "light": {"join": 10, "leave": 5, "crash": 2, "lookup": 150, "stabilize": 5},
    "moderate": {"join": 40, "leave": 20, "crash": 8, "lookup": 150, "stabilize": 5},
    "heavy": {"join": 80, "leave": 50, "crash": 20, "lookup": 150, "stabilize": 5},
}

JOIN_KINDS = ("join_lookup", "join_finger")
MAINTENANCE_KINDS = ("ping", "verify", "refresh_finger", "repair_lookup")


def scenario(label: str, scale: str = "smoke") -> ScenarioSpec:
    """One churn intensity as a scenario: a weighted mix, then a checkpoint."""
    weights = INTENSITIES[label]
    return ScenarioSpec(
        name=f"churn_{label}",
        description=f"churn study, {label} intensity",
        population=150 if scale == "smoke" else 400,
        domains=PATHS,
        phases=(
            Phase(
                "mix",
                count=sum(weights.values()),
                weights=Phase.mix_weights(weights),
            ),
            Phase("checkpoint"),
        ),
    )


def measurements(scale: str = "smoke") -> Dict[str, Dict[str, float]]:
    """intensity -> delivery/traffic/convergence/latency metrics."""
    out: Dict[str, Dict[str, float]] = {}
    for label in INTENSITIES:
        result = run_scenario(
            scenario(label, scale), 0, slo_label=f"churn.{label}"
        )
        if result.findings:
            found = result.violations + result.residual + result.divergence
            raise RuntimeError(
                f"churn study, {label} intensity: {summarize(found)}"
            )
        report = result.report
        messages = report.messages
        out[label] = {
            "events": float(report.joins + report.leaves + report.crashes),
            "delivery_rate": result.availability,
            "join_msgs_per_join": sum(messages.get(k, 0) for k in JOIN_KINDS)
            / max(1, report.joins),
            "maintenance_msgs": float(
                sum(messages.get(k, 0) for k in MAINTENANCE_KINDS)
            ),
            "checkpoint_rounds": float(report.checkpoint_rounds[0]),
            "converged": float(not report.unconverged_checkpoints),
            "findings": float(result.findings),
            "p50_ms": percentile(sorted(result.lookup_ms), 0.50),
            "p99_ms": result.p99_ms(),
        }
    return out


def run(scale: str = "smoke") -> Table:
    """Render the churn-intensity table."""
    table = Table(
        "Churn study — delivery, maintenance traffic and latency vs intensity",
        [
            "intensity", "events", "delivery", "join msgs/join",
            "maintenance msgs", "checkpoint rounds", "converged", "p50 ms",
            "p99 ms",
        ],
    )
    for label, row in measurements(scale).items():
        table.add_row(
            label,
            int(row["events"]),
            row["delivery_rate"],
            row["join_msgs_per_join"],
            int(row["maintenance_msgs"]),
            int(row["checkpoint_rounds"]),
            bool(row["converged"]),
            row["p50_ms"],
            row["p99_ms"],
        )
    return table
