"""Serving-policy study: what deadline/retry/hedge knobs buy under failures.

A closed-loop burst is served while nodes keep crashing *mid-run* (a
deterministic slice every few ticks, view recompiled each time — the
regime where in-flight lookups genuinely get lost), once per policy: no
policy, bounded retries from the source, retries via alternate first
hops, hedged requests at the p90 and the p50 latency, and a tight
deadline.  The table reports delivered fraction, loss/expiry accounting,
hedges sent and won, and tail latency per policy — the serving-layer
analogue of the in-flight crash study.

Run: ``python -m repro.experiments serve --scale smoke``.
"""

from __future__ import annotations

import random
from typing import Dict

from ..analysis.tables import Table
from ..serve import ServePolicy, ServeRuntime, compile_protocol_view, run_closed_loop
from ..serve.testbed import build_serving_net, lookup_workload

POLICIES = {
    "no policy": ServePolicy(),
    "retry x3 (same source)": ServePolicy(max_attempts=3),
    "retry x3 (alternates)": ServePolicy(max_attempts=3, retry_alternates=True),
    "hedge p90": ServePolicy(hedge_quantile=0.9, hedge_min_ms=4.0),
    "hedge p50": ServePolicy(hedge_quantile=0.5, hedge_min_ms=4.0),
    "deadline 40 ticks": ServePolicy(deadline_ms=40.0),
}


def measurements(scale: str = "smoke") -> Dict[str, Dict[str, float]]:
    """policy label -> serving outcome stats on the degraded net."""
    size = 512 if scale == "smoke" else 2048
    lookups = 2000 if scale == "smoke" else 8000
    out: Dict[str, Dict[str, float]] = {}
    for label, policy in POLICIES.items():
        net, _ = build_serving_net(size, seed=11, with_latency=False)
        sources, keys = lookup_workload(net, lookups, seed=11)
        runtime = ServeRuntime(*compile_protocol_view(net), policy=policy)
        churn_rng = random.Random("serving-study-churn")

        def on_tick(rt: ServeRuntime, tick: int) -> None:
            # Same crash sequence for every policy: one seeded slice of
            # the live population every third tick, view recompiled.
            if tick % 3 == 0:
                live = sorted(net.live_view())
                for victim in churn_rng.sample(live, min(size // 64, len(live) - 8)):
                    net.crash(victim)
                rt.set_view(*compile_protocol_view(net))

        report = run_closed_loop(
            runtime, sources, keys, concurrency=512, on_tick=on_tick
        )
        counters = report.counters
        out[label] = {
            "delivered": counters["delivered"] / max(counters["completed"], 1),
            "lost": float(counters["lost"]),
            "expired": float(counters["expired"]),
            "retries": float(counters["retries"]),
            "hedges": float(counters["hedges"]),
            "hedge_wins": float(counters["hedge_wins"]),
            "p99_ms": report.quantile_ms(0.99),
        }
    return out


def run(scale: str = "smoke") -> Table:
    """Render the policy vs serving-outcome table."""
    data = measurements(scale)
    table = Table(
        "Serving policy under failures — delivery, losses and tails",
        [
            "policy", "delivered", "lost", "expired", "retries", "hedges",
            "hedge_wins", "p99 ms",
        ],
    )
    for label in POLICIES:
        row = data[label]
        table.add_row(
            label,
            round(row["delivered"], 4),
            int(row["lost"]),
            int(row["expired"]),
            int(row["retries"]),
            int(row["hedges"]),
            int(row["hedge_wins"]),
            round(row["p99_ms"], 1),
        )
    return table
