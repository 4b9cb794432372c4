"""Serving-mode scenario replays: the zoo's traffic through the runtime.

:func:`serve_schedule` replays a compiled scenario schedule with the
lookup traffic served *batched*: consecutive lookup events are buffered
(their rank-addressed sources resolved exactly as
:func:`~repro.simulation.churn.run_schedule` resolves them — liveness
only changes at non-lookup events, so buffering is sound) and drained
through one :class:`~repro.serve.runtime.ServeRuntime`, while every
non-lookup event is delegated to ``run_schedule`` single-event slices so
joins, crashes, domain kills, partitions, heals, puts/gets and
checkpoints behave identically to the scalar replay.  Before each batch
the runtime gets the net's current view; the net's own change record
decides whether that is the one already installed (a ``put`` / ``get``
slice writes nothing to the net and costs no recompile).

The delivered/offered ratio lands in the standard per-scenario ``slo.*``
instruments under ``<scenario>.serve``, next to the scalar run's label.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..simulation.churn import ScheduleReport, run_schedule
from .batcher import compile_protocol_view
from .middleware import SLOMiddleware
from .policy import NO_POLICY, ServePolicy
from .runtime import ServeReport, ServeRuntime

__all__ = ["ServingScenarioResult", "serve_scenario", "serve_schedule"]


@dataclass
class ServingScenarioResult:
    """Outcome of one serving-mode scenario replay."""

    name: str
    report: ServeReport
    sub_reports: List[ScheduleReport] = field(default_factory=list)

    @property
    def offered(self) -> int:
        return int(self.report.counters["submitted"])

    @property
    def delivered(self) -> int:
        return int(self.report.counters["delivered"])

    @property
    def ratio(self) -> float:
        """Delivered/offered — the serving-mode availability number."""
        return self.delivered / self.offered if self.offered else float("nan")


def serve_schedule(
    net,
    events,
    policy: Optional[ServePolicy] = None,
    latency=None,
    label: Optional[str] = None,
    data=None,
    min_population: int = 3,
) -> Tuple[ServeReport, List[ScheduleReport]]:
    """Replay ``events`` on ``net``, serving lookup bursts batched.

    Returns the runtime's :class:`ServeReport` plus the per-slice
    :class:`ScheduleReport` list from the delegated non-lookup events.
    """
    runtime, sub_reports = _serve(
        net, events, policy, latency, label, data, min_population
    )
    return runtime.report(), sub_reports


def _serve(
    net, events, policy=None, latency=None, label=None, data=None, min_population=3
) -> Tuple[ServeRuntime, List[ScheduleReport]]:
    """:func:`serve_schedule` up to its report: the drained runtime."""
    middlewares = [SLOMiddleware(label)] if label else []
    runtime = ServeRuntime(
        *compile_protocol_view(net),
        policy=policy if policy is not None else NO_POLICY,
        latency=latency,
        middlewares=middlewares,
    )
    pending_sources: List[int] = []
    pending_keys: List[int] = []
    sub_reports: List[ScheduleReport] = []

    def flush() -> None:
        if not pending_sources:
            return
        view = compile_protocol_view(net)
        if view[0] is not runtime.compiled:
            runtime.set_view(*view)
        runtime.submit_many(pending_sources, pending_keys)
        runtime.drain()
        pending_sources.clear()
        pending_keys.clear()

    for event in events:
        if event.kind == "lookup":
            live = net.live_view()
            if len(live) >= 2:
                pending_sources.append(live[event.rank % len(live)])
                pending_keys.append(event.key)
            continue
        flush()
        sub_reports.append(
            run_schedule(
                net, [event], data=data, min_population=min_population
            )
        )
    flush()
    return runtime, sub_reports


def serve_scenario(
    spec,
    seed: int = 0,
    policy: Optional[ServePolicy] = None,
    latency: bool = True,
) -> ServingScenarioResult:
    """Compile, bootstrap and serve one catalog scenario end to end, then
    hold the drained runtime to
    :func:`~repro.verify.invariants.verify_serving_state`."""
    from ..scenarios.dsl import bootstrap_scenario, compile_scenario
    from ..perf.storage import FastDataLayer
    from ..scenarios.runner import scenario_latency
    from ..verify.invariants import verify_serving_state

    events = compile_scenario(spec, seed)
    table = None
    if latency:
        topology, _ = scenario_latency(spec, seed, events)
        table = topology.latency_table()
    net = bootstrap_scenario(spec, seed)
    data = None
    if spec.data_replicas is not None:
        data = FastDataLayer(net, replicas=spec.data_replicas)
    runtime, sub_reports = _serve(
        net,
        events,
        policy=policy,
        latency=table,
        label=f"{spec.name}.serve",
        data=data,
    )
    verify_serving_state(runtime)
    return ServingScenarioResult(
        name=spec.name, report=runtime.report(), sub_reports=sub_reports
    )
