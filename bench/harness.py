"""The run shape every workload shares, and the metric arithmetic.

One run = set-up (repeated, so ``setup_s`` is a median), the workload's
oracle gate, one discarded warm-up round, then timed rounds on identical
inputs until ``--seconds`` of wall-clock have passed (never fewer than
``MIN_ROUNDS``).  Host metrics are medians over rounds, kept with their
IQR and every sample; simulated results must repeat bit-for-bit from round
to round, which every run checks for free.  The loop is closed (a round's
next unit of work starts when the previous one completes): arrivals in
``repro.serve`` are virtual ticks, so host-side queueing does not exist
and the honest host number is work completed per second at a stated input
size.

Rounds are kept near one second so that a run holds many of them: on this
sandbox the speed of one process wanders by a few percent over tens of
seconds and drops by 40-70 % in bursts of about a second, and over 200 s
of back-to-back rounds the median of 8-12 short rounds was steadier (range
6 % of the median) than their best (10-14 %) or than 3 long rounds (15 %).

A traced run keeps the same inputs but measures differently: one set-up
and the gate under spans, a warm-up, then ``TRACE_ROUNDS`` untraced rounds
alternating with ``TRACE_ROUNDS`` rounds that have the trace points
installed.  Per-layer self times come from the traced rounds; the untraced
ones price the tracing.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from spans import NAME, UNITS, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 3
MIN_ROUNDS = 5
MAX_ROUNDS = 40
TRACE_ROUNDS = 3
#: A workload whose round-to-round IQR / median exceeds this is ``noisy``.
NOISE_LIMIT = 0.10

#: Span names whose metric name says "self" explicitly (every ``_s`` metric
#: is a self time; these four wrap other layers, so the issue spells it out).
SELF_NAMES = {
    "serve.tick": "serve.tick_self",
    "serve.schedule": "serve.schedule_self",
    "churn.run_schedule": "churn.run_schedule_self",
    "analysis.sample_routing": "analysis.sample_routing_self",
}


class GateFailure(Exception):
    """An oracle or a per-round check disagreed; nothing may be reported."""


@dataclass
class Round:
    """What one round of a workload did and what the modelled DHT did."""

    ops: int  # units of work completed in the ops phase
    ops_s: float  # host seconds of the ops phase
    sim: Dict[str, float]  # simulated results: must repeat exactly
    built: int = 0  # items constructed inside the round (0: none)
    build_s: float = 0.0
    failed: int = 0  # units of work that ended without an outcome
    layer: Dict[str, float] = field(default_factory=dict)  # per-layer counts


class Workload:
    """Base class: override ``setup``, ``gate`` and ``round``."""

    name = ""
    #: What ``ops_per_s`` / ``build_per_s`` count on this workload.
    ops_unit = ""
    build_unit = ""

    def setup(self, seed: int, tracer: Tracer) -> Optional[Tuple[int, float]]:
        """Make inputs and state; may return ``(items built, seconds)``."""
        raise NotImplementedError

    def gate(self, seed: int) -> str:
        """Run the differential oracle; raise :class:`GateFailure`."""
        raise NotImplementedError

    def prepare(self) -> Optional[Tuple[int, float]]:
        """Rebuild state a round consumes (counted into ``setup_s``)."""
        return None

    def round(self, tracer: Tracer) -> Round:
        raise NotImplementedError

    def extras(self, untraced_round_s: float) -> Dict[str, float]:
        """Traced runs only: per-layer numbers no span can give."""
        return {}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def iqr(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(values: List[float]) -> dict:
    return {
        "value": statistics.median(values),
        "iqr": iqr(values),
        "n": len(values),
        "samples": values,
    }


def _timed(fn, *args):
    gc.collect()
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def _check_repeat(name: str, reference: Dict[str, float], sim: Dict[str, float]) -> None:
    if sim != reference:
        diff = {
            k: (reference.get(k), sim.get(k))
            for k in sorted(set(reference) | set(sim))
            if reference.get(k) != sim.get(k)
        }
        raise GateFailure(f"{name}: simulated results differ between rounds: {diff}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload: Workload, seed: int, seconds: float, import_s: float) -> dict:
    """End-to-end metrics: everything a user of the system would see."""
    tracer = Tracer(enabled=False)
    setups: List[float] = []
    prepares: List[float] = []
    build_rates: List[float] = []

    def note_build(built_and_seconds) -> None:
        if built_and_seconds is not None:
            built, build_s = built_and_seconds
            build_rates.append(built / build_s)

    for _ in range(SETUP_REPEATS):
        built, elapsed = _timed(workload.setup, seed, tracer)
        setups.append(elapsed)
        note_build(built)
    gate_note = workload.gate(seed)

    workload.prepare()
    gc.collect()
    reference = workload.round(tracer).sim  # warm-up: discarded, but it pins sim

    rounds: List[Round] = []
    began = time.perf_counter()
    while len(rounds) < MAX_ROUNDS and (
        len(rounds) < MIN_ROUNDS or time.perf_counter() - began < seconds
    ):
        built, elapsed = _timed(workload.prepare)
        prepares.append(elapsed)
        note_build(built)
        gc.collect()
        result = workload.round(tracer)
        _check_repeat(workload.name, reference, result.sim)
        rounds.append(result)
        if result.built:
            build_rates.append(result.built / result.build_s)

    rebuild_s = statistics.median(prepares)  # microseconds where nothing is rebuilt
    host = {
        "setup_s": summarize([import_s + s + rebuild_s for s in setups]),
        "ops_per_s": summarize([r.ops / r.ops_s for r in rounds]),
        "build_per_s": summarize(build_rates),
        "peak_rss_mb": summarize([_peak_rss_mb()]),
    }
    sim = {k: summarize([v]) for k, v in reference.items()}
    for entry in sim.values():
        entry["n"] = len(rounds) + 1  # identical in every round, warm-up included
    noisy = any(
        host[k]["iqr"] / host[k]["value"] > NOISE_LIMIT for k in ("ops_per_s", "build_per_s")
    )
    return {
        "workload": workload.name,
        "seed": seed,
        "rounds": len(rounds),
        "gate": gate_note,
        "correct": not any(r.failed for r in rounds),
        "attempted": sum(r.ops for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "noisy": noisy,
        "units": {"ops_per_s": workload.ops_unit, "build_per_s": workload.build_unit},
        "metrics": {**host, **sim},
    }


def run_traced(workload: Workload, seed: int) -> dict:
    """Per-layer metrics from spans recorded around each layer's calls."""
    tracer = Tracer(enabled=True)
    with tracer.installed():
        with tracer.phase_scope("setup"):
            workload.setup(seed, tracer)
        with tracer.phase_scope("gate"), tracer.span("verify.gate"):
            gate_note = workload.gate(seed)

    quiet = Tracer(enabled=False)
    _, warmup_s = _timed(lambda: (workload.prepare(), workload.round(quiet)))
    # Untraced and traced rounds alternate, so slow drift of the machine
    # lands on both sides of the overhead ratio.
    plain: List[Tuple[float, Round]] = []
    traced: List[Tuple[float, Round]] = []
    for index in range(TRACE_ROUNDS):
        workload.prepare()
        result, elapsed = _timed(workload.round, quiet)
        plain.append((elapsed, result))
        with tracer.installed():
            with tracer.phase_scope("prepare", index):
                workload.prepare()
            gc.collect()
            with tracer.phase_scope("round", index):
                start = time.perf_counter()
                with tracer.span("bench.round"):
                    result = workload.round(tracer)
                traced.append((time.perf_counter() - start, result))
    # Outcome counters of the traced rounds must equal the untraced ones'.
    for _, result in plain[1:] + traced:
        _check_repeat(workload.name, plain[0][1].sim, result.sim)

    plain_s = statistics.median(t for t, _ in plain)
    traced_s = statistics.median(t for t, _ in traced)
    metrics, shares = layer_metrics(tracer, TRACE_ROUNDS)
    metrics.update(traced[-1][1].layer)
    metrics.update(workload.extras(plain_s))
    metrics["bench.warmup_s"] = warmup_s
    metrics["bench.round_s"] = traced_s
    metrics["trace.overhead_share"] = traced_s / plain_s - 1.0
    for name, (numerators, denominators, scale) in DERIVED.items():
        above = sum(metrics.get(k, 0.0) for k in numerators)
        below = sum(metrics.get(k, 0.0) for k in denominators)
        metrics[name] = scale * above / below if below else 0.0

    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"trace-{workload.name}.json")
    rounds = [r for _, r in traced]
    return {
        "workload": workload.name,
        "seed": seed,
        "rounds": len(rounds),
        "gate": gate_note,
        "correct": not any(r.failed for r in rounds),
        "attempted": sum(r.ops for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
        "shares": shares,
    }


#: Ratios across layers: name -> (numerators, denominators, scale); the
#: value is ``scale * sum(numerators) / sum(denominators)``, 0 where idle.
DERIVED = {
    "storage.repair_keys_per_s": (("storage.repair_keys",), ("storage.repair_s",), 1.0),
    "kernels.route_ns_per_hop": (
        ("kernels.route_ring_s", "kernels.route_xor_s"), ("kernels.route_hops",), 1e9
    ),
    "kernels.frontier_ns_per_hop": (
        ("kernels.frontier_step_s",), ("kernels.frontier_lookups_stepped",), 1e9
    ),
    "serve.us_per_lookup": (
        ("serve.submit_s", "serve.tick_self_s", "serve.report_s"), ("serve.lookups",), 1e6
    ),
}


def layer_metrics(tracer: Tracer, rounds: int) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Self seconds, call counts and unit sums per layer, and round shares.

    ``<layer>_s`` is the layer's self time in one set-up plus one round
    (per-round rebuilds included): set-up spans count once, prepare and
    round spans are divided by the number of traced rounds.  The gate's
    spans are left out; ``verify.gate_s`` is the gate's whole duration.
    The second dict gives each layer's share of the round wall alone;
    with ``bench.round`` (time no span claims) the shares sum to 1.
    """
    once = tracer.select(("setup",))
    per_round = tracer.select(("prepare", "round"))
    in_round = tracer.select(("round",))

    metrics: Dict[str, float] = {}
    for indices, scale in ((once, 1.0), (per_round, 1.0 / rounds)):
        for name, seconds in tracer.self_times(indices).items():
            key = SELF_NAMES.get(name, name) + "_s"
            metrics[key] = metrics.get(key, 0.0) + seconds * scale
        for name, calls in tracer.calls(indices).items():
            key = name + "_calls"
            metrics[key] = metrics.get(key, 0.0) + calls * scale
    metrics["verify.gate_s"] = sum(tracer.durations(tracer.select(("gate",)), "verify.gate"))

    units = tracer.units(per_round)
    metrics["kernels.route_calls"] = metrics.get("kernels.route_ring_calls", 0) + metrics.get(
        "kernels.route_xor_calls", 0
    )
    metrics["kernels.route_hops"] = (
        units.get("kernels.route_ring", 0) + units.get("kernels.route_xor", 0)
    ) / rounds
    metrics["kernels.frontier_lookups_stepped"] = units.get("kernels.frontier_step", 0) / rounds
    metrics["serve.ticks"] = metrics.get("serve.tick_calls", 0)
    ticks_ms = sorted(1e3 * d for d in tracer.durations(in_round, "serve.tick"))
    if ticks_ms:
        metrics["serve.tick_ms_p50"] = ticks_ms[len(ticks_ms) // 2]
        metrics["serve.tick_ms_p99"] = ticks_ms[min(len(ticks_ms) - 1, int(len(ticks_ms) * 0.99))]
        metrics["serve.tick_samples"] = len(ticks_ms)
    # ``serve.report`` spans carry the batcher's capacity as their units.
    metrics["batcher.capacity_slots"] = max(
        (tracer.spans[i][UNITS] for i in in_round if tracer.spans[i][NAME] == "serve.report"),
        default=0,
    )

    round_total = sum(tracer.durations(in_round, "bench.round"))
    shares = {
        SELF_NAMES.get(name, name): seconds / round_total
        for name, seconds in tracer.self_times(in_round).items()
    }
    metrics["bench.unattributed_share"] = shares.get("bench.round", 0.0)
    return metrics, shares


def declared(result: dict, spec: dict, section: str) -> Dict[str, dict]:
    """The contract's metric objects: every declared name, its unit, no more."""
    return {
        m["name"]: {"value": _value(result["metrics"].get(m["name"], 0.0)), "unit": m["unit"]}
        for m in spec[section]
    }


def _value(entry) -> float:
    return float(entry["value"] if isinstance(entry, dict) else entry)
