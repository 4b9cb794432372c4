"""CLI for the batched lookup-serving runtime.

Quickstart (static net, closed loop)::

    python -m repro.serve --nodes 2048 --lookups 20000

The CI serving gate (live churn, the slot table checked every tick, every
admitted lookup must complete)::

    python -m repro.serve --nodes 1024 --lookups 10000 --churn-every 5 \
        --max-attempts 3 --assert-complete
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from ..obs.metrics import collecting
from ..obs.slo import SLOReport
from ..verify.invariants import verify_serving_state
from .batcher import compile_protocol_view
from .middleware import DomainACL, SLOMiddleware, TracingMiddleware
from .policy import ServePolicy
from .runtime import ServeRuntime, run_closed_loop, run_open_loop
from .testbed import build_serving_net, domain_labeler, lookup_workload


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve batched DHT lookups frontier-at-a-time.",
    )
    parser.add_argument("--nodes", type=int, default=2048)
    parser.add_argument("--lookups", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--mode", choices=("closed", "open"), default="closed",
        help="closed: fixed concurrency; open: fixed offered rate",
    )
    parser.add_argument("--concurrency", type=int, default=1024)
    parser.add_argument(
        "--per-tick", type=int, default=512,
        help="open-loop offered lookups per tick",
    )
    parser.add_argument(
        "--no-latency", action="store_true",
        help="skip the transit-stub latency table (1 ms per hop)",
    )
    # Policy knobs.
    parser.add_argument("--deadline-ms", type=float, default=None)
    parser.add_argument("--max-attempts", type=int, default=1)
    parser.add_argument("--retry-alternates", action="store_true")
    parser.add_argument("--hedge-quantile", type=float, default=None)
    parser.add_argument("--hedge-min-ms", type=float, default=0.0)
    parser.add_argument("--admit-rate", type=float, default=None)
    parser.add_argument("--admit-burst", type=float, default=64.0)
    parser.add_argument(
        "--deny-domain", action="append", default=[],
        help="top-level domain to reject at submit (repeatable)",
    )
    # Churn.
    parser.add_argument(
        "--churn-every", type=int, default=0,
        help="crash nodes and recompile the view every N ticks (0 = off)",
    )
    parser.add_argument(
        "--churn-crash", type=int, default=8,
        help="nodes crashed per churn round",
    )
    parser.add_argument(
        "--assert-complete", action="store_true",
        help="check the slot-table invariant after every tick and exit "
        "nonzero unless every submitted lookup completed "
        "(the zero-lost-acknowledged-completions gate)",
    )
    parser.add_argument("--slo-report", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        policy = ServePolicy(
            deadline_ms=(
                float("inf") if args.deadline_ms is None else args.deadline_ms
            ),
            max_attempts=args.max_attempts,
            retry_alternates=args.retry_alternates,
            hedge_quantile=args.hedge_quantile,
            hedge_min_ms=args.hedge_min_ms,
            admit_rate=args.admit_rate,
            admit_burst=args.admit_burst,
        )
    except ValueError as exc:
        parser.error(str(exc))
    print(
        f"building {args.nodes}-node serving testbed "
        f"(seed {args.seed})...", flush=True
    )
    net, latency = build_serving_net(
        args.nodes, args.seed, with_latency=not args.no_latency,
    )
    sources, keys = lookup_workload(net, args.lookups, args.seed)
    middlewares = [TracingMiddleware(), SLOMiddleware("serve.cli")]
    if args.deny_domain:
        middlewares.insert(0, DomainACL(args.deny_domain))
    compiled, alive = compile_protocol_view(net)
    runtime = ServeRuntime(
        compiled, alive,
        policy=policy, latency=latency,
        middlewares=middlewares, domain_of=domain_labeler(net),
    )

    churn_rng = random.Random(f"serve-cli-churn:{args.seed}")

    def on_tick(rt: ServeRuntime, tick: int) -> None:
        if args.churn_every and tick % args.churn_every == 0:
            live = sorted(net.live_view())
            victims = churn_rng.sample(
                live, min(args.churn_crash, max(len(live) - 8, 0))
            )
            for victim in victims:
                net.crash(victim)
            rt.set_view(*compile_protocol_view(net))
        if args.assert_complete:
            verify_serving_state(rt)

    started = time.perf_counter()
    with collecting() as registry:
        if args.mode == "closed":
            report = run_closed_loop(
                runtime, sources, keys,
                concurrency=args.concurrency, on_tick=on_tick,
            )
        else:
            report = run_open_loop(
                runtime, sources, keys,
                per_tick=args.per_tick, on_tick=on_tick,
            )
    elapsed = time.perf_counter() - started
    print(report.summary())
    served = int(report.counters["completed"])
    print(
        f"{served / max(elapsed, 1e-9):,.0f} lookups/s sustained "
        f"({elapsed:.2f} s wall)"
    )
    snapshot = registry.snapshot()
    views = snapshot.counters
    print(
        f"view: {views.get('serve.view.refreshes', 0)} refreshes, "
        f"{views.get('serve.view.rows_rebuilt', 0)} rows rebuilt, "
        f"{views.get('serve.view.rows_reused', 0)} rows reused"
    )
    if args.slo_report:
        print(SLOReport.from_snapshot(snapshot).render())
    if args.assert_complete:
        submitted = report.counters["submitted"]
        if runtime.outstanding:
            print(
                f"FAIL: {submitted} submitted but {served} completed "
                f"({runtime.outstanding} outstanding)",
                file=sys.stderr,
            )
            return 1
        print(f"OK: all {submitted} submitted lookups completed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
