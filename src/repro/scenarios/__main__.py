"""CLI: list, run, replay and the scenario matrix.

Examples::

    python -m repro.scenarios list
    python -m repro.scenarios run flash_crowd --scale smoke --serve
    python -m repro.scenarios run partition_noheal --save fixture.json
    python -m repro.scenarios replay fixture.json
    python -m repro.scenarios matrix --scale full \\
        --out-json matrix.json --out-md matrix.md

Every run and replay is a two-engine lockstep: the fast and the reference
maintenance engine replay the schedule side by side and must agree.  Exit
status 0 means every run matched its expectation (clean scenarios clean,
negative controls tripped, engines equivalent always).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from ..obs import metrics as obs_metrics
from ..verify.__main__ import _parse_families
from ..verify.violations import summarize
from .catalog import CATALOG, SCALES
from .dsl import scenario_from_json, scenario_to_json
from .runner import MATRIX_FAMILIES, run_matrix, run_scenario

def _pair_count(raw: str) -> int:
    count = int(raw)
    if count < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {count}")
    return count


def _parse_scenarios(raw: str):
    names = [s.strip() for s in raw.split(",") if s.strip()]
    if not names:
        # An empty matrix would run nothing and exit 0.
        raise argparse.ArgumentTypeError(
            f"needs at least one scenario; known: {', '.join(CATALOG)}"
        )
    unknown = [n for n in names if n not in CATALOG]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown scenarios {unknown}; known: {', '.join(CATALOG)}"
        )
    return names


def _common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--scale", choices=SCALES, default="smoke")
    sub.add_argument(
        "--families",
        type=_parse_families,
        default=MATRIX_FAMILIES,
        help="families rebuilt and routed at every checkpoint",
    )
    sub.add_argument("--routing-pairs", type=_pair_count, default=12)
    sub.add_argument(
        "--no-latency",
        action="store_true",
        help="skip the topology attach and millisecond accounting",
    )
    sub.add_argument(
        "--metrics", metavar="OUT.json", help="write a metrics snapshot JSON"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="Named production-traffic scenarios with oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="catalog names and descriptions")

    run = sub.add_parser(
        "run", help="run one scenario on both engines with oracles"
    )
    run.add_argument("scenario", choices=sorted(CATALOG))
    _common(run)
    run.add_argument(
        "--save",
        metavar="OUT.json",
        help="write the compiled schedule as a replayable fixture",
    )
    run.add_argument(
        "--serve",
        action="store_true",
        help="additionally replay the schedule in serving mode (batched "
        "lookup runtime); its delivered/offered ratio lands in the "
        "slo.* instruments under <scenario>.serve",
    )

    rep = sub.add_parser("replay", help="replay a saved scenario fixture")
    rep.add_argument("fixture", help="path to a scenario JSON")
    _common(rep)

    matrix = sub.add_parser("matrix", help="the scenario x family matrix")
    _common(matrix)
    matrix.add_argument(
        "--scenarios",
        type=_parse_scenarios,
        default=None,
        help="comma-separated catalog subset (default: everything)",
    )
    matrix.add_argument("--out-json", metavar="OUT.json")
    matrix.add_argument("--out-md", metavar="OUT.md")

    args = parser.parse_args(argv)
    if args.command == "replay":
        # An unreadable or malformed fixture is a usage error (exit 2), not
        # a traceback that exits 1 like an expectation that was not met.
        try:
            args.document = scenario_from_json(Path(args.fixture).read_text())
        except (OSError, ValueError) as err:
            rep.error(str(err))
    registry = obs_metrics.activate(obs_metrics.MetricsRegistry())
    try:
        code = _dispatch(args)
    finally:
        if getattr(args, "metrics", None):
            registry.export_json(args.metrics)
            print(f"wrote metrics snapshot to {args.metrics}", file=sys.stderr)
        obs_metrics.deactivate()
    return code


def _print_result(result) -> None:
    report = result.report
    print(
        f"{result.spec.name}: {len(result.events)} events, population "
        f"{report.final_population}, {report.lookups_delivered}/"
        f"{report.lookups_attempted} lookups delivered "
        f"(availability {result.availability:.3f}), "
        f"{result.message_total} messages, p99 {result.p99_ms():.1f} ms"
    )
    if report.domain_kills or report.partitions or report.heals:
        print(
            f"  correlated events: {report.domain_kills} domain kills "
            f"({report.killed} nodes), {report.partitions} partitions "
            f"({report.suspended} suspended), {report.heals} heals "
            f"({report.revived} revived)"
        )
    print("  checkpoint oracles: " + summarize(result.violations))
    print("  final-state audit:  " + summarize(result.residual))
    print("  engine lockstep:    " + summarize(result.divergence))
    if result.spec.expect_violations:
        print(
            "  negative control: "
            + ("tripped as expected" if result.failed else "did NOT trip")
        )


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        for name, factory in CATALOG.items():
            spec = factory("smoke")
            control = " [negative control]" if spec.expect_violations else ""
            print(f"{name}{control}: {spec.description}")
        return 0

    if args.command == "run":
        spec = CATALOG[args.scenario](args.scale)
        start = time.time()
        result = run_scenario(
            spec,
            seed=args.seed,
            families=args.families,
            routing_pairs=args.routing_pairs,
            latency=not args.no_latency,
        )
        _print_result(result)
        if args.serve:
            from ..serve.scenario import serve_scenario

            serving = serve_scenario(
                spec,
                seed=args.seed,
                latency=not args.no_latency,
            )
            counters = serving.report.counters
            print(
                f"  serving mode: {serving.delivered}/{serving.offered} "
                f"delivered (ratio {serving.ratio:.3f}), "
                f"{counters['lost']} lost, "
                f"p99 {serving.report.quantile_ms(0.99):.1f} ms"
            )
        print(f"({time.time() - start:.1f}s)")
        if args.save:
            Path(args.save).write_text(
                scenario_to_json(spec, args.seed, result.events) + "\n"
            )
            print(f"wrote replayable fixture to {args.save}")
        return 0 if result.ok else 1

    if args.command == "replay":
        document = args.document
        result = run_scenario(
            document.spec,
            seed=document.seed,
            families=args.families,
            routing_pairs=args.routing_pairs,
            events=document.events,
            latency=not args.no_latency,
        )
        _print_result(result)
        return 0 if result.ok else 1

    if args.command == "matrix":
        start = time.time()
        matrix = run_matrix(
            names=args.scenarios,
            scale=args.scale,
            seed=args.seed,
            families=args.families,
            routing_pairs=args.routing_pairs,
            latency=not args.no_latency,
        )
        print(matrix.render())
        print(f"({time.time() - start:.1f}s)")
        if args.out_json:
            Path(args.out_json).write_text(matrix.to_json() + "\n")
            print(f"wrote {args.out_json}")
        if args.out_md:
            Path(args.out_md).write_text(matrix.to_markdown())
            print(f"wrote {args.out_md}")
        return 0 if matrix.ok else 1

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
