"""CLI: fuzz, check, smoke and replay for the verification subsystem.

Examples::

    python -m repro.verify fuzz --seed 7 --events 2000
    python -m repro.verify fuzz --seed 7 --events 400 --mutate crescendo \\
        --save counterexample.json
    python -m repro.verify replay counterexample.json
    python -m repro.verify check --family kandy --size 200
    python -m repro.verify smoke

``fuzz`` and ``replay`` replay each schedule on the fast and the
reference maintenance engine in lockstep, so a divergence between the two
fails the run like any other violation.

Exit status 0 means the run matched expectations (clean, or — for
mutation mode and fixtures expecting violations — corruption detected);
1 means violations where none were expected, or an undetected mutation;
2 means a usage error, such as ``fuzz --population 0``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from ..obs import metrics as obs_metrics
from .builders import EXTRA_FAMILIES, FAMILIES, small_network
from .fuzz import FuzzConfig, replay, run_fuzz, schedule_from_json, schedule_to_json
from .invariants import checkers_for, run_checks
from .mutate import KINDS, mutation_smoke
from .violations import summarize

ALL_FAMILIES = FAMILIES + EXTRA_FAMILIES


def _parse_families(raw: str):
    families = tuple(f.strip() for f in raw.split(",") if f.strip())
    if not families:
        # An empty list would run no static battery and report "no violations".
        raise argparse.ArgumentTypeError(
            f"needs at least one family; known: {', '.join(ALL_FAMILIES)}"
        )
    unknown = [f for f in families if f not in ALL_FAMILIES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown families {unknown}; known: {', '.join(ALL_FAMILIES)}"
        )
    return families


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Invariant checking, mutation smoke and churn fuzzing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fuzz = sub.add_parser("fuzz", help="seeded churn fuzzing with checkpoints")
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--events", type=int, default=500)
    fuzz.add_argument(
        "--families",
        type=_parse_families,
        default=FAMILIES,
        help="comma-separated family list (default: the paper's ten)",
    )
    fuzz.add_argument("--population", type=int, default=64)
    fuzz.add_argument("--checkpoints", type=int, default=8)
    fuzz.add_argument(
        "--mutate",
        metavar="FAMILY",
        choices=ALL_FAMILIES,
        help="corrupt this family's table at each checkpoint (smoke mode: "
        "the run is expected to find violations)",
    )
    fuzz.add_argument("--mutate-kind", choices=KINDS, default="drop")
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip shrinking a failing schedule",
    )
    fuzz.add_argument(
        "--save",
        metavar="OUT.json",
        help="write the (shrunk, if any) failing schedule as a replayable fixture",
    )
    fuzz.add_argument(
        "--metrics", metavar="OUT.json", help="write a metrics snapshot JSON"
    )
    fuzz.add_argument(
        "--data-replicas",
        type=int,
        metavar="N",
        help="attach an N-replica data layer: the schedule gains put/get "
        "events and every checkpoint runs the durability oracles",
    )

    rep = sub.add_parser("replay", help="replay a saved counterexample fixture")
    rep.add_argument("fixture", help="path to a schedule JSON")

    chk = sub.add_parser("check", help="build one family and run its checkers")
    chk.add_argument("--family", choices=ALL_FAMILIES, required=True)
    chk.add_argument("--size", type=int, default=120)
    chk.add_argument("--seed", type=int, default=0)

    smk = sub.add_parser("smoke", help="mutation smoke across all families")
    smk.add_argument("--seed", type=int, default=0)
    smk.add_argument(
        "--families", type=_parse_families, default=FAMILIES
    )

    args = parser.parse_args(argv)
    if args.command == "fuzz":
        # A bad number is a usage error (exit 2) before any bootstrap, not
        # a traceback that exits 1 like a run that found violations.
        for flag, value, minimum in (
            ("--population", args.population, 1),
            ("--events", args.events, 0),
            ("--checkpoints", args.checkpoints, 1),
            ("--data-replicas", args.data_replicas, 1),
        ):
            if value is not None and value < minimum:
                fuzz.error(f"{flag} must be >= {minimum}, got {value}")
    if args.command == "replay":
        # So is an unreadable or malformed fixture (an empty family list too).
        try:
            args.schedule = schedule_from_json(Path(args.fixture).read_text())
        except (OSError, ValueError) as err:
            rep.error(str(err))
    registry = obs_metrics.activate(obs_metrics.MetricsRegistry())
    try:
        code = _dispatch(args, registry)
    finally:
        if getattr(args, "metrics", None):
            registry.export_json(args.metrics)
            print(f"wrote metrics snapshot to {args.metrics}", file=sys.stderr)
        obs_metrics.deactivate()
    return code


def _metrics_line(registry) -> str:
    checks = registry.counter("verify.checks").value
    violations = registry.counter("verify.violations").value
    return f"verify.checks={checks} verify.violations={violations}"


def _dispatch(args: argparse.Namespace, registry) -> int:
    if args.command == "fuzz":
        config = FuzzConfig(
            seed=args.seed,
            events=args.events,
            families=args.families,
            population=args.population,
            checkpoints=args.checkpoints,
            mutate_family=args.mutate,
            mutate_kind=args.mutate_kind,
            data_replicas=args.data_replicas,
        )
        start = time.time()
        report = run_fuzz(config, shrink=not args.no_shrink)
        elapsed = time.time() - start
        print(
            f"fuzz seed={config.seed} events={len(report.schedule)} "
            f"families={','.join(config.families)} "
            f"population={report.replay.final_population} "
            f"checkpoints={report.replay.checkpoints} ({elapsed:.1f}s)"
        )
        print(
            f"replayed: {report.replay.joins} joins, {report.replay.leaves} "
            f"leaves, {report.replay.crashes} crashes, "
            f"{report.replay.lookups_delivered}/{report.replay.lookups_attempted} "
            f"lookups delivered"
        )
        if config.data_replicas is not None:
            delivered = sum(1 for _, ok in report.replay.data_outcomes if ok)
            print(
                f"data layer (replicas={config.data_replicas}): "
                f"{report.replay.puts} puts, {delivered}/"
                f"{report.replay.data_gets} gets answered"
            )
        print(_metrics_line(registry))
        print(summarize(report.violations))
        if report.shrunk is not None:
            print(
                f"shrunk failing schedule: {len(report.schedule)} -> "
                f"{len(report.shrunk)} events ({report.shrink_replays} replays)"
            )
        if args.save and report.failed:
            events = report.shrunk if report.shrunk is not None else report.schedule
            Path(args.save).write_text(schedule_to_json(config, events) + "\n")
            print(f"wrote replayable counterexample to {args.save}")
        if args.mutate:
            detected = any(v for v in report.violations)
            print(
                "mutation detected" if detected else "mutation NOT detected"
            )
            return 0 if detected else 1
        return 1 if report.failed else 0

    if args.command == "replay":
        config, events, expect_violations = args.schedule
        report = replay(config, events)
        print(
            f"replayed {len(events)} events: "
            f"{report.replay.checkpoints} checkpoints, "
            f"population {report.replay.final_population}"
        )
        print(_metrics_line(registry))
        print(summarize(report.violations))
        if expect_violations:
            print(
                "expected violations: "
                + ("reproduced" if report.failed else "NOT reproduced")
            )
            return 0 if report.failed else 1
        return 1 if report.failed else 0

    if args.command == "check":
        net = small_network(args.family, seed=args.seed, size=args.size)
        violations = run_checks(net)
        names = ", ".join(c.name for c in checkers_for(net.family))
        print(
            f"{args.family}: size={net.size} built_with={net.built_with} "
            f"checks=[{names}]"
        )
        print(_metrics_line(registry))
        print(summarize(violations))
        return 1 if violations else 0

    if args.command == "smoke":
        report = mutation_smoke(families=args.families, seed=args.seed)
        for family, kinds in report.items():
            for kind, checks in kinds.items():
                print(f"{family}/{kind}: detected by {', '.join(checks)}")
        print(_metrics_line(registry))
        print("mutation smoke passed")
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
