"""CLI: regenerate any of the paper's figures/tables.

Examples::

    python -m repro.experiments fig3 --scale small
    python -m repro.experiments all --scale smoke
    python -m repro.experiments fig5 --scale smoke \\
        --trace t.jsonl --metrics m.json --profile -v

Result tables go to stdout; progress narration goes through the
``repro.experiments`` logger (stderr; ``-v`` for INFO, ``-vv`` for DEBUG,
``-q`` for errors only).  ``--trace`` records every sampled route (hop
annotated with hierarchy level/domain) plus one span per experiment as
JSONL; ``--metrics`` writes hop/latency histograms and message counts by
type as JSON; ``--profile`` reports build vs. route vs. analysis wall time
per run.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time

from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..obs.profile import PROFILER
from ..perf import executor as perf_executor
from . import EXPERIMENTS

logger = logging.getLogger("repro.experiments")


def _configure_logging(verbosity: int) -> None:
    """Map -q/-v/-vv counts onto the root ``repro`` logger level."""
    level = {-1: logging.ERROR, 0: logging.WARNING, 1: logging.INFO}.get(
        verbosity, logging.DEBUG
    )
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root = logging.getLogger("repro")
    root.handlers[:] = [handler]
    root.setLevel(level)


def _profile_report(name: str, total: float) -> str:
    """Build/route/analysis breakdown of one experiment run."""
    build = PROFILER.totals.get("build", 0.0)
    route = PROFILER.totals.get("route", 0.0)
    analysis = max(0.0, total - build - route)
    return (
        f"[profile {name}] total {total:.2f}s = "
        f"build {build:.2f}s + route {route:.2f}s + analysis {analysis:.2f}s"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the Canon paper's evaluation figures/tables.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "report", "export"],
        help="which figure to regenerate ('all' runs every one; 'report' "
        "writes RESULTS.md; 'export' writes one CSV per experiment)",
    )
    parser.add_argument(
        "--scale",
        default="small",
        choices=("smoke", "small", "paper"),
        help="parameter grid: smoke (seconds), small (default), paper (full grid)",
    )
    parser.add_argument(
        "--out",
        default="RESULTS.md",
        help="output path for the 'report' command (default RESULTS.md)",
    )
    parser.add_argument(
        "--trace",
        metavar="OUT.jsonl",
        help="record spans and hop-annotated routes; write JSONL here "
        "(convert for chrome://tracing with repro.obs.trace.jsonl_to_chrome)",
    )
    parser.add_argument(
        "--metrics",
        metavar="OUT.json",
        help="collect counters/histograms (hops, latency, messages by type); "
        "write a metrics snapshot JSON here",
    )
    parser.add_argument(
        "--slo",
        metavar="OUT.json",
        help="write the family x level SLO table (p50/p95/p99 lookup ms, "
        "stretch, availability) built from the run's metrics; implies "
        "metrics collection (see also 'python -m repro.obs report')",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="report build vs. route vs. analysis wall time per run (stderr)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the parameter grids (0 = all cores; "
        "results are bit-identical to a serial run)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="run the repro.verify invariant registry on every network "
        "built by the experiment helpers (fails fast on a violation)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="increase log verbosity (-v INFO, -vv DEBUG)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="log errors only",
    )
    args = parser.parse_args(argv)
    _configure_logging(-1 if args.quiet else args.verbose)

    tracer = obs_trace.activate(obs_trace.Tracer()) if args.trace else None
    registry = (
        obs_metrics.activate(obs_metrics.MetricsRegistry())
        if (args.metrics or args.slo)
        else None
    )
    if args.jobs < 0:
        parser.error(f"--jobs must be >= 0, got {args.jobs}")
    perf_executor.set_default_jobs(args.jobs)
    if args.verify:
        from ..verify.invariants import set_auto_verify

        set_auto_verify(True)
    try:
        exit_code = _dispatch(args)
    finally:
        if args.verify:
            set_auto_verify(False)
        perf_executor.set_default_jobs(1)
        if tracer is not None:
            tracer.export_jsonl(args.trace)
            logger.info("wrote %d trace records to %s", len(tracer), args.trace)
            obs_trace.deactivate()
        if registry is not None:
            if args.metrics:
                registry.export_json(args.metrics)
                logger.info("wrote metrics snapshot to %s", args.metrics)
            if args.slo:
                from ..obs.slo import SLOReport

                slo = SLOReport.from_snapshot(registry.snapshot())
                with open(args.slo, "w") as fh:
                    fh.write(slo.to_json() + "\n")
                logger.info("wrote %d SLO rows to %s", len(slo), args.slo)
            obs_metrics.deactivate()
    return exit_code


def _dispatch(args: argparse.Namespace) -> int:
    """Run the selected command with observability already activated."""
    if args.experiment == "report":
        from .report import generate

        generate(args.scale, args.out)
        print(f"wrote {args.out} ({args.scale} scale)")
        return 0

    if args.experiment == "export":
        from pathlib import Path

        out_dir = Path(args.out if args.out != "RESULTS.md" else "results")
        out_dir.mkdir(parents=True, exist_ok=True)
        for name in sorted(EXPERIMENTS):
            table = EXPERIMENTS[name].run(args.scale)
            path = out_dir / f"{name}.csv"
            path.write_text(table.to_csv() + "\n")
            logger.info("wrote %s", path)
        print(f"wrote {len(EXPERIMENTS)} CSV files to {out_dir}")
        return 0

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    tracer = obs_trace.active_tracer()
    for name in names:
        logger.info("running %s at %s scale", name, args.scale)
        PROFILER.reset()
        start = time.time()
        if tracer is not None:
            with tracer.span(name, scale=args.scale):
                table = EXPERIMENTS[name].run(args.scale)
        else:
            table = EXPERIMENTS[name].run(args.scale)
        elapsed = time.time() - start
        print(table.render())
        logger.info("%s @ %s: %.1fs", name, args.scale, elapsed)
        if args.profile:
            print(_profile_report(name, elapsed), file=sys.stderr)
            logger.debug("phase detail:\n%s", PROFILER.report())
    return 0


if __name__ == "__main__":
    sys.exit(main())
