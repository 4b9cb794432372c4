"""One benchmark for the whole system.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload in this process and prints every metric by name with
its unit; the last line of standard output is the JSON object the driver
reads.  ``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones (and writes ``bench/out/trace-W.json``).

Without ``--workload`` every workload runs, each in a fresh subprocess of
its own, one after another, and ``--out FILE`` collects their detailed
results (rounds, IQRs, environment fingerprint) for ``bench/compare.py``.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

#: One thread per process: ``nproc`` is 2 and the numbers must not depend
#: on what BLAS or OpenMP decide to do with the second core.
THREAD_PINS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
}
os.environ.update(THREAD_PINS)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]


def run_workload(workload, seed: int, seconds: float, trace: bool, import_s: float) -> dict:
    """Run one workload object; returns the detailed result."""
    import harness

    if trace:
        return harness.run_traced(workload, seed)
    return harness.run_untraced(workload, seed, seconds, import_s)


def report(result: dict, spec: dict, trace: bool) -> dict:
    """Print every metric by name with its unit; return the driver's object."""
    import harness

    section = "per_layer" if trace else "end_to_end"
    metrics = harness.declared(result, spec, section)
    name = result["workload"]
    print(f"== {name}  seed {result['seed']}  rounds {result['rounds']}  gate: {result['gate']}")
    shares = result.get("shares", {})
    for key, entry in metrics.items():
        detail = result["metrics"].get(key)
        line = f"{name}/{key} = {entry['value']:.6g} {entry['unit']}"
        if isinstance(detail, dict) and detail["n"] > 1 and detail["iqr"]:
            line += f"  (median of {detail['n']}, IQR {detail['iqr']:.3g})"
        elif isinstance(detail, dict) and not detail["iqr"] and detail["n"] > 1:
            line += f"  (identical in {detail['n']} rounds)"
        if key.endswith("_s") and key != "bench.round_s" and shares.get(key[:-2]):
            line += f"  ({shares[key[:-2]]:.1%} of the round)"
        unit = result.get("units", {}).get(key)
        if unit:
            line += f"  [{unit}]"
        print(line)
    if result.get("noisy"):
        print(f"{name}: NOISY - round IQR / median above {harness.NOISE_LIMIT:.0%}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def fingerprint(seed: int) -> dict:
    """Where and on what the numbers were taken (for result files)."""
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "thread_pins": THREAD_PINS,
        "seed": seed,
        "load_1min_start": os.getloadavg()[0],
    }


def run_all(args, names) -> int:
    """Each workload in its own fresh process, one at a time."""
    info = fingerprint(args.seed)
    results = {}
    status = 0
    for name in names:
        part = BENCH / "out" / f"result-{name}.json"
        command = [
            sys.executable, str(BENCH / "run.py"),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", str(part),
        ]
        code = subprocess.run(command, cwd=ROOT).returncode
        if code:
            print(f"{name}: exited with code {code}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(part.read_text())["workloads"][name]
    info["load_1min_end"] = os.getloadavg()[0]
    if args.out:
        Path(args.out).write_text(
            json.dumps({"fingerprint": info, "trace": args.trace, "workloads": results}, indent=1)
        )
        print(f"wrote {args.out}")
    return status


def main(argv=None) -> int:
    import harness

    spec = harness.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the detailed result here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload is None:
        return run_all(args, names)

    from workloads import WORKLOADS

    import_s = time.perf_counter() - _PROCESS_START
    try:
        result = run_workload(
            WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace), import_s
        )
    except harness.GateFailure as failure:
        print(f"{args.workload}: GATE FAILED: {failure}", file=sys.stderr)
        return 1
    line = report(result, spec, bool(args.trace))
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps({"workloads": {args.workload: result}}))
    print(json.dumps(line))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
