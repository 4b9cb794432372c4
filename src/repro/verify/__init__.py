"""repro.verify — the correctness harness for every DHT construction.

Three layers, designed to be called from tests, CLIs and each other:

- :mod:`~repro.verify.invariants`: per-family structural checkers in a
  single registry (:func:`run_checks` / :func:`verify_network`).
- :mod:`~repro.verify.oracles`: differential oracles comparing reference
  vs. bulk builders, scalar vs. batch routing, reference vs. fast
  maintenance engines, scalar vs. vectorized storage, plus the data-layer
  durability oracle.
- :mod:`~repro.verify.fuzz`: a deterministic, seed-driven churn fuzzer
  that replays on both maintenance engines in lockstep, verifies at every
  quiescent point and shrinks failing schedules;
  :mod:`~repro.verify.mutate` keeps the checkers honest by corrupting
  tables and asserting detection.

CLI: ``python -m repro.verify fuzz --seed 7 --events 2000``.
"""

from .builders import EXTRA_FAMILIES, FAMILIES, build_family, small_network
from .fuzz import (
    FuzzConfig,
    FuzzReport,
    generate_schedule,
    replay,
    run_fuzz,
    schedule_from_json,
    schedule_to_json,
    shrink_schedule,
)
from .invariants import (
    all_checkers,
    checkers_for,
    maybe_verify,
    register,
    run_checks,
    set_auto_verify,
    verify_network,
)
from .mutate import corrupt, mutation_smoke
from .oracles import (
    BuildComparison,
    DurabilityMonitor,
    check_durability,
    compare_builders,
    compare_routing,
    compare_storage,
    storage_workload,
)
from .violations import InvariantViolationError, Violation, summarize

__all__ = [
    "BuildComparison",
    "DurabilityMonitor",
    "EXTRA_FAMILIES",
    "FAMILIES",
    "FuzzConfig",
    "FuzzReport",
    "InvariantViolationError",
    "Violation",
    "all_checkers",
    "build_family",
    "check_durability",
    "checkers_for",
    "compare_builders",
    "compare_routing",
    "compare_storage",
    "corrupt",
    "generate_schedule",
    "maybe_verify",
    "mutation_smoke",
    "register",
    "replay",
    "run_checks",
    "run_fuzz",
    "schedule_from_json",
    "schedule_to_json",
    "set_auto_verify",
    "shrink_schedule",
    "small_network",
    "storage_workload",
    "summarize",
    "verify_network",
]
