"""Scenario zoo: named production-traffic shapes as replayable schedules.

The paper's hierarchical designs are motivated by exactly the failure
shapes a flat DHT handles badly — correlated regional failure, whole-domain
partition, skewed per-domain load — but random churn mixes rarely produce
them.  This package makes those shapes first-class:

- :mod:`repro.scenarios.dsl` — a declarative phase language
  (:class:`~repro.scenarios.dsl.ScenarioSpec` /
  :class:`~repro.scenarios.dsl.Phase`) compiling to deterministic
  :class:`~repro.simulation.churn.Event` schedules, JSON round-trippable
  on the same substrate as :mod:`repro.verify.fuzz` fixtures and
  shrinkable with the same ddmin pass;
- :mod:`repro.scenarios.catalog` — the named scenarios: flash crowd,
  diurnal churn waves, correlated regional failure, partition/rejoin
  (plus its no-repair negative control), slow massive join;
- :mod:`repro.scenarios.runner` — replay on both maintenance engines in
  the fuzzer's lockstep with per-checkpoint invariant-registry, delivery
  and durability oracles, latency-true ``slo.*`` accounting, and the
  family x scenario matrix artifact behind ``python -m repro.scenarios``.
"""

from .catalog import CATALOG, scenario_names
from .dsl import (
    Phase,
    ScenarioSpec,
    bootstrap_placement,
    bootstrap_scenario,
    compile_scenario,
    scenario_from_json,
    scenario_to_json,
)
from .runner import (
    MATRIX_FAMILIES,
    MatrixResult,
    ScenarioResult,
    run_matrix,
    run_scenario,
)

__all__ = [
    "CATALOG",
    "MATRIX_FAMILIES",
    "MatrixResult",
    "Phase",
    "ScenarioResult",
    "ScenarioSpec",
    "bootstrap_placement",
    "bootstrap_scenario",
    "compile_scenario",
    "run_matrix",
    "run_scenario",
    "scenario_from_json",
    "scenario_names",
    "scenario_to_json",
]
