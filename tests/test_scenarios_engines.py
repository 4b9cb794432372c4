"""Scenario semantics across engines: equivalence, controls, floors.

The acceptance bar for the scenario zoo: reference and fast maintenance
engines produce identical lookup outcomes and message counts on every
catalog schedule, the partition negative control demonstrably trips an
invariant oracle (and its repaired twin stays clean), and the correlated
failure events respect the population floor.
"""

from __future__ import annotations

import pytest

from repro.scenarios.catalog import CATALOG
from repro.scenarios.dsl import bootstrap_scenario, compile_scenario
from repro.scenarios.runner import run_scenario
from repro.simulation.churn import Event, run_schedule
from repro.verify.fuzz import check_protocol_state


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_engines_agree_on_every_scenario(name):
    spec = CATALOG[name]("smoke")
    result = run_scenario(spec, seed=0, families=(), routing_pairs=0)
    comparison = result.comparison
    assert comparison.equivalent, comparison.violations[:5]
    assert comparison.ref_report.lookup_outcomes == (
        comparison.fast_report.lookup_outcomes
    )
    assert dict(comparison.ref.msgs.stats.counts) == dict(
        comparison.fast.msgs.stats.counts
    )


class TestNegativeControl:
    def test_noheal_trips_protocol_oracle_on_both_engines(self):
        spec = CATALOG["partition_noheal"]("smoke")
        result = run_scenario(spec, seed=0, families=(), routing_pairs=0)
        assert result.report.partitions == 1
        assert result.report.revived == result.report.suspended > 0
        assert result.residual
        checks = {v.check for v in result.residual}
        assert checks & {"protocol-successor", "leafset-symmetry"}
        assert result.failed and result.ok  # expected to trip
        # The reference engine ends in the same (stale) state.
        comparison = result.comparison
        assert comparison.equivalent, comparison.violations[:5]
        assert check_protocol_state(comparison.ref) == result.residual

    def test_repaired_twin_is_clean(self):
        spec = CATALOG["partition_rejoin"]("smoke")
        result = run_scenario(spec, seed=0, families=(), routing_pairs=0)
        assert result.report.revived == result.report.suspended > 0
        assert not result.violations and not result.residual
        assert result.ok
        comparison = result.comparison
        assert comparison.equivalent, comparison.violations[:5]
        assert check_protocol_state(comparison.ref) == []

    def test_disabling_the_repair_is_the_only_difference(self):
        healed = CATALOG["partition_rejoin"]("smoke")
        control = CATALOG["partition_noheal"]("smoke")
        healed_ops = [p.op for p in healed.phases]
        control_ops = [p.op for p in control.phases]
        # The healed twin is the control plus a trailing repair window.
        assert healed_ops == control_ops + ["stabilize", "checkpoint"]
        assert healed.expect_violations is False
        assert control.expect_violations is True


class TestCorrelatedEventSemantics:
    def test_kill_domain_respects_population_floor(self):
        spec = CATALOG["diurnal"]("smoke")
        net = bootstrap_scenario(spec, 0)
        report = run_schedule(net, [Event("kill_domain", path=())])
        assert report.final_population == 3
        assert report.killed == spec.population - 3

    def test_regional_failure_empties_the_domain(self):
        spec = CATALOG["regional_failure"]("smoke")
        events = compile_scenario(spec, 0)
        kill_index = next(
            i for i, e in enumerate(events) if e.kind == "kill_domain"
        )
        net = bootstrap_scenario(spec, 0)
        run_schedule(net, events[: kill_index + 1])
        survivors = [
            n
            for n, node in net.nodes.items()
            if node.alive and node.path[:1] == ("b",)
        ]
        assert survivors == []

    def test_partition_suspends_and_heal_restores_membership(self):
        spec = CATALOG["partition_rejoin"]("smoke")
        events = compile_scenario(spec, 0)
        part_index = next(
            i for i, e in enumerate(events) if e.kind == "partition"
        )
        net = bootstrap_scenario(spec, 0)
        before = set(net.live_view())
        run_schedule(net, events[: part_index + 1])
        dark = set(net.suspended_ids())
        assert dark and all(net.nodes[n].path[:1] == ("c",) for n in dark)
        assert set(net.live_view()) == before - dark
        run_schedule(net, [Event("heal"), Event("checkpoint")])
        assert net.suspended_ids() == []
        assert set(net.live_view()) == before
        assert check_protocol_state(net) == []
