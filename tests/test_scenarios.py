"""The scenario DSL: validation, compilation determinism, JSON round-trip.

Structural and property tests — replay-twice determinism, exact JSON
round-trips, precise rejection of malformed specs — all cheap enough for
the default suite.  Engine equivalence and the negative control live in
``test_scenarios_engines.py``; fixture replay in
``test_scenarios_regression.py``.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.scenarios.catalog import CATALOG, SCALES
from repro.scenarios.dsl import (
    Phase,
    ScenarioSpec,
    bootstrap_placement,
    bootstrap_scenario,
    compile_scenario,
    scenario_from_json,
    scenario_to_json,
    validate_spec,
)
from repro.scenarios.runner import run_scenario
from repro.simulation.churn import Event, run_schedule
from repro.verify.fuzz import shrink_schedule


def _spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="t",
        population=12,
        phases=(
            Phase("traffic", count=5),
            Phase("checkpoint"),
        ),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestValidation:
    def _expect(self, match, **overrides):
        with pytest.raises(ValueError, match=match):
            validate_spec(_spec(**overrides))

    def test_catalog_specs_validate(self):
        for factory in CATALOG.values():
            for scale in SCALES:
                validate_spec(factory(scale))

    def test_rejects_unknown_op(self):
        self._expect("unknown op 'surge'", phases=(Phase("surge", count=3),))

    def test_rejects_missing_required_field(self):
        self._expect(
            "missing required field 'count'", phases=(Phase("traffic"),)
        )

    def test_rejects_field_from_wrong_op(self):
        self._expect(
            "field 'zipf' does not apply",
            phases=(Phase("checkpoint", zipf=1.2),),
        )

    def test_rejects_bad_counts(self):
        self._expect(
            "count must be a positive", phases=(Phase("traffic", count=0),)
        )
        self._expect(
            "stagger must be a positive",
            phases=(Phase("join_wave", count=3, stagger=-1),),
        )
        self._expect("population must be an integer >= 4", population=2)

    def test_rejects_foreign_domain(self):
        self._expect(
            "not a prefix of any scenario domain",
            phases=(Phase("kill_domain", domain=("mars",)),),
        )

    def test_rejects_whole_network_takedown(self):
        self._expect(
            "whole network", phases=(Phase("partition", domain=()),)
        )

    def test_rejects_partition_with_data_layer(self):
        self._expect(
            "incompatible with a data layer",
            data_replicas=2,
            phases=(Phase("partition", domain=("a",)), Phase("heal")),
        )

    def test_rejects_put_get_weights_without_data_layer(self):
        self._expect(
            "put/get need",
            phases=(
                Phase(
                    "mix",
                    count=4,
                    weights=Phase.mix_weights({"lookup": 1.0, "put": 0.5}),
                ),
            ),
        )

    def test_rejects_empty_phases(self):
        self._expect("at least one phase", phases=())

    def test_rejects_non_finite_mix_weights(self):
        for weight in (float("inf"), 10**400):
            phases = (Phase("mix", count=5, weights=(("join", weight),)),)
            self._expect(
                r"phase 0 \(mix\): weights must be finite", phases=phases
            )
            with pytest.raises(ValueError, match="weights must be finite"):
                compile_scenario(_spec(phases=phases), 0)
        # Finite weights whose total overflows are refused the same way.
        self._expect(
            "with a finite total",
            phases=(
                Phase(
                    "mix",
                    count=5,
                    weights=Phase.mix_weights({"join": 1e308, "lookup": 1e308}),
                ),
            ),
        )


class TestCompilation:
    def test_same_seed_same_schedule(self):
        for name, factory in CATALOG.items():
            spec = factory("smoke")
            assert compile_scenario(spec, 3) == compile_scenario(spec, 3), name

    def test_different_seed_different_schedule(self):
        spec = CATALOG["diurnal"]("smoke")
        assert compile_scenario(spec, 1) != compile_scenario(spec, 2)

    def test_join_ids_fresh_against_bootstrap(self):
        spec = CATALOG["slow_join"]("smoke")
        bootstrap_ids = {n for n, _ in bootstrap_placement(spec, 5)}
        joins = [
            e.node for e in compile_scenario(spec, 5) if e.kind == "join"
        ]
        assert len(joins) == len(set(joins))
        assert not (set(joins) & bootstrap_ids)

    def test_flash_crowd_keys_skew_to_hot_domain(self):
        spec = CATALOG["flash_crowd"]("smoke")
        placement = dict(bootstrap_placement(spec, 0))
        hot = [n for n, p in placement.items() if p[:1] == ("a",)]
        events = compile_scenario(spec, 0)
        # The burst phases target live member ids of the hot domain.
        burst_keys = [
            e.key for e in events if e.kind == "lookup" and e.key in placement
        ]
        assert burst_keys, "no domain-targeted lookups compiled"
        assert all(placement[k][:2] == ("a", "x") for k in burst_keys)
        assert set(burst_keys) <= set(hot)

    def test_ramped_join_staggers_stabilizes(self):
        spec = CATALOG["slow_join"]("smoke")
        events = compile_scenario(spec, 0)
        kinds = [e.kind for e in events]
        first_join = kinds.index("join")
        window = kinds[first_join : first_join + 8]
        assert window.count("stabilize") >= 2  # every 3 joins at smoke scale

    def test_partition_events_compile_with_paths(self):
        events = compile_scenario(CATALOG["partition_noheal"]("smoke"), 0)
        partition = [e for e in events if e.kind == "partition"]
        heal = [e for e in events if e.kind == "heal"]
        assert partition and partition[0].path == ("c",)
        # A bare heal phase revives everything: serialized with no path.
        assert heal and heal[-1].path is None

    def test_schedules_are_shrinkable(self):
        # Any compiled sub-schedule must replay (run_schedule skips what
        # cannot execute) — the ddmin contract over scenario schedules.
        spec = CATALOG["regional_failure"]("smoke")
        events = compile_scenario(spec, 0)
        kill = next(e for e in events if e.kind == "kill_domain")
        shrunk, _ = shrink_schedule(events, lambda evs: kill in evs)
        assert shrunk == [kill]
        net = bootstrap_scenario(spec, 0)
        report = run_schedule(net, shrunk)
        assert report.domain_kills == 1
        assert report.killed > 0


class TestJsonRoundTrip:
    def test_every_catalog_scenario_roundtrips_exactly(self):
        for name, factory in CATALOG.items():
            spec = factory("smoke")
            events = compile_scenario(spec, 7)
            document = scenario_from_json(scenario_to_json(spec, 7, events))
            assert document.spec == spec, name
            assert document.seed == 7
            assert document.events == events, name
            # And the serialized form itself is a fixed point.
            assert scenario_to_json(
                document.spec, document.seed, document.events
            ) == scenario_to_json(spec, 7, events)

    def test_rejects_unknown_phase_op(self):
        spec = CATALOG["diurnal"]("smoke")
        doc = json.loads(scenario_to_json(spec, 0, []))
        doc["phases"][0]["op"] = "frobnicate"
        with pytest.raises(ValueError, match="unknown op 'frobnicate'"):
            scenario_from_json(json.dumps(doc))

    def test_rejects_unexpected_phase_field(self):
        spec = CATALOG["diurnal"]("smoke")
        doc = json.loads(scenario_to_json(spec, 0, []))
        doc["phases"][0]["rank"] = 3
        with pytest.raises(ValueError, match=r"unexpected field\(s\) rank"):
            scenario_from_json(json.dumps(doc))

    def test_rejects_malformed_event(self):
        spec = CATALOG["diurnal"]("smoke")
        doc = json.loads(scenario_to_json(spec, 0, [Event("stabilize")]))
        doc["events"][0] = {"kind": "lookup", "rank": 1}
        with pytest.raises(ValueError, match="missing required field"):
            scenario_from_json(json.dumps(doc))

    def test_rejects_non_finite_mix_weight(self):
        spec = _spec(phases=(Phase("mix", count=5, weights=(("join", 1.0),)),))
        doc = json.loads(scenario_to_json(spec, 0, []))
        doc["phases"][0]["weights"]["join"] = float("inf")
        text = json.dumps(doc)
        assert '"join": Infinity' in text
        with pytest.raises(
            ValueError, match=r"phase 0 \(mix\): weights must be finite"
        ):
            scenario_from_json(text)

    def test_rejects_missing_keys_and_bad_types(self):
        spec = CATALOG["diurnal"]("smoke")
        text = scenario_to_json(spec, 0, [])
        doc = json.loads(text)
        del doc["phases"]
        with pytest.raises(ValueError, match="missing required key 'phases'"):
            scenario_from_json(json.dumps(doc))
        doc = json.loads(text)
        doc["seed"] = "zero"
        with pytest.raises(ValueError, match="seed must be an integer"):
            scenario_from_json(json.dumps(doc))
        with pytest.raises(ValueError, match="not valid JSON"):
            scenario_from_json("{")


class TestReplayDeterminism:
    def test_replaying_twice_is_identical(self):
        # Same seed, two full runs with oracles: identical ScheduleReport
        # fields, oracle outcomes and latency accounting.
        spec = CATALOG["regional_failure"]("smoke")
        a = run_scenario(spec, seed=4, families=("chord",), routing_pairs=6)
        b = run_scenario(spec, seed=4, families=("chord",), routing_pairs=6)
        assert a.events == b.events
        assert dataclasses.asdict(a.report) == dataclasses.asdict(b.report)
        assert a.violations == b.violations
        assert a.residual == b.residual
        assert a.lookup_ms == b.lookup_ms
        assert a.messages == b.messages

    def test_fixture_replay_matches_direct_run(self):
        # JSON round-trip changes nothing about the replay.
        spec = CATALOG["slow_join"]("smoke")
        direct = run_scenario(spec, seed=2, families=(), routing_pairs=0)
        document = scenario_from_json(
            scenario_to_json(spec, 2, direct.events)
        )
        replayed = run_scenario(
            document.spec,
            seed=document.seed,
            events=document.events,
            families=(),
            routing_pairs=0,
        )
        assert dataclasses.asdict(replayed.report) == dataclasses.asdict(
            direct.report
        )
        assert replayed.messages == direct.messages


def test_availability_without_lookups_is_one():
    spec = _spec(phases=(Phase("join_wave", count=3), Phase("checkpoint")))
    result = run_scenario(spec, families=(), routing_pairs=0, latency=False)
    assert result.report.joins == 3
    assert result.report.lookups_attempted == 0
    assert result.availability == 1.0
    assert not result.findings
