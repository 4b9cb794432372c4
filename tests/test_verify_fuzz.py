"""The churn fuzzer: determinism, schedule replay, shrinking.

Cheap structural properties run in the default suite; end-to-end fuzz
runs are marked ``fuzz`` (deselected by default, exercised nightly).
"""

from __future__ import annotations

import json

import pytest

from repro.core.idspace import IdSpace
from repro.perf import dynamic as perf_dynamic
from repro.perf import storage as perf_storage
from repro.perf.dynamic import FastSimulatedCrescendo
from repro.perf.storage import FastDataLayer
from repro.scenarios.catalog import CATALOG
from repro.scenarios.runner import run_matrix, run_scenario
from repro.simulation.churn import Event, run_schedule
from repro.simulation.protocol import SimulatedCrescendo
from repro.verify.fuzz import (
    FuzzConfig,
    bootstrap_network,
    check_protocol_state,
    event_from_dict,
    generate_schedule,
    lockstep,
    replay,
    run_fuzz,
    schedule_from_json,
    schedule_to_json,
    shrink_schedule,
)
from repro.verify.oracles import compare_replays


class TestScheduleGeneration:
    def test_same_seed_same_schedule(self):
        config = FuzzConfig(seed=5, events=100)
        assert generate_schedule(config) == generate_schedule(config)

    def test_different_seed_different_schedule(self):
        a = generate_schedule(FuzzConfig(seed=5, events=100))
        b = generate_schedule(FuzzConfig(seed=6, events=100))
        assert a != b

    def test_checkpoints_inserted_and_terminal(self):
        config = FuzzConfig(seed=5, events=100, checkpoints=4)
        events = generate_schedule(config)
        checkpoints = [e for e in events if e.kind == "checkpoint"]
        assert len(checkpoints) >= 4
        assert events[-1].kind == "checkpoint"

    def test_join_ids_are_unique(self):
        events = generate_schedule(FuzzConfig(seed=7, events=400))
        joins = [e.node for e in events if e.kind == "join"]
        assert len(joins) == len(set(joins))

    def test_roundtrips_through_json(self):
        config = FuzzConfig(seed=9, events=50, mutate_family="chord")
        events = generate_schedule(config)
        parsed_config, parsed_events, expect = schedule_from_json(
            schedule_to_json(config, events)
        )
        assert parsed_events == events
        assert parsed_config.seed == config.seed
        assert parsed_config.mutate_family == "chord"
        assert expect is True


class TestScheduleParsing:
    """schedule_from_json must reject malformed fixtures loudly."""

    def _doc(self, **overrides):
        doc = json.loads(
            schedule_to_json(
                FuzzConfig(seed=1, events=0, families=("chord",)),
                [Event("lookup", rank=3, key=7), Event("checkpoint")],
            )
        )
        doc.update(overrides)
        return doc

    def _expect(self, doc, match):
        with pytest.raises(ValueError, match=match):
            schedule_from_json(json.dumps(doc))

    def test_valid_doc_parses(self):
        config, events, expect = schedule_from_json(json.dumps(self._doc()))
        assert [e.kind for e in events] == ["lookup", "checkpoint"]
        assert config.families == ("chord",)
        assert expect is False

    def test_rejects_invalid_json(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            schedule_from_json("{nope")

    def test_rejects_non_object_document(self):
        with pytest.raises(ValueError, match="expected a JSON object"):
            schedule_from_json("[1, 2]")

    def test_rejects_missing_events(self):
        doc = self._doc()
        del doc["events"]
        self._expect(doc, "missing required key 'events'")

    def test_rejects_non_list_events(self):
        self._expect(self._doc(events={"kind": "lookup"}), "must be a list")

    def test_rejects_unknown_event_kind(self):
        doc = self._doc(events=[{"kind": "frobnicate"}])
        self._expect(doc, "event 0: unknown kind 'frobnicate'")

    def test_rejects_missing_required_field(self):
        doc = self._doc(events=[{"kind": "join", "node": 5}])
        self._expect(doc, r"event 0 \(join\): missing required field\(s\) path")

    def test_rejects_field_from_wrong_kind(self):
        doc = self._doc(events=[{"kind": "stabilize", "key": 9}])
        self._expect(doc, r"event 0 \(stabilize\): unexpected field\(s\) key")

    def test_rejects_ill_typed_rank(self):
        for bad in (True, -1, "3", 2.5):
            doc = self._doc(events=[{"kind": "crash", "rank": bad}])
            self._expect(doc, "rank must be a non-negative integer")

    def test_rejects_empty_families(self):
        self._expect(self._doc(families=[]), "at least one family")

    def test_rejects_ill_typed_path(self):
        doc = self._doc(events=[{"kind": "kill_domain", "path": "a"}])
        self._expect(doc, "path must be a list of domain-name strings")
        doc = self._doc(events=[{"kind": "join", "node": 1, "path": ["a", 2]}])
        self._expect(doc, "path must be a list of domain-name strings")

    def test_reports_offending_event_index(self):
        doc = self._doc(
            events=[{"kind": "stabilize"}, {"kind": "lookup", "rank": 1}]
        )
        self._expect(doc, r"event 1 \(lookup\): missing required field\(s\) key")

    def test_rejects_non_object_event(self):
        with pytest.raises(ValueError, match="event 4: expected an object"):
            event_from_dict("stabilize", 4)

    def test_rejects_unknown_family(self):
        self._expect(self._doc(families=["chord", "plaid"]), "unknown families")
        self._expect(self._doc(families="chord"), "must be a list of names")

    def test_rejects_missing_families(self):
        doc = self._doc()
        del doc["families"]
        self._expect(doc, "missing required key 'families'")

    def test_rejects_unknown_mutate_family_and_kind(self):
        self._expect(self._doc(mutate_family="plaid"), "unknown mutate_family")
        self._expect(self._doc(mutate_kind="scramble"), "unknown mutate_kind")

    def test_rejects_bad_config_numbers(self):
        self._expect(self._doc(population=0), "population must be an integer")
        self._expect(self._doc(population="64"), "population must be an integer")
        self._expect(self._doc(seed=True), "seed must be an integer")
        self._expect(self._doc(bits=128), "bits must be <= 64")
        self._expect(self._doc(data_replicas=0), "data_replicas must be an integer")

    def test_new_event_kinds_roundtrip(self):
        events = [
            Event("partition", path=("a",)),
            Event("kill_domain", path=()),
            Event("heal"),
            Event("heal", path=("a", "x")),
            Event("checkpoint"),
        ]
        config = FuzzConfig(seed=2, events=0, families=("chord",))
        _, parsed, _ = schedule_from_json(schedule_to_json(config, events))
        assert parsed == events


class TestCliNumbers:
    """``python -m repro.verify fuzz`` rejects a bad number as a usage error
    (exit 2, naming the flag) before it bootstraps anything."""

    def _rejects(self, monkeypatch, capsys, flag, value, message):
        from repro.verify import __main__ as verify_cli

        def refuse(*args, **kwargs):
            raise AssertionError("ran the fuzzer on a bad number")

        monkeypatch.setattr(verify_cli, "run_fuzz", refuse)
        with pytest.raises(SystemExit) as exit_info:
            verify_cli.main(["fuzz", flag, value])
        assert exit_info.value.code == 2
        assert f"{flag} must be >= {message}" in capsys.readouterr().err

    def test_population_below_one(self, monkeypatch, capsys):
        self._rejects(monkeypatch, capsys, "--population", "0", "1, got 0")

    def test_data_replicas_below_one(self, monkeypatch, capsys):
        self._rejects(monkeypatch, capsys, "--data-replicas", "0", "1, got 0")

    def test_negative_events(self, monkeypatch, capsys):
        self._rejects(monkeypatch, capsys, "--events", "-5", "0, got -5")

    def test_checkpoints_below_one(self, monkeypatch, capsys):
        self._rejects(monkeypatch, capsys, "--checkpoints", "-3", "1, got -3")


class TestCliFamilies:
    """An empty family list is a usage error (exit 2), not a clean run of
    no static battery that reports "no violations"."""

    @pytest.mark.parametrize("command", ["fuzz", "smoke"])
    @pytest.mark.parametrize("raw", ["", " , ,"])
    def test_empty_list_is_rejected(self, monkeypatch, capsys, command, raw):
        from repro.verify import __main__ as verify_cli

        def refuse(*args, **kwargs):
            raise AssertionError("ran on an empty family list")

        monkeypatch.setattr(verify_cli, "run_fuzz", refuse)
        monkeypatch.setattr(verify_cli, "mutation_smoke", refuse)
        with pytest.raises(SystemExit) as exit_info:
            verify_cli.main([command, "--families", raw])
        assert exit_info.value.code == 2
        assert "needs at least one family" in capsys.readouterr().err

    def test_replay_of_an_empty_list_is_rejected(self, monkeypatch, capsys, tmp_path):
        from repro.verify import __main__ as verify_cli

        def refuse(*args, **kwargs):
            raise AssertionError("replayed an empty family list")

        monkeypatch.setattr(verify_cli, "replay", refuse)
        doc = json.loads(
            schedule_to_json(FuzzConfig(seed=1, events=0), [Event("checkpoint")])
        )
        doc["families"] = []
        fixture = tmp_path / "empty.json"
        fixture.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exit_info:
            verify_cli.main(["replay", str(fixture)])
        assert exit_info.value.code == 2
        assert "at least one family" in capsys.readouterr().err

    def test_replay_of_a_missing_fixture_is_rejected(self, capsys, tmp_path):
        from repro.verify import __main__ as verify_cli

        with pytest.raises(SystemExit) as exit_info:
            verify_cli.main(["replay", str(tmp_path / "absent.json")])
        assert exit_info.value.code == 2
        assert "absent.json" in capsys.readouterr().err


class TestRunSchedule:
    def test_requires_bootstrap(self):
        net = SimulatedCrescendo(IdSpace(32))
        with pytest.raises(ValueError, match="bootstrap the network"):
            run_schedule(net, [Event("stabilize")])

    def test_report_counts_the_replays_own_messages(self):
        config = FuzzConfig(seed=17, events=200, population=16)
        schedule = generate_schedule(config)
        zeroed = bootstrap_network(config)
        zeroed.msgs.stats.reset()
        report = run_schedule(zeroed, schedule)
        assert report.messages == {
            kind: count
            for kind, count in sorted(zeroed.msgs.stats.counts.items())
            if count
        }
        # The bootstrap's traffic before the replay is not counted.
        assert run_schedule(bootstrap_network(config), schedule) == report
        assert {
            "join_lookup", "join_finger", "leave_notify", "ping", "lookup",
        } <= set(report.messages)
        assert report.joins and report.leaves and report.crashes
        assert report.final_population == (
            config.population + report.joins - report.leaves - report.crashes
        )

    def test_replays_are_deterministic(self):
        config = FuzzConfig(seed=13, events=150, families=("chord",))
        schedule = generate_schedule(config)
        a = replay(config, schedule)
        b = replay(config, schedule)
        assert a.replay == b.replay
        assert a.violations == b.violations

    def test_population_floor_is_respected(self):
        config = FuzzConfig(seed=14, events=0, population=8)
        net = bootstrap_network(config)
        # A schedule of nothing but departures cannot empty the network.
        events = [Event("leave", rank=i) for i in range(20)]
        report = run_schedule(net, events, min_population=3)
        assert report.final_population == 3
        assert report.leaves == 5

    def test_duplicate_join_is_skipped(self):
        config = FuzzConfig(seed=15, events=0, population=8)
        net = bootstrap_network(config)
        existing = next(iter(net.nodes))
        path = net.nodes[existing].path
        report = run_schedule(net, [Event("join", node=existing, path=path)])
        assert report.joins == 0
        assert report.skipped_joins == 1

    def test_checkpoints_record_rounds_to_converge(self, monkeypatch):
        config = FuzzConfig(seed=16, events=0, population=8)
        net = bootstrap_network(config)
        converged = []

        def on_checkpoint(net, index, ok):
            converged.append(ok)

        events = [Event("crash", rank=0), Event("checkpoint"), Event("checkpoint")]
        report = run_schedule(net, events, on_checkpoint)
        assert report.checkpoint_rounds[0] >= 1
        assert report.checkpoint_rounds[1] == 1  # nothing left to repair
        assert converged == [True, True]

        def give_up(max_rounds=20):
            raise RuntimeError("not converged")

        monkeypatch.setattr(net, "stabilize_to_convergence", give_up)
        report = run_schedule(net, [Event("checkpoint")], on_checkpoint)
        assert report.checkpoint_rounds == [-1]
        assert report.unconverged_checkpoints == 1
        assert converged[-1] is False


class TestRingLoops:
    """``ring-loops``: a ring whose pointers stay inside it yet split it."""

    def _rewire(self, net, node, successor):
        ring = net.nodes[node].rings[0]
        ring.successors = [successor] + ring.successors[1:]

    def test_converged_net_has_no_rows(self):
        assert check_protocol_state(bootstrap_network(FuzzConfig(seed=1))) == []

    def test_a_split_ring_is_named_with_its_loop_sizes(self):
        net = bootstrap_network(FuzzConfig(seed=1))
        members = sorted(net.nodes)
        # Close the global ring's first five members into their own loop,
        # and the rest into another.
        self._rewire(net, members[4], members[0])
        self._rewire(net, members[-1], members[5])
        found = check_protocol_state(net)
        loops = [v for v in found if v.check == "ring-loops"]
        assert [(v.level, v.domain) for v in loops] == [(0, ())]
        assert loops[0].message == (
            f"successor pointers form 2 loops of sizes [{len(members) - 5}, 5]"
        )
        assert {
            v.node for v in found if v.check == "protocol-successor"
        } == {members[4], members[-1]}

    def test_a_pointer_leaving_the_ring_is_only_a_successor_row(self):
        net = bootstrap_network(FuzzConfig(seed=1))
        members = sorted(net.nodes)
        self._rewire(net, members[4], members[0])
        net.crash(members[-1])  # its predecessor now points at a dead node
        checks = {v.check for v in check_protocol_state(net)}
        assert "ring-loops" not in checks
        assert "protocol-successor" in checks


class TestShrinking:
    def test_shrinks_to_single_culprit(self):
        # A synthetic predicate: the failure needs only event #17.
        events = [Event("lookup", rank=i, key=i) for i in range(40)]
        culprit = events[17]
        shrunk, replays = shrink_schedule(
            events, lambda evs: culprit in evs
        )
        assert shrunk == [culprit]
        assert replays > 0

    def test_respects_replay_budget(self):
        events = [Event("lookup", rank=i, key=i) for i in range(64)]
        needed = set(events[::7])  # scattered multi-event failure
        shrunk, replays = shrink_schedule(
            events, lambda evs: needed <= set(evs), max_replays=10
        )
        assert replays <= 10
        assert needed <= set(shrunk)

    def test_shrunk_schedule_still_fails(self):
        config = FuzzConfig(
            seed=16,
            events=60,
            families=("crescendo",),
            mutate_family="crescendo",
            checkpoints=2,
        )
        report = run_fuzz(config, shrink=True)
        assert report.failed
        assert report.shrunk is not None
        assert len(report.shrunk) <= len(report.schedule)
        assert replay(config, report.shrunk).failed

    def test_shrink_is_idempotent_single_culprit(self):
        events = [Event("lookup", rank=i, key=i) for i in range(40)]
        culprit = events[17]
        predicate = lambda evs: culprit in evs  # noqa: E731
        shrunk, _ = shrink_schedule(events, predicate)
        again, _ = shrink_schedule(shrunk, predicate)
        assert again == shrunk

    def test_shrink_is_idempotent_scattered_failure(self):
        # A monotone multi-event predicate: 1-minimal output means no
        # chunk of any size can be dropped, so a second pass is a no-op.
        events = [Event("lookup", rank=i, key=i) for i in range(48)]
        needed = set(events[::11])
        predicate = lambda evs: needed <= set(evs)  # noqa: E731
        shrunk, _ = shrink_schedule(events, predicate)
        assert set(shrunk) == needed
        again, _ = shrink_schedule(shrunk, predicate)
        assert again == shrunk

    def test_reshrinking_real_counterexample_is_noop(self):
        # Full loop on a real oracle: shrink a mutation counterexample,
        # then shrink the shrunk schedule again — it must come back
        # unchanged and still fail.
        config = FuzzConfig(
            seed=17,
            events=40,
            families=("chord",),
            mutate_family="chord",
            checkpoints=2,
        )
        report = run_fuzz(config, shrink=True)
        assert report.failed and report.shrunk is not None
        predicate = lambda evs: replay(config, evs).failed  # noqa: E731
        again, _ = shrink_schedule(report.shrunk, predicate)
        assert again == report.shrunk
        assert replay(config, again).failed


@pytest.mark.fuzz
class TestEndToEnd:
    def test_clean_fuzz_all_families(self):
        config = FuzzConfig(seed=7, events=2000)
        report = run_fuzz(config, shrink=False)
        assert not report.failed, report.violations[:5]
        assert report.replay.checkpoints >= 8

    def test_mutation_fuzz_produces_replayable_counterexample(self):
        config = FuzzConfig(
            seed=11, events=300, mutate_family="kandy", mutate_kind="drop"
        )
        report = run_fuzz(config, shrink=True)
        assert report.failed
        assert report.shrunk is not None
        doc = schedule_to_json(config, report.shrunk)
        parsed_config, parsed_events, expect = schedule_from_json(doc)
        assert expect
        assert replay(parsed_config, parsed_events).failed


class _DropsAHolder(FastDataLayer):
    """A fast data layer that forgets one holder on its first handoff."""

    _dropped = False

    def node_leaving(self, node_id):
        super().node_leaving(node_id)
        for holders in self.holders.values():
            if not self._dropped and len(holders) > 1:
                holders.pop()
                self._dropped = True


def _one_extra(kind):
    """A fast-engine subclass that sends one stray ``kind`` message, the
    first time it sends that kind at all."""

    class OneExtra(FastSimulatedCrescendo):
        _extra_sent = False

        def _count(self, sent, hops=1):
            if sent == kind and not self._extra_sent:
                self._extra_sent = True
                hops += 1
            super()._count(sent, hops)

    return OneExtra


class TestLockstep:
    """Every replay runs the reference engine beside the fast one."""

    def test_an_extra_stabilize_message_fails_the_replay(self, monkeypatch):
        monkeypatch.setattr(perf_dynamic, "FastSimulatedCrescendo", _one_extra("ping"))
        config = FuzzConfig(seed=5, events=120, families=("chord",))
        report = replay(config, generate_schedule(config))
        assert report.failed
        diverged = [v for v in report.violations if v.check == "oracle-protocol"]
        assert any("'ping'" in v.message for v in diverged), diverged

    def test_crosscheck_compares_the_scenarios_data_events(self, monkeypatch):
        # One stray message on the first put: only a lockstep that replays
        # the scenario's put events on both engines can see it.
        monkeypatch.setattr(perf_dynamic, "FastSimulatedCrescendo", _one_extra("store"))
        spec = CATALOG["flash_crowd"]("smoke")
        assert spec.data_replicas is not None
        result = run_scenario(spec, seed=0, families=(), latency=False)
        comparison = result.comparison
        assert comparison.ref_report.puts > 0
        assert not comparison.equivalent and not result.ok
        assert any(
            v.check == "oracle-protocol" and "'store'" in v.message
            for v in comparison.violations
        ), comparison.violations

    def test_divergence_fails_even_a_negative_control(self, monkeypatch):
        monkeypatch.setattr(perf_dynamic, "FastSimulatedCrescendo", _one_extra("ping"))
        spec = CATALOG["partition_noheal"]("smoke")
        result = run_scenario(spec, families=(), routing_pairs=0, latency=False)
        assert result.residual  # the control still trips ...
        assert any("'ping'" in v.message for v in result.divergence)
        assert not result.ok  # ... but a divergence is never expected
        matrix = run_matrix(
            names=["partition_noheal"], families=(), routing_pairs=0,
            latency=False,
        )
        assert matrix.summary_table().column("status") == ["FAIL"]
        assert not matrix.ok

    def test_fast_data_layer_is_checked_against_the_scalar_one(
        self, monkeypatch
    ):
        # The reference engine carries the scalar DataLayer, so a bug in
        # the fast layer alone shows up as a difference.
        monkeypatch.setattr(perf_storage, "FastDataLayer", _DropsAHolder)
        config = FuzzConfig(
            seed=1, events=100, population=16, families=(), data_replicas=2
        )
        report = replay(config, generate_schedule(config))
        assert report.replay.puts and report.replay.joins
        assert report.failed
        assert {v.check for v in report.violations} == {"oracle-protocol"}

    def test_holders_are_compared(self):
        config = FuzzConfig(
            seed=1, events=100, population=16, families=(), data_replicas=2
        )
        comparison, _ = lockstep(
            lambda engine: bootstrap_network(config, engine),
            generate_schedule(config),
            lambda net, index: [],
            config.data_replicas,
        )
        assert comparison.equivalent
        # Each engine's first listener is its data layer.
        ref_layer = comparison.ref.listeners[0]
        fast_layer = comparison.fast.listeners[0]
        assert isinstance(fast_layer, FastDataLayer)
        assert not isinstance(ref_layer, FastDataLayer)
        key_hash = next(k for k, h in fast_layer.holders.items() if h)
        fast_layer.holders[key_hash] = fast_layer.holders[key_hash][1:]
        rejudged = compare_replays(
            comparison.ref, comparison.ref_report,
            comparison.fast, comparison.fast_report,
            data=(ref_layer, fast_layer),
        )
        assert [v.message for v in rejudged.violations] == [
            f"data holders of key {key_hash} disagree: reference "
            f"{ref_layer.holders[key_hash]} vs fast "
            f"{fast_layer.holders[key_hash]}"
        ]
