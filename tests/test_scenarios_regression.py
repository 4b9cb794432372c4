"""Bit-for-bit replay of the checked-in scenario fixtures, both engines.

Each ``tests/fixtures/scenario_<name>.json`` was produced by the
generator run recorded in its ``note`` field (compiled at smoke scale,
seed 0; negative controls additionally ddmin-shrunk).  The ``expect``
block pins every observable of the replay — event counts, final
population, lookup/data outcome digests, total message cost, residual
oracle violations and the exact latency sum — computed on the reference
engine.  The fast engine must reproduce all of it, and the reference
engine must replay the same events (data layer and latency included) in
lockstep with the fast one: any regression in the DSL substrate, the
churn replay, either maintenance engine, the latency attach or the
oracle stack shows up as a digest mismatch or a divergence here without
re-running the compiler.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.scenarios import __main__ as scenarios_cli
from repro.scenarios.catalog import CATALOG
from repro.scenarios.dsl import scenario_from_json
from repro.scenarios.runner import run_scenario
from repro.verify.fuzz import check_protocol_state

FIXTURES = Path(__file__).parent / "fixtures"
NAMES = sorted(CATALOG)


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def _load(name):
    text = (FIXTURES / f"scenario_{name}.json").read_text()
    document = scenario_from_json(text)
    expect = json.loads(text)["expect"]
    return document, expect


def _report_digest(report, messages, residual):
    """The ``expect`` fields a bare replay report determines."""
    return {
        "joins": report.joins,
        "leaves": report.leaves,
        "crashes": report.crashes,
        "killed": report.killed,
        "suspended": report.suspended,
        "revived": report.revived,
        "checkpoints": report.checkpoints,
        "final_population": report.final_population,
        "lookups_attempted": report.lookups_attempted,
        "lookups_delivered": report.lookups_delivered,
        "puts": report.puts,
        "data_gets": report.data_gets,
        "outcomes_sha256": _digest(report.lookup_outcomes),
        "paths_sha256": _digest(report.lookup_paths),
        "data_outcomes_sha256": _digest(report.data_outcomes),
        "messages": messages,
        "residual_violations": residual,
    }


def test_every_catalog_scenario_has_a_fixture():
    on_disk = {p.stem[len("scenario_"):] for p in FIXTURES.glob("scenario_*.json")}
    assert on_disk == set(NAMES)


@functools.lru_cache(maxsize=None)
def _lockstep(name):
    """One lockstep replay of the fixture, judged once per engine."""
    document, _ = _load(name)
    return run_scenario(
        document.spec,
        seed=document.seed,
        families=(),
        routing_pairs=0,
        events=document.events,
        latency=True,
    )


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize("name", NAMES)
def test_fixture_replays_bit_for_bit(name, engine):
    document, expect = _load(name)
    result = _lockstep(name)
    if engine == "reference":
        # The reference engine is an oracle: it replays the fixture's
        # events beside the fast engine, data layer and latency included.
        comparison = result.comparison
        assert comparison.equivalent, comparison.violations[:5]
        residual = check_protocol_state(comparison.ref)
        observed = _report_digest(
            comparison.ref_report,
            sum(comparison.ref.msgs.stats.counts.values()),
            len(residual),
        )
        # Per-lookup latency: the lockstep holds the reference's scalar
        # fold to the fast gather, whose sum the fast case pins.
        expect = {k: v for k, v in expect.items() if k != "lookup_ms_sum"}
        assert observed == expect, f"{name} no longer replays on {engine}"
        assert bool(residual) == document.expect_violations
        return
    observed = _report_digest(
        result.report, result.message_total, len(result.residual)
    )
    observed["lookup_ms_sum"] = sum(result.lookup_ms)
    assert observed == expect, f"{name} no longer replays on {engine}"
    assert result.failed == document.expect_violations


def test_noheal_fixture_is_shrunk_and_still_trips():
    document, expect = _load("partition_noheal")
    assert document.expect_violations
    # ddmin got it down to the single partition event: the reachable
    # side's rings are instantly stale against live membership.
    assert [e.kind for e in document.events] == ["partition"]
    assert expect["residual_violations"] > 0


@pytest.mark.parametrize("name", ["slow_join", "partition_noheal"])
def test_cli_replay_exits_zero(name, capsys):
    code = scenarios_cli.main(
        [
            "replay",
            str(FIXTURES / f"scenario_{name}.json"),
            "--families",
            "chord",
            "--routing-pairs",
            "4",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    if name == "partition_noheal":
        assert "tripped as expected" in out


class TestCliUsage:
    """``python -m repro.scenarios`` refuses what ``python -m repro.verify``
    refuses, as a usage error (exit 2) before it runs anything."""

    def _rejects(self, monkeypatch, capsys, argv, message):
        def refuse(*args, **kwargs):
            raise AssertionError(f"ran {argv}")

        monkeypatch.setattr(scenarios_cli, "run_scenario", refuse)
        with pytest.raises(SystemExit) as exit_info:
            scenarios_cli.main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_empty_family_list(self, monkeypatch, capsys):
        self._rejects(
            monkeypatch,
            capsys,
            ["run", "regional_failure", "--families", ""],
            "needs at least one family",
        )

    def test_empty_scenario_list(self, monkeypatch, capsys):
        self._rejects(
            monkeypatch,
            capsys,
            ["matrix", "--scenarios", " , "],
            "needs at least one scenario",
        )

    def test_negative_routing_pairs(self, monkeypatch, capsys):
        self._rejects(
            monkeypatch,
            capsys,
            ["run", "regional_failure", "--routing-pairs", "-5"],
            "must be >= 0, got -5",
        )

    def test_replay_of_a_missing_fixture(self, monkeypatch, capsys, tmp_path):
        self._rejects(
            monkeypatch, capsys, ["replay", str(tmp_path / "absent.json")], "absent.json"
        )

    def test_replay_of_a_malformed_fixture(self, monkeypatch, capsys, tmp_path):
        fixture = tmp_path / "malformed.json"
        fixture.write_text('{"scenario": "x"}')
        self._rejects(
            monkeypatch, capsys, ["replay", str(fixture)], "missing required key"
        )
