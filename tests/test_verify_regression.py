"""Replay of a checked-in shrunk fuzzer counterexample, end to end.

The fixture was produced by::

    python -m repro.verify fuzz --seed 11 --events 300 --mutate crescendo \\
        --save tests/fixtures/fuzz_counterexample.json

and shrunk from 309 events to a single checkpoint.  Replaying it must
reproduce the injected crescendo corruption — if the checkers, the
schedule replay or the serialization format regress, this test catches
it without re-running the fuzzer.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.verify import __main__ as verify_cli
from repro.verify.fuzz import (
    bootstrap_network,
    lockstep,
    replay,
    schedule_from_json,
)

FIXTURE = Path(__file__).parent / "fixtures" / "fuzz_counterexample.json"
#: Zave's disjoint-loop failure, minimal: fuzz seed 1's bootstrap, partition
#: ``("b",)``, three joins into ``("b", "x")``, checkpoint, heal ``("b",)``,
#: checkpoint.  Written with ``schedule_to_json``.
LOOPS_FIXTURE = Path(__file__).parent / "fixtures" / "partition_heal_loops.json"
#: Puts across a partition, both data layers in the lockstep: fuzz seed 1's
#: bootstrap with ``data_replicas=2``, 20 puts, partition ``("b",)``, 20
#: puts, heal ``("b",)``, 20 puts, checkpoint.  Written with
#: ``schedule_to_json``.  A layer that places copies on dark nodes makes
#: the engines disagree on ``replicate`` counts and final holders.
DATA_FIXTURE = Path(__file__).parent / "fixtures" / "partition_data_puts.json"


def test_counterexample_reproduces():
    config, events, expect_violations = schedule_from_json(FIXTURE.read_text())
    assert expect_violations
    assert config.mutate_family == "crescendo"
    report = replay(config, events)
    assert report.failed, "checked-in counterexample no longer reproduces"
    checks = {v.check for v in report.violations}
    # The drop corruption must be caught by crescendo's structural checks.
    assert checks & {"canon-merge", "ring-level-successor"}
    families = {v.family for v in report.violations}
    assert families == {"crescendo"}


def test_cli_replay_exits_zero(capsys):
    code = verify_cli.main(["replay", str(FIXTURE)])
    out = capsys.readouterr().out
    assert code == 0
    assert "expected violations: reproduced" in out
    assert "verify.checks=" in out


@pytest.fixture(scope="module")
def loops_replay():
    config, events, _ = schedule_from_json(LOOPS_FIXTURE.read_text())
    return lockstep(
        lambda engine: bootstrap_network(config, engine),
        events,
        lambda net, index: [],
    )


def test_partition_heal_engines_agree(loops_replay):
    comparison, _ = loops_replay
    assert comparison.equivalent, comparison.violations[:5]


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: stabilize cannot merge the loops a heal leaves",
)
def test_partition_heal_merges_the_loops(loops_replay):
    _, findings = loops_replay
    assert findings == []


def test_partition_puts_replay_clean():
    config, events, _ = schedule_from_json(DATA_FIXTURE.read_text())
    assert config.data_replicas == 2
    comparison, findings = lockstep(
        lambda engine: bootstrap_network(config, engine),
        events,
        lambda net, index: [],
        config.data_replicas,
    )
    assert comparison.fast_report.puts == 60
    assert comparison.violations == []
    assert findings == []
