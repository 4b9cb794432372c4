"""Tests of the benchmark itself (``python -m pytest bench/tests -q``).

Every workload runs at tiny sizes passed as constructor arguments; the
run shape, metric names and units, trace arithmetic, ``compare.py``
verdicts and the gate's exit code are what is under test, not speed.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.perf.kernels import compile_network  # noqa: E402
from repro.serve import ServeRuntime  # noqa: E402
from repro.serve.testbed import SERVE_TOPOLOGY  # noqa: E402

SPEC = harness.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")

TINY = {
    "serve_static": lambda: workloads.ServeStatic(nodes=96, lookups=600, concurrency=64),
    "serve_churn": lambda: workloads.ServeChurn(
        nodes=128, lookups=800, concurrency=64, crash_every=5, crash_count=2
    ),
    "scenario_e2e": lambda: workloads.ScenarioE2E(population=60, mix=120, burst=200),
    "figure_sweep": lambda: workloads.FigureSweep(nodes=200, samples=500, params=SERVE_TOPOLOGY),
    "store_mix": lambda: workloads.StoreMix(
        nodes=128, puts=300, gets=600, layer_nodes=64, layer_puts=200
    ),
}


@pytest.fixture(scope="module")
def traced():
    """One traced run per workload, shared by the per-layer tests."""
    return {name: harness.run_traced(make(), seed=3) for name, make in TINY.items()}


def test_spec_matches_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS) == list(TINY)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= SPEC["end_to_end"][0].items()
    assert len(SPEC["per_layer"]) <= 128 and len(SPEC["end_to_end"]) <= 16


@pytest.mark.parametrize("name", list(TINY))
def test_untraced_run_emits_exactly_the_declared_metrics(name, capsys):
    result = run.run_workload(TINY[name](), seed=3, seconds=0.0, trace=False, import_s=0.1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert result["rounds"] == harness.MIN_ROUNDS
    line = run.report(result, SPEC, trace=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        entry = line["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert entry["value"] > 0, f"{metric['name']} must never be 0"
        assert metric["name"] in result["metrics"], "emitted by the workload, not defaulted"
    assert result["metrics"]["setup_s"]["n"] == harness.SETUP_REPEATS
    printed = capsys.readouterr().out
    assert all(f"{name}/{m['name']} = " in printed for m in SPEC["end_to_end"])


def test_traced_runs_cover_every_declared_layer_metric(traced):
    declared = [m["name"] for m in SPEC["per_layer"]]
    for name, result in traced.items():
        line = run.report(result, SPEC, trace=True)
        assert list(line["metrics"]) == declared
    # No dead declarations: some workload produces every per-layer metric
    # (rare events such as a hedge win may still count 0 at these sizes).
    produced = set().union(*(result["metrics"] for result in traced.values()))
    assert [metric for metric in declared if metric not in produced] == []


def test_layers_that_idle_report_zero(traced):
    figure, static = traced["figure_sweep"]["metrics"], traced["serve_static"]["metrics"]
    assert not figure.get("kernels.frontier_step_s") and not figure.get("serve.tick_self_s")
    assert not static.get("build.kandy_s") and not static.get("storage.batch_get_s")
    assert static["kernels.frontier_step_calls"] == static["serve.ticks"] > 0


def test_traced_self_times_sum_to_the_round_wall(traced):
    for name, result in traced.items():
        assert sum(result["shares"].values()) == pytest.approx(1.0, abs=1e-9), name
        assert result["metrics"]["bench.unattributed_share"] == result["shares"]["bench.round"]
    dump = json.loads((BENCH / "out" / "trace-serve_churn.json").read_text())
    assert dump["fields"][:4] == ["name", "start", "end", "parent"]
    spans = dump["spans"]
    assert all(parent < index for index, (_, _, _, parent, *_) in enumerate(spans))
    assert {"serve.tick", "kernels.frontier_step", "batcher.compile_view"} <= {s[0] for s in spans}


def test_tracer_restores_every_attribute_it_rebinds(traced):
    assert not hasattr(ServeRuntime.tick, "__wrapped__")
    assert not hasattr(compile_network.__globals__["CompiledNetwork"].frontier_step, "__wrapped__")
    from repro.perf.dynamic import FastSimulatedCrescendo

    assert "join" not in vars(FastSimulatedCrescendo)  # inherited again, not shadowed


class BrokenSweep(workloads.FigureSweep):
    """The kernels keep the true link tables; the scalar oracle sees cut ones."""

    def _build(self, family, space, hierarchy):
        net = super()._build(family, space, hierarchy)
        compile_network(net)
        for node in net.node_ids:
            net.links[node] = net.links[node][:1]
        return net


def test_gate_failure_is_a_non_zero_exit(monkeypatch, capsys):
    broken = lambda: BrokenSweep(nodes=200, samples=500, params=SERVE_TOPOLOGY)  # noqa: E731
    monkeypatch.setitem(workloads.WORKLOADS, "figure_sweep", broken)
    assert run.main(["--workload", "figure_sweep", "--seconds", "0"]) == 1
    captured = capsys.readouterr()
    assert "GATE FAILED" in captured.err and "compare_routing" in captured.err
    assert '"correct"' not in captured.out  # no result line after a failed gate


def test_simulated_results_must_repeat():
    with pytest.raises(harness.GateFailure, match="differ between rounds"):
        harness._check_repeat("w", {"mean_hops": 5.0}, {"mean_hops": 5.000000000000001})


def test_exits_non_zero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "serve_static", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": ""},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _side(value, spread=0.0, n=5):
    samples = [value * (1 + spread * (i - n // 2) / n) for i in range(n)]
    return {**harness.summarize(samples), "value": value}


def test_compare_verdicts():
    assert compare.verdict(_side(100.0), _side(101.0), "higher", 0.10) == "within"
    assert compare.verdict(_side(100.0), _side(80.0), "higher", 0.10) == "worse"
    assert compare.verdict(_side(100.0), _side(120.0), "higher", 0.10) == "better"
    assert compare.verdict(_side(100.0), _side(120.0), "lower", 0.10) == "worse"
    # Wide, overlapping rounds hide the answer either way.
    assert compare.verdict(_side(100.0, 0.6), _side(85.0, 0.6), "higher", 0.10) == "unresolved"
    # Wide but disjoint rounds still resolve.
    assert compare.verdict(_side(100.0, 0.3), _side(300.0, 0.3), "higher", 0.10) == "better"


def test_compare_flags_simulated_drift_and_fails_on_worse(tmp_path, capsys):
    def result_file(path, ops, hops, retries):
        metrics = {m["name"]: _side(1.0) for m in SPEC["end_to_end"]}
        metrics["ops_per_s"] = _side(ops, 0.01)
        metrics["mean_hops"] = _side(hops)
        metrics["serve.retries"] = _side(retries)
        doc = {"workloads": {"serve_churn": {"metrics": metrics, "noisy": False}}}
        path.write_text(json.dumps(doc))
        return str(path)

    base = result_file(tmp_path / "a.json", 1000.0, 5.0, 10)
    same = result_file(tmp_path / "b.json", 1010.0, 5.0, 10)
    drift = result_file(tmp_path / "c.json", 700.0, 5.000001, 11)
    assert compare.main([base, same]) == 0
    assert "changed" not in capsys.readouterr().out
    assert compare.main([base, drift]) == 1
    out = capsys.readouterr().out
    assert re.search(r"ops_per_s .* worse", out)
    assert re.search(r"mean_hops .* within changed", out)
    assert re.search(r"serve\.retries .* changed", out)
