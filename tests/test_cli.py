"""Tests for the experiments CLI (`python -m repro.experiments`)."""

from __future__ import annotations

import pytest

from repro.experiments.__main__ import main


class TestCli:
    def test_single_experiment(self, capsys):
        assert main(["fig3", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "levels=" in out

    def test_default_scale_is_small(self):
        import argparse

        with pytest.raises(SystemExit):
            main(["fig3", "--scale", "enormous"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_caching_study(self, capsys):
        assert main(["caching", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "proxy" in out and "path" in out

    def test_churn_study(self, capsys):
        assert main(["churn", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "heavy" in out

    def test_run_leaves_home_untouched(self, tmp_path, monkeypatch, capsys):
        # A figure run writes nothing outside its explicit output paths.
        home = tmp_path / "home"
        home.mkdir()
        monkeypatch.setenv("HOME", str(home))
        assert main(["fig4", "--scale", "smoke"]) == 0
        assert list(home.iterdir()) == []


class TestObservabilityFlags:
    def test_trace_flag_writes_valid_jsonl(self, tmp_path, capsys):
        import json

        out = tmp_path / "t.jsonl"
        assert main(["fig5", "--scale", "smoke", "--trace", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records, "trace must not be empty"
        types = {r["type"] for r in records}
        assert "span" in types and "route" in types
        route_rec = next(r for r in records if r["type"] == "route")
        assert all({"src", "dst", "level", "domain"} <= set(h) for h in route_rec["path"])
        # The figure table still lands on stdout.
        assert "Figure 5" in capsys.readouterr().out

    def test_trace_is_chrome_convertible(self, tmp_path):
        import json

        from repro.obs.trace import jsonl_to_chrome

        jsonl = tmp_path / "t.jsonl"
        chrome = tmp_path / "t.json"
        assert main(["fig5", "--scale", "smoke", "--trace", str(jsonl)]) == 0
        assert jsonl_to_chrome(str(jsonl), str(chrome)) > 0
        data = json.loads(chrome.read_text())
        assert all("ph" in event for event in data["traceEvents"])

    def test_metrics_flag_writes_hops_and_messages(self, tmp_path):
        from repro.obs.metrics import MetricsSnapshot

        out = tmp_path / "m.json"
        assert main(["fig5", "--scale", "smoke", "--metrics", str(out)]) == 0
        snap = MetricsSnapshot.from_json(out.read_text())
        hops = snap.histograms["route.hops"]
        assert hops["count"] > 0
        assert sum(hops["counts"]) == hops["count"]
        assert snap.counters["messages.lookup"] > 0
        assert snap.counters["route.samples"] >= snap.counters["route.delivered"] > 0

    def test_profile_flag_reports_phases(self, tmp_path, capsys):
        assert main(["fig5", "--scale", "smoke", "--profile"]) == 0
        err = capsys.readouterr().err
        assert "build" in err and "route" in err and "analysis" in err

    def test_observability_deactivated_after_run(self, tmp_path):
        from repro.obs import metrics as obs_metrics
        from repro.obs import trace as obs_trace

        out = tmp_path / "m.json"
        assert main(
            ["fig5", "--scale", "smoke", "--metrics", str(out), "--trace",
             str(tmp_path / "t.jsonl")]
        ) == 0
        assert obs_trace.active_tracer() is None
        assert obs_metrics.active_registry() is None

    def test_verbose_logs_progress(self, caplog):
        import logging

        with caplog.at_level(logging.INFO, logger="repro.experiments"):
            assert main(["fig5", "--scale", "smoke", "-v"]) == 0
        assert any("running fig5" in rec.message for rec in caplog.records)
