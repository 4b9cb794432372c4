"""Parallel executor determinism: ``--jobs N`` must change nothing but time.

Every grid point derives its RNG from :func:`seeded_rng` tokens, so a
parallel run must produce byte-identical tables and (after merging worker
snapshots) identical metrics to a serial run.  These tests pin that down at
smoke scale for the figure modules that fan out, plus the merge primitives
(:meth:`MetricsRegistry.absorb`, :meth:`PhaseProfiler.absorb`) and the
serial-fallback rules.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import __main__ as cli
from repro.experiments import fig3_links, fig5_hops, fig6_stretch
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.profile import PROFILER
from repro.obs.quantiles import DEFAULT_RESERVOIR_CAP
from repro.perf.executor import (
    get_default_jobs,
    map_points,
    resolve_jobs,
    set_default_jobs,
)


@pytest.fixture(autouse=True)
def _reset_default_jobs():
    yield
    set_default_jobs(1)


class TestResolveJobs:
    def test_explicit_wins_over_default(self):
        set_default_jobs(4)
        assert resolve_jobs(2) == 2

    def test_none_uses_default(self):
        set_default_jobs(3)
        assert resolve_jobs() == 3
        assert get_default_jobs() == 3

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)
        with pytest.raises(ValueError):
            set_default_jobs(-2)


class TestMapPoints:
    def test_serial_and_parallel_results_equal(self):
        points = [(n, n * n) for n in range(6)]
        fn = _square_sum
        assert map_points(fn, points, jobs=2) == [fn(p) for p in points]

    def test_submission_order_preserved(self):
        points = list(range(12))
        assert map_points(_identity, points, jobs=3) == points

    def test_single_point_runs_inline(self):
        # len(points) <= 1 short-circuits to a plain call (no pool).
        assert map_points(_identity, [41], jobs=8) == [41]

    def test_tracer_forces_serial_fallback(self, tmp_path):
        obs_trace.activate(obs_trace.Tracer())
        try:
            assert map_points(_identity, [1, 2, 3], jobs=2) == [1, 2, 3]
        finally:
            obs_trace.deactivate()

    def test_worker_metrics_fold_into_parent(self):
        points = [3, 5, 7]
        with obs_metrics.collecting() as registry:
            map_points(_count_point, points, jobs=2)
            snap = registry.snapshot()
        assert snap.counters["test.points"] == len(points)
        hist = snap.histograms["test.values"]
        assert hist["count"] == len(points)
        assert hist["sum"] == float(sum(points))

    def test_samples_identical_serial_vs_parallel_past_the_cap(self):
        # Each point's sample is exact, the grid's total overflows the
        # reservoir: folding the points in order must retain what one
        # serial reservoir retains.
        points = [0, 1, 2]
        snaps = []
        for jobs in (1, 2):
            with obs_metrics.collecting() as registry:
                map_points(_sample_point, points, jobs=jobs)
                snaps.append(registry.snapshot())
        serial, parallel = snaps
        assert serial.histograms["test.sampled"]["count"] > DEFAULT_RESERVOIR_CAP
        assert parallel.samples == serial.samples
        assert parallel.to_json() == serial.to_json()

    def test_worker_phase_timings_fold_into_parent(self):
        PROFILER.reset()
        try:
            map_points(_timed_point, [1, 2, 3, 4], jobs=2)
            assert PROFILER.calls.get("worker-phase") == 4
            assert PROFILER.totals.get("worker-phase", 0.0) > 0.0
        finally:
            PROFILER.reset()


class TestFigureDeterminism:
    """Parallel figure runs are bit-identical to serial ones."""

    def test_fig3_measurements_identical(self):
        assert fig3_links.measurements("smoke", jobs=2) == fig3_links.measurements(
            "smoke", jobs=1
        )

    def test_fig5_measurements_identical(self):
        assert fig5_hops.measurements("smoke", jobs=2) == fig5_hops.measurements(
            "smoke", jobs=1
        )

    def test_fig6_measurements_identical(self):
        assert fig6_stretch.measurements("smoke", jobs=2) == fig6_stretch.measurements(
            "smoke", jobs=1
        )

    def test_fig5_rendered_table_byte_identical(self):
        serial = fig5_hops.run("smoke", jobs=1).render()
        parallel = fig5_hops.run("smoke", jobs=2).render()
        assert parallel == serial

    def test_cli_jobs_flag_byte_identical(self, capsys):
        outputs = []
        for jobs in ("1", "2"):
            assert cli.main(["fig4", "--scale", "smoke", "--jobs", jobs]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[0]

    def test_fig5_metrics_identical_serial_vs_parallel(self):
        with obs_metrics.collecting() as registry:
            fig5_hops.measurements("smoke", jobs=1)
            serial = registry.snapshot()
        with obs_metrics.collecting() as registry:
            fig5_hops.measurements("smoke", jobs=2)
            parallel = registry.snapshot()
        assert parallel.counters == serial.counters
        assert parallel.histograms == serial.histograms

    def test_default_jobs_applies_when_not_passed(self):
        serial = fig3_links.measurements("smoke")
        set_default_jobs(2)
        assert fig3_links.measurements("smoke") == serial


class TestAbsorb:
    def test_registry_absorb_adds_counters_and_bins(self):
        worker = obs_metrics.MetricsRegistry()
        worker.counter("c").inc(3)
        worker.gauge("g").set(7.5)
        worker.histogram("h").observe_many([1, 2, 300])
        parent = obs_metrics.MetricsRegistry()
        parent.counter("c").inc(2)
        parent.histogram("h").observe(4)
        parent.absorb(worker.snapshot())
        snap = parent.snapshot()
        assert snap.counters["c"] == 5
        assert snap.gauges["g"] == 7.5
        assert snap.histograms["h"]["count"] == 4
        assert snap.histograms["h"]["sum"] == 307.0

    def test_absorb_rejects_mismatched_buckets(self):
        worker = obs_metrics.MetricsRegistry()
        worker.histogram("h", (1, 2, 3)).observe(1)
        parent = obs_metrics.MetricsRegistry()
        parent.histogram("h", (5, 10)).observe(1)
        with pytest.raises(ValueError):
            parent.absorb(worker.snapshot())

    def test_profiler_absorb_folds_totals_and_calls(self):
        PROFILER.reset()
        try:
            PROFILER.absorb({"build": {"seconds": 1.5, "calls": 2}})
            PROFILER.absorb({"build": {"seconds": 0.5, "calls": 1}})
            assert PROFILER.totals["build"] == 2.0
            assert PROFILER.calls["build"] == 3
        finally:
            PROFILER.reset()


# Worker functions must be module-level (picklable for the fork pool).


def _square_sum(point):
    n, sq = point
    return n + sq


def _identity(point):
    return point


def _count_point(point):
    registry = obs_metrics.active_registry()
    registry.counter("test.points").inc()
    registry.histogram("test.values").observe(point)
    return point


def _sample_point(point):
    values = [float(point * 10_000 + i) for i in range(2_000)]
    obs_metrics.active_registry().histogram("test.sampled").observe_many(values)
    return point


def _timed_point(point):
    with PROFILER.phase("worker-phase"):
        return point * 2
