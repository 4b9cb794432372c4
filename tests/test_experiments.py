"""Smoke-run every paper experiment and assert its qualitative shape.

These are the repository's headline checks: each of the paper's Figures 3-9
is regenerated at smoke scale and the claim the paper makes about the curve
is asserted (who wins, what trends up/down).  The design-choice ablations,
the churn study and the all-families zoo assert their conclusions the same
way.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments import (
    ablations,
    churn_study,
    fig3_links,
    fig4_degree_pdf,
    fig5_hops,
    fig6_stretch,
    fig7_locality,
    fig8_overlap,
    fig9_multicast,
    zoo,
)
from repro.experiments.common import get_scale, seeded_rng
from repro.verify.violations import Violation


class TestScaffolding:
    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {f"fig{i}" for i in range(3, 10)} | {
            "ablations",
            "caching",
            "churn",
            "inflight",
            "isolation",
            "serve",
            "theorems",
            "scenarios",
            "zoo",
        }

    def test_unknown_scale(self):
        with pytest.raises(ValueError):
            get_scale("galactic")

    def test_seeded_rng_deterministic(self):
        assert seeded_rng("x", 1).random() == seeded_rng("x", 1).random()
        assert seeded_rng("x", 1).random() != seeded_rng("x", 2).random()


class TestFig3:
    def test_degree_close_to_log_n(self):
        data = fig3_links.measurements("smoke")
        for (size, levels), degree in data.items():
            assert abs(degree - math.log2(size)) < 2.0

    def test_degree_decreases_with_levels(self):
        data = fig3_links.measurements("smoke")
        sizes = {size for size, _ in data}
        for size in sizes:
            degrees = [data[(size, lv)] for lv in sorted({l for _, l in data})]
            assert degrees[-1] <= degrees[0] + 0.1

    def test_table_renders(self):
        assert "Figure 3" in fig3_links.run("smoke").render()


class TestFig4:
    def test_pdfs_normalised(self):
        for pdf in fig4_degree_pdf.distributions("smoke").values():
            assert abs(sum(pdf.values()) - 1.0) < 1e-9

    def test_left_tail_grows_with_levels(self):
        """Paper: the PDF flattens to the left of the mean as levels grow."""
        dists = fig4_degree_pdf.distributions("smoke")
        levels = sorted(dists)
        mean_first = sum(d * p for d, p in dists[levels[0]].items())
        left_mass = {
            lv: sum(p for d, p in dists[lv].items() if d < mean_first - 1)
            for lv in levels
        }
        assert left_mass[levels[-1]] >= left_mass[levels[0]]

    def test_max_degree_stable(self):
        dists = fig4_degree_pdf.distributions("smoke")
        maxima = {lv: max(pdf) for lv, pdf in dists.items()}
        levels = sorted(maxima)
        assert maxima[levels[-1]] <= maxima[levels[0]] + 4


class TestFig5:
    def test_hops_near_half_log(self):
        data = fig5_hops.measurements("smoke")
        for (size, levels), hops in data.items():
            assert hops <= 0.5 * math.log2(size) + 1.5
            assert hops >= 0.5 * math.log2(size) - 1.0

    def test_hierarchy_penalty_bounded(self):
        """Paper: at most +0.7 hops regardless of the number of levels."""
        data = fig5_hops.measurements("smoke")
        sizes = {size for size, _ in data}
        levels = sorted({lv for _, lv in data})
        for size in sizes:
            penalty = data[(size, levels[-1])] - data[(size, levels[0])]
            assert penalty <= 0.7 + 0.3

    def test_hops_grow_with_n(self):
        data = fig5_hops.measurements("smoke")
        sizes = sorted({size for size, _ in data})
        flat = min(lv for _, lv in data)
        assert data[(sizes[-1], flat)] >= data[(sizes[0], flat)] - 0.3


class TestFig6:
    @pytest.fixture(scope="class")
    def data(self):
        return fig6_stretch.measurements("smoke")

    def test_all_systems_measured(self, data):
        systems = {label for label, _ in data}
        assert systems == {
            "Chord (No Prox.)",
            "Crescendo (No Prox.)",
            "Chord (Prox.)",
            "Crescendo (Prox.)",
        }

    def test_crescendo_beats_chord(self, data):
        sizes = {size for _, size in data}
        for size in sizes:
            assert (
                data[("Crescendo (No Prox.)", size)][0]
                < data[("Chord (No Prox.)", size)][0]
            )
            assert (
                data[("Crescendo (Prox.)", size)][0]
                < data[("Chord (Prox.)", size)][0]
            )

    def test_prox_helps_both(self, data):
        sizes = {size for _, size in data}
        for size in sizes:
            assert (
                data[("Chord (Prox.)", size)][0]
                < data[("Chord (No Prox.)", size)][0]
            )
            assert (
                data[("Crescendo (Prox.)", size)][0]
                <= data[("Crescendo (No Prox.)", size)][0] + 0.2
            )

    def test_stretch_above_one(self, data):
        assert all(v[0] >= 1.0 for v in data.values())

    def test_crescendo_prox_is_the_best_system(self, data):
        for size in {size for _, size in data}:
            best = data[("Crescendo (Prox.)", size)][0]
            assert best == min(data[(label, size)][0] for label, _ in data)


class TestFig7:
    @pytest.fixture(scope="class")
    def data(self):
        return fig7_locality.measurements("smoke")

    def test_crescendo_latency_collapses_with_locality(self, data):
        series = [data[("Crescendo (No Prox.)", lv)] for lv in (0, 1, 2, 3, 4)]
        assert series[-1] < series[0] / 20, "Level-4 queries nearly free"
        assert all(x >= y for x, y in zip(series, series[1:]))

    def test_chord_barely_improves(self, data):
        series = [data[("Chord (Prox.)", lv)] for lv in (0, 1, 2, 3, 4)]
        assert series[-1] > series[0] / 4, "flat routing has no path locality"

    def test_crescendo_prox_latency_collapses_with_locality(self, data):
        series = [data[("Crescendo (Prox.)", lv)] for lv in (0, 1, 2, 3, 4)]
        assert series[-1] < series[0] / 20

    def test_crescendo_prox_best_at_top_level(self, data):
        assert (
            data[("Crescendo (Prox.)", 0)] <= data[("Chord (Prox.)", 0)] * 1.1
        )
        # Proximity only helps Crescendo's top-level queries (paper text).
        assert (
            data[("Crescendo (Prox.)", 0)]
            <= data[("Crescendo (No Prox.)", 0)] + 1.0
        )


class TestFig8:
    @pytest.fixture(scope="class")
    def data(self):
        return fig8_overlap.measurements("smoke")

    def test_crescendo_overlap_grows_with_level(self, data):
        hops = [data[("Crescendo", lv)][0] for lv in (0, 1, 2, 3, 4)]
        assert hops[3] > hops[0]
        assert hops[3] > 0.5

    def test_latency_overlap_above_hop_overlap(self, data):
        for lv in (1, 2, 3):
            hop, lat = data[("Crescendo", lv)]
            assert lat >= hop, "non-overlapping local hops are cheap"

    def test_chord_overlap_low(self, data):
        for lv in (1, 2, 3):
            assert data[("Chord (Prox.)", lv)][0] < 0.5

    def test_crescendo_beats_chord(self, data):
        for lv in (1, 2, 3, 4):
            assert data[("Crescendo", lv)][0] > data[("Chord (Prox.)", lv)][0]


class TestFig9:
    @pytest.fixture(scope="class")
    def data(self):
        return fig9_multicast.measurements("smoke")

    def test_crescendo_uses_far_fewer_interdomain_links(self, data):
        for depth in (1, 2):
            crescendo = data[("Crescendo", depth)]
            chord = data[("Chord (Prox.)", depth)]
            assert crescendo < chord / 2, (
                f"depth {depth}: {crescendo} vs {chord}"
            )
        assert data[("Crescendo", 1)] < data[("Chord (Prox.)", 1)] / 4
        assert data[("Crescendo", 3)] <= data[("Chord (Prox.)", 3)]

    def test_interdomain_links_rise_with_depth(self, data):
        assert data[("Crescendo", 1)] <= data[("Crescendo", 3)]

    def test_table_has_ratio_column(self):
        table = fig9_multicast.run("smoke")
        assert "ratio" in table.columns


class TestAblations:
    """The design-choice measurements of ``experiments.ablations``: if a
    refactor destroys the property a design decision rests on, these fail."""

    def test_merge_economy(self):
        """Canon condition (b) vs naive per-level Chord: big state saving,
        without the naive construction routing dramatically faster."""
        data = ablations.merge_economy("smoke")
        assert data["degree_ratio"] > 1.5
        assert data["crescendo_hops"] < 2 * data["naive_hops"]

    def test_lookahead_gain(self):
        data = ablations.lookahead_gain("smoke")
        assert data["symphony_saving"] > 0
        assert data["cacophony_saving"] > 0

    def test_sampling_curve(self):
        """Link latency decays with sample size and flattens by s ~ 32."""
        curve = ablations.sampling_curve("smoke")
        assert curve[32] < curve[1] / 2
        assert curve[32] < 2.5 * curve[64]

    def test_group_target_sweep(self):
        """Crescendo (Prox.) is never worse than Chord (Prox.)."""
        data = ablations.group_target_sweep("smoke")
        for target, (chord_prox, crescendo_prox) in data.items():
            assert crescendo_prox <= chord_prox + 0.15, f"group target {target}"

    def test_leaf_set_sweep(self):
        """Bigger leaf sets deliver more lookups under unrepaired crashes."""
        data = ablations.leaf_set_sweep("smoke")
        assert data[4] >= data[1]
        assert data[8] >= 0.9

    def test_bucket_replication_sweep(self):
        """Kandy: per-bucket redundancy buys crash resilience."""
        data = ablations.bucket_replication_sweep("smoke")
        assert max(data[2], data[3]) >= data[1]
        assert data[3] >= 0.8

    def test_cancan_alignment(self):
        """Domain-aligned identifiers give Can-Can strict path locality."""
        data = ablations.cancan_alignment("smoke")
        assert data["aligned"] == 1.0
        assert data["random"] < 0.9


class TestStudies:
    def test_churn_resilience(self):
        """Delivery stays high, both engines agree with the checkpoint
        battery clean, and the network re-converges at every churn
        intensity."""
        data = churn_study.measurements("smoke")
        for label in ("light", "moderate", "heavy"):
            assert data[label]["delivery_rate"] > 0.9, label
            assert data[label]["converged"] == 1.0, label
            assert data[label]["findings"] == 0, label
            assert data[label]["join_msgs_per_join"] > 0, label
            assert data[label]["maintenance_msgs"] > 0, label

    def test_churn_finding_names_the_intensity(self, monkeypatch):
        real = churn_study.run_scenario

        def planted(spec, seed, slo_label):
            result = real(spec, seed, families=(), latency=False)
            result.residual.append(
                Violation(check="ring-loops", family="protocol", message="x")
            )
            return result

        monkeypatch.setattr(churn_study, "run_scenario", planted)
        with pytest.raises(RuntimeError, match="light intensity") as err:
            churn_study.measurements("smoke")
        assert "ring-loops(protocol): 1" in str(err.value)

    def test_zoo_canon_keeps_state_and_hops_and_gains_locality(self):
        """The paper's §3 thesis for every family: the Canonical version
        keeps its flat sibling's state budget and hop count, and its routes
        stay inside the common domain (flat versions leak)."""
        data = zoo.measurements("smoke")
        for family in zoo.FAMILIES:
            flat_degree, flat_hops, flat_local = data[(family, "flat")]
            canon_degree, canon_hops, canon_local = data[(family, "canon")]
            assert canon_degree <= flat_degree + 1.0, family
            assert canon_hops <= flat_hops + 1.5, family
            assert canon_local == 1.0, family
            assert flat_local < 0.8, family
