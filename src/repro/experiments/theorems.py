"""Theorems 1-6, measured against their analytic bounds.

Not a figure — the paper proves these bounds (Section 2) and cites its
experiments as confirmation.  This experiment builds Chord and Crescendo at
several sizes and reports measured expectation vs proved bound for each
theorem, plus the w.h.p. envelopes of Theorems 3 and 6.

Run: ``python -m repro.experiments theorems --scale smoke``.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..analysis.metrics import sample_routing
from ..analysis.tables import Table
from ..analysis.theory import (
    chord_degree_bound,
    chord_hops_bound,
    crescendo_degree_bound,
    crescendo_hops_bound,
    whp_degree_envelope,
)
from ..core.idspace import IdSpace
from ..core.hierarchy import build_uniform_hierarchy
from ..dhts.chord import ChordNetwork
from ..dhts.crescendo import CrescendoNetwork
from .common import get_scale, seeded_rng

LEVELS = 4


def measurements(scale: str = "smoke") -> Dict[Tuple[str, int], Tuple[float, float]]:
    """(metric, n) -> (measured, bound)."""
    cfg = get_scale(scale)
    sizes = cfg.fig3_sizes
    out: Dict[Tuple[str, int], Tuple[float, float]] = {}
    for size in sizes:
        rng = seeded_rng("thm", size)
        space = IdSpace()
        ids = space.random_ids(size, rng)
        flat = build_uniform_hierarchy(ids, 10, 1, rng)
        deep = build_uniform_hierarchy(ids, 10, LEVELS, rng)
        chord = ChordNetwork(space, flat).build()
        crescendo = CrescendoNetwork(space, deep).build()
        chord_stats = sample_routing(chord, seeded_rng("thm-r", size, 1), cfg.route_samples)
        cres_stats = sample_routing(
            crescendo, seeded_rng("thm-r", size, 2), cfg.route_samples
        )
        out[("T1 chord degree", size)] = (
            chord.average_degree(), chord_degree_bound(size),
        )
        out[("T2 crescendo degree", size)] = (
            crescendo.average_degree(), crescendo_degree_bound(size, LEVELS),
        )
        out[("T3 crescendo max degree", size)] = (
            float(crescendo.max_degree()), whp_degree_envelope(size),
        )
        out[("T4 chord hops", size)] = (
            chord_stats.mean_hops, chord_hops_bound(size),
        )
        out[("T5 crescendo hops", size)] = (
            cres_stats.mean_hops, crescendo_hops_bound(size),
        )
    return out


def run(scale: str = "smoke") -> Table:
    """Render the measured-vs-bound table for Theorems 1-5."""
    data = measurements(scale)
    table = Table(
        f"Theorems 1-5 — measured vs proved bound ({LEVELS}-level Crescendo)",
        ["theorem", "n", "measured", "bound", "holds"],
    )
    for (metric, size), (measured, bound) in sorted(data.items()):
        table.add_row(metric, size, measured, bound, measured <= bound)
    return table
