"""Figure 6: routing latency and stretch on the transit-stub internet model.

Four systems: Chord and Crescendo, each with and without group-based
proximity adaptation.  Paper result: plain Chord's latency grows linearly in
log n (stretch 4.5 -> 8); plain Crescendo achieves near-constant stretch
(~2.7) because extra nodes only deepen the *local* rings; Chord (Prox.)
improves but still scales with log n; Crescendo (Prox.) is best and constant
(~1.3).

Each grid point is one network size: the worker that measures it builds
its own :class:`~repro.experiments.common.TopologySetup`, so ``--jobs N``
output is bit-identical to a serial run.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..analysis.metrics import stretch
from ..analysis.tables import Table
from ..core.routing import route_ring
from ..perf.executor import map_points
from ..proximity.groups import route_grouped
from .common import build_topology_setup, get_scale, seeded_rng

SYSTEMS = (
    ("Chord (No Prox.)", "chord", route_ring),
    ("Crescendo (No Prox.)", "crescendo", route_ring),
    ("Chord (Prox.)", "chord_prox", route_grouped),
    ("Crescendo (Prox.)", "crescendo_prox", route_grouped),
)


def _grid_point(point: Tuple[int, int]) -> Dict[str, Tuple[float, float]]:
    """All four systems at one network size (worker-safe).

    The whole size is one grid point because the four systems share a
    topology setup and one routing RNG whose state threads from system to
    system.
    """
    size, samples = point
    setup = build_topology_setup(size, "fig6")
    rng = seeded_rng("fig6-route", size)
    out: Dict[str, Tuple[float, float]] = {}
    for label, attr, router in SYSTEMS:
        net = getattr(setup, attr)
        out[label] = stretch(
            net,
            rng,
            setup.latency,
            setup.direct_latency,
            samples=samples,
            router=router,
            slo_label=attr,
        )
    return out


def measurements(
    scale: str = "small", jobs: Optional[int] = None
) -> Dict[Tuple[str, int], Tuple[float, float]]:
    """(system, n) -> (stretch, mean latency ms)."""
    cfg = get_scale(scale)
    points = [(size, cfg.route_samples) for size in cfg.fig6_sizes]
    values = map_points(_grid_point, points, jobs=jobs)
    out: Dict[Tuple[str, int], Tuple[float, float]] = {}
    for (size, _), by_label in zip(points, values):
        for label, _, _ in SYSTEMS:
            out[(label, size)] = by_label[label]
    return out


def run(scale: str = "small", jobs: Optional[int] = None) -> Table:
    """Render the Figure 6 table (latency and stretch)."""
    cfg = get_scale(scale)
    data = measurements(scale, jobs=jobs)
    table = Table(
        "Figure 6 — Latency and stretch on the transit-stub model",
        ["n"]
        + [f"{label} stretch" for label, _, _ in SYSTEMS]
        + [f"{label} ms" for label, _, _ in SYSTEMS],
    )
    for size in cfg.fig6_sizes:
        table.add_row(
            size,
            *(data[(label, size)][0] for label, _, _ in SYSTEMS),
            *(data[(label, size)][1] for label, _, _ in SYSTEMS),
        )
    return table
