"""In-flight failure sensitivity: crashes landing while lookups are airborne.

The RPC-level churn study treats each lookup atomically; this study uses
the event-driven :class:`~repro.simulation.async_lookup.AsyncEngine` to
launch a burst of lookups and crash a batch of nodes at a chosen virtual
time — before launch, mid-flight (between hops), or after the burst has
landed — measuring how delivery degrades with crash timing.

Run: ``python -m repro.experiments inflight --scale smoke``.
"""

from __future__ import annotations

from typing import Dict

from ..analysis.tables import Table
from ..core.idspace import IdSpace
from ..perf.dynamic import make_protocol
from ..simulation.async_lookup import AsyncEngine
from ..simulation.events import ConstantLatency, Simulator
from .common import seeded_rng

PATHS = [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")]

#: crash instant (virtual time); each hop costs 2 time units.
TIMINGS = {
    "before launch": 0.0,
    "mid-flight (hop 2)": 3.0,
    "mid-flight (hop 4)": 7.0,
    "after landing": 100.0,
}


def measurements(scale: str = "smoke") -> Dict[str, float]:
    """crash timing -> delivery rate of a 150-lookup burst."""
    size = 200 if scale == "smoke" else 500
    lookups = 150
    crash_fraction = 0.1
    out: Dict[str, float] = {}
    for label, when in TIMINGS.items():
        rng = seeded_rng("inflight", label, size)
        space = IdSpace()
        sim = Simulator()
        net = make_protocol(space, sim=sim, latency_model=ConstantLatency(2.0))
        ids = space.random_ids(size, rng)
        for node_id in ids:
            net.join(node_id, PATHS[rng.randrange(len(PATHS))])
        net.stabilize()
        victims = rng.sample(ids, int(crash_fraction * size))
        survivors = [i for i in ids if i not in set(victims)]

        engine = AsyncEngine(net)
        for _ in range(lookups):
            a, b = rng.sample(survivors, 2)
            engine.lookup(a, b)

        def crash_batch() -> None:
            for victim in victims:
                if victim in net.nodes and net.nodes[victim].alive:
                    net.crash(victim)

        sim.schedule(when, crash_batch)
        sim.run()
        # delivery_rate() is NaN until something completes; the drained
        # burst guarantees data, so make that precondition explicit.
        assert engine.in_flight == 0 and engine.completed
        out[label] = engine.delivery_rate()
    return out


def run(scale: str = "smoke") -> Table:
    """Render the crash-timing vs delivery table."""
    data = measurements(scale)
    table = Table(
        "In-flight failures — delivery vs crash timing (10% crash batch)",
        ["crash timing", "delivery rate"],
    )
    for label in TIMINGS:
        table.add_row(label, data[label])
    return table
