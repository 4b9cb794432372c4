"""Record the reference-vs-bulk construction baseline into ``BENCH_build.json``.

Builds every DHT family twice — once on the scalar reference path
(``build_reference()``) and once through the :mod:`repro.perf.build` bulk
builders (``build()``) — on identical inputs, taking the best of ``--repeats`` timed
builds of each, and writes the timings plus derived speedups as JSON.
Setup (id draws, hierarchy, prefix trees) happens outside the timed
region; each timed build starts from a freshly seeded RNG so both paths
see the same state.  Every measurement is validated: deterministic
families must produce identical link tables on both paths, randomized
ones must agree on mean degree.  Run from the repo root::

    PYTHONPATH=src python benchmarks/record_build_baseline.py

CAN and Can-Can use a reduced node count (``--size // 8``) because their
reference constructions compare prefixes pairwise (quadratic); everything
else builds at the full ``--size``.  The checked-in ``BENCH_build.json``
is the reference point for the bulk-construction fast path (see
``docs/performance.md``); CI re-records it at small scale on every push
as a non-gating artifact.

Each family row also records ``arena_bytes`` — the exact size of the
single shared-memory block its compiled routing state occupies under
:mod:`repro.perf.arena` (deterministic: a pure function of the network,
so the regression gate holds it to tolerance 0).  Unless ``--stream-size
0``, the recorder then exercises the streaming construction path
(:func:`repro.perf.build.stream_compiled_crescendo`): a Crescendo of
``--stream-size`` nodes (default 2^20) built straight into CSR arrays
with no Python node/link objects, exported to an arena, and served a
routing batch — with build time, arena bytes and peak RSS recorded under
``"streaming"`` and summarized in the top-level ``"memory_bytes"``.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.hierarchy import Hierarchy, build_uniform_hierarchy  # noqa: E402
from repro.core.idspace import IdSpace  # noqa: E402
from repro.dhts.cacophony import CacophonyNetwork  # noqa: E402
from repro.dhts.can import CANNetwork, PrefixTree  # noqa: E402
from repro.dhts.cancan import CanCanNetwork  # noqa: E402
from repro.dhts.chord import ChordNetwork  # noqa: E402
from repro.dhts.crescendo import CrescendoNetwork  # noqa: E402
from repro.dhts.kademlia import KademliaNetwork  # noqa: E402
from repro.dhts.kandy import KandyNetwork  # noqa: E402
from repro.dhts.mixed import LanCrescendoNetwork  # noqa: E402
from repro.dhts.naive import NaiveHierarchicalChord  # noqa: E402
from repro.dhts.ndchord import NDChordNetwork, NDCrescendoNetwork  # noqa: E402
from repro.dhts.symphony import SymphonyNetwork  # noqa: E402
from repro.analysis.metrics import sample_routing_compiled  # noqa: E402
from repro.experiments.common import FANOUT, ZIPF_EXPONENT  # noqa: E402
from repro.perf.arena import export_network  # noqa: E402
from repro.perf.build import stream_compiled_crescendo  # noqa: E402
from repro.perf.kernels import compile_network  # noqa: E402

LEVELS = 3


def peak_rss_bytes():
    """The process's peak resident set so far (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def arena_bytes_of(network):
    """Size of the one shared-memory block ``network``'s compiled state needs."""
    owner = export_network(compile_network(network), label="bench")
    try:
        return owner.nbytes
    finally:
        owner.dispose()


def best_of(fn, repeats):
    """(best seconds, last result) over ``repeats`` timed calls of ``fn``."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _hierarchy_setup(size, seed):
    rng = random.Random(seed)
    space = IdSpace(32)
    ids = space.random_ids(size, rng)
    hierarchy = build_uniform_hierarchy(
        ids, FANOUT, LEVELS, rng, distribution="zipf", zipf_exponent=ZIPF_EXPONENT
    )
    return space, hierarchy


def _prefix_setup(size, seed):
    rng = random.Random(seed)
    space = IdSpace(32)
    paths = [(f"lan{i % FANOUT}",) for i in range(size)]
    leaves = PrefixTree(space.bits).grow_aligned(paths, rng)
    hierarchy = Hierarchy()
    prefixes = {}
    for i, leaf in enumerate(leaves):
        padded = leaf.padded(space.bits)
        prefixes[padded] = leaf
        hierarchy.place(padded, paths[i])
    return space, hierarchy, prefixes


def _exact(ref, bulk):
    assert ref.links == bulk.links, "bulk links differ from reference"


def _mean_degree(net):
    return sum(len(net.links[n]) for n in net.node_ids) / net.size


def _close(ref, bulk):
    delta = abs(_mean_degree(ref) - _mean_degree(bulk))
    assert delta < 0.5, f"mean degree diverges by {delta:.2f}"


def family_specs(size):
    """(name, nodes, make() -> unbuilt network, validate) tuples.

    ``make`` seeds a fresh RNG per call so the reference and bulk timed
    builds start from identical state.
    """
    small = max(256, size // 8)
    specs = []

    def hier(name, ctor, validate, nodes=size):
        space, hierarchy = _hierarchy_setup(nodes, seed=len(specs) + 1)
        specs.append((name, nodes, lambda: ctor(space, hierarchy), validate))

    hier("chord", ChordNetwork, _exact)
    hier("crescendo", CrescendoNetwork, _exact)
    hier("symphony", lambda s, h: SymphonyNetwork(s, h, random.Random(101)), _close)
    hier("cacophony", lambda s, h: CacophonyNetwork(s, h, random.Random(102)), _close)
    hier("ndchord", lambda s, h: NDChordNetwork(s, h, random.Random(103)), _close)
    hier(
        "ndcrescendo",
        lambda s, h: NDCrescendoNetwork(s, h, random.Random(104)),
        _close,
    )
    hier("mixed", LanCrescendoNetwork, _exact)
    hier("naive", NaiveHierarchicalChord, _exact)
    hier("kademlia", lambda s, h: KademliaNetwork(s, h, None, 1), _exact)
    hier("kandy", lambda s, h: KandyNetwork(s, h, None, 1), _exact)

    space, hierarchy, prefixes = _prefix_setup(small, seed=90)
    specs.append(
        ("can", small, lambda: CANNetwork(space, hierarchy, prefixes), _exact)
    )
    specs.append(
        (
            "cancan",
            small,
            lambda: CanCanNetwork(space, hierarchy, prefixes, None),
            _exact,
        )
    )
    return specs


def bench_builds(size, repeats):
    out = {}
    for name, nodes, make, validate in family_specs(size):
        ref_s, ref = best_of(lambda: make().build_reference(), repeats)
        bulk_s, bulk = best_of(lambda: make().build(), repeats)
        assert ref.built_with == "python", f"{name}: reference took the bulk path"
        assert bulk.built_with == "numpy", f"{name}: bulk fell back to reference"
        validate(ref, bulk)
        arena = arena_bytes_of(bulk)
        out[name] = {
            "nodes": nodes,
            "reference_seconds": ref_s,
            "bulk_seconds": bulk_s,
            "speedup": ref_s / bulk_s,
            "reference_nodes_per_s": nodes / ref_s,
            "bulk_nodes_per_s": nodes / bulk_s,
            "arena_bytes": arena,
        }
        print(
            f"{name:12s} n={nodes:6d}  reference {ref_s * 1e3:8.1f}ms  "
            f"bulk {bulk_s * 1e3:8.1f}ms  ({ref_s / bulk_s:.1f}x)  "
            f"arena {arena / 1e6:.1f}MB"
        )
    return out


def bench_streaming(size, levels, samples):
    """One streaming build + arena export + routing point at ``size`` nodes."""
    rng = random.Random(f"bench-stream:{size}:{levels}")
    start = time.perf_counter()
    compiled, top = stream_compiled_crescendo(size, levels, rng)
    build_s = time.perf_counter() - start
    owner = export_network(compiled, top_domain=top, label="bench-stream")
    try:
        start = time.perf_counter()
        stats = sample_routing_compiled(compiled, rng, samples=samples)
        route_s = time.perf_counter() - start
        row = {
            "nodes": size,
            "levels": levels,
            "build_seconds": build_s,
            "build_nodes_per_s": size / build_s,
            "route_samples": samples,
            "route_seconds": route_s,
            "mean_hops": stats.mean_hops,
            "success_rate": stats.success_rate,
            "arena_bytes": owner.nbytes,
            "peak_rss_bytes": peak_rss_bytes(),
        }
    finally:
        owner.dispose()
    print(
        f"{'streaming':12s} n={size:7d}  build {build_s:6.1f}s  "
        f"route {samples} in {route_s:.1f}s (mean {stats.mean_hops:.2f} hops)  "
        f"arena {row['arena_bytes'] / 1e6:.1f}MB  "
        f"peak rss {row['peak_rss_bytes'] / 1e6:.0f}MB"
    )
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_build.json"),
        help="output path (default: repo-root BENCH_build.json)",
    )
    parser.add_argument(
        "--size",
        type=int,
        default=16384,
        help="node count for the linear families (quadratic-reference "
        "families use size // 8; default 16384)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timed builds per measurement (best-of)"
    )
    parser.add_argument(
        "--stream-size",
        type=int,
        default=1 << 20,
        help="node count for the streaming-construction measurement "
        "(default 2^20; 0 disables it)",
    )
    parser.add_argument(
        "--stream-levels",
        type=int,
        default=3,
        help="hierarchy depth for the streaming measurement (default 3)",
    )
    parser.add_argument(
        "--stream-samples",
        type=int,
        default=2000,
        help="routing samples taken on the streamed network (default 2000)",
    )
    args = parser.parse_args(argv)

    doc = {
        "workload": {
            "nodes": args.size,
            "hierarchy": f"fanout {FANOUT}, {LEVELS} levels, zipf {ZIPF_EXPONENT}",
        },
        "repeats": args.repeats,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "build": bench_builds(args.size, args.repeats),
    }
    arena_total = sum(row["arena_bytes"] for row in doc["build"].values())
    if args.stream_size:
        doc["streaming"] = bench_streaming(
            args.stream_size, args.stream_levels, args.stream_samples
        )
        arena_total += doc["streaming"]["arena_bytes"]
    doc["memory_bytes"] = {
        "arena_bytes": arena_total,
        "peak_rss_bytes": peak_rss_bytes(),
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
