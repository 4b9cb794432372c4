"""Compare two result files of ``bench/run.py --out``.

    python3 bench/compare.py BASE.json NEW.json

One row per (workload, end-to-end metric): base, new, new / base and a
verdict against the metric's bound in ``BENCHMARK.json``:

- ``better`` / ``worse``: the median moved by more than the bound;
- ``within``: it did not;
- ``unresolved``: either side's round IQR / median exceeds the bound and
  the two sides' rounds overlap, so the spread hides the answer.

Simulated metrics (everything but ``HOST_METRICS``) repeat exactly on one
commit, so any difference at all is additionally flagged ``changed``: a
host-speed change must leave them bit-identical, a protocol change is
priced by them.  Exits non-zero when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Tuple

#: Wall-clock and memory of the simulator itself; the rest is simulated.
HOST_METRICS = ("setup_s", "ops_per_s", "build_per_s", "peak_rss_mb")


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    """``better`` / ``within`` / ``worse`` / ``unresolved`` for one metric."""
    gain = (new["value"] - base["value"]) / abs(base["value"])
    if better == "lower":
        gain = -gain
    noisy = any(side["iqr"] / abs(side["value"]) > bound for side in (base, new))
    overlap = min(base["samples"]) <= max(new["samples"]) and min(new["samples"]) <= max(
        base["samples"]
    )
    if noisy and overlap:
        return "unresolved"
    if gain < -bound:
        return "worse"
    return "better" if gain > bound else "within"


def compare(base: dict, new: dict, spec: dict) -> List[Tuple[str, str, float, float, str]]:
    """Rows ``(workload, metric, base, new, verdict)`` over shared workloads."""
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in base["workloads"] or workload not in new["workloads"]:
            continue
        old, cur = (side["workloads"][workload]["metrics"] for side in (base, new))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            word = verdict(old[name], cur[name], metric["better"], metric["bound"])
            if name not in HOST_METRICS and old[name]["value"] != cur[name]["value"]:
                word += " changed"
            rows.append((workload, name, old[name]["value"], cur[name]["value"], word))
        declared = {m["name"] for m in spec["end_to_end"]}
        drifted = sorted(
            k for k in set(old) | set(cur)
            if k not in declared and old.get(k, {}).get("value") != cur.get(k, {}).get("value")
        )
        if drifted:  # outcome counters behind the simulated metrics
            rows.append((workload, "+".join(drifted), float("nan"), float("nan"), "changed"))
    return rows


def main(argv=None) -> int:
    paths = (argv if argv is not None else sys.argv[1:])
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in paths)
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    rows = compare(base, new, spec)
    print(f"{'workload':14s} {'metric':16s} {'base':>12s} {'new':>12s} {'new/base':>9s}  verdict")
    for workload, name, old, cur, word in rows:
        ratio = cur / old if old == old and old else float("nan")
        print(f"{workload:14s} {name:16s} {old:12.6g} {cur:12.6g} {ratio:9.4f}  {word}")
    noisy = [w for side in (base, new) for w, r in side["workloads"].items() if r.get("noisy")]
    if noisy:
        print("noisy workloads:", ", ".join(sorted(set(noisy))))
    return 1 if any(word.startswith("worse") for *_, word in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
