"""Dynamic maintenance under churn, plus fault isolation.

Grows a Crescendo network node by node through the Section 2.3 join
protocol and checks its link tables against the static oracle
construction.  Then a churn scenario (joins, leaves, crashes and lookups)
replays on both maintenance engines in lockstep while measuring lookup
delivery, and its checkpoint stabilizes the network back to the oracle.
Last, fault isolation: killing every node outside a domain leaves
intra-domain routing completely untouched (unlike flat Chord).

Run:  python examples/churn_resilience.py
"""

import random
import statistics

from repro import ChordNetwork, CrescendoNetwork, IdSpace, build_uniform_hierarchy
from repro.scenarios import Phase, ScenarioSpec, run_scenario
from repro.simulation import SimulatedCrescendo, intra_domain_isolation

PATHS = (
    ("us", "west"), ("us", "east"),
    ("eu", "north"), ("eu", "south"),
    ("asia", "east"),
)


def main() -> None:
    rng = random.Random(3)
    space = IdSpace(32)

    # --- grow the network through the join protocol --------------------
    net = SimulatedCrescendo(space)
    costs = []
    for node_id in space.random_ids(300, rng):
        costs.append(net.join(node_id, PATHS[rng.randrange(len(PATHS))]))
    print(f"grew to {len(net.nodes)} nodes; "
          f"mean join cost {statistics.mean(costs[10:]):.1f} messages "
          f"(O(log n), log2 n = {__import__('math').log2(300):.1f})")

    net.stabilize()
    exact = net.static_links() == net.oracle_links()
    print(f"link tables equal the static oracle construction: {exact}")

    # --- churn: a compiled schedule, replayed on both engines -----------
    spec = ScenarioSpec(
        name="churn_resilience",
        population=300,
        domains=PATHS,
        phases=(
            Phase("mix", count=410, weights=Phase.mix_weights(
                {"join": 60, "leave": 30, "crash": 15, "lookup": 300,
                 "stabilize": 5})),
            Phase("checkpoint"),
        ),
    )
    result = run_scenario(spec, seed=3, families=("crescendo",))
    report = result.report
    print(f"\nchurn: +{report.joins} joins, -{report.leaves} leaves, "
          f"-{report.crashes} crashes, {report.lookups_attempted} live lookups")
    print(f"  delivery rate during churn: {result.availability:.3f} "
          f"(p99 {result.p99_ms():.0f} ms on a transit-stub topology)")
    print("  protocol traffic: " + ", ".join(
        f"{kind}={count}" for kind, count in report.messages.items()))
    print(f"  converged back to the oracle in {report.checkpoint_rounds[0]} "
          f"rounds: {not report.unconverged_checkpoints}")
    print(f"  both engines agree, no oracle findings: {not result.findings}")

    # --- fault isolation (static networks, same placements) -------------
    rng2 = random.Random(4)
    ids = space.random_ids(600, rng2)
    hierarchy = build_uniform_hierarchy(ids, 3, 2, rng2)
    crescendo = CrescendoNetwork(space, hierarchy).build()
    chord = ChordNetwork(space, hierarchy).build()
    domain = hierarchy.path_of(ids[0])[:1]

    print(f"\nfault isolation: kill every node outside domain {domain!r}")
    for label, network in (("crescendo", crescendo), ("chord", chord)):
        rep = intra_domain_isolation(network, domain, random.Random(5))
        print(f"  {label:10s} intra-domain delivery {rep.success_rate:5.1%}, "
              f"hop inflation x{rep.hop_inflation:.2f}")


if __name__ == "__main__":
    main()
