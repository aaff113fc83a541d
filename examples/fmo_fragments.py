#!/usr/bin/env python3
"""HSLB on the fragment molecular orbital method (the SC 2012 setting).

Demonstrates the regime the HSLB algorithm was invented for: a few large
tasks of diverse size, where dynamic load balancing is hobbled because the
number of tasks is much smaller than the number of processors (§I).

Compares three schedulers on the same synthetic protein-like system:

* HSLB          — one group per fragment, sized by the exact min-max heap
                  (one budget row needs no MINLP tree, §III-E);
* idealized DLB — equal groups, longest-task-first dispatch with perfect
                  knowledge (an upper bound on real work stealing);
* uniform SLB   — equal groups, fragments dealt round-robin.

Then runs the same comparison on a water cluster (homogeneous tasks) to
show the advantage fading exactly where the paper says it should.

Usage:  python examples/fmo_fragments.py [n_fragments] [total_nodes]
"""

import sys

from repro.fmo import (
    FMOSimulator,
    greedy_dynamic_schedule,
    hslb_schedule,
    protein_like,
    uniform_static_schedule,
    water_cluster,
)
from repro.util.rng import default_rng
from repro.util.tables import format_table


def compare(system, total_nodes: int, seed: int) -> None:
    sim = FMOSimulator(system)
    hs, sol = hslb_schedule(system, total_nodes)
    dlb_groups = max(2, system.n_fragments // 3)
    rows = []
    for sched in (
        hs,
        greedy_dynamic_schedule(system, total_nodes, dlb_groups),
        uniform_static_schedule(system, total_nodes, system.n_fragments),
    ):
        run = sim.execute(sched, default_rng(seed))
        rows.append([sched.label, run.makespan, f"{run.load_imbalance:.2f}"])
    print(
        format_table(
            ["scheduler", "makespan s", "max/mean load"],
            rows,
            title=(
                f"{system.name}: {system.n_fragments} fragments "
                f"(size diversity {system.size_diversity():.2f}) "
                f"on {total_nodes} nodes"
            ),
            float_fmt=".1f",
        )
    )
    print(f"  HSLB group sizes: {hs.group_sizes}")
    print(f"  HSLB predicted makespan: {sol.objective:.1f} s ({sol.status.value})")
    print()


def main() -> None:
    n_fragments = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    total_nodes = int(sys.argv[2]) if len(sys.argv) > 2 else 256
    rng = default_rng(3)

    # Diverse tasks: HSLB's home turf.
    compare(protein_like(n_fragments, rng), total_nodes, seed=9)

    # Homogeneous tasks: every scheduler is fine, HSLB's edge shrinks.
    compare(water_cluster(n_fragments, rng), total_nodes, seed=9)


if __name__ == "__main__":
    main()
