#!/usr/bin/env python3
"""§IV-C in action: how many nodes should this CESM job ask for?

Once HSLB's fitted curves exist, "the prediction of the optimal nodes to
run a job" is free: sweep the machine size, find the optimal allocation at
each with the exact layout scan (a single-budget Table I problem, which
§III-E says customized solvers answer in polynomial time), and read off
two answers —

* the **cost-efficient** size ("nodes are increased until scaling is
  reduced to a predefined limit"), and
* the **shortest-time** size, beyond which more nodes buy nothing.

Also demonstrates the what-if API: predicted payoff of a 2x-more-scalable
ocean rewrite across machine sizes ("how replacing one component with
another will affect scaling", and therefore "what parts of the model need
to be rewritten to improve performance").

Usage:  python examples/job_size_prediction.py [efficiency_floor]
"""

import sys
from functools import partial

from repro.cesm import CESMApplication, one_degree
from repro.cesm.layouts import Layout, direct_layout
from repro.core import HSLBOptimizer, component_swap_effect, optimal_job_size
from repro.perf.model import PerformanceModel
from repro.util.rng import default_rng

SWEEP = (64, 128, 256, 512, 1024, 2048, 4096)


def main() -> None:
    floor = float(sys.argv[1]) if len(sys.argv) > 1 else 0.5

    # Steps 1-2 of the pipeline: benchmark and fit once.
    app = CESMApplication(one_degree())
    opt = HSLBOptimizer(app)
    rng = default_rng(2014)
    suite = opt.gather([32, 64, 128, 256, 512, 1024, 2048], rng)
    models = {k: f.model for k, f in opt.fit(suite, rng).items()}

    direct = partial(direct_layout, config=one_degree(), layout=Layout.HYBRID)

    # Question 1: how big a job?
    rec = optimal_job_size(models, direct, SWEEP, efficiency_floor=floor)
    print(rec.render())
    print()

    # Question 2: is rewriting the ocean model worth it?
    ocn = models["ocn"]
    rewrite = PerformanceModel(a=ocn.a / 2, b=ocn.b, c=ocn.c, d=ocn.d / 2)
    base, swapped = component_swap_effect(
        models, direct, (128, 512, 2048), replace={"ocn": rewrite}
    )
    print("what-if: ocean model rewritten to be 2x more scalable")
    for n, b, s in zip(base.node_counts, base.totals, swapped.totals):
        print(
            f"  {n:>5} nodes: {b:7.1f} s -> {s:7.1f} s "
            f"({100 * (1 - s / b):.1f}% faster)"
        )
    print()
    print("reading: the rewrite pays off only while the ocean is on the")
    print("critical path; past the crossover the atmosphere dominates and")
    print("engineering effort should go there instead.")


if __name__ == "__main__":
    main()
