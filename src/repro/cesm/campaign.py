"""Benchmark-campaign planning: which node counts to gather at.

§III-C: "We propose that CESM should be run on the minimal number of nodes
allowed by memory requirements and on the greatest number of nodes
possible.  In addition, a few simulations should be done in between to
capture the curvature of the scaling ... the number of benchmarking runs
with various number of nodes should be at least greater than four."

:func:`plan_campaign` turns that advice into code: a memory floor sets the
smallest runnable size, the machine (or a queue limit) sets the largest,
and the interior points are geometrically spaced so every octave of the
scaling curve is sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cesm.grids import CESMConfiguration
from repro.util.validation import check_positive

#: Memory per node on the target machine (Intrepid: 2 GB/node).
NODE_MEMORY_GB = 2.0


@dataclass(frozen=True)
class MemoryModel:
    """Aggregate application memory that must fit across the nodes.

    ``resident_gb`` is the total working set (grids, state, halos); the
    per-node footprint also includes a replicated share ``replicated_gb``
    (lookup tables, code, buffers) that does not shrink with node count.
    """

    resident_gb: float
    replicated_gb: float = 0.25

    def __post_init__(self) -> None:
        check_positive("resident_gb", self.resident_gb)
        check_positive("replicated_gb", self.replicated_gb, strict=False)

    def min_nodes(self, node_memory_gb: float = NODE_MEMORY_GB) -> int:
        """Smallest node count whose per-node footprint fits in memory."""
        usable = node_memory_gb - self.replicated_gb
        if usable <= 0:
            raise ValueError(
                f"replicated footprint {self.replicated_gb} GB exceeds node "
                f"memory {node_memory_gb} GB"
            )
        return max(1, math.ceil(self.resident_gb / usable))


#: Rough aggregate working sets, scaled so the floors land where the
#: papers' campaigns start (1deg ~ tens of nodes, 1/8deg ~ thousands).
MEMORY_MODELS: dict[str, MemoryModel] = {
    "1deg": MemoryModel(resident_gb=48.0),
    "eighth": MemoryModel(resident_gb=3400.0),
}


def plan_campaign(
    config: CESMConfiguration,
    *,
    max_nodes: int | None = None,
    points: int = 5,
    node_memory_gb: float = NODE_MEMORY_GB,
) -> tuple[int, ...]:
    """Node counts for the gather step, per the §III-C recommendations.

    * smallest = the memory floor for this configuration;
    * largest = ``max_nodes`` (defaults to the full machine);
    * interior = geometric spacing, ``points`` total (>= 5: the paper wants
      "at least greater than four").
    """
    if points < 5:
        raise ValueError(
            f"§III-C: campaigns need at least 5 points, got {points}"
        )
    key = "eighth" if config.name.startswith("eighth") else config.name
    memory = MEMORY_MODELS.get(key)
    if memory is None:
        raise KeyError(f"no memory model for configuration {config.name!r}")
    lo = memory.min_nodes(node_memory_gb)
    hi = int(max_nodes if max_nodes is not None else config.machine_nodes)
    if hi <= lo:
        raise ValueError(
            f"machine cap {hi} does not exceed the memory floor {lo}"
        )
    counts = sorted(
        {
            int(round(lo * (hi / lo) ** (i / (points - 1))))
            for i in range(points)
        }
    )
    # Rounding can merge adjacent points; pad geometrically if needed.
    while len(counts) < points:
        gaps = [
            (counts[i + 1] / counts[i], i) for i in range(len(counts) - 1)
        ]
        _, i = max(gaps)
        counts.insert(i + 1, int(round(math.sqrt(counts[i] * counts[i + 1]))))
        counts = sorted(set(counts))
    return tuple(counts)
