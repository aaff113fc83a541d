"""CESM configurations: resolution, admissible node-count sets, machine size.

Table I lines 5–6 define the discrete "possible allocations":

* ocean (1°):   ``O = {2, 4, ..., 480, 768}`` — even counts plus one outlier;
* atmosphere (1°): ``A = {1, 2, ..., 1638, 1664}`` — a dense range plus one
  sweet spot, the "large number of discrete choices" that motivated SOS
  branching;
* ocean (1/8°, constrained): the hard-coded list
  ``{480, 512, 2356, 3136, 4564, 6124, 19460}`` from prior decomposition
  testing — §IV-B removes this restriction in the "unconstrained" runs.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.cesm.components import (
    COMPONENTS,
    GroundTruthComponent,
    eighth_degree_ground_truth,
    eighth_degree_minor_ground_truth,
    one_degree_ground_truth,
    one_degree_minor_ground_truth,
)
from repro.core.builder import DiscreteNodeSet

#: Intrepid, the ANL Blue Gene/P: 40,960 quad-core nodes (§I).  CESM runs
#: 1 MPI task x 4 threads per node, so "nodes" is the allocation unit (§III-C).
INTREPID_NODES = 40_960
CORES_PER_NODE = 4

#: The 1/8° ocean node counts validated by prior decomposition testing.
EIGHTH_DEGREE_OCEAN_SPOTS: tuple[int, ...] = (480, 512, 2356, 3136, 4564, 6124, 19460)


@dataclass(frozen=True)
class CESMConfiguration:
    """Everything resolution-specific the formulation and simulator need."""

    name: str
    description: str
    ground_truth: Mapping[str, GroundTruthComponent]
    atm_allowed: DiscreteNodeSet
    ocean_allowed: DiscreteNodeSet | None  # None => unconstrained integer
    min_nodes: Mapping[str, int] = field(default_factory=dict)
    machine_nodes: int = INTREPID_NODES
    #: RTM/CPL7 calibration, consumed when the fine-tuning extension is on.
    minor_ground_truth: Mapping[str, GroundTruthComponent] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        missing = set(COMPONENTS) - set(self.ground_truth)
        if missing:
            raise ValueError(f"{self.name}: missing ground truth for {sorted(missing)}")

    def component_min_nodes(self, name: str) -> int:
        return int(self.min_nodes.get(name, 1))

    def allowed(self, name: str) -> DiscreteNodeSet | None:
        """Component ``name``'s sweet-spot set; ``None``: any count."""
        return {"atm": self.atm_allowed, "ocn": self.ocean_allowed}.get(name)

    def ocean_values_upto(self, cap: int) -> tuple[int, ...]:
        """Admissible ocean counts within a machine of ``cap`` nodes."""
        if self.ocean_allowed is None:
            return tuple(range(self.component_min_nodes("ocn"), cap + 1))
        return tuple(v for v in self.ocean_allowed.values if v <= cap)

    def ocean_below(self, cap: int, target: float) -> int | None:
        """The largest admissible ocean count ``<= min(cap, target)``, else
        the smallest one; ``None`` when no count fits in ``cap`` nodes.

        Picked by bisection on the sweet spots, or by arithmetic on a free
        ocean, not by scanning :meth:`ocean_values_upto` (14 746 counts on a
        free ocean at 32 768 nodes).
        """
        ocean = self.ocean_allowed
        lo = self.component_min_nodes("ocn") if ocean is None else ocean.min
        if cap < lo:
            return None
        if ocean is None:
            return max(lo, min(cap, math.floor(target)))
        return ocean.below(min(cap, target))


def one_degree() -> CESMConfiguration:
    """The 1° FV atmosphere/land + 1° ocean/ice configuration (§II)."""
    return CESMConfiguration(
        name="1deg",
        description=(
            "CESM1.1.1, 1-degree finite-volume grid for atmosphere and land, "
            "1-degree displaced-pole grid for ocean and sea ice"
        ),
        ground_truth=one_degree_ground_truth(),
        atm_allowed=DiscreteNodeSet.contiguous(1, 1638, extras=(1664,)),
        ocean_allowed=DiscreteNodeSet.even_range(2, 480, extras=(768,)),
        min_nodes={"lnd": 1, "ice": 1, "atm": 1, "ocn": 2},
        minor_ground_truth=one_degree_minor_ground_truth(),
    )


def eighth_degree(*, constrained_ocean: bool = True) -> CESMConfiguration:
    """The 1/8° HOMME-SE atmosphere + 1/10° ocean/ice configuration.

    ``constrained_ocean=False`` reproduces §IV-B's "unconstrained ocean
    nodes" variant, where the hard-coded list is dropped and the MINLP may
    pick arbitrary counts (at the cost of decomposition-penalty risk the
    simulator faithfully applies).
    """
    ocean = (
        DiscreteNodeSet(EIGHTH_DEGREE_OCEAN_SPOTS) if constrained_ocean else None
    )
    return CESMConfiguration(
        name="eighth" + ("" if constrained_ocean else "-freeocn"),
        description=(
            "pre-release CESM1.2, 1/8-degree HOMME spectral-element atmosphere, "
            "1/4-degree FV land, 1/10-degree tri-pole ocean and sea ice"
            + ("" if constrained_ocean else " (ocean node constraint removed)")
        ),
        ground_truth=eighth_degree_ground_truth(),
        atm_allowed=DiscreteNodeSet.contiguous(64, 26644, extras=(27000,)),
        ocean_allowed=ocean,
        min_nodes={"lnd": 16, "ice": 64, "atm": 64, "ocn": 256},
        minor_ground_truth=eighth_degree_minor_ground_truth(),
    )
