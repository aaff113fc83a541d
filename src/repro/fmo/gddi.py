"""The GDDI two-level parallel model: node groups processing fragment queues.

GAMESS's Generalized Distributed Data Interface splits the world of ``N``
nodes into groups; fragments are assigned to groups, each group runs its
fragments sequentially, groups run concurrently.  A schedule is therefore
(group sizes, fragment->group assignment); the makespan is the slowest
group's total time.

HSLB's "one group per large task" limit — each fragment its own group sized
by the MINLP — is the special case ``groups == fragments``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.fmo.molecules import FragmentedSystem


@dataclass(frozen=True)
class GroupSchedule:
    """Group sizes plus each fragment's group assignment."""

    group_sizes: tuple[int, ...]
    assignment: tuple[int, ...]  # assignment[frag_index] = group index
    label: str = "schedule"

    def __post_init__(self) -> None:
        if not self.group_sizes:
            raise ValueError("need at least one group")
        if any(s < 1 for s in self.group_sizes):
            raise ValueError("every group needs at least one node")
        bad = [g for g in self.assignment if not (0 <= g < len(self.group_sizes))]
        if bad:
            raise ValueError(f"assignment references unknown groups: {bad}")

    @property
    def n_groups(self) -> int:
        return len(self.group_sizes)

    @property
    def total_nodes(self) -> int:
        return sum(self.group_sizes)

    def fragments_of(self, group: int) -> tuple[int, ...]:
        return tuple(i for i, g in enumerate(self.assignment) if g == group)

    def validate_for(self, system: FragmentedSystem, total_nodes: int) -> None:
        """Check the schedule covers the system and fits the machine."""
        if len(self.assignment) != system.n_fragments:
            raise ValueError(
                f"schedule assigns {len(self.assignment)} fragments; system has "
                f"{system.n_fragments}"
            )
        if self.total_nodes > total_nodes:
            raise ValueError(
                f"schedule uses {self.total_nodes} nodes; machine has {total_nodes}"
            )
        empty = [g for g in range(self.n_groups) if not self.fragments_of(g)]
        if empty:
            raise ValueError(f"groups {empty} have no fragments (wasted nodes)")

    def group_loads(self, per_fragment_seconds: Mapping[int, float]) -> list[float]:
        """Each group's total time given per-fragment single-run seconds."""
        loads = [0.0] * self.n_groups
        for frag, grp in enumerate(self.assignment):
            loads[grp] += float(per_fragment_seconds[frag])
        return loads

    def load_imbalance(self, per_fragment_seconds: Mapping[int, float]) -> float:
        """max/mean group load — 1.0 is perfect balance."""
        loads = self.group_loads(per_fragment_seconds)
        mean = sum(loads) / len(loads)
        return max(loads) / mean if mean > 0 else 1.0


def even_group_sizes(total_nodes: int, n_groups: int) -> tuple[int, ...]:
    """Split ``total_nodes`` into ``n_groups`` near-equal sizes."""
    if n_groups < 1 or n_groups > total_nodes:
        raise ValueError(
            f"cannot make {n_groups} nonempty groups from {total_nodes} nodes"
        )
    base, extra = divmod(total_nodes, n_groups)
    return tuple(base + (1 if g < extra else 0) for g in range(n_groups))
