"""MPI-task / OpenMP-thread granularity within a node.

§III-C: "On Intrepid, there are 4 cores per node and CESM is run with 1 MPI
task and 4 threads per task on each node.  Other choices could have been
cores or CPUs or even software representations such as threads or MPI
tasks."  §II: "Each component can be run with various MPI task and OpenMP
thread counts."

This module models that degree of freedom.  Each component has a
*threading profile*: an exponent ``alpha`` in (0, 1] describing how well its
OpenMP sections scale (effective threads = threads^alpha; alpha = 1 is
perfect threading, small alpha means the component prefers MPI tasks).  A
:class:`TaskingPolicy` chooses tasks x threads per node; the component's
per-node throughput relative to the calibration policy (1 task x 4 threads
on Intrepid) becomes a time multiplier the simulator can apply.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cesm.grids import CORES_PER_NODE
from repro.util.validation import check_in_range

#: The policy the ground-truth curves were calibrated under (§III-C).
DEFAULT_TASKS_PER_NODE = 1
DEFAULT_THREADS_PER_TASK = 4


@dataclass(frozen=True)
class TaskingPolicy:
    """How each node's cores are carved into MPI tasks and OpenMP threads."""

    tasks_per_node: int = DEFAULT_TASKS_PER_NODE
    threads_per_task: int = DEFAULT_THREADS_PER_TASK

    def __post_init__(self) -> None:
        if self.tasks_per_node < 1 or self.threads_per_task < 1:
            raise ValueError("tasks and threads must be >= 1")
        if self.cores_used > CORES_PER_NODE:
            raise ValueError(
                f"{self.tasks_per_node}x{self.threads_per_task} oversubscribes "
                f"a {CORES_PER_NODE}-core node"
            )

    @property
    def cores_used(self) -> int:
        return self.tasks_per_node * self.threads_per_task

    def __repr__(self) -> str:
        return f"TaskingPolicy({self.tasks_per_node}x{self.threads_per_task})"


#: Every way to fill a 4-core node exactly.
FULL_NODE_POLICIES: tuple[TaskingPolicy, ...] = (
    TaskingPolicy(1, 4),
    TaskingPolicy(2, 2),
    TaskingPolicy(4, 1),
)


@dataclass(frozen=True)
class ThreadingProfile:
    """A component's OpenMP scaling quality: effective threads = t^alpha."""

    alpha: float

    def __post_init__(self) -> None:
        check_in_range("alpha", self.alpha, 0.05, 1.0)

    def effective_threads(self, threads: int) -> float:
        if threads < 1:
            raise ValueError("threads must be >= 1")
        return float(threads) ** self.alpha

    def throughput(self, policy: TaskingPolicy) -> float:
        """Per-node compute throughput under ``policy`` (arbitrary units)."""
        return policy.tasks_per_node * self.effective_threads(
            policy.threads_per_task
        )

    def time_multiplier(self, policy: TaskingPolicy) -> float:
        """Wall-time factor vs the calibration policy (1 x 4).

        < 1 means the policy beats the default for this component.
        """
        default = TaskingPolicy()
        return self.throughput(default) / self.throughput(policy)

    def best_policy(
        self, policies: tuple[TaskingPolicy, ...] = FULL_NODE_POLICIES
    ) -> TaskingPolicy:
        """The fully-packed policy with maximal throughput."""
        return max(policies, key=self.throughput)


#: Plausible per-component profiles: CAM threads well (its physics loops
#: are OpenMP-friendly); CLM reasonably; POP and CICE prefer MPI ranks
#: (halo-exchange-dominated, modest threading in that era).
DEFAULT_PROFILES: dict[str, ThreadingProfile] = {
    "atm": ThreadingProfile(alpha=0.95),
    "lnd": ThreadingProfile(alpha=0.85),
    "ice": ThreadingProfile(alpha=0.60),
    "ocn": ThreadingProfile(alpha=0.55),
}


def best_tasking(
    profiles: dict[str, ThreadingProfile] | None = None,
) -> dict[str, TaskingPolicy]:
    """Per-component throughput-optimal full-node policies."""
    profiles = profiles or DEFAULT_PROFILES
    return {name: prof.best_policy() for name, prof in profiles.items()}


def tasking_speedup(
    profiles: dict[str, ThreadingProfile] | None = None,
) -> dict[str, float]:
    """Per-component wall-time gain of the best policy vs the default 1x4."""
    profiles = profiles or DEFAULT_PROFILES
    return {
        name: 1.0 / prof.time_multiplier(prof.best_policy())
        for name, prof in profiles.items()
    }
