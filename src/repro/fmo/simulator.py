"""FMO execution simulator: runs a group schedule and reports the makespan.

Substitutes for GAMESS/GDDI on Blue Gene.  Each group executes its assigned
fragments' full per-run work (SCC-iterated monomers plus half-shares of
dimers) sequentially; groups run concurrently; the run's wall time is the
slowest group.  Log-normal jitter models run-to-run variation.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.faults.plan import FaultPlan
from repro.fmo.gddi import GroupSchedule
from repro.fmo.molecules import FragmentedSystem
from repro.fmo.timing import fragment_models
from repro.obs.trace import span
from repro.perf.data import BenchmarkSuite, ComponentBenchmark, ScalingObservation
from repro.perf.model import PerformanceModel
from repro.util.rng import default_rng, spawn_rng


@dataclass
class FMOExecutionResult:
    """One run of a schedule: per-group seconds and the wall-clock makespan."""

    group_times: tuple[float, ...]
    makespan: float
    label: str
    fragment_times: dict[int, float] = field(default_factory=dict)

    @property
    def load_imbalance(self) -> float:
        """max/mean group time; 1.0 is a perfectly balanced run."""
        mean = sum(self.group_times) / len(self.group_times)
        return self.makespan / mean if mean > 0 else 1.0


class FMOSimulator:
    """Benchmarkable, executable stand-in for FMO/GDDI on a machine."""

    def __init__(
        self,
        system: FragmentedSystem,
        *,
        noise: float = 0.02,
        faults: FaultPlan | None = None,
    ) -> None:
        if noise < 0:
            raise ValueError("noise must be nonnegative")
        if faults is not None and not isinstance(faults, FaultPlan):
            raise TypeError("faults must be a FaultPlan or None")
        self.system = system
        self.noise = float(noise)
        #: Optional deterministic fault injection (:mod:`repro.faults`):
        #: failed/straggling benchmark runs during gather; mid-run group
        #: crashes are handled by :mod:`repro.fmo.recovery`.
        self.faults = faults
        self._models: dict[int, PerformanceModel] = fragment_models(system)

    def true_fragment_seconds(self, fragment: int, nodes: int) -> float:
        """Noise-free per-run seconds of ``fragment`` on ``nodes`` nodes."""
        return float(self._models[fragment].time(nodes))

    def fragment_seconds(
        self, fragment: int, nodes: int, rng: np.random.Generator
    ) -> float:
        """One observed timing (ground truth x log-normal jitter)."""
        jitter = float(np.exp(rng.normal(0.0, self.noise))) if self.noise else 1.0
        return self.true_fragment_seconds(fragment, nodes) * jitter

    def execute(
        self, schedule: GroupSchedule, rng: np.random.Generator | None = None
    ) -> FMOExecutionResult:
        """Run the schedule once."""
        rng = rng or default_rng()
        schedule.validate_for(self.system, schedule.total_nodes)
        streams = spawn_rng(rng, self.system.n_fragments)
        frag_times: dict[int, float] = {}
        group_times = [0.0] * schedule.n_groups
        with span("fmo.execute", groups=schedule.n_groups) as sp:
            for frag, grp in enumerate(schedule.assignment):
                t = self.fragment_seconds(
                    frag, schedule.group_sizes[grp], streams[frag]
                )
                frag_times[frag] = t
                group_times[grp] += t
            sp.set_tag("makespan", round(max(group_times), 6))
        return FMOExecutionResult(
            group_times=tuple(group_times),
            makespan=max(group_times),
            label=schedule.label,
            fragment_times=frag_times,
        )

    def benchmark(
        self,
        group_sizes: Sequence[int],
        rng: np.random.Generator,
        *,
        attempt: int = 0,
    ) -> BenchmarkSuite:
        """Gather step: time every fragment at each trial group size.

        Mirrors the FMO benchmarking procedure: short runs with uniform
        groups of each size, recording per-fragment timers.  A fault plan
        can kill the run at a group size (``attempt`` numbers the retry) or
        inflate individual fragment timers, which are then flagged as
        stragglers on the recorded observations.
        """
        suite = BenchmarkSuite()
        with span(
            "fmo.benchmark",
            sizes=len(group_sizes),
            fragments=self.system.n_fragments,
        ):
            for size in group_sizes:
                if size < 1:
                    raise ValueError(f"group size must be >= 1, got {size}")
                if self.faults is not None:
                    self.faults.check_benchmark("fmo", int(size), attempt)
                for frag in range(self.system.n_fragments):
                    seconds = self.fragment_seconds(frag, int(size), rng)
                    status = "ok"
                    if self.faults is not None:
                        mult = self.faults.straggler_multiplier(
                            "fmo", frag, int(size), attempt
                        )
                        if mult > 1.0:
                            seconds *= mult
                            status = "straggler"
                    suite.add(
                        ComponentBenchmark(
                            f"frag{frag}",
                            [ScalingObservation(int(size), seconds, status=status)],
                        )
                    )
        return suite
