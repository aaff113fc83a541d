"""Benchmark-observation containers (the ``(n_ji, y_ji)`` of Table II).

The gather step of HSLB produces, for each component ``j``, a set of
``D_j`` observations of wall-clock time at different node counts.  These
containers keep them tidy, validated, and easy to turn into fitting arrays.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from repro.util.validation import check_positive


#: Observation quality labels: "ok" is a clean run, "straggler" a run that
#: completed but was flagged as anomalously slow (fault injection or a
#: production monitor), fit paths may prune it.
OBSERVATION_STATUSES = ("ok", "straggler")


@dataclass(frozen=True)
class ScalingObservation:
    """One benchmark run: component time ``seconds`` on ``nodes`` nodes.

    ``retries`` records how many failed attempts preceded this successful
    run and ``status`` whether the timing is trustworthy — provenance the
    resilient gather step attaches so downstream fitting (and anyone
    reloading the suite from disk) can see which points came from a
    degraded campaign.
    """

    nodes: int
    seconds: float
    retries: int = 0
    status: str = "ok"

    def __post_init__(self) -> None:
        if int(self.nodes) != self.nodes or self.nodes < 1:
            raise ValueError(f"nodes must be a positive integer, got {self.nodes!r}")
        check_positive("seconds", self.seconds)
        if self.retries < 0 or int(self.retries) != self.retries:
            raise ValueError(f"retries must be a nonnegative integer, got {self.retries!r}")
        if self.status not in OBSERVATION_STATUSES:
            raise ValueError(f"unknown observation status {self.status!r}")

    @property
    def clean(self) -> bool:
        return self.status == "ok"


class ComponentBenchmark:
    """All observations for one component, ordered by node count."""

    def __init__(
        self,
        component: str,
        observations: Iterable[ScalingObservation] = (),
    ) -> None:
        if not component:
            raise ValueError("component name must be non-empty")
        self.component = component
        self._obs: list[ScalingObservation] = []
        for obs in observations:
            self.add(obs)

    def add(self, obs: ScalingObservation) -> None:
        """Append an observation (replicates at the same node count are fine)."""
        if not isinstance(obs, ScalingObservation):
            raise TypeError(f"expected ScalingObservation, got {type(obs).__name__}")
        self._obs.append(obs)
        self._obs.sort(key=lambda o: (o.nodes, o.seconds))

    @classmethod
    def from_pairs(
        cls, component: str, pairs: Iterable[tuple[int, float]]
    ) -> "ComponentBenchmark":
        return cls(component, (ScalingObservation(n, t) for n, t in pairs))

    # -- views ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._obs)

    def __iter__(self) -> Iterator[ScalingObservation]:
        return iter(self._obs)

    @property
    def nodes(self) -> np.ndarray:
        return np.array([o.nodes for o in self._obs], dtype=float)

    @property
    def seconds(self) -> np.ndarray:
        return np.array([o.seconds for o in self._obs], dtype=float)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The fitting arrays ``(n, y)``."""
        return self.nodes, self.seconds

    @property
    def node_range(self) -> tuple[int, int]:
        if not self._obs:
            raise ValueError(f"no observations for {self.component}")
        return int(self._obs[0].nodes), int(self._obs[-1].nodes)

    def covers(self, nodes: float) -> bool:
        """True when predictions at ``nodes`` would be interpolation.

        §III-C argues benchmarks should bracket the target so the fitted
        curve is interpolated, not extrapolated.
        """
        lo, hi = self.node_range
        return lo <= nodes <= hi

    def pruned(self, *, min_points: int = 2) -> "ComponentBenchmark":
        """Drop flagged observations, but never below ``min_points``.

        Suite pruning for degraded campaigns: straggler-tagged timings are
        outliers by construction, so the fit is better off without them —
        unless dropping them would leave too few points to fit at all, in
        which case the flagged data (plus a robust loss) beats no data.
        """
        clean = [o for o in self._obs if o.clean]
        if len(clean) >= min_points and len(clean) < len(self._obs):
            return ComponentBenchmark(self.component, clean)
        return self

    def merged_with(self, other: "ComponentBenchmark") -> "ComponentBenchmark":
        if other.component != self.component:
            raise ValueError(
                f"cannot merge {other.component!r} into {self.component!r}"
            )
        return ComponentBenchmark(self.component, list(self._obs) + list(other._obs))

    def __repr__(self) -> str:
        return f"<ComponentBenchmark {self.component!r}: {len(self)} points>"


class BenchmarkSuite(Mapping[str, ComponentBenchmark]):
    """The full gather-step output: one :class:`ComponentBenchmark` per component."""

    def __init__(self, benchmarks: Iterable[ComponentBenchmark] = ()) -> None:
        self._by_component: dict[str, ComponentBenchmark] = {}
        for bench in benchmarks:
            self.add(bench)

    def add(self, bench: ComponentBenchmark) -> None:
        if bench.component in self._by_component:
            self._by_component[bench.component] = self._by_component[
                bench.component
            ].merged_with(bench)
        else:
            self._by_component[bench.component] = bench

    def __getitem__(self, component: str) -> ComponentBenchmark:
        return self._by_component[component]

    def __iter__(self) -> Iterator[str]:
        return iter(self._by_component)

    def __len__(self) -> int:
        return len(self._by_component)

    @property
    def components(self) -> tuple[str, ...]:
        return tuple(self._by_component)

    def min_points(self) -> int:
        """Smallest per-component observation count (fit-quality guardrail)."""
        if not self._by_component:
            return 0
        return min(len(b) for b in self._by_component.values())

    def pruned(self, *, min_points: int = 2) -> "BenchmarkSuite":
        """Per-component straggler pruning (see :meth:`ComponentBenchmark.pruned`)."""
        return BenchmarkSuite(
            b.pruned(min_points=min_points) for b in self._by_component.values()
        )

    def degenerate_components(self, *, min_points: int = 2) -> dict[str, str]:
        """Components too thin to fit, with a human-readable reason each."""
        out: dict[str, str] = {}
        for name, bench in self._by_component.items():
            if len(bench) < min_points:
                out[name] = (
                    f"{len(bench)} usable observation(s); fitting needs "
                    f">= {min_points}"
                )
        return out

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}:{len(b)}" for name, b in self._by_component.items()
        )
        return f"<BenchmarkSuite {inner}>"
