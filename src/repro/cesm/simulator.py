"""The machine: a coupled-CESM execution simulator.

Substitutes for CESM1.1.1 runs on Intrepid (Blue Gene/P).  HSLB only ever
observes (component, node count) -> seconds; the simulator emits exactly that
observable, from ground-truth curves calibrated to Table III, with
log-normal run-to-run jitter and deterministic decomposition penalties
(see :mod:`repro.cesm.components`).

Timing semantics follow §III-C: per-component timers include
intra-component communication and internal imbalance but exclude coupler
exchange time, which is why the simulator reports the coupler separately in
metadata and keeps it out of the component times used for fitting.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.cesm.components import COMPONENTS
from repro.cesm.grids import CESMConfiguration
from repro.cesm.layouts import MINOR_HOSTS, Layout, footprint, layout_total_time
from repro.core.spec import Allocation, ExecutionResult
from repro.faults.plan import FaultPlan, NodeCrashError
from repro.obs.trace import span
from repro.perf.data import BenchmarkSuite, ComponentBenchmark, ScalingObservation
from repro.util.rng import spawn_rng


class CESMSimulator:
    """Benchmarkable, executable stand-in for CESM on a fixed machine.

    ``include_minor`` turns on the fine-tuning extension: the river model
    and the coupler (riding the land/atmosphere nodes) are timed, reported
    among the component times, and included in the makespan.  In the default
    mode — the paper's Table III setting — they are still simulated but only
    surface in the run metadata, mirroring how the paper's timers excluded
    them.
    """

    def __init__(
        self,
        config: CESMConfiguration,
        *,
        layout: Layout = Layout.HYBRID,
        include_minor: bool = False,
        outlier_prob: float = 0.0,
        outlier_scale: float = 3.0,
        tasking: "Mapping[str, object] | None" = None,
        ice_policy: object | None = None,
        faults: "FaultPlan | None" = None,
    ) -> None:
        if include_minor and not config.minor_ground_truth:
            raise ValueError(
                f"configuration {config.name!r} has no minor-component calibration"
            )
        if not (0.0 <= outlier_prob < 1.0):
            raise ValueError(f"outlier_prob must be in [0, 1), got {outlier_prob}")
        if outlier_scale < 1.0:
            raise ValueError(f"outlier_scale must be >= 1, got {outlier_scale}")
        self.config = config
        self.layout = layout
        self.include_minor = include_minor
        #: Failure injection: each component timing independently becomes an
        #: outlier (slowed by up to ``outlier_scale``x) with this probability
        #: — a node hiccup, OS jitter burst, or contended filesystem during
        #: the gather campaign.  §IV calls the gathered data "the weakest
        #: part of the HSLB algorithm"; this knob lets tests quantify the
        #: damage and the robust-fitting mitigation.
        self.outlier_prob = float(outlier_prob)
        self.outlier_scale = float(outlier_scale)
        #: Optional per-component MPI/OpenMP policies (see
        #: :mod:`repro.cesm.tasking`).  Components absent from the mapping
        #: keep the calibration default (1 task x 4 threads).
        self._tasking_multiplier: dict[str, float] = {}
        if tasking:
            from repro.cesm.tasking import DEFAULT_PROFILES, TaskingPolicy

            for comp, policy in tasking.items():
                if comp not in self.config.ground_truth:
                    raise KeyError(f"tasking policy for unknown component {comp!r}")
                if not isinstance(policy, TaskingPolicy):
                    raise TypeError(f"{comp}: expected a TaskingPolicy")
                profile = DEFAULT_PROFILES.get(comp)
                if profile is None:
                    raise KeyError(f"no threading profile for component {comp!r}")
                self._tasking_multiplier[comp] = profile.time_multiplier(policy)
        #: Mechanistic CICE decomposition handling (see
        #: :mod:`repro.cesm.ice_decomp`).  ``None`` keeps the calibrated
        #: statistical ice noise; ``"default"`` applies the CESM rule-of-
        #: thumb decomposition's true multiplier; a trained
        #: :class:`DecompositionSelector` applies its learned choice.
        #: Optional deterministic fault injection (:mod:`repro.faults`):
        #: benchmark runs that fail/time out/straggle during gather, and one
        #: mid-run node-group crash during a production execute.  ``None``
        #: keeps the simulator bit-identical to the fault-free baseline.
        if faults is not None and not isinstance(faults, FaultPlan):
            raise TypeError("faults must be a FaultPlan or None")
        if faults is not None and faults.crash_component is not None:
            if faults.crash_component not in COMPONENTS:
                raise ValueError(
                    f"crash_component {faults.crash_component!r} is not a "
                    f"CESM component {COMPONENTS}"
                )
        self.faults = faults
        self._crashed = False
        self._ice_policy = None
        if ice_policy is not None:
            from repro.cesm.ice_decomp import DecompositionSelector

            if ice_policy != "default" and not isinstance(
                ice_policy, DecompositionSelector
            ):
                raise TypeError(
                    "ice_policy must be None, 'default', or a DecompositionSelector"
                )
            self._ice_policy = ice_policy

    # -- low-level observables ----------------------------------------------

    def _ground_truth(self, component: str):
        if component in self.config.ground_truth:
            return self.config.ground_truth[component]
        if component in self.config.minor_ground_truth:
            return self.config.minor_ground_truth[component]
        raise KeyError(f"unknown component {component!r}")

    def component_time(
        self, component: str, nodes: int, rng: np.random.Generator
    ) -> float:
        """One observed timing of ``component`` on ``nodes`` nodes."""
        truth = self._ground_truth(component)
        if nodes < 1:
            raise ValueError(f"{component}: nodes must be >= 1, got {nodes}")
        if component == "ice" and self._ice_policy is not None:
            # Mechanistic decomposition model replaces the statistical noise:
            # the base curve times the chosen decomposition's multiplier,
            # plus ordinary 2% run-to-run jitter.
            from repro.cesm.ice_decomp import default_decomposition, true_multiplier

            decomp = (
                default_decomposition(int(nodes))
                if self._ice_policy == "default"
                else self._ice_policy.best(int(nodes))
            )
            seconds = float(truth.model.time(int(nodes)))
            seconds *= true_multiplier(decomp, int(nodes))
            seconds *= float(np.exp(rng.normal(0.0, 0.02)))
        else:
            seconds = truth.sample_time(int(nodes), rng)
        seconds *= self._tasking_multiplier.get(component, 1.0)
        if self.outlier_prob and rng.random() < self.outlier_prob:
            seconds *= rng.uniform(1.5, self.outlier_scale)
        return seconds

    def true_component_time(self, component: str, nodes: int) -> float:
        """Noise-free ground truth (test oracle; HSLB itself never sees this)."""
        return self._ground_truth(component).true_time(int(nodes))

    def _minor_components(self) -> tuple[str, ...]:
        return tuple(m for m in MINOR_HOSTS if m in self.config.minor_ground_truth)

    # -- execution ---------------------------------------------------------

    def execute(
        self,
        allocation: Allocation,
        rng: np.random.Generator,
        *,
        allow_crash: bool = True,
    ) -> ExecutionResult:
        """Run the coupled model once at ``allocation`` under the layout.

        With a fault plan carrying ``crash_component``, the first production
        run (``allow_crash=True``; gather runs pass False) loses the node
        group hosting that component mid-run and raises
        :class:`NodeCrashError` — the nodes stay dead for the rest of the
        simulator's life, so the recovery re-run proceeds on the survivors.
        """
        self.validate_allocation(allocation)
        if (
            allow_crash
            and self.faults is not None
            and self.faults.crash_component is not None
            and not self._crashed
        ):
            self._crashed = True
            comp = self.faults.crash_component
            raise NodeCrashError(
                component=comp,
                lost_nodes=allocation[comp],
                fraction=self.faults.crash_fraction,
            )
        minors = self._minor_components()
        order = COMPONENTS + minors
        streams = dict(zip(order, spawn_rng(rng, len(order))))
        with span("cesm.execute", layout=self.layout.name) as sp:
            times = {
                comp: self.component_time(comp, allocation[comp], streams[comp])
                for comp in COMPONENTS
            }
            minor_times = {
                comp: self.component_time(
                    comp, allocation[MINOR_HOSTS[comp]], streams[comp]
                )
                for comp in minors
            }
            metadata = {
                "layout": self.layout.name,
                "footprint_nodes": footprint(
                    self.layout, allocation, self.config.machine_nodes
                ),
                "configuration": self.config.name,
            }
            if self.include_minor:
                times.update(minor_times)
            else:
                # Excluded from the balanced model, visible in the run log only
                # (§II; also why "the HSLB reported time for the whole run may
                # differ slightly from the one found in the CESM output files").
                metadata.update({f"{k}_time": v for k, v in minor_times.items()})
            total = layout_total_time(self.layout, times)
            sp.set_tag("total_seconds", round(total, 6))
        return ExecutionResult(
            component_times=times, total_time=total, metadata=metadata
        )

    def validate_allocation(self, allocation: Allocation) -> None:
        """Reject allocations the machine or the layout cannot host."""
        for comp in COMPONENTS:
            if comp not in allocation.nodes:
                raise ValueError(f"allocation missing component {comp!r}")
            lo = self.config.component_min_nodes(comp)
            if allocation[comp] < lo:
                raise ValueError(
                    f"{comp}: {allocation[comp]} nodes below minimum {lo}"
                )
        used = footprint(self.layout, allocation, self.config.machine_nodes)
        if used > self.config.machine_nodes:
            raise ValueError(
                f"allocation needs {used} nodes; machine has {self.config.machine_nodes}"
            )
        if self.layout is Layout.HYBRID:
            if allocation["ice"] + allocation["lnd"] > allocation["atm"]:
                raise ValueError(
                    "layout 1 requires ice+lnd to fit inside the atmosphere group"
                )

    # -- benchmarking (gather step) ----------------------------------------

    def default_split(self, total_nodes: int) -> Allocation:
        """The 'typical setup' split used for benchmark runs (§II).

        Ocean gets roughly a quarter of the machine (snapped to its
        admissible set), the atmosphere the rest (snapped likewise), and ice
        shares the atmosphere group with land.
        """
        if total_nodes < 4:
            raise ValueError(f"total_nodes too small to split: {total_nodes}")
        ocn = self.config.ocean_below(
            max(2, int(0.45 * total_nodes)), 0.25 * total_nodes
        )
        if ocn is None:
            raise ValueError(
                f"no admissible ocean count fits in {total_nodes} nodes"
            )
        atm_cap = total_nodes - ocn
        atm = self.config.atm_allowed.below(atm_cap)
        ice = max(self.config.component_min_nodes("ice"), int(0.55 * atm))
        lnd = max(self.config.component_min_nodes("lnd"), atm - ice)
        if ice + lnd > atm:  # minimums collided; shrink ice
            ice = max(self.config.component_min_nodes("ice"), atm - lnd)
        return Allocation({"lnd": lnd, "ice": ice, "atm": atm, "ocn": ocn})

    def ocean_heavy_split(self, total_nodes: int) -> Allocation:
        """A bracket-the-range probe: ocean near its largest usable count.

        §III-C recommends benchmarking "on the greatest number of nodes
        possible" so predictions interpolate instead of extrapolate; the
        default split keeps the ocean small, so the gather campaign adds one
        run with the ocean pushed high at the largest machine size.
        """
        cap = max(2, int(0.62 * total_nodes))
        ocn = self.config.ocean_below(cap, cap)
        if ocn is None:
            raise ValueError(f"no admissible ocean count fits in {total_nodes}")
        atm_cap = total_nodes - ocn
        atm = self.config.atm_allowed.below(atm_cap)
        ice = max(self.config.component_min_nodes("ice"), int(0.55 * atm))
        lnd = max(self.config.component_min_nodes("lnd"), atm - ice)
        if ice + lnd > atm:
            ice = max(self.config.component_min_nodes("ice"), atm - lnd)
        return Allocation({"lnd": lnd, "ice": ice, "atm": atm, "ocn": ocn})

    def benchmark(
        self,
        node_counts: Sequence[int],
        rng: np.random.Generator,
        *,
        runs_per_count: int = 1,
        probe_extremes: bool = True,
        attempt: int = 0,
    ) -> BenchmarkSuite:
        """Step-1 gather: a 5-day-run campaign at each total node count.

        With ``probe_extremes`` (default), the largest machine size gets a
        second run with an ocean-heavy split so the ocean curve is sampled
        across its full admissible range (§III-C's bracketing advice).

        A fault plan can kill the run at a node count outright (raising
        :class:`repro.faults.BenchmarkRunError`; ``attempt`` numbers the
        retry so the plan's draws stay deterministic) or inflate individual
        component timings — stragglers are delivered, but flagged on the
        observation so the fit step can prune them.
        """
        if runs_per_count < 1:
            raise ValueError("runs_per_count must be >= 1")
        suite = BenchmarkSuite()
        node_counts = list(node_counts)
        with span(
            "cesm.benchmark", counts=len(node_counts), runs=runs_per_count
        ):
            self._benchmark_into(
                suite, node_counts, rng,
                runs_per_count=runs_per_count,
                probe_extremes=probe_extremes,
                attempt=attempt,
            )
        return suite

    def _benchmark_into(
        self,
        suite: BenchmarkSuite,
        node_counts: list[int],
        rng: np.random.Generator,
        *,
        runs_per_count: int,
        probe_extremes: bool,
        attempt: int,
    ) -> None:
        biggest = max(node_counts) if node_counts else 0
        for total in node_counts:
            if self.faults is not None:
                self.faults.check_benchmark("cesm", int(total), attempt)
            allocations = [self.default_split(int(total))]
            if probe_extremes and total == biggest:
                probe = self.ocean_heavy_split(int(total))
                if probe.nodes != allocations[0].nodes:
                    allocations.append(probe)
            for allocation in allocations:
                for _ in range(runs_per_count):
                    result = self.execute(allocation, rng, allow_crash=False)
                    for comp, seconds in result.component_times.items():
                        host = MINOR_HOSTS.get(comp, comp)
                        status = "ok"
                        if self.faults is not None:
                            mult = self.faults.straggler_multiplier(
                                "cesm", comp, int(total), attempt
                            )
                            if mult > 1.0:
                                seconds *= mult
                                status = "straggler"
                        suite.add(
                            ComponentBenchmark(
                                comp,
                                [
                                    ScalingObservation(
                                        allocation[host], seconds, status=status
                                    )
                                ],
                            )
                        )
