"""Drift-aware incremental refitting of the fitted performance curves.

The static pipeline fits ``T_j(n) = a/n + b n^c + d`` once, from a
dedicated gather campaign.  Online, the only data is the stream of
per-step wall times at whatever node count each component currently
holds, so the refitter splits the problem:

* **Scale tracking** (every step, O(1)): an exponentially-weighted mean
  of the ratio observed/base keeps a multiplicative correction per
  component.  Uniformly scaling ``(a, b, d)`` preserves convexity and —
  crucially — preserves each curve's *shape*, so the rebalancer's n-
  sensitivity information survives even though the stream only probes
  one node count at a time.
* **Staleness detection**: an EWMA of the relative prediction error.
  When it exceeds :data:`STALE_ERROR` for :data:`STALE_PATIENCE`
  consecutive steps, the component is flagged stale — the controller
  treats that as an out-of-band rebalance trigger rather than waiting for
  the next scheduled decision.
* **Windowed full refit** (after migrations): once the window of recent
  observations spans >= 2 distinct node counts (which only happens after
  a migration changed the component's allocation), the whole curve is
  refit via :func:`repro.perf.fitting.fit_performance_model` with
  exponential age-decay weights, recovering shape changes a pure scale
  cannot express.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping

import numpy as np

from repro.obs import telemetry
from repro.perf.model import PerformanceModel

#: Required max/min ratio of the node counts in a window before a full refit
#: trusts the shape (clustered counts extrapolate wildly).
MIN_REFIT_SPAN = 1.5


#: EWMA weight of the newest scale (and error) sample.
ALPHA = 0.25
#: EWMA relative prediction error that flags a component stale ...
STALE_ERROR = 0.15
#: ... once it has stayed above it this many consecutive steps.
STALE_PATIENCE = 3
#: Observations retained per component for a full refit.
WINDOW = 64
#: Per-step age decay of the full-refit weights.
DECAY = 0.92
#: Window size required before a full refit.
MIN_REFIT_POINTS = 6


class _ComponentState:
    __slots__ = ("base", "scale", "err", "bad_steps", "stale", "obs")

    def __init__(self, base: PerformanceModel) -> None:
        self.base = base
        self.scale = 1.0
        self.err = 0.0
        self.bad_steps = 0
        self.stale = False
        self.obs: deque[tuple[int, int, float]] = deque(maxlen=WINDOW)


class DriftAwareRefitter:
    """EW scale updates + staleness flags + windowed full refits."""

    def __init__(
        self,
        base_models: Mapping[str, PerformanceModel],
        *,
        rng: np.random.Generator | None = None,
    ) -> None:
        if not base_models:
            raise ValueError("refitter needs at least one base model")
        self._rng = rng
        self._state = {
            name: _ComponentState(model) for name, model in base_models.items()
        }
        self.scale_updates = 0
        self.full_refits = 0

    # -- observation stream ------------------------------------------------

    def observe(self, step: int, component: str, nodes: int, seconds: float) -> None:
        """Fold one (component, step) wall time into the running estimates."""
        st = self._state[component]
        predicted_base = st.base.time(nodes)
        if predicted_base <= 0 or seconds <= 0:
            return
        ratio = seconds / predicted_base
        st.scale = (1.0 - ALPHA) * st.scale + ALPHA * ratio
        self.scale_updates += 1
        telemetry.record_dynlb_refit("scale")
        rel_err = abs(seconds - st.scale * predicted_base) / seconds
        st.err = (1.0 - ALPHA) * st.err + ALPHA * rel_err
        if st.err > STALE_ERROR:
            st.bad_steps += 1
            if st.bad_steps >= STALE_PATIENCE and not st.stale:
                st.stale = True
                telemetry.record_dynlb_stale(component)
        else:
            st.bad_steps = 0
        st.obs.append((int(step), int(nodes), float(seconds)))

    # -- model views -------------------------------------------------------

    def model(self, component: str) -> PerformanceModel:
        """The current best curve: base uniformly scaled by the EWMA ratio."""
        st = self._state[component]
        s = st.scale
        return PerformanceModel(
            a=st.base.a * s, b=st.base.b * s, c=st.base.c, d=st.base.d * s
        )

    def models(self) -> dict[str, PerformanceModel]:
        return {name: self.model(name) for name in self._state}

    def scale(self, component: str) -> float:
        return self._state[component].scale

    def error(self, component: str) -> float:
        return self._state[component].err

    # -- staleness ---------------------------------------------------------

    def is_stale(self, component: str) -> bool:
        return self._state[component].stale

    def any_stale(self) -> bool:
        return any(st.stale for st in self._state.values())

    def clear_stale(self) -> None:
        """Acknowledge staleness after the controller acted on it."""
        for st in self._state.values():
            st.stale = False
            st.bad_steps = 0

    # -- full refits ---------------------------------------------------------

    def maybe_full_refit(self, component: str) -> bool:
        """Refit the whole curve from the window when it has n-diversity.

        Called by the controller after a migration lands: the window now
        mixes node counts, which is the only online situation where the
        curve's shape (not just its scale) is identifiable.  Two guards
        keep this from doing harm — the shape is only trusted when the
        observed counts span a real ratio (:data:`MIN_REFIT_SPAN`; clustered
        counts extrapolate wildly), and the refit replaces the scaled
        model only when it actually predicts the window better.  Returns
        True when the base model was replaced.
        """
        from repro.perf.fitting import fit_performance_model

        st = self._state[component]
        obs = list(st.obs)
        if len(obs) < MIN_REFIT_POINTS:
            return False
        counts = {n for _, n, _ in obs}
        if len(counts) < 2 or max(counts) < MIN_REFIT_SPAN * min(counts):
            return False
        latest = max(s for s, _, _ in obs)
        nodes = np.array([n for _, n, _ in obs], dtype=float)
        secs = np.array([t for _, _, t in obs], dtype=float)
        weights = np.array([DECAY ** (latest - s) for s, _, _ in obs])
        try:
            fit = fit_performance_model(nodes, secs, rng=self._rng, weights=weights)
        except (ValueError, RuntimeError):
            return False
        scaled = self.model(component)
        fit_err = float(np.sum(weights * (fit.model.time(nodes) - secs) ** 2))
        cur_err = float(np.sum(weights * (scaled.time(nodes) - secs) ** 2))
        if fit_err >= cur_err:
            return False
        st.base = fit.model
        st.scale = 1.0
        st.err = 0.0
        st.bad_steps = 0
        st.stale = False
        self.full_refits += 1
        telemetry.record_dynlb_refit("full")
        return True
