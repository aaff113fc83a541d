"""New-hardware what-ifs: transplanting fitted curves to a different machine.

§IV-C closes with "it might even be possible to do more exotic and less
reliable predictions such as the prediction of CESM scaling on new hardware
(e.g., exascale supercomputers)".  The paper is careful to call this *less
reliable*; this module implements the transformation with the same honesty
— it is a structured extrapolation, not a measurement.

Model: each Table II term is tied to a hardware resource —

* ``a/n``  (scalable compute)          → divides by ``compute_speedup``;
* ``b n^c`` (communication/overheads)  → divides by ``network_speedup``;
* ``d``    (serial floor)              → divides by ``serial_speedup``
  (single-thread performance, the resource exascale designs improve least).

Transforming a fitted model through a :class:`MachineProfile` and re-running
the allocation MINLP answers "how would the balanced job scale over there".
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.perf.model import PerformanceModel
from repro.util.validation import check_positive


@dataclass(frozen=True)
class MachineProfile:
    """Relative speeds of a target machine vs the calibration machine."""

    name: str
    compute_speedup: float = 1.0
    network_speedup: float = 1.0
    serial_speedup: float = 1.0
    nodes: int = 40_960

    def __post_init__(self) -> None:
        check_positive("compute_speedup", self.compute_speedup)
        check_positive("network_speedup", self.network_speedup)
        check_positive("serial_speedup", self.serial_speedup)
        if self.nodes < 1:
            raise ValueError(f"machine needs at least one node, got {self.nodes}")

    def transform(self, model: PerformanceModel) -> PerformanceModel:
        """Re-scale a fitted curve's terms by this machine's resource speeds."""
        return PerformanceModel(
            a=model.a / self.compute_speedup,
            b=model.b / self.network_speedup,
            c=model.c,
            d=model.d / self.serial_speedup,
        )

    def transform_all(
        self, models: Mapping[str, PerformanceModel]
    ) -> dict[str, PerformanceModel]:
        return {name: self.transform(m) for name, m in models.items()}


#: The calibration machine itself (identity transform).
INTREPID = MachineProfile(name="intrepid", nodes=40_960)

#: A plausible 2020s exascale-class profile relative to a 2008 Blue Gene/P:
#: huge per-node compute gains, strong but lagging network, modest
#: single-thread improvement — the classic "serial floor becomes the wall".
EXASCALE_SKETCH = MachineProfile(
    name="exascale-sketch",
    compute_speedup=80.0,
    network_speedup=20.0,
    serial_speedup=6.0,
    nodes=9_000,
)
