"""The benchmark's own span recorder and sample statistics.

Spans are recorded from outside the program, around calls into each layer's
public functions: name, start, end, parent, round, and a ``count`` for spans
that cover a batch of microsecond-scale calls.  They stay in memory and are
written as JSON lines when the run ends.  A layer's self time is its span
minus the part its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class SpanRecorder:
    """In-memory span tree for one workload run (single-threaded)."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.round = 0
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _open(self, name: str, start: float, end, count: int) -> dict:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "round": self.round,
            "count": count,
            "start": start,
            "end": end,
        }
        self.spans.append(record)
        return record

    @contextmanager
    def span(self, name: str, count: int = 1):
        record = self._open(name, time.perf_counter(), None, count)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """A finished span timed by the caller (concurrent requests, which a
        stack cannot nest); its parent is the span open right now."""
        self._open(name, start, end, 1)

    def wrap(self, name: str, fn):
        """``fn`` with a span around every call."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_times(self) -> list[float]:
        """Per span (by id): its duration minus the part of it that its
        child spans cover (children may overlap one another)."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]].append((s["start"], s["end"]))
        out = []
        for s in self.spans:
            covered, reach = 0.0, s["start"]
            for start, end in sorted(children[s["id"]]):
                if end > reach:
                    covered += end - max(start, reach)
                    reach = end
            out.append(s["end"] - s["start"] - covered)
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


# -- sample statistics ------------------------------------------------------

#: A percentile is printed only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def quantile(sorted_values, q: float) -> float:
    """Linear-interpolated order statistic of an ascending sequence."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def percentile(values, q: float) -> float:
    """``q``-quantile of ``values``; refuses a tail the sample cannot carry."""
    beyond = len(values) * min(q, 1.0 - q)
    if q != 0.5 and beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{100 * q:g} of {len(values)} samples has only {beyond:.1f} "
            f"beyond it; need {MIN_TAIL_SAMPLES}"
        )
    return quantile(sorted(values), q)


def summary(values) -> dict:
    """n, median and quartiles: what every stored metric carries."""
    ordered = sorted(values)
    return {
        "n": len(ordered),
        "median": quantile(ordered, 0.5),
        "q1": quantile(ordered, 0.25),
        "q3": quantile(ordered, 0.75),
    }
