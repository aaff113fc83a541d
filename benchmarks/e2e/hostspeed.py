"""A fixed calibration kernel, so timings can be read at one host speed.

On the 2-vCPU authoring sandbox identical work ran up to 40 % slower from one
moment to the next: 160 back-to-back runs of the ``1deg-2048`` block had a
coefficient of variation of 18 % (CPU time equal to wall time: the host
simply executed slower), in episodes lasting from under a second to minutes.
No bound under 0.25 can be resolved against that, and a later change would be
accepted or refused by the weather.

Most of the slowdown is one global factor, so every timed sample is paired
with probes of this kernel taken just before and just after it and scaled to
the speed at which one kernel pass takes ``REFERENCE_S``:

    reported = measured * REFERENCE_S / mean(probe before, probe after)

which cut the spread of the mean of eight such blocks from 10-14 % to 3-5 %.
The kernel is half interpreter work, dictionary traffic, small dense solves
and hashing, and half memory traffic (a 4 MB array pass and a walk over 100 k
float objects) — the program's own mix; the compute half alone tracked the
fit- and hash-bound workloads but not the solver-bound one.  It calls nothing
from the program, so a change to the program cannot move it.

``host.kernel_ms`` reports the raw probe of a run, i.e. how fast the host
was; multiply a reported time by ``host.kernel_ms / (1e3 * REFERENCE_S)`` to
get back what the clock read.
"""

from __future__ import annotations

import hashlib
import json
import time

import numpy as np

#: One kernel pass on the authoring host on a quiet minute.
REFERENCE_S = 0.0075

_MATRIX = np.random.default_rng(20120427).normal(size=(40, 40)) + 50 * np.eye(40)
_PAYLOAD = {f"key{i}": [i * 0.5, str(i)] for i in range(40)}
_ARRAY = np.random.default_rng(20120427).normal(size=500_000)
# Floats are not tracked by the cyclic collector, so the kernel's data adds
# one list to what a collection in the measured program has to scan.
_FLOATS = [i * 1.5 for i in range(100_000)]


def kernel() -> float:
    """Seconds one pass of the fixed kernel took."""
    start = time.perf_counter()
    total = 0.0
    for i in range(5000):
        total += (i * 0.5) % 7
    counts: dict[int, int] = {}
    for i in range(5000):
        counts[i % 100] = counts.get(i % 100, 0) + i
    x = _MATRIX
    for _ in range(40):
        x = np.linalg.solve(_MATRIX, x)
        x = x / np.abs(x).max()
    for _ in range(20):
        blob = json.dumps(_PAYLOAD, sort_keys=True)
        hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()
    total += float((_ARRAY * 1.0001).sum())
    for value in _FLOATS:
        total += value
    return time.perf_counter() - start


def probe(passes: int = 3) -> float:
    """Median of a few passes: one interrupted pass must not misread the
    host speed for the sample it is paired with."""
    return sorted(kernel() for _ in range(passes))[passes // 2]


def factor(kernel_seconds: float) -> float:
    """Multiplier that brings a timing to the reference host speed."""
    return REFERENCE_S / kernel_seconds


class SpeedMeter:
    """Pairs each timed sample with the probes just before and after it."""

    def __init__(self) -> None:
        self.last = probe()

    def refresh(self) -> None:
        """Probe again, after untimed work that made the last probe stale."""
        self.last = probe()

    def factor(self) -> float:
        """Call right after a timed sample; the closing probe opens the
        next sample."""
        before, self.last = self.last, probe()
        return factor((before + self.last) / 2)


class SetupClock:
    """Times a child's set-up from the moment its parent spawned it.

    Created as soon as the child can import this module, it probes the host
    then and again when the set-up is done, so the set-up is bracketed like
    every other sample (the opening probe's own time is taken off).
    """

    def __init__(self, spawned_at: float) -> None:
        self.spawned_at = spawned_at
        begin = time.perf_counter()
        self.opening = probe(5)
        self.probing = time.perf_counter() - begin

    def done(self) -> dict:
        raw = time.time() - self.spawned_at - self.probing
        closing = probe(5)
        return {
            "setup_s": raw * factor((self.opening + closing) / 2),
            "setup_raw_s": raw,
        }
