"""Consistent-hash sharding of request families onto cache shards.

The async serving tier routes every request by its **family key** (the
fingerprint minus the node budget — see :meth:`repro.service.request.\
SolveRequest.family_key`) so that all budgets of one curve set land on the
same shard.  That placement is what makes per-shard state pay off: the
shard that owns a family owns its cached solutions and its circuit-breaker
state, so a family's repeats hit the cache that already holds them and a
misbehaving family trips one breaker.  Placement never changes an answer —
no solve reads another solve's state.

The ring is the textbook consistent-hash construction:

* each shard contributes ``vnodes`` points on a 64-bit ring, placed at
  ``blake2b(f"{shard}#{i}")`` — a pure function of the shard name, so the
  same shard set always yields the same ring in every process and on every
  run (no RNG, no insertion-order dependence);
* a key is routed to the first shard point clockwise from
  ``blake2b(key)``;
* adding or removing one shard of ``N`` therefore moves only the keys in
  the arcs it gains or loses — ~``K/N`` of ``K`` keys, an invariant the
  test suite pins — while every other key keeps its shard, and the cache
  entries behind it.

Virtual nodes smooth the arc lengths: with ``vnodes`` in the tens to
hundreds, shard load imbalance concentrates around the ~``1/sqrt(vnodes)``
level instead of the factor-of-several spread single-point hashing gives.
"""

from __future__ import annotations

import bisect
import hashlib
from collections import Counter
from collections.abc import Iterable, Sequence

#: Virtual nodes per shard.  96 keeps the max/mean family-count spread
#: within ~1.3x for the shard counts the tier runs (2-32) while keeping
#: ring rebuilds trivially cheap.
DEFAULT_VNODES = 96

_RING_BITS = 64


def _point(label: str) -> int:
    """Deterministic 64-bit ring position of a label."""
    digest = hashlib.blake2b(label.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """A consistent-hash ring mapping string keys onto named shards."""

    def __init__(
        self, shards: Sequence[str] | Iterable[str], *, vnodes: int = DEFAULT_VNODES
    ) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._shards: list[str] = []
        self._points: list[int] = []  # sorted ring positions
        self._owners: list[str] = []  # shard owning each position
        for shard in shards:
            self.add_shard(shard)
        if not self._shards:
            raise ValueError("a ring needs at least one shard")

    # -- membership ---------------------------------------------------------

    @property
    def shards(self) -> tuple[str, ...]:
        """Current shard names, in insertion order."""
        return tuple(self._shards)

    def add_shard(self, shard: str) -> None:
        """Add ``shard``'s virtual nodes; idempotence is an error (a shard
        joining twice would silently double its ring share)."""
        shard = str(shard)
        if shard in self._shards:
            raise ValueError(f"shard {shard!r} is already on the ring")
        self._shards.append(shard)
        for i in range(self.vnodes):
            point = _point(f"{shard}#{i}")
            idx = bisect.bisect_left(self._points, point)
            self._points.insert(idx, point)
            self._owners.insert(idx, shard)

    def remove_shard(self, shard: str) -> None:
        """Remove ``shard``; its arcs fall to their clockwise successors."""
        shard = str(shard)
        if shard not in self._shards:
            raise ValueError(f"shard {shard!r} is not on the ring")
        if len(self._shards) == 1:
            raise ValueError("cannot remove the last shard")
        self._shards.remove(shard)
        keep = [i for i, owner in enumerate(self._owners) if owner != shard]
        self._points = [self._points[i] for i in keep]
        self._owners = [self._owners[i] for i in keep]

    # -- routing ------------------------------------------------------------

    def lookup(self, key: str) -> str:
        """The shard owning ``key``: first ring point clockwise of its hash."""
        idx = bisect.bisect_right(self._points, _point(str(key)))
        if idx == len(self._points):  # wrapped past the top of the ring
            idx = 0
        return self._owners[idx]

    def spread(self, keys: Iterable[str]) -> dict[str, int]:
        """How many of ``keys`` each shard owns (diagnostics / tests)."""
        counts: Counter[str] = Counter({shard: 0 for shard in self._shards})
        for key in keys:
            counts[self.lookup(key)] += 1
        return dict(counts)

    def __len__(self) -> int:
        return len(self._shards)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"HashRing(shards={len(self._shards)}, vnodes={self.vnodes}, "
            f"points={len(self._points)})"
        )
