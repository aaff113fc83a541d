"""LRU + TTL solution cache with hit/miss accounting and stale reads.

HSLB is *static*: a solve's answer depends only on the canonical request,
never on machine state or time — which makes solutions perfectly cacheable.
The cache is a plain ordered-dict LRU with an optional time-to-live (so a
deployment that refits its curves hourly can bound staleness) and counters
for every outcome, feeding the service metrics.

Semantics pinned by the test suite:

* **TTL boundary** — an entry is valid while ``age <= ttl`` and expires
  strictly after; a lookup at exactly the boundary still hits.
* **Corpse retention** — an expired entry stops answering ``get``/``peek``/
  ``in`` but stays physically present (capacity-bounded) so the degradation
  ladder's :meth:`stale` rung can still serve it; only LRU eviction or an
  explicit :meth:`purge` removes it.
* **Thread safety** — every public operation holds one lock, so a ``get``
  racing an expiring ``put`` can never observe a half-updated LRU order or
  double-count an expiration.
* **Accounting** — ``CacheStats`` and the global metrics-registry counters
  (``service_cache_*_total``) move in lockstep, and every entry's demise is
  booked exactly once: as an *expiration* the first time its death-by-age
  is observed (or when purged/evicted unobserved), as an *eviction* only
  when capacity removes it while still live.
* **Stale reads** — :meth:`stale` serves entries regardless of TTL (bounded
  by ``max_age``), reports their age, and touches no recency or hit/miss
  counters: a stale read is not a cache hit.

The clock is injectable so tests can drive TTL expiry deterministically.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Generic, TypeVar

from repro.obs.metrics import REGISTRY

V = TypeVar("V")


@dataclass
class CacheStats:
    """Outcome counters since construction (monotonic, never reset).

    Every increment is mirrored into the ``service_cache_*_total`` registry
    counters, so a Prometheus scrape and :meth:`as_dict` always agree.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    expirations: int = 0
    inserts: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from cache (0 when none yet)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def _bump(self, name: str, amount: int = 1) -> None:
        setattr(self, name, getattr(self, name) + amount)
        REGISTRY.counter(f"service_cache_{name}_total").inc(amount)

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "inserts": self.inserts,
            "hit_rate": self.hit_rate,
        }


@dataclass
class _Entry(Generic[V]):
    value: V
    inserted_at: float
    expiry_booked: bool = False  # death-by-age already counted once


@dataclass
class SolutionCache(Generic[V]):
    """Bounded LRU mapping fingerprint -> cached solve, with optional TTL."""

    capacity: int = 256
    ttl: float | None = None  # seconds; None = entries never expire
    clock: Callable[[], float] = time.monotonic
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        if self.ttl is not None and self.ttl <= 0:
            raise ValueError("ttl must be positive (or None)")
        self._entries: OrderedDict[str, _Entry[V]] = OrderedDict()
        self._lock = threading.RLock()

    def __len__(self) -> int:
        """Physically present entries, expired corpses included."""
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """Non-mutating presence check (no LRU touch, no accounting)."""
        with self._lock:
            entry = self._entries.get(key)
            return entry is not None and not self._expired(entry)

    def get(self, key: str) -> V | None:
        """Look up ``key``; counts a hit or miss and refreshes recency."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats._bump("misses")
                return None
            if self._expired(entry):
                self._book_expiry(entry)
                self.stats._bump("misses")
                return None
            self._entries.move_to_end(key)
            self.stats._bump("hits")
            return entry.value

    def put(self, key: str, value: V) -> None:
        """Insert/overwrite ``key``, evicting the LRU entry when full.

        Capacity removals book an *eviction* for live entries; an expired
        corpse swept out here books its (one) expiration instead — time's
        casualties are never charged to capacity.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = _Entry(value, self.clock())
            self.stats._bump("inserts")
            while len(self._entries) > self.capacity:
                _, victim = self._entries.popitem(last=False)
                if self._expired(victim):
                    self._book_expiry(victim)
                else:
                    self.stats._bump("evictions")

    def peek(self, key: str) -> V | None:
        """Read without touching recency or counters (inspection, replay
        checks)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or self._expired(entry):
                return None
            return entry.value

    def stale(
        self, key: str, *, max_age: float | None = None
    ) -> tuple[V, float] | None:
        """Read ``key`` regardless of TTL; returns ``(value, age)`` or None.

        The degradation ladder's second rung: a bounded-staleness answer
        beats no answer, provided the caller marks it as stale.  ``max_age``
        caps how old (seconds since insert) a served entry may be; ``None``
        serves anything still physically present.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            age = self.clock() - entry.inserted_at
            if max_age is not None and age > max_age:
                return None
            return entry.value, age

    def purge(self) -> int:
        """Drop every expired corpse now; returns how many were dropped."""
        with self._lock:
            if self.ttl is None:
                return 0
            dead = [k for k, e in self._entries.items() if self._expired(e)]
            for key in dead:
                self._book_expiry(self._entries.pop(key))
            return len(dead)

    def _book_expiry(self, entry: _Entry[V]) -> None:
        if not entry.expiry_booked:
            entry.expiry_booked = True
            self.stats._bump("expirations")

    def _expired(self, entry: _Entry[V]) -> bool:
        return self.ttl is not None and self.clock() - entry.inserted_at > self.ttl
