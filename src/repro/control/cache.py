"""Hot-record cache tier: short-circuit the scan for popular records.

Under a skewed workload a handful of records (freshly issued certificates,
commonly leaked passwords) absorb most queries.  The dedup machinery
already collapses duplicate requests *within* one batch; this cache
collapses them *across* batches: a record reconstructed once is served to
later batches straight from frontend memory, skipping query generation and
the replica scans entirely.

**Privacy caveat — same gate as ``dedup=True``.**  A caching frontend
necessarily sees which index each request asks for and sends the replicas
*fewer* queries than it admitted, so the traffic pattern leaks exactly as
it does under batch dedup.  That is only acceptable when the frontend is a
trusted aggregator and the observed access pattern is part of the threat
model — which is why :class:`~repro.pir.frontend.PIRFrontend` refuses a
cache unless ``dedup=True`` is already on (the caveat is documented on the
frontend constructor).

Admission is frequency-gated, after TinyLFU (Einziger, Friedman & Manes,
"TinyLFU: A Highly Efficient Cache Admission Policy", ACM ToS 2017).
:meth:`HotRecordCache.get` counts every lookup per index, hits and misses
alike.  Every ``SAMPLE_PER_CAPACITY x capacity`` lookups all counts halve and
the ones that reach zero are dropped, so the counts follow recent traffic
and at most ``2 x SAMPLE_PER_CAPACITY x capacity`` indices are ever tracked
(the counts sum to at most twice the sample).  A record enters a cache with
room unconditionally; it enters a *full* cache only when its count is
strictly greater than the count of the least recently used resident it would
evict, so a tie keeps the resident.  A one-off probe therefore never evicts a
record asked for twice within the current or the previous sample.  Residents
keep LRU order among themselves.  Consistency comes from invalidation:
``apply_updates`` dirty indices are dropped (see
:meth:`repro.shard.fleet.FleetRouter.apply_updates`), so a cached record can
never go stale relative to the fleets.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.common.errors import ConfigurationError

#: TinyLFU's sample size per unit of capacity: all lookup counts halve every
#: ``SAMPLE_PER_CAPACITY * capacity`` lookups.
SAMPLE_PER_CAPACITY = 10


@dataclass
class CacheStats:
    """Counters the cache accumulates over its lifetime."""

    hits: int = 0
    misses: int = 0
    admissions: int = 0
    #: Admissions refused because the record was requested no more often
    #: than the LRU victim it would have evicted.
    rejected_cold: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup (0.0 before any lookup happened)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "admissions": self.admissions,
            "rejected_cold": self.rejected_cold,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }


@dataclass
class HotRecordCache:
    """An LRU record cache with frequency-gated admission.

    ``capacity`` bounds the number of resident records.  Admission into a
    full cache follows the module docstring's rule: the candidate must have
    been looked up strictly more often than the LRU resident.
    """

    capacity: int
    stats: CacheStats = field(default_factory=CacheStats)
    #: Optional :class:`~repro.obs.events.EventLog`; admission/eviction/
    #: invalidation emit events when set (the hub wires this).
    events: Optional[object] = None

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ConfigurationError("cache capacity must be positive")
        self._records: "OrderedDict[int, bytes]" = OrderedDict()
        #: Decayed lookup counts per index; every tracked count is >= 1.
        self._counts: Dict[int, int] = {}
        self._lookups_until_halving = SAMPLE_PER_CAPACITY * self.capacity

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, index: int) -> bool:
        return index in self._records

    # -- the frontend-facing surface ------------------------------------------------

    def get(self, index: int) -> Optional[bytes]:
        """The cached record for ``index``, or ``None``; a hit refreshes LRU
        order.  Every call counts one lookup of ``index``."""
        self._counts[index] = self._counts.get(index, 0) + 1
        self._lookups_until_halving -= 1
        if not self._lookups_until_halving:
            self._counts = {i: c >> 1 for i, c in self._counts.items() if c > 1}
            self._lookups_until_halving = SAMPLE_PER_CAPACITY * self.capacity
        record = self._records.get(index)
        if record is None:
            self.stats.misses += 1
            return None
        self._records.move_to_end(index)
        self.stats.hits += 1
        return record

    def admit(self, index: int, record: bytes) -> bool:
        """Offer a freshly reconstructed record; returns whether it was kept.

        A resident is refreshed in place and a cache with room takes the
        record.  A full cache takes it only when ``index`` was looked up
        strictly more often than the least recently used resident, which it
        then evicts.
        """
        if index in self._records:
            self._records[index] = record
            self._records.move_to_end(index)
            return True
        victim = next(iter(self._records)) if len(self._records) >= self.capacity else None
        if victim is not None and self._counts.get(index, 0) <= self._counts.get(victim, 0):
            self.stats.rejected_cold += 1
            if self.events is not None:
                self.events.emit("cache.reject_cold", index=index)
            return False
        self._records[index] = record
        self.stats.admissions += 1
        if self.events is not None:
            self.events.emit("cache.admit", index=index)
        if victim is not None:
            del self._records[victim]
            self.stats.evictions += 1
            if self.events is not None:
                self.events.emit("cache.evict", index=victim)
        return True

    def admit_many(self, records: Dict[int, bytes]) -> None:
        """Offer a whole flush's reconstructions, in order, to :meth:`admit`."""
        for index, record in records.items():
            self.admit(index, record)

    def invalidate(self, indices: Iterable[int]) -> int:
        """Drop every cached record in ``indices`` (the dirty set of an
        ``apply_updates``); returns how many were actually resident."""
        dropped = 0
        for index in indices:
            if self._records.pop(index, None) is not None:
                dropped += 1
        self.stats.invalidations += dropped
        if dropped and self.events is not None:
            self.events.emit("cache.invalidate", dropped=dropped)
        return dropped

    def clear(self) -> None:
        """Drop everything (e.g. after a full database swap)."""
        resident = len(self._records)
        self.stats.invalidations += resident
        self._records.clear()
        if resident and self.events is not None:
            self.events.emit("cache.invalidate", dropped=resident)

    def resident_indices(self) -> list:
        """Cached record indices in LRU-to-MRU order (diagnostic)."""
        return list(self._records)

    def __repr__(self) -> str:
        return (
            f"HotRecordCache(capacity={self.capacity}, resident={len(self)}, "
            f"hit_rate={self.stats.hit_rate:.2f})"
        )
