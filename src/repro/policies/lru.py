"""Least-recently-used whole-object caching (Ceph's cache-tier policy).

Ceph's cache tier stores whole replicated objects in a fast pool and evicts
the least-recently-used ones when capacity is exceeded; every miss promotes
the object from the erasure-coded storage tier.  The paper uses this policy
as its baseline and reports roughly a 25% latency disadvantage against the
optimized functional cache.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import CacheError
from repro.policies.base import AccessOutcome, ChunkCachingPolicy, Eviction


class LRUCache:
    """A least-recently-used container with a capacity measured in chunks.

    Keys are arbitrary hashables, each carrying a size in chunks; keys are
    kept from least to most recently used.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise CacheError(f"capacity must be non-negative, got {capacity}")
        self._capacity = int(capacity)
        self._entries: "OrderedDict[object, int]" = OrderedDict()
        self._used = 0

    @property
    def used(self) -> int:
        """Chunks currently stored."""
        return self._used

    def keys(self) -> List[object]:
        """Keys from least to most recently used."""
        return list(self._entries.keys())

    def peek(self, key: object) -> bool:
        """Check membership without updating recency."""
        return key in self._entries

    def touch(self, key: object) -> bool:
        """Refresh the recency of ``key``; returns whether it was present."""
        if key in self._entries:
            self._entries.move_to_end(key)
            return True
        return False

    def insert(self, key: object, size: int = 1) -> List[Tuple[object, int]]:
        """Insert ``key``; returns the ``(key, size)`` LRU victims evicted."""
        if size <= 0:
            raise CacheError(f"entry size must be positive, got {size}")
        if size > self._capacity:
            # Object larger than the whole cache: not cacheable, nothing to do.
            return []
        if key in self._entries:
            self._used -= self._entries.pop(key)
        victims: List[Tuple[object, int]] = []
        while self._used + size > self._capacity and self._entries:
            evicted_key, evicted_size = self._entries.popitem(last=False)
            self._used -= evicted_size
            victims.append((evicted_key, evicted_size))
        self._entries[key] = size
        self._used += size
        return victims

    def evict(self, key: object) -> bool:
        """Explicitly remove ``key``; returns whether it was present."""
        if key in self._entries:
            self._used -= self._entries.pop(key)
            return True
        return False


class LRUPolicy(ChunkCachingPolicy):
    """Whole-object LRU over chunk-sized entries.

    Misses promote the whole object, evicting least-recently-used residents
    to make room; objects larger than the whole cache are simply not cached
    (clean miss path).  ``replication`` inflates the footprint each cached
    copy occupies (Ceph's cache tier stores replicated objects) without
    changing the chunk-occupancy snapshot the scheduler sees.
    """

    def __init__(
        self,
        capacity_chunks: int,
        chunks_per_file: Optional[Mapping[str, int]] = None,
        replication: int = 1,
    ):
        if replication < 1:
            raise CacheError("replication factor must be at least 1")
        self._replication = int(replication)
        self._cache = LRUCache(capacity_chunks)
        super().__init__(capacity_chunks, chunks_per_file)

    def _stored_size(self, file_id: str) -> int:
        return self.footprint(file_id) * self._replication

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------

    def lookup(self, file_id: str) -> int:
        return self.footprint(file_id) if self._cache.peek(file_id) else 0

    def evict(self, file_id: str) -> bool:
        return self._cache.evict(file_id)

    def occupancy(self) -> Dict[str, int]:
        return {str(key): self.footprint(str(key)) for key in self._cache.keys()}

    @property
    def used_chunks(self) -> int:
        return self._cache.used

    def _on_hit(self, file_id: str) -> None:
        self._cache.touch(file_id)

    def _on_miss(self, file_id: str) -> Tuple[bool, List[Eviction]]:
        victims = self._cache.insert(file_id, self._stored_size(file_id))
        promoted = self._cache.peek(file_id)
        evicted = [
            (str(key), self.footprint(str(key))) for key, _ in victims
        ]
        return promoted, evicted

    def observe(self, file_id: str) -> AccessOutcome:
        # Hot-path specialisation of the base template (hit == membership):
        # one OrderedDict touch per hit.
        stats = self.stats
        stats.reads += 1
        if self._cache.touch(file_id):
            stats.hits += 1
            return AccessOutcome(True, self.footprint(file_id))
        promoted, evicted = self._on_miss(file_id)
        if promoted:
            stats.promotions += 1
        if evicted:
            stats.evicted_chunks += sum(chunks for _, chunks in evicted)
        return AccessOutcome(False, 0, promoted, tuple(evicted))

    def classify(
        self, file_ids: Sequence[str]
    ) -> Tuple[np.ndarray, np.ndarray, int, int]:
        # One pass straight over the cache's OrderedDict: a hit moves the
        # file to the MRU end; a miss evicts from the LRU end until the
        # file fits, then inserts it.  Files larger than the whole cache
        # miss without promoting, exactly as in LRUCache.insert.
        cache = self._cache
        entries = cache._entries
        capacity = cache._capacity
        footprints = self._chunks_per_file
        replication = self._replication
        move_to_end = entries.move_to_end
        pop_lru = entries.popitem
        cached: List[int] = []
        record = cached.append
        used = cache._used
        promotions = 0
        evicted_chunks = 0
        try:
            for file_id in file_ids:
                if file_id in entries:
                    move_to_end(file_id)
                    record(footprints[file_id])
                    continue
                try:
                    size = footprints[file_id] * replication
                except KeyError:
                    raise CacheError(f"unknown file id {file_id!r}") from None
                record(0)
                if size > capacity:
                    continue
                while used + size > capacity:
                    victim, victim_size = pop_lru(False)
                    used -= victim_size
                    evicted_chunks += footprints[victim]
                entries[file_id] = size
                used += size
                promotions += 1
        finally:
            # Keep the cache and the counters consistent even on an error.
            cache._used = used
            cached_chunks = np.asarray(cached, dtype=np.int64)
            hits = int(np.count_nonzero(cached_chunks))
            stats = self.stats
            stats.reads += cached_chunks.size
            stats.hits += hits
            stats.promotions += promotions
            stats.evicted_chunks += evicted_chunks
        return cached_chunks > 0, cached_chunks, promotions, evicted_chunks
