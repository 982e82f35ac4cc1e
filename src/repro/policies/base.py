"""The :class:`ChunkCachingPolicy` protocol every cache policy implements.

A *chunk caching policy* decides, request by request, which chunks of which
files live in the cache.  The protocol is deliberately small -- ``observe``
(record an access, possibly promoting the file and evicting victims),
``lookup`` (how many chunks of a file are cached right now), ``evict``
(explicit removal) and ``occupancy`` (the full chunk-occupancy snapshot) --
plus one bulk entry point, :meth:`~ChunkCachingPolicy.classify`, which
observes a whole trace in one call.  The same policy object drives three
very different consumers:

* the Ceph-like cache tier (:mod:`repro.cluster.cachetier`), one object at
  a time along the emulated IO path;
* the trace replay (:mod:`repro.cluster.replay`), which classifies a whole
  trace with one ``classify`` call per run: the request engine through the
  base per-request loop, the epoch engine through the policy's own bulk
  pass (an ``OrderedDict`` recency pass for LRU, a gather of the fixed
  allocation for the static functional cache);
* the scenario facade (:mod:`repro.policies.placement`), which classifies
  a seeded synthetic trace and converts the final occupancy snapshot into
  a functional cache placement for the analytical pipeline.

State-change reporting is explicit: every mutation returns the victims it
evicted as ``(file_id, chunks)`` pairs, so consumers can keep exact
eviction accounting (the cache tier's ``evictions_mb``).  A ``classify``
override must leave the policy's state, recency order and :attr:`stats`
exactly as the per-request loop would.

Degenerate configurations are first-class: a zero-capacity policy and a
file larger than the whole cache must both take the miss path cleanly
(hit ratio 0.0, no exception) rather than raising mid-replay.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import CacheError

#: A ``(file_id, chunks)`` eviction record.
Eviction = Tuple[str, int]


@dataclass
class PolicyStats:
    """Hit/miss/eviction counters maintained by every policy."""

    reads: int = 0
    hits: int = 0
    promotions: int = 0
    evicted_chunks: int = 0

    @property
    def misses(self) -> int:
        """Number of reads that did not fully hit."""
        return self.reads - self.hits

    @property
    def hit_ratio(self) -> float:
        """Fraction of reads served entirely from the cache (0 if no reads)."""
        if self.reads == 0:
            return 0.0
        return self.hits / self.reads


class AccessOutcome(NamedTuple):
    """What one :meth:`ChunkCachingPolicy.observe` call did.

    Attributes
    ----------
    hit:
        Whether the file was fully resident (all ``k_i`` chunks cached).
    cached_chunks:
        Chunks of the requested file served from the cache for this access
        (``k_i`` on a hit, the partial allocation -- usually 0 -- on a miss).
    promoted:
        Whether the miss actually inserted the file (a zero-capacity cache
        or an oversized file misses without promoting).
    evicted:
        Victims removed to make room, as ``(file_id, chunks)``.
    """

    hit: bool
    cached_chunks: int
    promoted: bool = False
    evicted: Tuple[Eviction, ...] = ()


class ChunkCachingPolicy(ABC):
    """Base class of the pluggable cache-policy layer.

    Parameters
    ----------
    capacity_chunks:
        Cache capacity in chunk units (any consistent unit works; the
        cluster cache tier uses MB).  Zero is a valid, always-missing cache.
    chunks_per_file:
        Mapping from file id to the chunk footprint a cached copy occupies.
        Files may also be registered later via :meth:`register_file` (the
        cache tier learns sizes on write).
    """

    def __init__(
        self,
        capacity_chunks: int,
        chunks_per_file: Optional[Mapping[str, int]] = None,
    ):
        if capacity_chunks < 0:
            raise CacheError(
                f"capacity must be non-negative, got {capacity_chunks}"
            )
        self._capacity = int(capacity_chunks)
        self._chunks_per_file: Dict[str, int] = {}
        for file_id, chunks in (chunks_per_file or {}).items():
            self.register_file(file_id, chunks)
        self.stats = PolicyStats()

    # ------------------------------------------------------------------
    # Footprints
    # ------------------------------------------------------------------

    @property
    def capacity_chunks(self) -> int:
        """Cache capacity in chunk units."""
        return self._capacity

    def register_file(self, file_id: str, chunks: int) -> None:
        """Declare (or update) the chunk footprint of a file."""
        if chunks <= 0:
            raise CacheError(
                f"file {file_id!r}: footprint must be positive, got {chunks}"
            )
        self._chunks_per_file[str(file_id)] = int(chunks)

    def footprint(self, file_id: str) -> int:
        """Chunk footprint of a cached copy of ``file_id``."""
        try:
            return self._chunks_per_file[file_id]
        except KeyError as error:
            raise CacheError(f"unknown file id {file_id!r}") from error

    @property
    def known_files(self) -> List[str]:
        """All registered file ids."""
        return list(self._chunks_per_file)

    # ------------------------------------------------------------------
    # The protocol proper: observe / lookup / evict / occupancy
    # ------------------------------------------------------------------

    @abstractmethod
    def lookup(self, file_id: str) -> int:
        """Chunks of ``file_id`` currently cached (no state change)."""

    @abstractmethod
    def evict(self, file_id: str) -> bool:
        """Explicitly remove ``file_id``; returns whether it was cached."""

    @abstractmethod
    def occupancy(self) -> Dict[str, int]:
        """Chunk-occupancy snapshot: cached chunks per resident file."""

    @property
    @abstractmethod
    def used_chunks(self) -> int:
        """Chunk units currently occupied."""

    def resident(self, file_id: str) -> bool:
        """Whether ``file_id`` is fully resident (all chunks cached)."""
        return self.lookup(file_id) >= self.footprint(file_id)

    def observe(self, file_id: str) -> AccessOutcome:
        """Record one access to ``file_id``.

        Template method: classifies the access against the current
        residency and routes to the policy's hit/miss handlers.  Returns
        the full :class:`AccessOutcome` so callers can keep exact eviction
        accounting.
        """
        self.stats.reads += 1
        cached = self.lookup(file_id)
        if cached >= self.footprint(file_id):
            self._on_hit(file_id)
            self.stats.hits += 1
            return AccessOutcome(True, cached)
        promoted, evicted = self._on_miss(file_id)
        if promoted:
            self.stats.promotions += 1
        self.stats.evicted_chunks += sum(c for _, c in evicted)
        return AccessOutcome(False, cached, promoted, tuple(evicted))

    def admit(self, file_id: str) -> AccessOutcome:
        """Insert ``file_id`` as if freshly written (no read accounting).

        The write path of a write-back tier: the object becomes resident
        (evicting victims as needed) but the access does not count as a
        read, hit or promotion in :attr:`stats`.
        """
        cached = self.lookup(file_id)
        if cached >= self.footprint(file_id):
            self._on_hit(file_id)
            return AccessOutcome(True, cached)
        promoted, evicted = self._on_miss(file_id)
        self.stats.evicted_chunks += sum(c for _, c in evicted)
        return AccessOutcome(False, cached, promoted, tuple(evicted))

    # ------------------------------------------------------------------
    # Hit/miss handlers implemented by concrete policies
    # ------------------------------------------------------------------

    @abstractmethod
    def _on_hit(self, file_id: str) -> None:
        """Update recency state for a full hit."""

    @abstractmethod
    def _on_miss(self, file_id: str) -> Tuple[bool, List[Eviction]]:
        """Handle a miss; returns ``(promoted, evicted victims)``."""

    # ------------------------------------------------------------------
    # Bulk entry points used by the trace replays and warm-up
    # ------------------------------------------------------------------

    def classify(
        self, file_ids: Sequence[str]
    ) -> Tuple[np.ndarray, np.ndarray, int, int]:
        """Observe every access of ``file_ids`` in order, in one call.

        ``file_ids`` is any sequence of file ids, such as a list or a NumPy
        object array.  Returns ``(hit_mask, cached_chunks, promotions,
        evicted_chunks)``: per-request hit flags and cached chunk counts (as
        :class:`AccessOutcome` reports them) plus the promotion and
        evicted-chunk totals.  Policy state and :attr:`stats` end exactly
        as after one :meth:`observe` per request.  This default *is* that
        per-request loop -- the reference every override must reproduce.
        """
        num_requests = len(file_ids)
        hit_mask = np.zeros(num_requests, dtype=bool)
        cached_chunks = np.zeros(num_requests, dtype=np.int64)
        promotions = 0
        evicted_chunks = 0
        observe = self.observe
        for request, file_id in enumerate(file_ids):
            outcome = observe(file_id)
            hit_mask[request] = outcome.hit
            cached_chunks[request] = outcome.cached_chunks
            if outcome.promoted:
                promotions += 1
            for _, chunks in outcome.evicted:
                evicted_chunks += chunks
        return hit_mask, cached_chunks, promotions, evicted_chunks

    def warm(self, file_ids: Iterable[str]) -> None:
        """Pre-populate the cache by admitting files in order (stats reset)."""
        for file_id in file_ids:
            self.admit(file_id)
        self.reset_stats()

    def reset_stats(self) -> None:
        """Zero the hit/miss counters (cache contents are preserved)."""
        self.stats = PolicyStats()
