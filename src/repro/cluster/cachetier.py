"""Ceph cache-tier emulation: a replicated write-back overlay pool.

In the baseline configuration of the paper, all IO is routed to a replicated
SSD cache tier in front of the (7,4) erasure-coded storage pool.  A read
that hits the cache is served from the SSDs; a miss promotes the whole
object from the storage tier (paying the erasure-coded read) and the tiering
agent evicts objects to make room.

Which objects stay resident is decided by a pluggable
:class:`~repro.policies.base.ChunkCachingPolicy` (Ceph's tiering agent is
LRU, the default); the tier itself only models the IO path and keeps exact
byte accounting from the policy's eviction reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.cluster.devices import whole_object_ssd_latency
from repro.cluster.pool import ErasureCodedPool
from repro.exceptions import ClusterError
from repro.policies import ChunkCachingPolicy, create_policy


@dataclass
class CacheTierStats:
    """Read statistics for the cache tier."""

    reads: int = 0
    hits: int = 0
    promotions: int = 0
    evictions_mb: float = 0.0

    @property
    def hit_ratio(self) -> float:
        """Fraction of reads that hit the cache tier."""
        if self.reads == 0:
            return 0.0
        return self.hits / self.reads


class CacheTier:
    """A replicated cache tier overlaying an erasure-coded storage pool.

    Parameters
    ----------
    storage_pool:
        The backing erasure-coded pool.
    capacity_mb:
        Usable cache capacity in MB (after replication).  Zero is valid and
        degenerates to an always-missing tier (every read pays the storage
        path; nothing is ever promoted).
    replication:
        Replication factor of the cache tier; the paper's baseline uses dual
        replication, which halves the usable capacity of the raw devices.
        ``capacity_mb`` here is the *usable* capacity, so replication only
        affects reported raw usage.
    ssd_concurrency:
        How many object reads the SSD partitions serve in parallel; cache
        reads are modelled as a lightly-loaded fast device.
    policy:
        Registered cache-policy name (default ``"lru"``, Ceph's tiering
        agent) or a ready :class:`ChunkCachingPolicy` instance sized in MB
        units.  Object footprints are registered on write.
    """

    def __init__(
        self,
        storage_pool: ErasureCodedPool,
        capacity_mb: int,
        replication: int = 2,
        rng: Optional[np.random.Generator] = None,
        ssd_devices: int = 2,
        policy: Union[str, ChunkCachingPolicy] = "lru",
    ):
        if capacity_mb < 0:
            raise ClusterError("cache capacity must be non-negative")
        if replication < 1:
            raise ClusterError("replication factor must be at least 1")
        if ssd_devices < 1:
            raise ClusterError("the cache tier needs at least one SSD device")
        self._pool = storage_pool
        self._capacity_mb = int(capacity_mb)
        self._replication = replication
        if isinstance(policy, str):
            self._policy = create_policy(policy, self._capacity_mb)
            self._policy_name = policy
        else:
            self._policy = policy
            self._policy_name = type(policy).__name__
        self._object_sizes: Dict[str, int] = {}
        self._rng = rng if rng is not None else np.random.default_rng()
        # The cache tier sits in the IO path: hits are served by, and
        # promotions written through, a small number of SSD OSDs (two in the
        # paper's baseline).  Model them as parallel FIFO servers.
        self._ssd_busy_until = [0.0] * ssd_devices
        self.stats = CacheTierStats()

    def _ssd_enqueue(self, arrival_time: float, service_time: float) -> float:
        """Serve one cache-tier IO on the earliest-free SSD device."""
        device = min(range(len(self._ssd_busy_until)), key=self._ssd_busy_until.__getitem__)
        start = max(arrival_time, self._ssd_busy_until[device])
        completion = start + service_time
        self._ssd_busy_until[device] = completion
        return completion

    @property
    def capacity_mb(self) -> int:
        """Usable capacity in MB."""
        return self._capacity_mb

    @property
    def policy(self) -> ChunkCachingPolicy:
        """The residency policy driving promotions and evictions."""
        return self._policy

    @property
    def policy_name(self) -> str:
        """Registered name (or class name) of the residency policy."""
        return self._policy_name

    @property
    def used_mb(self) -> int:
        """MB of objects currently resident."""
        return int(self._policy.used_chunks)

    @property
    def raw_used_mb(self) -> int:
        """Raw device usage including replication."""
        return self.used_mb * self._replication

    def resident(self, object_name: str) -> bool:
        """Whether an object currently resides in the cache tier."""
        if object_name not in self._object_sizes:
            return False
        return self._policy.resident(object_name)

    # ------------------------------------------------------------------
    # IO paths
    # ------------------------------------------------------------------

    def write_object(self, object_name: str, size_mb: int) -> None:
        """Write an object (write-back: lands in the cache and the pool).

        The backing pool write happens immediately in this emulation; flush
        timing does not affect read latency, which is what the evaluation
        measures.
        """
        self._pool.write_object(object_name, size_mb)
        previous_size = self._object_sizes.get(object_name)
        if previous_size is not None and previous_size != size_mb:
            # Rewrite with a different size: drop the stale-sized entry so
            # the re-admission charges the policy the new footprint.
            self._policy.evict(object_name)
        self._object_sizes[object_name] = size_mb
        self._policy.register_file(object_name, size_mb)
        outcome = self._policy.admit(object_name)
        # Exact eviction accounting: sum the *victims'* sizes (the old
        # implementation multiplied the eviction count by the incoming
        # object's size and missed promotion-path evictions entirely).
        self.stats.evictions_mb += sum(chunks for _, chunks in outcome.evicted)

    def read_object(self, object_name: str, arrival_time: float) -> Tuple[float, bool]:
        """Read an object through the cache tier.

        Returns
        -------
        tuple
            ``(completion_time, hit)``.  A hit is served from the SSD at the
            Table-V latency for the object's chunk size; a miss reads from
            the erasure-coded pool and then promotes the object (if the
            policy admits it -- an object larger than the whole cache, or a
            zero-capacity tier, simply takes the miss path every time).
        """
        size_mb = self._object_sizes.get(object_name)
        if size_mb is None:
            raise ClusterError(
                f"object {object_name!r} was never written through the cache tier"
            )
        self.stats.reads += 1
        outcome = self._policy.observe(object_name)
        self.stats.evictions_mb += sum(chunks for _, chunks in outcome.evicted)
        if outcome.hit:
            self.stats.hits += 1
            completion = self._ssd_enqueue(arrival_time, self._ssd_read_latency(size_mb))
            return completion, True
        # Miss: read from the storage pool, then promote the whole object
        # into the cache tier (write-back tiering promotes on read misses);
        # the read completes once the promotion write has landed on the SSDs.
        # Degenerate configurations (zero capacity, oversized object) miss
        # without actually promoting, and are not counted as promotions.
        if outcome.promoted:
            self.stats.promotions += 1
        storage_completion, _ = self._pool.read_object(object_name, arrival_time)
        completion = self._ssd_enqueue(
            storage_completion, self._ssd_read_latency(size_mb)
        )
        return completion, False

    def _ssd_read_latency(self, object_size_mb: int) -> float:
        """Latency of reading a whole object from the SSD cache tier."""
        return whole_object_ssd_latency(object_size_mb, self._pool.config.k)
