"""The end-to-end Ceph-like cluster used for the prototype experiments.

Two configurations mirror the paper's testbed (Section V-D):

* **Optimal (functional) caching** -- five erasure-coded pools with the
  equivalent codes (7,4), (7,3), (7,2), (7,1), (7,0) backed by the same 12
  OSDs; the optimization algorithm assigns every object to a pool according
  to its cache allocation ``d`` and a read of a ``(7, 4-d)`` object only
  touches the storage tier for ``4-d`` chunks (the ``d`` cached chunks are
  fetched from the local SSD at negligible cost).
* **Baseline (Ceph LRU cache tier)** -- a single (7,4) pool behind a
  replicated LRU cache tier of the same capacity.

:class:`CephLikeCluster` builds either configuration, runs a COSBench-style
read benchmark against it, and reports average access latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.cachetier import CacheTier
from repro.cluster.devices import (
    chunk_size_for_object,
    hdd_speed_multipliers,
    nearest_measured_chunk_size,
    ssd_service_for_chunk_size,
)
from repro.cluster.osd import OSD
from repro.cluster.pool import ErasureCodedPool, PoolConfig, equivalent_code_pools
from repro.exceptions import ClusterError
from repro.simulation.arrivals import generate_request_stream


@dataclass
class ClusterConfig:
    """Static configuration of the emulated cluster."""

    num_osds: int = 12
    n: int = 7
    k: int = 4
    object_size_mb: int = 64
    cache_capacity_mb: int = 10 * 1024
    osd_speed_spread: float = 0.2
    service_time_inflation: float = 3.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_osds < self.n:
            raise ClusterError(
                f"need at least n={self.n} OSDs, got {self.num_osds}"
            )
        if self.k <= 0 or self.n < self.k:
            raise ClusterError(f"invalid code ({self.n}, {self.k})")
        if self.object_size_mb <= 0:
            raise ClusterError("object size must be positive")
        if self.cache_capacity_mb < 0:
            # Zero is a valid degenerate configuration: an always-missing
            # cache tier (hit ratio 0.0), not an error mid-benchmark.
            raise ClusterError("cache capacity must be non-negative")

    @property
    def chunk_size_mb(self) -> int:
        """Chunk size of an object under the base code."""
        return chunk_size_for_object(self.object_size_mb, self.k)

    @property
    def cache_capacity_chunks(self) -> int:
        """Cache capacity expressed in chunks of the current chunk size."""
        return self.cache_capacity_mb // self.chunk_size_mb


@dataclass
class ReadResult:
    """Latency statistics of one benchmark run."""

    latencies_ms: List[float] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    chunks_from_cache: int = 0
    chunks_from_storage: int = 0

    @property
    def requests(self) -> int:
        """Number of completed object reads."""
        return len(self.latencies_ms)

    def mean_latency_ms(self) -> float:
        """Mean object access latency in milliseconds."""
        if not self.latencies_ms:
            raise ClusterError("no reads recorded")
        return float(np.mean(self.latencies_ms))

    def percentile_ms(self, q: float) -> float:
        """Latency percentile in milliseconds."""
        if not self.latencies_ms:
            raise ClusterError("no reads recorded")
        return float(np.percentile(self.latencies_ms, q))


class CephLikeCluster:
    """Emulated object-storage cluster with both caching configurations.

    Parameters
    ----------
    config:
        The cluster configuration.
    """

    def __init__(self, config: ClusterConfig):
        self._config = config
        rng = np.random.default_rng(config.seed)
        multipliers = hdd_speed_multipliers(
            config.num_osds, spread=config.osd_speed_spread, seed=config.seed + 13
        )
        # `service_time_inflation` calibrates the isolated Table-IV chunk
        # measurements to the effective per-chunk service time observed
        # under concurrent multi-client load on the paper's testbed (its
        # benchmark latencies are several times the isolated chunk times).
        self._osds: Dict[int, OSD] = {
            osd_id: OSD(
                osd_id,
                speed_multiplier=multipliers[osd_id] * config.service_time_inflation,
                rng=rng,
            )
            for osd_id in range(config.num_osds)
        }
        self._rng = rng
        self._pools_by_allocation: Optional[Dict[int, ErasureCodedPool]] = None
        self._cache_tier: Optional[CacheTier] = None
        self._object_pool_map: Dict[str, int] = {}

    @property
    def config(self) -> ClusterConfig:
        """The cluster configuration."""
        return self._config

    @property
    def osds(self) -> Dict[int, OSD]:
        """The cluster's OSDs."""
        return dict(self._osds)

    # ------------------------------------------------------------------
    # Optimal-caching configuration (equivalent-code pools)
    # ------------------------------------------------------------------

    def setup_optimal_caching(self, object_pool_map: Dict[str, int]) -> None:
        """Create the equivalent-code pools and write objects to them.

        Parameters
        ----------
        object_pool_map:
            Mapping from object name to its cache allocation ``d``
            (0..k), typically produced by the optimization algorithm.
        """
        config = self._config
        self._pools_by_allocation = equivalent_code_pools(
            config.n,
            config.k,
            config.chunk_size_mb,
            self._osds,
            crush_seed=config.seed,
        )
        self._object_pool_map = dict(object_pool_map)
        for object_name, allocation in self._object_pool_map.items():
            if not 0 <= allocation <= config.k:
                raise ClusterError(
                    f"object {object_name!r}: allocation {allocation} outside "
                    f"[0, {config.k}]"
                )
            pool = self._pools_by_allocation[allocation]
            pool.write_object(object_name, config.object_size_mb)

    def read_optimal(self, object_name: str, arrival_time: float) -> float:
        """Read an object in the optimal-caching configuration.

        The ``d`` cached chunks are read from the local SSD concurrently
        with the ``k - d`` storage chunks; because the SSD latency is one to
        two orders of magnitude below the HDD OSD latency (Tables IV vs V),
        the object latency is the storage-pool completion time, exactly the
        equivalent-code reduction used in the paper.
        """
        if self._pools_by_allocation is None:
            raise ClusterError("setup_optimal_caching() has not been called")
        allocation = self._object_pool_map.get(object_name)
        if allocation is None:
            raise ClusterError(f"object {object_name!r} was never written")
        pool = self._pools_by_allocation[allocation]
        storage_completion, _ = pool.read_object(object_name, arrival_time)
        cached_chunks = allocation
        if cached_chunks > 0:
            # The cached chunks stream from the local SSD, which is
            # bandwidth-bound: d chunks cost roughly d times the per-chunk
            # latency of Table V (still far below one HDD chunk read).
            chunk_size = nearest_measured_chunk_size(self._config.chunk_size_mb)
            ssd_latency = ssd_service_for_chunk_size(chunk_size).mean * cached_chunks
            cache_completion = arrival_time + ssd_latency
        else:
            cache_completion = arrival_time
        return max(storage_completion, cache_completion)

    # ------------------------------------------------------------------
    # Baseline configuration (LRU cache tier)
    # ------------------------------------------------------------------

    def setup_baseline(
        self,
        object_names: List[str],
        policy: str = "lru",
        policy_params: Optional[Dict[str, object]] = None,
    ) -> None:
        """Create the (7,4) pool behind a cache tier and write the objects.

        ``policy`` selects the tier's residency policy from the cache-policy
        registry (Ceph's tiering agent is ``"lru"``, the paper's baseline).
        """
        from repro.policies import create_policy

        config = self._config
        pool_config = PoolConfig(
            name="ec-base",
            n=config.n,
            k=config.k,
            chunk_size_mb=config.chunk_size_mb,
        )
        storage_pool = ErasureCodedPool(pool_config, self._osds, crush_seed=config.seed)
        self._cache_tier = CacheTier(
            storage_pool,
            capacity_mb=config.cache_capacity_mb,
            rng=self._rng,
            policy=create_policy(
                policy, config.cache_capacity_mb, **(dict(policy_params or {}))
            ),
        )
        for object_name in object_names:
            self._cache_tier.write_object(object_name, config.object_size_mb)

    def setup_lru_baseline(self, object_names: List[str]) -> None:
        """Create the (7,4) pool with an LRU cache tier and write the objects."""
        self.setup_baseline(object_names, policy="lru")

    @property
    def cache_tier(self) -> Optional[CacheTier]:
        """The baseline cache tier (``None`` before ``setup_baseline``)."""
        return self._cache_tier

    def read_baseline(self, object_name: str, arrival_time: float) -> tuple[float, bool]:
        """Read an object through the cache tier; returns (completion, hit)."""
        if self._cache_tier is None:
            raise ClusterError("setup_baseline() has not been called")
        return self._cache_tier.read_object(object_name, arrival_time)

    # ------------------------------------------------------------------
    # Benchmarks
    # ------------------------------------------------------------------

    def run_read_benchmark(
        self,
        arrival_rates: Dict[str, float],
        duration_s: float,
        mode: str,
        seed: Optional[int] = None,
    ) -> ReadResult:
        """Run a COSBench-style read benchmark.

        Parameters
        ----------
        arrival_rates:
            Per-object read arrival rates in requests per second.
        duration_s:
            Benchmark duration in seconds (the paper uses 1800 s runs).
        mode:
            ``"optimal"`` or ``"baseline"``.
        """
        if mode not in {"optimal", "baseline"}:
            raise ClusterError(f"unknown benchmark mode {mode!r}")
        rng = np.random.default_rng(seed if seed is not None else self._config.seed + 101)
        stream = generate_request_stream(arrival_rates, duration_s, rng)
        result = ReadResult()
        k = self._config.k
        for arrival_s, object_name in stream:
            arrival_ms = arrival_s * 1000.0
            if mode == "optimal":
                completion_ms = self.read_optimal(object_name, arrival_ms)
                allocation = self._object_pool_map.get(object_name, 0)
                result.chunks_from_cache += allocation
                result.chunks_from_storage += k - allocation
            else:
                completion_ms, hit = self.read_baseline(object_name, arrival_ms)
                if hit:
                    result.cache_hits += 1
                    result.chunks_from_cache += k
                else:
                    result.cache_misses += 1
                    result.chunks_from_storage += k
            result.latencies_ms.append(completion_ms - arrival_ms)
        return result

    def run_replay_benchmark(
        self,
        arrival_rates: Dict[str, float],
        duration_s: float,
        policy: str = "lru",
        engine: str = "epoch",
        seed: Optional[int] = None,
        policy_params: Optional[Dict[str, object]] = None,
        faults=None,
        fault_params: Optional[Dict[str, object]] = None,
    ):
        """Run the cache-tier read benchmark through the trace-replay engines.

        The trace-replay path (see :mod:`repro.cluster.replay`) draws the
        whole request stream at once and replays it against the emulated
        device model under any registered cache policy -- vectorised with
        ``engine="epoch"`` (orders of magnitude faster than the per-request
        :meth:`run_read_benchmark` loop) or with the per-request reference
        ``engine="request"``.  ``faults``/``fault_params`` inject an OSD
        fault schedule (registered generator name, schedule object or
        compiled timeline -- see :mod:`repro.faults`).  Returns a
        :class:`~repro.cluster.replay.ReplayResult`.
        """
        from repro.cluster.replay import ClusterReplay, ReplayTrace

        root = seed if seed is not None else self._config.seed + 101
        trace = ReplayTrace.from_rates(arrival_rates, duration_s, seed=root)
        replay = ClusterReplay(
            self._config,
            list(arrival_rates),
            policy=policy,
            policy_params=policy_params,
        )
        return replay.run(
            trace,
            engine=engine,
            seed=root + 1,
            faults=faults,
            fault_params=fault_params,
        )

    def reset_queues(self) -> None:
        """Reset OSD queue state between benchmark stages."""
        for osd in self._osds.values():
            osd.reset_queue()
