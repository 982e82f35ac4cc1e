"""Fig. 10: average access latency per object size, optimal vs LRU caching.

For every object size of Table III (4 MB to 1 GB, 1000 active objects, 10 GB
cache) the paper compares three quantities:

* the measured latency of the optimized functional-caching configuration
  (equivalent-code pools),
* the measured latency of Ceph's LRU replicated cache tier (baseline),
* the analytical latency bound of the optimization ("numerical").

The optimal configuration wins for every size, by about 26% on average, and
the gap grows with object size (i.e. with load).  This experiment rebuilds
the three series on the emulated cluster.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.api.experiments import register_experiment
from repro.cluster.cluster import CephLikeCluster, ClusterConfig
from repro.cluster.devices import chunk_size_for_object, hdd_service_for_chunk_size
from repro.core.algorithm import CacheOptimizer
from repro.core.model import FileSpec, StorageSystemModel
from repro.exec import CacheLike, ProgressLike, sweep_map
from repro.experiments._sweep import dataclass_codec, experiment_cache_key
from repro.simulation.simulator import SimulationConfig, StorageSimulator
from repro.workloads.catalog import TABLE_III_WORKLOAD, table_iii_arrival_rates


@dataclass
class ObjectSizeComparison:
    """Latency comparison for one object size."""

    object_size_mb: int
    optimal_latency_ms: float
    baseline_latency_ms: float
    analytical_bound_ms: float
    cache_hit_ratio_baseline: float
    chunks_cached: int
    simulated_latency_ms: Optional[float] = None

    @property
    def improvement(self) -> float:
        """Relative latency reduction of optimal caching vs the baseline."""
        if self.baseline_latency_ms <= 0:
            return 0.0
        return 1.0 - self.optimal_latency_ms / self.baseline_latency_ms


@dataclass
class Fig10Result:
    """Comparisons for every object size."""

    comparisons: List[ObjectSizeComparison] = field(default_factory=list)
    num_objects: int = 0
    cache_capacity_mb: int = 0

    def mean_improvement(self) -> float:
        """Average relative improvement across the sizes."""
        if not self.comparisons:
            return 0.0
        return float(np.mean([c.improvement for c in self.comparisons]))


def _analytical_model(
    cluster: CephLikeCluster,
    arrival_rates: Dict[str, float],
    config: ClusterConfig,
) -> StorageSystemModel:
    """Build the analytical model matching the emulated cluster."""
    from repro.queueing.distributions import EmpiricalMomentsService

    chunk_size = chunk_size_for_object(config.object_size_mb, config.k)
    base_service = hdd_service_for_chunk_size(chunk_size)
    inflation = config.service_time_inflation
    effective_service = EmpiricalMomentsService(
        mean=base_service.mean * inflation,
        variance=base_service.variance * inflation**2,
    )
    services = []
    for osd_id in sorted(cluster.osds):
        # Per-OSD speed differences are small; the analytical model uses the
        # common measured distribution scaled by the same concurrency
        # inflation as the emulated OSDs (what the paper's algorithm also
        # does with its measured moments).
        services.append(effective_service)
    rng = np.random.default_rng(config.seed)
    files = []
    num_nodes = config.num_osds
    for object_name, rate in arrival_rates.items():
        placement = [int(x) for x in rng.choice(num_nodes, size=config.n, replace=False)]
        files.append(
            FileSpec(
                file_id=object_name,
                n=config.n,
                k=config.k,
                placement=placement,
                arrival_rate=rate / 1000.0,  # rates are per second; model in ms
                chunk_size=chunk_size,
            )
        )
    return StorageSystemModel(
        services=services,
        files=files,
        cache_capacity=config.cache_capacity_chunks,
    )


def run_for_object_size(
    object_size_mb: int,
    num_objects: int = 1000,
    cache_capacity_mb: int = 10 * 1024,
    duration_s: float = 1800.0,
    rate_scale: float = 1.0,
    seed: int = 2016,
    tolerance: float = 0.5,
    simulate: bool = False,
    engine: str = "batch",
    baseline_policy: str = "lru",
) -> ObjectSizeComparison:
    """Run the Fig. 10 comparison for a single object size.

    With ``simulate=True`` the optimized placement is additionally replayed
    through the fork-join storage simulator (``engine`` picks the event or
    batch engine) as a cross-check of the analytical bound.
    ``baseline_policy`` selects the cache-tier policy of the baseline
    configuration from the policy registry (Ceph's agent is LRU).
    """
    arrival_rates = table_iii_arrival_rates(
        object_size_mb, num_objects, rate_scale=rate_scale
    )
    config = ClusterConfig(
        object_size_mb=object_size_mb,
        cache_capacity_mb=cache_capacity_mb,
        seed=seed,
    )

    # --- Optimize the cache placement analytically.
    cluster_optimal = CephLikeCluster(config)
    model = _analytical_model(cluster_optimal, arrival_rates, config)
    optimizer = CacheOptimizer(model, tolerance=tolerance)
    placement = optimizer.optimize().placement
    object_pool_map = placement.cached_chunks()

    # --- Optimal-caching benchmark on the emulated cluster.
    cluster_optimal.setup_optimal_caching(object_pool_map)
    optimal_result = cluster_optimal.run_read_benchmark(
        arrival_rates, duration_s, mode="optimal", seed=seed
    )

    # --- Baseline (LRU cache tier) benchmark on a fresh cluster.
    cluster_baseline = CephLikeCluster(config)
    cluster_baseline.setup_baseline(sorted(arrival_rates), policy=baseline_policy)
    baseline_result = cluster_baseline.run_read_benchmark(
        arrival_rates, duration_s, mode="baseline", seed=seed
    )

    simulated_latency: Optional[float] = None
    if simulate:
        simulator = StorageSimulator(model, placement, engine=engine)
        sim_config = SimulationConfig(
            horizon=duration_s * 1000.0,
            seed=seed,
            warmup=duration_s * 100.0,
        )
        simulated_latency = simulator.run(sim_config).mean_latency()

    hits = baseline_result.cache_hits
    misses = baseline_result.cache_misses
    hit_ratio = hits / (hits + misses) if hits + misses else 0.0
    return ObjectSizeComparison(
        object_size_mb=object_size_mb,
        optimal_latency_ms=optimal_result.mean_latency_ms(),
        baseline_latency_ms=baseline_result.mean_latency_ms(),
        analytical_bound_ms=placement.objective,
        cache_hit_ratio_baseline=hit_ratio,
        chunks_cached=placement.total_cached_chunks,
        simulated_latency_ms=simulated_latency,
    )


@register_experiment(
    "fig10",
    title="Latency per object size, optimal vs LRU (Fig. 10)",
    description="emulated-cluster latency per Table-III object size, both tiers",
    scales={
        "fast": {
            "object_sizes_mb": (4, 16, 64),
            "num_objects": 200,
            "duration_s": 600.0,
            "rate_scale": 5.0,
        }
    },
)
def run(
    object_sizes_mb: Optional[Sequence[int]] = None,
    num_objects: int = 1000,
    cache_capacity_mb: int = 10 * 1024,
    duration_s: float = 1800.0,
    rate_scale: float = 1.0,
    seed: int = 2016,
    simulate: bool = False,
    engine: str = "batch",
    baseline_policy: str = "lru",
    jobs: Optional[int] = None,
    cache: CacheLike = None,
    progress: ProgressLike = None,
) -> Fig10Result:
    """Run the full Fig. 10 object-size sweep (parallel over sizes)."""
    if object_sizes_mb is None:
        object_sizes_mb = sorted(TABLE_III_WORKLOAD)
    params = {
        "num_objects": num_objects,
        "cache_capacity_mb": cache_capacity_mb,
        "duration_s": duration_s,
        "rate_scale": rate_scale,
        "seed": seed,
        "simulate": simulate,
        "engine": engine,
        "baseline_policy": baseline_policy,
    }
    encode, decode = dataclass_codec(ObjectSizeComparison)
    comparisons = sweep_map(
        functools.partial(run_for_object_size, **params),
        [int(size) for size in object_sizes_mb],
        jobs=jobs,
        label="fig10",
        progress=progress,
        cache=cache,
        cache_key=experiment_cache_key("fig10", params),
        encode=encode,
        decode=decode,
    )
    return Fig10Result(
        comparisons=comparisons,
        num_objects=num_objects,
        cache_capacity_mb=cache_capacity_mb,
    )


def format_result(result: Fig10Result) -> str:
    """Render the three latency series of Fig. 10."""
    lines = [
        "Fig. 10 -- average access latency per object size "
        f"({result.num_objects} objects, cache = {result.cache_capacity_mb} MB)",
        f"{'size (MB)':>10} {'optimal (ms)':>13} {'baseline (ms)':>14} "
        f"{'bound (ms)':>11} {'improvement':>12} {'LRU hit %':>10}",
    ]
    for comparison in result.comparisons:
        lines.append(
            f"{comparison.object_size_mb:>10} "
            f"{comparison.optimal_latency_ms:>13.1f} "
            f"{comparison.baseline_latency_ms:>14.1f} "
            f"{comparison.analytical_bound_ms:>11.1f} "
            f"{comparison.improvement:>11.1%} "
            f"{comparison.cache_hit_ratio_baseline:>9.1%}"
        )
    lines.append(
        f"mean improvement of optimal caching over LRU: "
        f"{result.mean_improvement():.1%} (paper: ~26%)"
    )
    return "\n".join(lines)
