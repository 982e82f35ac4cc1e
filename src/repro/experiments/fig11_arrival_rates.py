"""Fig. 11: average access latency vs workload intensity, optimal vs LRU.

The object size is fixed at 64 MB (1000 objects, 10 GB cache) and the
aggregate read arrival rate is swept over 0.5, 1.0, 2.0, 4.0 and 8.0
requests per second.  The paper reports that the optimized functional
caching beats the LRU cache tier at every intensity, by roughly 24% on
average, with the absolute gap widening as the load grows.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.api.experiments import register_experiment
from repro.cluster.cluster import CephLikeCluster, ClusterConfig
from repro.core.algorithm import CacheOptimizer
from repro.exec import CacheLike, ProgressLike, sweep_map
from repro.experiments._sweep import dataclass_codec, experiment_cache_key
from repro.experiments.fig10_object_sizes import _analytical_model
from repro.simulation.simulator import SimulationConfig, StorageSimulator
from repro.workloads.catalog import aggregate_rate_to_per_object


@dataclass
class ArrivalRateComparison:
    """Latency comparison at one aggregate arrival rate."""

    aggregate_rate: float
    optimal_latency_ms: float
    baseline_latency_ms: float
    analytical_bound_ms: float
    chunks_cached: int
    simulated_latency_ms: Optional[float] = None

    @property
    def improvement(self) -> float:
        """Relative latency reduction of optimal caching vs the baseline."""
        if self.baseline_latency_ms <= 0:
            return 0.0
        return 1.0 - self.optimal_latency_ms / self.baseline_latency_ms


@dataclass
class Fig11Result:
    """Comparisons for every tested workload intensity."""

    comparisons: List[ArrivalRateComparison] = field(default_factory=list)
    object_size_mb: int = 64
    num_objects: int = 0
    cache_capacity_mb: int = 0

    def mean_improvement(self) -> float:
        """Average relative improvement across the intensities."""
        if not self.comparisons:
            return 0.0
        return float(np.mean([c.improvement for c in self.comparisons]))

    def latencies_increase_with_load(self) -> bool:
        """Whether both curves are non-decreasing in the arrival rate."""
        optimal = [c.optimal_latency_ms for c in self.comparisons]
        baseline = [c.baseline_latency_ms for c in self.comparisons]
        non_decreasing = lambda series: all(  # noqa: E731 - tiny local helper
            b >= a * 0.95 for a, b in zip(series, series[1:])
        )
        return non_decreasing(optimal) and non_decreasing(baseline)


def run_for_rate(
    aggregate_rate: float,
    object_size_mb: int = 64,
    num_objects: int = 1000,
    cache_capacity_mb: int = 10 * 1024,
    duration_s: float = 1800.0,
    seed: int = 2016,
    tolerance: float = 0.5,
    rate_divisor: float = 1.0,
    simulate: bool = False,
    engine: str = "batch",
    baseline_policy: str = "lru",
) -> ArrivalRateComparison:
    """Run the Fig. 11 comparison for one aggregate arrival rate.

    Parameters
    ----------
    rate_divisor:
        Optional scaling knob that divides every arrival rate, useful for
        quick runs on very small emulated clusters.  With the default of 1
        the paper's aggregate rates are used verbatim; 64 MB objects have
        16 MB chunks (about 148 ms per read, Table IV), so even the highest
        sweep point keeps the 12 single-queue OSDs inside their stability
        region while clearly showing queueing growth with load.
    simulate:
        Also replay the optimized placement through the fork-join storage
        simulator (``engine`` selects the event or batch engine) and record
        the simulated mean latency as a cross-check of the analytical bound.
    """
    arrival_rates = aggregate_rate_to_per_object(
        aggregate_rate / rate_divisor, num_objects
    )
    config = ClusterConfig(
        object_size_mb=object_size_mb,
        cache_capacity_mb=cache_capacity_mb,
        seed=seed,
    )

    cluster_optimal = CephLikeCluster(config)
    model = _analytical_model(cluster_optimal, arrival_rates, config)
    optimizer = CacheOptimizer(model, tolerance=tolerance)
    placement = optimizer.optimize().placement
    object_pool_map = placement.cached_chunks()

    cluster_optimal.setup_optimal_caching(object_pool_map)
    optimal_result = cluster_optimal.run_read_benchmark(
        arrival_rates, duration_s, mode="optimal", seed=seed
    )

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

    return ArrivalRateComparison(
        aggregate_rate=aggregate_rate,
        optimal_latency_ms=optimal_result.mean_latency_ms(),
        baseline_latency_ms=baseline_result.mean_latency_ms(),
        analytical_bound_ms=placement.objective,
        chunks_cached=placement.total_cached_chunks,
        simulated_latency_ms=simulated_latency,
    )


@register_experiment(
    "fig11",
    title="Latency vs workload intensity, optimal vs LRU (Fig. 11)",
    description="emulated-cluster latency across the aggregate rate sweep, both tiers",
    scales={
        "fast": {
            "aggregate_rates": (0.5, 1.0, 2.0),
            "num_objects": 200,
            "duration_s": 600.0,
        }
    },
)
def run(
    aggregate_rates: Sequence[float] = (0.5, 1.0, 2.0, 4.0, 8.0),
    object_size_mb: int = 64,
    num_objects: int = 1000,
    cache_capacity_mb: int = 10 * 1024,
    duration_s: float = 1800.0,
    seed: int = 2016,
    rate_divisor: float = 1.0,
    simulate: bool = False,
    engine: str = "batch",
    baseline_policy: str = "lru",
    jobs: Optional[int] = None,
    cache: CacheLike = None,
    progress: ProgressLike = None,
) -> Fig11Result:
    """Run the full Fig. 11 workload-intensity sweep.

    The rate points are independent, so the sweep fans out over
    ``sweep_map`` (``jobs`` workers, bit-equal to serial) and each
    point's comparison can be served from the result cache.
    """
    params = {
        "object_size_mb": object_size_mb,
        "num_objects": num_objects,
        "cache_capacity_mb": cache_capacity_mb,
        "duration_s": duration_s,
        "seed": seed,
        "rate_divisor": rate_divisor,
        "simulate": simulate,
        "engine": engine,
        "baseline_policy": baseline_policy,
    }
    encode, decode = dataclass_codec(ArrivalRateComparison)
    comparisons = sweep_map(
        functools.partial(run_for_rate, **params),
        list(aggregate_rates),
        jobs=jobs,
        label="fig11",
        progress=progress,
        cache=cache,
        cache_key=experiment_cache_key("fig11", params),
        encode=encode,
        decode=decode,
    )
    return Fig11Result(
        comparisons=comparisons,
        object_size_mb=object_size_mb,
        num_objects=num_objects,
        cache_capacity_mb=cache_capacity_mb,
    )


@dataclass
class EngineSpeedup:
    """Timing comparison of the two simulation engines on one workload."""

    aggregate_rate: float
    num_objects: int
    requests: int
    event_seconds: float
    batch_seconds: float
    event_mean_latency_ms: float
    batch_mean_latency_ms: float

    @property
    def speedup(self) -> float:
        """Wall-clock speedup of the batch engine over the event engine."""
        if self.batch_seconds <= 0:
            return float("inf")
        return self.event_seconds / self.batch_seconds

    @property
    def latency_relative_gap(self) -> float:
        """Relative difference of the two engines' mean latencies."""
        if self.event_mean_latency_ms <= 0:
            return 0.0
        return abs(
            self.batch_mean_latency_ms - self.event_mean_latency_ms
        ) / self.event_mean_latency_ms

    def requests_per_second(self, engine: str) -> float:
        """Simulated requests processed per wall-clock second."""
        seconds = self.event_seconds if engine == "event" else self.batch_seconds
        if seconds <= 0:
            return float("inf")
        return self.requests / seconds


def measure_engine_speedup(
    aggregate_rate: float = 8.0,
    object_size_mb: int = 64,
    num_objects: int = 400,
    cache_capacity_mb: int = 10 * 1024,
    duration_s: float = 1800.0,
    seed: int = 2016,
    tolerance: float = 0.5,
) -> EngineSpeedup:
    """Time the event vs batch engines on the Fig. 11 simulation workload.

    Builds the same analytical model Fig. 11 optimizes, then replays the
    optimized placement through both simulation engines under identical
    configurations and reports wall-clock times and mean latencies.  Used by
    the benchmark suite to track the batch-engine speedup across revisions.
    """
    arrival_rates = aggregate_rate_to_per_object(aggregate_rate, num_objects)
    config = ClusterConfig(
        object_size_mb=object_size_mb,
        cache_capacity_mb=cache_capacity_mb,
        seed=seed,
    )
    cluster = CephLikeCluster(config)
    model = _analytical_model(cluster, arrival_rates, config)
    placement = CacheOptimizer(model, tolerance=tolerance).optimize().placement
    sim_config = SimulationConfig(
        horizon=duration_s * 1000.0,
        seed=seed,
        warmup=duration_s * 100.0,
    )

    start = time.perf_counter()
    event_result = StorageSimulator(model, placement, engine="event").run(sim_config)
    event_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batch_result = StorageSimulator(model, placement, engine="batch").run(sim_config)
    batch_seconds = time.perf_counter() - start

    return EngineSpeedup(
        aggregate_rate=aggregate_rate,
        num_objects=num_objects,
        requests=event_result.requests_completed,
        event_seconds=event_seconds,
        batch_seconds=batch_seconds,
        event_mean_latency_ms=event_result.mean_latency(),
        batch_mean_latency_ms=batch_result.mean_latency(),
    )


def format_result(result: Fig11Result) -> str:
    """Render the latency-vs-intensity comparison of Fig. 11."""
    lines = [
        "Fig. 11 -- average access latency vs aggregate arrival rate "
        f"({result.num_objects} x {result.object_size_mb} MB objects, "
        f"cache = {result.cache_capacity_mb} MB)",
        f"{'rate (req/s)':>13} {'optimal (ms)':>13} {'baseline (ms)':>14} "
        f"{'bound (ms)':>11} {'improvement':>12}",
    ]
    for comparison in result.comparisons:
        lines.append(
            f"{comparison.aggregate_rate:>13.2f} "
            f"{comparison.optimal_latency_ms:>13.1f} "
            f"{comparison.baseline_latency_ms:>14.1f} "
            f"{comparison.analytical_bound_ms:>11.1f} "
            f"{comparison.improvement:>11.1%}"
        )
    lines.append(
        f"mean improvement of optimal caching over LRU: "
        f"{result.mean_improvement():.1%} (paper: ~23.86%)"
    )
    return "\n".join(lines)
