#!/usr/bin/env python
"""Ceph-style prototype emulation: equivalent-code pools vs an LRU cache tier.

This example mirrors the paper's testbed evaluation (Section V) on the
emulated cluster:

1. 12 HDD-backed OSDs, (7,4) erasure coding, 10 GB cache, 64 MB objects,
2. the optimization assigns each object to an equivalent-code pool
   (7, 4-d) according to its cache allocation,
3. the same workload runs against Ceph's baseline configuration -- a single
   (7,4) pool behind a replicated LRU cache tier,
4. the COSBench-style report compares the two configurations.

Run with::

    python examples/ceph_emulation.py
"""

from __future__ import annotations

from repro.api import get_solver
from repro.cluster.cluster import CephLikeCluster, ClusterConfig
from repro.experiments.fig10_object_sizes import _analytical_model
from repro.workloads.generator import standard_read_workload
from repro.workloads.catalog import aggregate_rate_to_per_object


def main() -> None:
    num_objects = 400
    aggregate_rate = 2.0  # requests per second across all objects
    duration_s = 600.0
    config = ClusterConfig(object_size_mb=64, cache_capacity_mb=10 * 1024, seed=1)
    arrival_rates = aggregate_rate_to_per_object(aggregate_rate, num_objects)

    print(
        f"cluster: {config.num_osds} OSDs, ({config.n},{config.k}) code, "
        f"{config.object_size_mb} MB objects ({config.chunk_size_mb} MB chunks), "
        f"{config.cache_capacity_mb} MB cache"
    )
    print(f"workload: {num_objects} objects, {aggregate_rate} reads/s aggregate, "
          f"{duration_s:.0f}s run\n")

    # --- Optimal (functional) caching: optimize, then create equivalent pools.
    cluster_optimal = CephLikeCluster(config)
    model = _analytical_model(cluster_optimal, arrival_rates, config)
    # Solvers are resolved through the repro.api registry (any registered
    # solver works here; projected_gradient is the built-in one).
    solver = get_solver("projected_gradient")
    placement = solver.optimize(model, tolerance=0.5).placement
    object_pool_map = placement.cached_chunks()
    pools = {}
    for allocation in object_pool_map.values():
        pools[allocation] = pools.get(allocation, 0) + 1
    print("object-to-pool map (equivalent code -> objects):")
    for allocation in sorted(pools, reverse=True):
        print(f"  (7,{config.k - allocation}) pool: {pools[allocation]} objects "
              f"({allocation} chunks cached each)")

    workload_optimal = standard_read_workload(arrival_rates, duration_s, mode="optimal")
    stages_optimal = workload_optimal.run(
        cluster_optimal, object_pool_map=object_pool_map, seed=99
    )
    optimal_read = stages_optimal[-1].read_result

    # --- Baseline: (7,4) pool behind a replicated LRU cache tier.
    cluster_baseline = CephLikeCluster(config)
    workload_baseline = standard_read_workload(arrival_rates, duration_s, mode="baseline")
    stages_baseline = workload_baseline.run(cluster_baseline, seed=99)
    baseline_read = stages_baseline[-1].read_result

    print("\nCOSBench-style report (read stage):")
    print(f"{'configuration':>28} {'mean (ms)':>10} {'p95 (ms)':>10} {'p99 (ms)':>10}")
    print(
        f"{'optimal functional caching':>28} {optimal_read.mean_latency_ms():>10.1f} "
        f"{optimal_read.percentile_ms(95):>10.1f} {optimal_read.percentile_ms(99):>10.1f}"
    )
    print(
        f"{'Ceph LRU cache tier':>28} {baseline_read.mean_latency_ms():>10.1f} "
        f"{baseline_read.percentile_ms(95):>10.1f} {baseline_read.percentile_ms(99):>10.1f}"
    )
    improvement = 1.0 - optimal_read.mean_latency_ms() / baseline_read.mean_latency_ms()
    hit_ratio = baseline_read.cache_hits / max(
        baseline_read.cache_hits + baseline_read.cache_misses, 1
    )
    print(f"\nLRU cache-tier hit ratio: {hit_ratio:.1%}")
    print(f"latency reduction of optimal caching vs LRU tier: {improvement:.1%} "
          "(paper reports ~24-26% on its testbed)")


if __name__ == "__main__":
    main()
