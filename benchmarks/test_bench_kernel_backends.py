"""Benchmark: shared queueing kernels vs the pre-refactor inline code.

The kernel extraction (``repro/kernels/``) moved the Lindley scans, the
segmented fork-join reductions, the SSD-lane multi-server queue and the
batched systematic-sampling core out of the engines and into one shared
NumPy module.  The refactor's performance contract is that a kernel call
costs (at most) call and argument-validation overhead: this benchmark
re-states the pre-refactor inline implementations verbatim and times both
against the kernels on the two workloads the engines actually run --

* the **fig11 batch workload**: per-node Lindley departure scans over the
  chunk-arrival layout of the batch simulation engine, equal-width
  fork-join maxima, and one batched systematic-sampling pass (the three
  hot kernels of ``repro/simulation/batch.py``), and
* the **cluster-replay workload**: grouped per-OSD FIFO departures,
  ragged fork-join ``segment_max`` over per-miss chunk reads, and the
  two-device constant-service SSD bank (the hot kernels of
  ``repro/cluster/replay.py``).

Kernel throughput must stay >= 0.9x the inline code on both workloads (CI
gate), and every kernel output must be bit-equal to its inline
counterpart.  Results land in ``BENCH_kernel_backends.json``.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Tuple

import numpy as np
from conftest import print_report, write_bench_json

from repro.kernels import (
    fifo_departures_grouped,
    fork_join_max,
    lindley_departures,
    multi_server_departures,
    segment_max,
    systematic_sample_positions,
)

#: Minimum kernel throughput relative to the inline code.  The kernels add
#: only argument validation per call, so parity is ~1.0x on these array
#: sizes; 0.9x leaves noise headroom while still catching an accidental
#: slow path (e.g. a Python-level loop where the ufunc scan should run).
REQUIRED_RELATIVE_THROUGHPUT = 0.9

#: Timing rounds per implementation (best-of, to shed scheduler noise).
ROUNDS = 5

SCALES = {
    "fast": {"num_requests": 150_000},
    "paper": {"num_requests": 600_000},
}


# ----------------------------------------------------------------------
# Pre-refactor inline implementations (verbatim, the timing baseline)
# ----------------------------------------------------------------------


def _inline_lindley(arrivals: np.ndarray, services: np.ndarray) -> np.ndarray:
    cumulative = np.cumsum(services)
    idle_offsets = np.maximum.accumulate(arrivals - (cumulative - services))
    return cumulative + idle_offsets


def _inline_fifo_grouped(groups, times, services, num_groups):
    order = np.lexsort((np.arange(times.size), times, groups))
    sorted_groups = groups[order]
    sorted_times = times[order]
    sorted_services = services[order]
    boundaries = np.searchsorted(sorted_groups, np.arange(num_groups + 1))
    departures_sorted = np.empty_like(sorted_times)
    for group in range(num_groups):
        low, high = int(boundaries[group]), int(boundaries[group + 1])
        if low == high:
            continue
        departures_sorted[low:high] = _inline_lindley(
            sorted_times[low:high], sorted_services[low:high]
        )
    departures = np.empty_like(departures_sorted)
    departures[order] = departures_sorted
    return departures


def _inline_multi_server(times, service, num_servers):
    departures = np.empty_like(times)
    for lane in range(num_servers):
        lane_times = times[lane::num_servers]
        lane_services = np.full(lane_times.size, float(service))
        departures[lane::num_servers] = _inline_lindley(lane_times, lane_services)
    return departures


def _inline_sample_positions(probs, order_uniforms, grid_uniforms, size):
    num_draws, num_keys = probs.shape
    order = np.argsort(order_uniforms, axis=1)
    shuffled = np.take_along_axis(probs, order, axis=1)
    cumulative = np.cumsum(shuffled, axis=1)
    cumulative *= size / cumulative[:, -1:]
    grid = grid_uniforms + np.arange(size, dtype=float)
    row_base = (np.arange(num_draws, dtype=float) * (size + 1))[:, None]
    flat_cumulative = (cumulative + row_base).ravel()
    flat_grid = (grid + row_base).ravel()
    flat_positions = np.searchsorted(flat_cumulative, flat_grid, side="right")
    positions = flat_positions.reshape(num_draws, size) - (
        np.arange(num_draws)[:, None] * num_keys
    )
    np.clip(positions, 0, num_keys - 1, out=positions)
    return np.take_along_axis(order, positions, axis=1)


# ----------------------------------------------------------------------
# Workload construction (seeded; shapes mirror the real engines)
# ----------------------------------------------------------------------


def _fig11_batch_workload(num_requests: int, seed: int = 2016) -> Dict[str, Any]:
    """Chunk-level arrays shaped like the fig11 batch-engine hot path.

    Fig. 11's fast scale runs (7,4)-coded reads over 12 storage nodes: each
    request fans out to ``k=4`` chunk reads on distinct nodes, every node
    is one FIFO Lindley queue over its time-sorted chunk arrivals, and the
    request completes at the fork-join maximum of its chunk departures.
    """
    rng = np.random.default_rng(seed)
    num_nodes, n_code, k_code = 12, 7, 4
    request_times = np.sort(rng.uniform(0.0, num_requests / 8.0, num_requests))
    # Each request's k chunks land on k distinct nodes (argsort trick).
    chunk_node = np.argsort(
        rng.random((num_requests, num_nodes)), axis=1
    )[:, :k_code].ravel()
    chunk_time = np.repeat(request_times, k_code)
    order = np.lexsort((chunk_time, chunk_node))
    sorted_time = chunk_time[order]
    sorted_node = chunk_node[order]
    boundaries = np.searchsorted(sorted_node, np.arange(num_nodes + 1))
    services = rng.exponential(0.35, num_requests * k_code)
    # Batched systematic sampling: one (requests, n) inclusion-probability
    # block, row totals == k, as the scheduler produces per file group.
    probabilities = rng.random((num_requests // 10, n_code)) + 0.25
    probabilities *= k_code / probabilities.sum(axis=1, keepdims=True)
    return {
        "k": k_code,
        "num_requests": num_requests,
        "num_nodes": num_nodes,
        "boundaries": boundaries,
        "sorted_time": sorted_time,
        "services": services,
        "probabilities": probabilities,
        "order_uniforms": rng.random(probabilities.shape),
        "grid_uniforms": rng.random((probabilities.shape[0], 1)),
    }


def _cluster_replay_workload(num_requests: int, seed: int = 7) -> Dict[str, Any]:
    """Arrays shaped like the epoch-replay latency assembly.

    The cluster-replay benchmark runs ~150 k requests at ~99 % hit ratio:
    hits go to the two-device SSD bank (constant service), misses fan out
    to ``k=4`` chunk reads on the HDD OSDs and fork-join at the slowest
    chunk before entering the SSD bank.
    """
    rng = np.random.default_rng(seed)
    num_osds, k_code, ssd_devices = 12, 4, 2
    num_misses = max(num_requests // 100, 1)  # ~99% hit ratio
    miss_chunks = num_misses * k_code
    osds = rng.integers(0, num_osds, miss_chunks)
    miss_times = np.repeat(np.sort(rng.uniform(0.0, num_requests / 4.0, num_misses)), k_code)
    services = rng.exponential(140.0, miss_chunks)  # ~HDD chunk ms
    starts = np.arange(num_misses, dtype=np.int64) * k_code
    ssd_entry = np.sort(rng.uniform(0.0, num_requests / 4.0, num_requests))
    return {
        "num_osds": num_osds,
        "osds": osds,
        "miss_times": miss_times,
        "services": services,
        "starts": starts,
        "ssd_entry": ssd_entry,
        "ssd_service_ms": 388.0,
        "ssd_devices": ssd_devices,
    }


# ----------------------------------------------------------------------
# Timing harness
# ----------------------------------------------------------------------


def _best_of(fn: Callable[[], Any]) -> Tuple[Any, float]:
    """Run ``fn`` ``ROUNDS`` times; return (last result, best wall time)."""
    best = np.inf
    result = None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _run_fig11_inline(w: Dict[str, Any]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    departures = np.empty_like(w["sorted_time"])
    boundaries = w["boundaries"]
    for node in range(w["num_nodes"]):
        low, high = int(boundaries[node]), int(boundaries[node + 1])
        departures[low:high] = _inline_lindley(
            w["sorted_time"][low:high], w["services"][low:high]
        )
    completion = departures[: w["num_requests"] * w["k"]].reshape(
        w["num_requests"], w["k"]
    ).max(axis=1)
    selected = _inline_sample_positions(
        w["probabilities"], w["order_uniforms"], w["grid_uniforms"], w["k"]
    )
    return departures, completion, selected


def _run_fig11_kernel(w: Dict[str, Any]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    departures = np.empty_like(w["sorted_time"])
    boundaries = w["boundaries"]
    for node in range(w["num_nodes"]):
        low, high = int(boundaries[node]), int(boundaries[node + 1])
        departures[low:high] = lindley_departures(
            w["sorted_time"][low:high], w["services"][low:high]
        )
    completion = fork_join_max(
        departures[: w["num_requests"] * w["k"]], w["num_requests"], w["k"]
    )
    selected = systematic_sample_positions(
        w["probabilities"], w["order_uniforms"], w["grid_uniforms"], w["k"]
    )
    return departures, completion, selected


def _run_replay_inline(w: Dict[str, Any]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    departures = _inline_fifo_grouped(
        w["osds"], w["miss_times"], w["services"], w["num_osds"]
    )
    fork_join = np.maximum.reduceat(departures, w["starts"])
    ssd = _inline_multi_server(w["ssd_entry"], w["ssd_service_ms"], w["ssd_devices"])
    return departures, fork_join, ssd


def _run_replay_kernel(w: Dict[str, Any]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    departures = fifo_departures_grouped(
        w["osds"], w["miss_times"], w["services"], w["num_osds"]
    )
    fork_join = segment_max(departures, w["starts"])
    ssd = multi_server_departures(w["ssd_entry"], w["ssd_service_ms"], w["ssd_devices"])
    return departures, fork_join, ssd


def test_kernel_backend_parity(benchmark, scale):
    params = SCALES["paper" if scale == "paper" else "fast"]
    fig11 = _fig11_batch_workload(params["num_requests"])
    replay = _cluster_replay_workload(params["num_requests"])

    # Warm both paths once (allocator), then time.
    _run_fig11_inline(fig11), _run_fig11_kernel(fig11)
    _run_replay_inline(replay), _run_replay_kernel(replay)

    fig11_inline, fig11_inline_s = _best_of(lambda: _run_fig11_inline(fig11))
    fig11_kernel, fig11_kernel_s = _best_of(lambda: _run_fig11_kernel(fig11))
    replay_inline, replay_inline_s = _best_of(lambda: _run_replay_inline(replay))
    replay_kernel, replay_kernel_s = _best_of(lambda: _run_replay_kernel(replay))
    benchmark.pedantic(
        lambda: (_run_fig11_kernel(fig11), _run_replay_kernel(replay)),
        iterations=1, rounds=1,
    )

    # Bit-equality: the kernels ARE the inline implementation.
    for inline_out, kernel_out in zip(fig11_inline, fig11_kernel):
        np.testing.assert_array_equal(inline_out, kernel_out)
    for inline_out, kernel_out in zip(replay_inline, replay_kernel):
        np.testing.assert_array_equal(inline_out, kernel_out)

    fig11_ratio = fig11_inline_s / fig11_kernel_s
    replay_ratio = replay_inline_s / replay_kernel_s

    payload = {
        "name": "kernel_backends",
        "scale": scale,
        "num_requests": params["num_requests"],
        "fig11_inline_seconds": fig11_inline_s,
        "fig11_kernel_seconds": fig11_kernel_s,
        "fig11_relative_throughput": fig11_ratio,
        "cluster_replay_inline_seconds": replay_inline_s,
        "cluster_replay_kernel_seconds": replay_kernel_s,
        "cluster_replay_relative_throughput": replay_ratio,
        "required_relative_throughput": REQUIRED_RELATIVE_THROUGHPUT,
        "rounds": ROUNDS,
    }
    write_bench_json("kernel_backends", payload)
    print_report(
        "Shared queueing kernels vs pre-refactor inline code",
        f"{params['num_requests']:,} requests per workload, best of {ROUNDS}:\n"
        f"  fig11 batch workload   inline {fig11_inline_s:8.4f} s   "
        f"kernel {fig11_kernel_s:8.4f} s   -> {fig11_ratio:.2f}x\n"
        f"  cluster-replay workload inline {replay_inline_s:8.4f} s   "
        f"kernel {replay_kernel_s:8.4f} s   -> {replay_ratio:.2f}x\n"
        f"  gate: kernel throughput >= {REQUIRED_RELATIVE_THROUGHPUT}x inline "
        "on both workloads, outputs bit-equal",
    )
    assert fig11_ratio >= REQUIRED_RELATIVE_THROUGHPUT
    assert replay_ratio >= REQUIRED_RELATIVE_THROUGHPUT
