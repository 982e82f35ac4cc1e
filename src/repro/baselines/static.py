"""Static caching baselines: no cache, whole-file caching, proportional split.

These simple policies complete the comparison set used by the experiments:

* ``no_cache_placement`` -- everything is fetched from storage (the C = 0
  point of Fig. 4).
* ``popularity_whole_file_placement`` -- the most popular files are cached in
  their entirety until the capacity runs out (the complete-file caching the
  paper's introduction argues is wasteful in erasure-coded stores).
* ``proportional_placement`` -- cache space is spread across files in
  proportion to their arrival rates (a naive fractional heuristic rounded to
  integers).
"""

from __future__ import annotations

from typing import Dict, List

from repro.baselines.exact import ExactCachingPolicy, placement_with_bounds
from repro.core.model import StorageSystemModel
from repro.core.placement import CachePlacement


def functional_placement_from_allocation(
    model: StorageSystemModel, allocation: Dict[str, int]
) -> CachePlacement:
    """Build a functional-caching placement with uniform scheduling.

    The allocation decides ``d_i``; each file then spreads its ``k_i - d_i``
    storage fetches uniformly over all ``n_i`` hosting nodes (functional
    caching keeps every node usable).
    """
    probabilities: List[Dict[int, float]] = []
    for spec in model.files:
        d = allocation.get(spec.file_id, 0)
        pi = (spec.k - d) / spec.n
        probabilities.append({node_id: pi for node_id in spec.placement})
    cached = [allocation.get(spec.file_id, 0) for spec in model.files]
    return placement_with_bounds(model, probabilities, cached)


def no_cache_placement(model: StorageSystemModel) -> CachePlacement:
    """A placement that caches nothing (pure erasure-coded reads)."""
    allocation = {spec.file_id: 0 for spec in model.files}
    return functional_placement_from_allocation(model, allocation)


def popularity_whole_file_placement(model: StorageSystemModel) -> CachePlacement:
    """Cache the most popular files in their entirety until capacity runs out."""
    remaining = model.cache_capacity
    allocation = {spec.file_id: 0 for spec in model.files}
    for spec in sorted(model.files, key=lambda s: s.arrival_rate, reverse=True):
        if spec.k <= remaining:
            allocation[spec.file_id] = spec.k
            remaining -= spec.k
        if remaining == 0:
            break
    return functional_placement_from_allocation(model, allocation)


def proportional_placement(model: StorageSystemModel) -> CachePlacement:
    """Spread the cache over files proportionally to their arrival rates."""
    total_rate = model.total_arrival_rate
    allocation: Dict[str, int] = {}
    remaining = model.cache_capacity
    # First pass: floor of the proportional share, capped at k_i.
    shares = []
    for spec in model.files:
        share = model.cache_capacity * spec.arrival_rate / total_rate
        take = min(int(share), spec.k)
        allocation[spec.file_id] = take
        remaining -= take
        shares.append((share - int(share), spec))
    # Second pass: distribute the remainder by largest fractional share.
    for _, spec in sorted(shares, key=lambda item: item[0], reverse=True):
        if remaining <= 0:
            break
        if allocation[spec.file_id] < spec.k:
            allocation[spec.file_id] += 1
            remaining -= 1
    return functional_placement_from_allocation(model, allocation)


def exact_vs_functional_bounds(
    model: StorageSystemModel, allocation: Dict[str, int]
) -> Dict[str, Dict[str, float]]:
    """Per-file latency bounds under exact vs functional caching.

    Both policies cache the same number of chunks per file; the only
    difference is whether the cached chunks exclude their source nodes from
    serving reads (exact) or not (functional).  Used by tests and the
    ablation benchmark to verify that functional caching is never worse.
    """
    exact_policy = ExactCachingPolicy(model, allocation)
    exact_bounds = exact_policy.latency_bounds()
    functional = functional_placement_from_allocation(model, allocation)
    results: Dict[str, Dict[str, float]] = {}
    for entry in functional.files:
        results[entry.file_id] = {
            "functional": entry.latency_bound,
            "exact": exact_bounds[entry.file_id],
        }
    return results
