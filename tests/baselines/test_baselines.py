"""Tests for the baselines: Ceph's LRU container, exact caching and static placements."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_oracle import per_file_bounds, system_objective

from repro.baselines.exact import (
    ExactCachingPolicy,
    exact_caching_placement,
    popularity_allocation,
)
from repro.baselines.static import (
    exact_vs_functional_bounds,
    functional_placement_from_allocation,
    no_cache_placement,
    popularity_whole_file_placement,
    proportional_placement,
)
from repro.core.model import FileSpec, StorageSystemModel
from repro.core.vectorized import SolutionState
from repro.exceptions import CacheError, ModelError
from repro.policies.lru import LRUCache
from repro.queueing.distributions import (
    ExponentialService,
    ShiftedExponentialService,
)


class TestLRUCache:
    def test_hit_miss_and_eviction_order(self):
        cache = LRUCache(capacity=3)
        for key in "abc":
            assert not cache.touch(key)
            assert cache.insert(key) == []
        assert cache.touch("a")              # a becomes most recently used
        assert cache.insert("d") == [("b", 1)]  # evicts b (the LRU entry)
        assert not cache.peek("b")
        assert cache.keys() == ["c", "a", "d"]

    def test_sized_entries(self):
        cache = LRUCache(capacity=10)
        cache.insert("big", size=6)
        cache.insert("medium", size=4)
        assert cache.insert("small", size=2) == [("big", 6)]
        assert not cache.peek("big")
        assert cache.used == 6

    def test_oversized_entry_not_cached(self):
        cache = LRUCache(capacity=4)
        assert cache.insert("huge", size=10) == []
        assert not cache.peek("huge")
        assert cache.used == 0

    def test_peek_does_not_touch_recency(self):
        cache = LRUCache(capacity=2)
        cache.insert("a")
        cache.insert("b")
        cache.peek("a")
        cache.insert("c")  # evicts "a" because peek did not refresh it
        assert not cache.peek("a")

    def test_explicit_evict(self):
        cache = LRUCache(capacity=2)
        cache.insert("a")
        cache.insert("b")
        assert cache.evict("a")
        assert not cache.evict("a")
        assert cache.keys() == ["b"] and cache.used == 1

    def test_validation(self):
        with pytest.raises(CacheError):
            LRUCache(capacity=-1)
        with pytest.raises(CacheError):
            LRUCache(capacity=2).insert("a", size=0)

    @given(
        operations=st.lists(
            st.tuples(st.integers(min_value=0, max_value=9), st.integers(1, 3)),
            min_size=1,
            max_size=200,
        ),
        capacity=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_capacity_never_exceeded(self, operations, capacity):
        cache = LRUCache(capacity=capacity)
        for key, size in operations:
            if not cache.touch(key):
                cache.insert(key, size=size)
            assert cache.used <= capacity
            assert cache.used == sum(
                size_ for size_ in cache._entries.values()  # noqa: SLF001
            )


class TestExactCaching:
    def test_popularity_allocation_fills_cache(self, small_model):
        allocation = popularity_allocation(small_model)
        assert sum(allocation.values()) == small_model.cache_capacity
        # The hottest file gets at least as much as the coldest.
        assert allocation["file-0"] >= allocation["file-5"]

    def test_exact_policy_excludes_cached_nodes(self, small_model):
        policy = ExactCachingPolicy(small_model, {"file-0": 2})
        usable = policy.usable_nodes("file-0")
        spec = small_model.file("file-0")
        assert len(usable) == spec.n - 2
        assert set(usable) <= set(spec.placement)

    def test_exact_policy_validation(self, small_model):
        with pytest.raises(ModelError):
            ExactCachingPolicy(small_model, {"file-0": 9})
        with pytest.raises(ModelError):
            ExactCachingPolicy(
                small_model, {spec.file_id: spec.k for spec in small_model.files}
            )

    def test_exact_placement_structure(self, small_model):
        placement = exact_caching_placement(small_model)
        placement.validate_against(small_model)
        assert placement.total_cached_chunks == small_model.cache_capacity

    def test_functional_never_worse_than_exact(self, small_model):
        # Same per-file allocation; functional caching keeps every node
        # usable, so its per-file bound can never exceed exact caching's.
        allocation = popularity_allocation(small_model)
        comparison = exact_vs_functional_bounds(small_model, allocation)
        for file_id, bounds in comparison.items():
            assert bounds["functional"] <= bounds["exact"] + 1e-9, file_id


class TestStaticPlacements:
    def test_no_cache_placement(self, small_model):
        placement = no_cache_placement(small_model)
        assert placement.total_cached_chunks == 0
        placement.validate_against(small_model)

    def test_whole_file_placement_caches_hottest(self, small_model):
        placement = popularity_whole_file_placement(small_model)
        cached = placement.cached_chunks()
        # file-0 is the hottest and k = 3 <= capacity 5, so it is fully cached.
        assert cached["file-0"] == 3
        assert placement.total_cached_chunks <= small_model.cache_capacity

    def test_proportional_placement_uses_full_cache(self, small_model):
        placement = proportional_placement(small_model)
        assert placement.total_cached_chunks == small_model.cache_capacity
        placement.validate_against(small_model)

    def test_optimized_beats_all_baselines(self, small_model):
        from repro.core.algorithm import CacheOptimizer

        optimized = CacheOptimizer(small_model, tolerance=0.001).optimize().placement
        for baseline in (
            no_cache_placement(small_model),
            popularity_whole_file_placement(small_model),
            proportional_placement(small_model),
            exact_caching_placement(small_model),
        ):
            assert optimized.objective <= baseline.objective + 1e-6


def _random_stable_case(seed: int, zero_capacity: bool):
    """A random model, allocation and exact-cache node choice.

    The total arrival rate stays below half the slowest node's service
    rate, so every schedule (each ``pi_{i,j} <= 1``) keeps every node
    stable and the scalar and vectorised moment formulas coincide.  Some
    files cache all ``k_i`` chunks (an all-zero ``pi`` row); with
    ``zero_capacity`` nothing is cached and ``C = 0``.
    """
    rng = np.random.default_rng(seed)
    num_nodes = int(rng.integers(4, 9))
    services = [
        ExponentialService(float(rng.uniform(0.3, 1.0)))
        if node % 2
        else ShiftedExponentialService(
            float(rng.uniform(0.1, 0.5)), float(rng.uniform(0.8, 2.0))
        )
        for node in range(num_nodes)
    ]
    slowest = min(service.rate for service in services)
    num_files = int(rng.integers(1, 9))
    shares = rng.dirichlet(np.ones(num_files))
    files = []
    allocation = {}
    cached_nodes = {}
    for index in range(num_files):
        n = int(rng.integers(1, num_nodes + 1))
        k = int(rng.integers(1, n + 1))
        placement = [int(node) for node in rng.choice(num_nodes, size=n, replace=False)]
        file_id = f"f{index}"
        files.append(
            FileSpec(
                file_id=file_id,
                n=n,
                k=k,
                placement=placement,
                arrival_rate=float(0.5 * slowest * shares[index]),
            )
        )
        if zero_capacity:
            d = 0
        elif rng.random() < 0.25:
            d = k
        else:
            d = int(rng.integers(0, k + 1))
        allocation[file_id] = d
        cached_nodes[file_id] = [
            int(node) for node in rng.choice(placement, size=d, replace=False)
        ]
    model = StorageSystemModel(
        services=services, files=files, cache_capacity=sum(allocation.values())
    )
    return model, allocation, cached_nodes


def _assert_matches_scalar_oracle(model, placement):
    state = SolutionState(
        probabilities=[dict(entry.scheduling_probabilities) for entry in placement.files]
    )
    reference = per_file_bounds(model, state)
    for entry, expected in zip(placement.files, reference):
        assert entry.latency_bound == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert placement.objective == pytest.approx(
        system_objective(model, state), rel=1e-12, abs=0.0
    )


class TestBoundsMatchScalarOracle:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        zero_capacity=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_baseline_bounds_match_scalar_oracle(self, seed, zero_capacity):
        model, allocation, cached_nodes = _random_stable_case(seed, zero_capacity)
        exact = ExactCachingPolicy(model, allocation, cached_nodes=cached_nodes)
        placements = [
            functional_placement_from_allocation(model, allocation),
            exact.to_placement(),
            no_cache_placement(model),
            proportional_placement(model),
            popularity_whole_file_placement(model),
            exact_caching_placement(model),
        ]
        for placement in placements:
            _assert_matches_scalar_oracle(model, placement)
        exact_placement = placements[1]
        assert exact.latency_bounds() == {
            entry.file_id: entry.latency_bound for entry in exact_placement.files
        }
        # Excluded nodes carry no schedule under exact caching.
        for entry in exact_placement.files:
            assert not set(entry.scheduling_probabilities) & set(
                cached_nodes[entry.file_id]
            )
