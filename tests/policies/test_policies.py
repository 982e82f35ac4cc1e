"""Tests for the pluggable cache-policy layer (repro.policies)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import POLICIES, Scenario, get_policy, list_policies, run_scenario
from repro.api.registry import register_policy
from repro.exceptions import CacheError, RegistryError, ScenarioError
from repro.policies import (
    ChunkCachingPolicy,
    LRUPolicy,
    StaticFunctionalPolicy,
    create_policy,
    placement_from_trace_replay,
    round_robin_allocation,
)

FILES = {"a": 4, "b": 4, "c": 4, "d": 4}

# The ids are the positions these factories held when LFU, ARC and TTL sat
# between them, so each case keeps its test name.
ALL_POLICIES = [
    pytest.param(lambda capacity: LRUPolicy(capacity, FILES), id="<lambda>0"),
    pytest.param(
        lambda capacity: StaticFunctionalPolicy(capacity, FILES), id="<lambda>4"
    ),
]


class TestProtocol:
    @pytest.mark.parametrize("factory", ALL_POLICIES)
    def test_capacity_is_never_exceeded(self, factory):
        policy = factory(8)
        for file_id in "abcdabcdaabbccdd":
            policy.observe(file_id)
            assert policy.used_chunks <= 8
            assert sum(policy.occupancy().values()) == policy.used_chunks

    @pytest.mark.parametrize("factory", ALL_POLICIES)
    def test_zero_capacity_yields_clean_misses(self, factory):
        policy = factory(0)
        for file_id in "abcabc":
            outcome = policy.observe(file_id)
            assert not outcome.hit
            assert not outcome.promoted
        assert policy.stats.hit_ratio == 0.0
        assert policy.used_chunks == 0

    @pytest.mark.parametrize("factory", ALL_POLICIES)
    def test_oversized_file_takes_clean_miss_path(self, factory):
        policy = factory(8)
        policy.register_file("huge", 100)
        for _ in range(3):
            outcome = policy.observe("huge")
            assert not outcome.hit and not outcome.promoted
        assert policy.lookup("huge") == 0

    @pytest.mark.parametrize("factory", ALL_POLICIES)
    def test_eviction_reports_balance_occupancy(self, factory):
        policy = factory(8)
        inserted = policy.used_chunks  # static policies start pre-allocated
        evicted = 0
        for file_id in "abcdabcd":
            outcome = policy.observe(file_id)
            if outcome.promoted:
                inserted += policy.footprint(file_id)
            evicted += sum(chunks for _, chunks in outcome.evicted)
        assert inserted - evicted == policy.used_chunks

    def test_unknown_file_raises(self):
        policy = LRUPolicy(8, FILES)
        with pytest.raises(CacheError):
            policy.observe("ghost")

    def test_explicit_evict_and_snapshot(self):
        policy = LRUPolicy(8, FILES)
        policy.observe("a")
        policy.observe("b")
        assert policy.occupancy() == {"a": 4, "b": 4}
        assert policy.evict("a")
        assert not policy.evict("a")
        assert policy.occupancy() == {"b": 4}

    def test_admit_does_not_count_reads(self):
        policy = LRUPolicy(8, FILES)
        policy.admit("a")
        assert policy.stats.reads == 0
        assert policy.resident("a")
        outcome = policy.observe("a")
        assert outcome.hit and policy.stats.hits == 1


class TestLRU:
    def test_recency_order_drives_eviction(self):
        policy = LRUPolicy(12, FILES)
        policy.observe("a")
        policy.observe("b")
        policy.observe("c")
        policy.observe("a")          # refresh a
        outcome = policy.observe("d")  # evicts b, the LRU entry
        assert dict(outcome.evicted) == {"b": 4}
        assert set(policy.occupancy()) == {"a", "c", "d"}

    def test_classify_matches_per_request_folding(self):
        sequential = LRUPolicy(12, FILES)
        bulk = LRUPolicy(12, FILES)
        for policy in (sequential, bulk):
            for file_id in ("a", "b", "c"):
                policy.observe(file_id)
        run = ["a", "c", "a", "b", "a"]
        for file_id in run:
            sequential.observe(file_id)
        hit_mask, cached_chunks, promotions, evicted = bulk.classify(run)
        assert hit_mask.all() and cached_chunks.tolist() == [4] * 5
        assert promotions == 0 and evicted == 0
        # Final recency order: c (last access 1), b (3), a (4).
        assert sequential.occupancy() == bulk.occupancy()
        assert list(sequential._cache.keys()) == list(bulk._cache.keys()) == ["c", "b", "a"]
        assert sequential.stats.hits == bulk.stats.hits

    def test_replication_inflates_footprint(self):
        policy = LRUPolicy(8, {"a": 4, "b": 4}, replication=2)
        policy.observe("a")
        outcome = policy.observe("b")  # 8 chunks each replicated -> a evicted
        assert dict(outcome.evicted) == {"a": 4}


class TestStaticFunctional:
    def test_round_robin_allocation_spreads_chunks(self):
        allocation = round_robin_allocation({"a": 4, "b": 4, "c": 4}, 6)
        assert sum(allocation.values()) == 6
        assert max(allocation.values()) - min(allocation.values()) <= 1

    def test_partial_allocation_counts_cached_chunks_on_miss(self):
        policy = StaticFunctionalPolicy(6, {"a": 4, "b": 4, "c": 4})
        outcome = policy.observe("a")
        assert not outcome.hit
        assert outcome.cached_chunks == 2
        assert not outcome.promoted and not outcome.evicted

    def test_full_allocation_hits(self):
        policy = StaticFunctionalPolicy(8, {"a": 4, "b": 4}, allocation={"a": 4})
        assert policy.observe("a").hit
        assert not policy.observe("b").hit

    def test_allocation_validation(self):
        with pytest.raises(CacheError):
            StaticFunctionalPolicy(8, {"a": 4}, allocation={"a": 5})
        with pytest.raises(CacheError):
            StaticFunctionalPolicy(4, {"a": 4, "b": 4}, allocation={"a": 4, "b": 4})


class TestPropertyInvariants:
    @given(
        accesses=st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=150),
        capacity=st.integers(min_value=0, max_value=24),
        which=st.sampled_from(["lru", "functional_static"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_capacity_and_accounting_invariants(self, accesses, capacity, which):
        files = {f"f{index}": 3 for index in range(8)}
        policy = create_policy(which, capacity, files)
        inserted = policy.used_chunks  # the static policy starts pre-allocated
        evicted = 0
        for index in accesses:
            outcome = policy.observe(f"f{index}")
            if outcome.promoted:
                inserted += 3
            evicted += sum(chunks for _, chunks in outcome.evicted)
            assert policy.used_chunks <= max(capacity, 0)
        assert inserted - evicted == policy.used_chunks
        assert policy.stats.reads == len(accesses)
        assert 0.0 <= policy.stats.hit_ratio <= 1.0


class TestRegistryIntegration:
    def test_builtin_policies_registered(self):
        assert set(list_policies()) == {"lru", "functional_static"}

    def test_get_policy_spec(self):
        spec = get_policy("lru")
        assert spec.name == "lru"
        assert spec.description
        assert isinstance(spec.factory(8, FILES), ChunkCachingPolicy)

    def test_create_policy_forwards_params(self):
        policy = create_policy("lru", 8, FILES, replication=2)
        policy.observe("a")
        assert policy.used_chunks == 8

    def test_register_policy_plugin_round_trip(self):
        @register_policy("test_only_policy", description="plugin stub")
        class Plugin(LRUPolicy):
            pass

        try:
            assert "test_only_policy" in POLICIES
            scenario = Scenario(policy="test_only_policy")
            assert scenario.uses_cache_policy
        finally:
            POLICIES.unregister("test_only_policy")
        with pytest.raises(RegistryError):
            Scenario(policy="test_only_policy")


class TestScenarioIntegration:
    @pytest.mark.parametrize("name", ["lru", "functional_static"])
    def test_policy_scenarios_run_end_to_end(self, name):
        result = run_scenario(
            Scenario(
                num_files=12,
                cache_capacity=8,
                policy=name,
                simulate=True,
                horizon=2000.0,
            )
        )
        assert result.optimization is None
        assert 0 < result.placement.total_cached_chunks <= 8
        assert result.simulated_mean_latency is not None
        assert "policy" in result.timings

    def test_policy_scenarios_are_seed_deterministic(self):
        first = run_scenario(Scenario(num_files=15, cache_capacity=10, policy="lru", simulate=False))
        second = run_scenario(Scenario(num_files=15, cache_capacity=10, policy="lru", simulate=False))
        assert first.placement.cached_chunks() == second.placement.cached_chunks()

    def test_policy_params_reach_the_policy(self):
        result = run_scenario(
            Scenario(
                num_files=12,
                cache_capacity=8,
                policy="lru",
                policy_params={"replication": 2},
                simulate=False,
            )
        )
        assert result.placement.total_cached_chunks > 0

    def test_policy_params_rejected_for_non_policies(self):
        with pytest.raises(ScenarioError, match="policy_params"):
            Scenario(policy="optimal", policy_params={"replication": 2})
        with pytest.raises(ScenarioError, match="policy_params"):
            Scenario(policy="no_cache", policy_params={"replication": 2})

    def test_unknown_policy_error_lists_both_registries(self):
        with pytest.raises(RegistryError, match="unknown baseline or cache policy") as excinfo:
            Scenario(policy="belady")
        message = str(excinfo.value)
        assert "no_cache" in message and "lru" in message

    def test_scenario_dict_round_trip_with_policy(self):
        scenario = Scenario(policy="lru", policy_params={"replication": 3})
        rebuilt = Scenario.from_dict(scenario.to_dict())
        assert rebuilt == scenario


class TestPlacementBridge:
    def test_snapshot_respects_capacity(self, small_model):
        policy = LRUPolicy(
            small_model.cache_capacity,
            {spec.file_id: spec.k for spec in small_model.files},
        )
        placement = placement_from_trace_replay(small_model, policy, seed=3)
        placement.validate_against(small_model)
        assert placement.total_cached_chunks <= small_model.cache_capacity
