"""Tests for the epoch-batched trace replay (repro.cluster.replay).

The core contract: on a seeded trace, the epoch engine (the policy's own
bulk ``classify`` pass plus vectorised latency assembly) reproduces the
per-request reference engine's counters *exactly* and its per-request
latencies to within floating-point reassociation, for every registered
policy and for a custom policy that keeps the base per-request
classifier.  The legacy ``CacheTier`` read path, now backed by the same
LRU policy, classifies the same trace identically -- a cross-check that
the refactor preserved the emulation.
"""

from __future__ import annotations

import math
from collections import OrderedDict

import numpy as np
import pytest

from repro.cluster.cluster import CephLikeCluster, ClusterConfig
from repro.cluster.crush import CrushMap, placement_group_count
from repro.cluster.replay import ClusterReplay, ReplayTrace
from repro.exceptions import ClusterError
from repro.policies import ChunkCachingPolicy


def zipf_rates(num_objects: int, alpha: float, total_rate: float):
    weights = 1.0 / np.arange(1, num_objects + 1) ** alpha
    weights /= weights.sum()
    return {f"obj-{index}": total_rate * float(w) for index, w in enumerate(weights)}


def make_trace(rates, duration_s=400.0, seed=11):
    return ReplayTrace.from_rates(rates, duration_s, seed=seed)


def assert_exact_match(reference, candidate):
    assert candidate.reads == reference.reads
    assert candidate.hits == reference.hits
    assert candidate.promotions == reference.promotions
    assert candidate.evictions_mb == reference.evictions_mb
    assert candidate.chunks_from_cache == reference.chunks_from_cache
    assert candidate.chunks_from_storage == reference.chunks_from_storage
    assert np.array_equal(candidate.hit_mask, reference.hit_mask)
    np.testing.assert_allclose(
        candidate.latencies_ms, reference.latencies_ms, rtol=1e-9, atol=1e-9
    )
    if reference.reads:
        assert candidate.mean_latency_ms() == pytest.approx(
            reference.mean_latency_ms(), rel=1e-9
        )
        assert candidate.hit_ratio == reference.hit_ratio


class TestEngineEquivalence:
    @pytest.mark.parametrize(
        "policy,params",
        [
            ("lru", None),
            ("functional_static", None),
        ],
    )
    def test_epoch_matches_request_engine_exactly(self, policy, params):
        rates = zipf_rates(60, 1.1, 2.0)
        config = ClusterConfig(object_size_mb=64, cache_capacity_mb=64 * 15, seed=5)
        trace = make_trace(rates)
        assert trace.num_requests > 200
        replay = ClusterReplay(config, list(rates), policy=policy, policy_params=params)
        reference = replay.run(trace, engine="request", seed=3)
        epoch = replay.run(trace, engine="epoch", seed=3)
        assert_exact_match(reference, epoch)

    def test_vectorised_fast_path_engages_and_stays_exact(self):
        # Hot-set workload: long hit runs take the LRU pass's hit path
        # (a move to the MRU end) almost every request; exactness must
        # be preserved.
        rates = zipf_rates(50, 2.5, 20.0)
        config = ClusterConfig(object_size_mb=64, cache_capacity_mb=64 * 25, seed=5)
        trace = make_trace(rates, duration_s=2000.0)
        replay = ClusterReplay(config, list(rates), policy="lru")
        reference = replay.run(trace, engine="request", seed=3)
        epoch = replay.run(trace, engine="epoch", seed=3)
        assert reference.hit_ratio > 0.9  # long runs actually occurred
        assert_exact_match(reference, epoch)

    def test_policy_without_classify_override_is_exact(self):
        # A third-party policy that keeps the base per-request classify
        # must give the epoch engine exactly the request engine's result.
        class FIFOPolicy(ChunkCachingPolicy):
            """Whole-object FIFO cache: hits never reorder residents."""

            def __init__(self, capacity_chunks, chunks_per_file=None):
                self._queue = OrderedDict()
                super().__init__(capacity_chunks, chunks_per_file)

            def lookup(self, file_id):
                return self.footprint(file_id) if file_id in self._queue else 0

            def evict(self, file_id):
                return self._queue.pop(file_id, None) is not None

            def occupancy(self):
                return dict(self._queue)

            @property
            def used_chunks(self):
                return sum(self._queue.values())

            def _on_hit(self, file_id):
                pass

            def _on_miss(self, file_id):
                size = self.footprint(file_id)
                if size > self.capacity_chunks:
                    return False, []
                evicted = []
                while self.used_chunks + size > self.capacity_chunks:
                    evicted.append(self._queue.popitem(last=False))
                self._queue[file_id] = size
                return True, evicted

        assert FIFOPolicy.classify is ChunkCachingPolicy.classify
        rates = zipf_rates(60, 1.1, 2.0)
        config = ClusterConfig(object_size_mb=64, cache_capacity_mb=64 * 15, seed=5)
        trace = make_trace(rates)
        replay = ClusterReplay(config, list(rates), policy=FIFOPolicy)
        reference = replay.run(trace, engine="request", seed=3)
        epoch = replay.run(trace, engine="epoch", seed=3)
        assert 0 < reference.hits < reference.reads
        assert reference.evictions_mb > 0.0
        assert_exact_match(reference, epoch)
        lru = ClusterReplay(config, list(rates), policy="lru").run(trace, seed=3)
        assert not np.array_equal(lru.hit_mask, epoch.hit_mask)

    def test_seeded_runs_are_reproducible(self):
        rates = zipf_rates(30, 1.2, 2.0)
        config = ClusterConfig(object_size_mb=64, cache_capacity_mb=64 * 8, seed=5)
        trace = make_trace(rates)
        replay = ClusterReplay(config, list(rates), policy="lru")
        first = replay.run(trace, engine="epoch", seed=3)
        second = replay.run(trace, engine="epoch", seed=3)
        np.testing.assert_array_equal(first.latencies_ms, second.latencies_ms)
        third = replay.run(trace, engine="epoch", seed=4)
        assert not np.array_equal(first.latencies_ms, third.latencies_ms)


class TestLegacyCrossCheck:
    def test_cache_tier_classifies_the_same_trace_identically(self):
        rates = zipf_rates(40, 1.2, 2.0)
        config = ClusterConfig(object_size_mb=64, cache_capacity_mb=64 * 10, seed=5)
        trace = make_trace(rates)
        replay = ClusterReplay(config, list(rates), policy="lru")
        epoch = replay.run(trace, engine="epoch", seed=3)

        cluster = CephLikeCluster(config)
        cluster.setup_lru_baseline(list(rates))
        tier = cluster.cache_tier
        setup_evictions_mb = tier.stats.evictions_mb  # write-path evictions
        hits = 0
        for time_ms, position in zip(
            trace.times_ms.tolist(), trace.object_positions.tolist()
        ):
            _, hit = tier.read_object(trace.object_ids[position], time_ms)
            hits += hit
        assert hits == epoch.hits
        assert tier.stats.promotions == epoch.promotions
        assert tier.stats.evictions_mb - setup_evictions_mb == epoch.evictions_mb

    def test_run_replay_benchmark_entry_point(self):
        rates = zipf_rates(30, 1.2, 2.0)
        config = ClusterConfig(object_size_mb=64, cache_capacity_mb=64 * 8, seed=5)
        cluster = CephLikeCluster(config)
        result = cluster.run_replay_benchmark(rates, duration_s=200.0, policy="lru")
        assert result.engine == "epoch"
        assert result.policy == "lru"
        assert result.reads > 0
        assert result.mean_latency_ms() > 0.0


class TestDegenerateConfigurations:
    def test_zero_capacity_cache_never_hits_and_never_raises(self):
        rates = zipf_rates(20, 1.0, 2.0)
        config = ClusterConfig(object_size_mb=64, cache_capacity_mb=0, seed=5)
        trace = make_trace(rates, duration_s=200.0)
        for engine in ("request", "epoch"):
            replay = ClusterReplay(config, list(rates), policy="lru")
            result = replay.run(trace, engine=engine, seed=3)
            assert result.hit_ratio == 0.0
            assert result.hits == 0
            assert result.promotions == 0
            assert result.evictions_mb == 0.0
            assert result.chunks_from_storage == result.reads * 4

    def test_empty_trace(self):
        rates = {"obj-0": 1.0}
        config = ClusterConfig(object_size_mb=64, cache_capacity_mb=640, seed=5)
        trace = ReplayTrace(
            times_ms=np.empty(0), object_positions=np.empty(0, np.int64), object_ids=["obj-0"]
        )
        replay = ClusterReplay(config, ["obj-0"], policy="lru")
        result = replay.run(trace, engine="epoch", seed=3)
        assert result.reads == 0 and result.hit_ratio == 0.0
        # Documented contract: an empty latency population yields nan.
        assert math.isnan(result.mean_latency_ms())
        assert math.isnan(result.percentile_ms(99.0))

    def test_trace_validation_rejects_corrupt_inputs(self):
        ids = ["obj-0", "obj-1"]
        good = dict(
            times_ms=np.asarray([1.0, 2.0]),
            object_positions=np.asarray([0, 1]),
            object_ids=ids,
        )
        ReplayTrace(**good)  # sanity: the healthy shape constructs
        with pytest.raises(ClusterError, match="non-negative"):
            ReplayTrace(**{**good, "times_ms": np.asarray([-1.0, 2.0])})
        with pytest.raises(ClusterError, match="sorted"):
            ReplayTrace(**{**good, "times_ms": np.asarray([2.0, 1.0])})
        with pytest.raises(ClusterError, match="finite"):
            ReplayTrace(**{**good, "times_ms": np.asarray([1.0, np.nan])})
        with pytest.raises(ClusterError, match="exactly one"):
            ReplayTrace(**{**good, "object_positions": np.asarray([0])})
        with pytest.raises(ClusterError, match="index object_ids"):
            ReplayTrace(**{**good, "object_positions": np.asarray([0, 5])})
        with pytest.raises(ClusterError, match="index object_ids"):
            ReplayTrace(**{**good, "object_positions": np.asarray([-1, 0])})
        # Fractional positions must not be truncated onto another object.
        with pytest.raises(ClusterError, match="integral"):
            ReplayTrace(**{**good, "object_positions": np.asarray([0.0, 1.9])})
        with pytest.raises(ClusterError, match="integral"):
            ReplayTrace(**{**good, "object_positions": [0.0, 0.5]})
        whole = ReplayTrace(**{**good, "object_positions": np.asarray([1.0, 0.0])})
        assert whole.object_positions.tolist() == [1, 0]

    def test_validation(self):
        rates = zipf_rates(5, 1.0, 1.0)
        config = ClusterConfig(object_size_mb=64, cache_capacity_mb=640, seed=5)
        trace = make_trace(rates, duration_s=50.0)
        replay = ClusterReplay(config, list(rates), policy="lru")
        with pytest.raises(ClusterError):
            replay.run(trace, engine="warp")
        with pytest.raises(ClusterError):
            ClusterReplay(config, ["a", "a"], policy="lru")
        foreign = ReplayTrace(
            times_ms=np.asarray([1.0]),
            object_positions=np.asarray([0]),
            object_ids=["ghost"],
        )
        with pytest.raises(ClusterError):
            replay.run(foreign, engine="epoch")


class TestCrushDeterminism:
    """Placement determinism guarantees the replay's CRUSH table matches
    the pool's for the same (osds, pg count, width, seed)."""

    def test_same_seed_same_map_across_instances(self):
        first = CrushMap(range(12), num_placement_groups=128, width=7, seed=9)
        second = CrushMap(range(12), num_placement_groups=128, width=7, seed=9)
        for pg in range(128):
            assert first.osds_for_placement_group(pg) == second.osds_for_placement_group(pg)
        for name in ("obj-a", "obj-b", "nested/object.0"):
            assert first.osds_for_object(name) == second.osds_for_object(name)

    def test_different_seeds_differ(self):
        first = CrushMap(range(12), num_placement_groups=128, width=7, seed=9)
        second = CrushMap(range(12), num_placement_groups=128, width=7, seed=10)
        assert any(
            first.osds_for_placement_group(pg) != second.osds_for_placement_group(pg)
            for pg in range(128)
        )

    def test_object_hash_is_process_stable(self):
        # sha256-based placement-group hashing must not depend on
        # PYTHONHASHSEED; pin a few known values.
        crush = CrushMap(range(12), num_placement_groups=256, width=7, seed=0)
        assert crush.placement_group_for("obj-0") == crush.placement_group_for("obj-0")
        from repro.cluster.crush import _stable_hash

        assert _stable_hash("obj-0") == 9919721417370829493
        assert _stable_hash("") == 16406829232824261652

    def test_replay_placement_matches_pool_placement(self, rng):
        from repro.cluster.osd import OSD
        from repro.cluster.pool import ErasureCodedPool, PoolConfig

        config = ClusterConfig(object_size_mb=64, cache_capacity_mb=640, seed=21)
        object_ids = [f"obj-{index}" for index in range(16)]
        replay = ClusterReplay(config, object_ids, policy="lru")
        osds = {osd_id: OSD(osd_id, rng=rng) for osd_id in range(config.num_osds)}
        pool = ErasureCodedPool(
            PoolConfig("ec-base", n=config.n, k=config.k, chunk_size_mb=config.chunk_size_mb),
            osds,
            crush_seed=config.seed,
        )
        for position, object_id in enumerate(object_ids):
            assert (
                replay._placement[position].tolist()  # noqa: SLF001
                == pool.crush.osds_for_object(object_id)
            )

    def test_pg_count_matches_pool_formula(self):
        assert placement_group_count(12, 3) == 400
        assert placement_group_count(8, 4, round_to_power_of_two=True) == 256
