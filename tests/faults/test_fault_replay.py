"""Replay semantics under fault schedules: equivalence, degeneracy, API.

The two load-bearing guarantees of the failure suite:

* an **empty** schedule (zero-rate generators, windows outside the
  horizon) reproduces the healthy replay **bit-for-bit** -- adding the
  fault layer cost nothing when nothing fails;
* under a **real** schedule the epoch and request engines still agree:
  counters exactly, per-request latencies to float reassociation.

A third property underwrites the epoch classifier: faults act on storage
fetches only, so a faulted replay classifies every read exactly like the
healthy one.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.api.scenario import Scenario
from repro.cluster.cluster import ClusterConfig
from repro.cluster.replay import ClusterReplay, ReplayTrace
from repro.exceptions import ScenarioError
from repro.faults import GeneratedFaultSchedule, compile_fault_schedule, timeline_from_windows


def zipf_rates(num_objects: int, alpha: float, total_rate: float):
    weights = 1.0 / np.arange(1, num_objects + 1) ** alpha
    weights /= weights.sum()
    return {f"obj-{index}": total_rate * float(w) for index, w in enumerate(weights)}


def make_replay(num_objects=50, cache_objects=12, seed=5, policy="lru", params=None):
    rates = zipf_rates(num_objects, 1.1, 2.0)
    config = ClusterConfig(
        object_size_mb=64, cache_capacity_mb=64 * cache_objects, seed=seed
    )
    trace = ReplayTrace.from_rates(rates, 400.0, seed=11)
    replay = ClusterReplay(config, list(rates), policy=policy, policy_params=params)
    return replay, trace


def assert_engines_match(reference, candidate):
    assert candidate.reads == reference.reads
    assert candidate.hits == reference.hits
    assert candidate.promotions == reference.promotions
    assert candidate.evictions_mb == reference.evictions_mb
    assert candidate.chunks_from_cache == reference.chunks_from_cache
    assert candidate.chunks_from_storage == reference.chunks_from_storage
    assert candidate.degraded_reads == reference.degraded_reads
    assert candidate.failed_reads == reference.failed_reads
    assert candidate.repair_jobs == reference.repair_jobs
    assert np.array_equal(candidate.hit_mask, reference.hit_mask)
    assert np.array_equal(candidate.served_mask, reference.served_mask)
    np.testing.assert_allclose(
        candidate.latencies_ms, reference.latencies_ms, rtol=1e-9, atol=1e-9
    )


FAULT_CASES = [
    ("osd_crash", {"crash_rate": 5e-4, "downtime_ms": 20_000.0}),
    ("degraded_read", {"fraction": 0.25}),
    ("straggler", {"fraction": 0.25, "slowdown": 4.0}),
    ("repair_traffic", {"rate": 2.0}),
]


class TestEngineEquivalenceUnderFaults:
    @pytest.mark.parametrize("faults,fault_params", FAULT_CASES)
    def test_epoch_matches_request_engine(self, faults, fault_params):
        replay, trace = make_replay()
        reference = replay.run(
            trace, engine="request", seed=3, faults=faults, fault_params=fault_params
        )
        epoch = replay.run(
            trace, engine="epoch", seed=3, faults=faults, fault_params=fault_params
        )
        assert epoch.faults == faults
        assert_engines_match(reference, epoch)

    def test_composite_schedule(self):
        replay, trace = make_replay()
        faults = [
            GeneratedFaultSchedule("degraded_read", {"fraction": 0.25}),
            GeneratedFaultSchedule("repair_traffic", {"rate": 2.0}),
        ]
        reference = replay.run(trace, engine="request", seed=3, faults=faults)
        epoch = replay.run(trace, engine="epoch", seed=3, faults=faults)
        assert epoch.faults == "degraded_read+repair_traffic"
        assert epoch.degraded_reads > 0
        assert epoch.repair_jobs > 0
        assert_engines_match(reference, epoch)


class TestEmptyScheduleBitEquality:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_zero_rate_schedule_is_bit_equal_to_healthy(self, seed):
        replay, trace = make_replay(num_objects=20)
        healthy = replay.run(trace, engine="epoch", seed=seed)
        faulted = replay.run(
            trace,
            engine="epoch",
            seed=seed,
            faults="osd_crash",
            fault_params={"crash_rate": 0.0},
        )
        assert faulted.hits == healthy.hits
        assert faulted.degraded_reads == 0 and faulted.failed_reads == 0
        # Bit-equality, not approximate: the trivial timeline must not
        # perturb the healthy code path (same RNG stream, same kernels).
        assert np.array_equal(faulted.latencies_ms, healthy.latencies_ms)

    def test_window_outside_horizon_is_bit_equal_to_healthy(self):
        replay, trace = make_replay()
        healthy = replay.run(trace, engine="epoch", seed=3)
        faulted = replay.run(
            trace,
            engine="epoch",
            seed=3,
            faults="degraded_read",
            fault_params={"fraction": 0.5, "start_ms": 1e12},
        )
        assert np.array_equal(faulted.latencies_ms, healthy.latencies_ms)

    def test_precompiled_trivial_timeline_is_bit_equal(self):
        replay, trace = make_replay()
        timeline = timeline_from_windows([], num_osds=12, horizon_ms=1e9)
        healthy = replay.run(trace, engine="epoch", seed=3)
        faulted = replay.run(trace, engine="epoch", seed=3, faults=timeline)
        assert np.array_equal(faulted.latencies_ms, healthy.latencies_ms)


FAULT_SCHEDULES = st.one_of(
    st.tuples(
        st.just("osd_crash"),
        st.fixed_dictionaries(
            {
                "crash_rate": st.floats(min_value=2e-3, max_value=2e-2),
                "downtime_ms": st.floats(min_value=1_000.0, max_value=60_000.0),
            }
        ),
    ),
    st.tuples(
        st.just("degraded_read"),
        st.fixed_dictionaries(
            {
                "fraction": st.floats(min_value=0.1, max_value=1.0),
                "start_ms": st.floats(min_value=1.0, max_value=250_000.0),
                "duration_ms": st.floats(min_value=1_000.0, max_value=100_000.0),
            }
        ),
    ),
)


class TestClassificationIgnoresFaults:
    @settings(max_examples=40, deadline=None)
    @given(
        num_objects=st.integers(min_value=5, max_value=40),
        alpha=st.floats(min_value=0.5, max_value=2.5),
        capacity_share=st.floats(min_value=0.0, max_value=1.25),
        policy=st.sampled_from(["lru", "functional_static"]),
        schedule=FAULT_SCHEDULES,
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_faulted_replay_classifies_like_healthy(
        self, num_objects, alpha, capacity_share, policy, schedule, seed
    ):
        # Capacity runs from an empty cache to past the whole working set.
        cache_objects = int(round(capacity_share * num_objects))
        rates = zipf_rates(num_objects, alpha, 4.0)
        config = ClusterConfig(
            object_size_mb=64, cache_capacity_mb=64 * cache_objects, seed=5
        )
        trace = ReplayTrace.from_rates(rates, 300.0, seed=seed)
        replay = ClusterReplay(config, list(rates), policy=policy)
        name, params = schedule
        timeline = compile_fault_schedule(
            name,
            params,
            num_osds=config.num_osds,
            horizon_ms=float(trace.times_ms[-1]) + 1.0,
            seed=seed,
        )
        assume(not timeline.trivial)
        healthy = replay.run(trace, engine="epoch", seed=seed)
        faulted = replay.run(trace, engine="epoch", seed=seed, faults=timeline)
        assert np.array_equal(faulted.hit_mask, healthy.hit_mask)
        assert faulted.promotions == healthy.promotions
        assert faulted.evictions_mb == healthy.evictions_mb
        assert faulted.chunks_from_cache == healthy.chunks_from_cache


class TestDegenerateFaults:
    def test_all_osds_down_fails_every_miss(self):
        # Zero cache, every OSD dark: every read needs storage chunks and
        # none can be fetched -- all fail, none served, latency stats nan.
        rates = zipf_rates(20, 1.1, 2.0)
        config = ClusterConfig(object_size_mb=64, cache_capacity_mb=0, seed=5)
        trace = ReplayTrace.from_rates(rates, 200.0, seed=11)
        replay = ClusterReplay(config, list(rates), policy="lru")
        for engine in ("epoch", "request"):
            result = replay.run(
                trace,
                engine=engine,
                seed=3,
                faults="degraded_read",
                fault_params={"fraction": 1.0},
            )
            assert result.failed_reads == result.reads
            assert result.served == 0
            assert result.latencies_ms.size == 0
            assert math.isnan(result.mean_latency_ms())
            assert math.isnan(result.percentile_ms(99.0))
            assert not result.served_mask.any()

    def test_partial_outage_degrades_but_serves(self):
        replay, trace = make_replay()
        result = replay.run(
            trace,
            engine="epoch",
            seed=3,
            faults="degraded_read",
            fault_params={"fraction": 0.25},
        )
        assert result.degraded_reads > 0
        assert result.failed_reads == 0
        assert result.served == result.reads

    def test_straggler_inflates_latency(self):
        replay, trace = make_replay()
        healthy = replay.run(trace, engine="epoch", seed=3)
        slowed = replay.run(
            trace,
            engine="epoch",
            seed=3,
            faults="straggler",
            fault_params={"fraction": 0.5, "slowdown": 8.0},
        )
        assert slowed.mean_latency_ms() > healthy.mean_latency_ms()

    def test_repair_traffic_counted_and_slows_reads(self):
        replay, trace = make_replay()
        healthy = replay.run(trace, engine="epoch", seed=3)
        repairing = replay.run(
            trace,
            engine="epoch",
            seed=3,
            faults="repair_traffic",
            fault_params={"rate": 5.0},
        )
        assert repairing.repair_jobs > 0
        assert repairing.mean_latency_ms() > healthy.mean_latency_ms()


class TestScenarioIntegration:
    def test_faults_round_trip(self):
        scenario = Scenario(
            faults="osd_crash",
            fault_params={"crash_rate": 1e-4, "downtime_ms": 30_000.0},
        )
        restored = Scenario.from_dict(scenario.to_dict())
        assert restored == scenario
        assert restored.faults == "osd_crash"
        assert dict(restored.fault_params) == dict(scenario.fault_params)

    def test_unknown_generator_rejected(self):
        with pytest.raises(Exception, match="no_such_fault"):
            Scenario(faults="no_such_fault")

    def test_unknown_fault_param_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario(faults="osd_crash", fault_params={"typo": 1})

    def test_fault_params_without_faults_rejected(self):
        with pytest.raises(ScenarioError, match="fault_params"):
            Scenario(fault_params={"crash_rate": 1.0})

    def test_describe_mentions_faults(self):
        assert "faults=straggler" in Scenario(faults="straggler").describe()

    def test_run_scenario_records_replay(self):
        from repro.api.session import run_scenario

        result = run_scenario(
            Scenario(
                num_files=20,
                cache_capacity=10,
                simulate=False,
                faults="degraded_read",
                fault_params={"fraction": 0.25},
            )
        )
        assert result.replay is not None
        assert result.replay.faults == "degraded_read"
        assert result.replay.reads > 0
        payload = result.to_dict()
        assert payload["cluster_replay"]["faults"] == "degraded_read"
        assert "replay" in result.timings
        assert "cluster replay" in result.summary()

    def test_healthy_scenario_has_no_replay(self):
        from repro.api.session import run_scenario

        result = run_scenario(
            Scenario(num_files=20, cache_capacity=10, simulate=False)
        )
        assert result.replay is None
        assert "cluster_replay" not in result.to_dict()
