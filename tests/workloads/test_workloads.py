"""Tests for workload definitions, traces, rate estimation and the generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.cluster import CephLikeCluster, ClusterConfig
from repro.exceptions import ModelError, WorkloadError
from repro.workloads.catalog import (
    DEFAULT_ARRIVAL_RATE_PATTERN,
    DEFAULT_SERVICE_RATES,
    TABLE_I_ARRIVAL_RATES,
    TABLE_III_WORKLOAD,
    TimeBin,
    aggregate_rate_to_per_object,
    paper_default_model,
    table_i_time_bins,
    table_iii_arrival_rates,
    ten_file_model,
)
from repro.workloads.generator import (
    CosbenchWorkload,
    WorkloadStage,
    standard_read_workload,
)
from repro.workloads.rates import SlidingWindowRateEstimator


class TestDefaults:
    def test_paper_default_model_shape(self):
        model = paper_default_model(num_files=50, cache_capacity=25)
        assert model.num_nodes == 12
        assert model.num_files == 50
        assert all(spec.n == 7 and spec.k == 4 for spec in model.files)
        # Arrival-rate pattern cycles with period five.
        assert model.files[0].arrival_rate == pytest.approx(
            DEFAULT_ARRIVAL_RATE_PATTERN[0]
        )
        assert model.files[7].arrival_rate == pytest.approx(
            DEFAULT_ARRIVAL_RATE_PATTERN[2]
        )

    def test_paper_default_aggregate_rate(self):
        model = paper_default_model(num_files=1000, cache_capacity=500)
        # Section V-A: the aggregate arrival rate of all files is ~0.1416/s.
        assert model.total_arrival_rate == pytest.approx(0.1416, rel=0.01)

    def test_default_service_rates_match_paper_values(self):
        assert DEFAULT_SERVICE_RATES[:11] == [
            0.1, 0.1, 0.1, 0.0909, 0.0909, 0.0667, 0.0667, 0.0769, 0.0769,
            0.0588, 0.0588,
        ]

    def test_rate_scale(self):
        base = paper_default_model(num_files=10, cache_capacity=5)
        scaled = paper_default_model(num_files=10, cache_capacity=5, rate_scale=3.0)
        assert scaled.total_arrival_rate == pytest.approx(3 * base.total_arrival_rate)

    def test_service_rate_length_validation(self):
        with pytest.raises(ModelError):
            paper_default_model(num_files=5, cache_capacity=2, service_rates=[0.1, 0.2])

    def test_ten_file_model_split_placement(self):
        model = ten_file_model(placement_mode="split")
        assert model.num_files == 10
        for index, spec in enumerate(model.files):
            if index < 3:
                assert spec.placement == tuple(range(0, 7))
            else:
                assert spec.placement == tuple(range(5, 12))

    def test_ten_file_model_validation(self):
        with pytest.raises(ModelError):
            ten_file_model(arrival_rates=[0.1, 0.2])
        with pytest.raises(ModelError):
            ten_file_model(placement_mode="bogus")


class TestTimeBin:
    def test_validation(self):
        with pytest.raises(ModelError):
            TimeBin(index=1, duration=0.0, arrival_rates={})
        with pytest.raises(ModelError):
            TimeBin(index=1, duration=1.0, arrival_rates={"f": -0.1})


class TestTraces:
    def test_table_i_structure(self):
        assert len(TABLE_I_ARRIVAL_RATES) == 3
        for rates in TABLE_I_ARRIVAL_RATES:
            assert len(rates) == 10
        # Bin 3: files 1 and 6 are the hottest at 0.00025.
        assert TABLE_I_ARRIVAL_RATES[2]["file-1"] == pytest.approx(0.00025)
        assert TABLE_I_ARRIVAL_RATES[2]["file-6"] == pytest.approx(0.00025)

    def test_table_i_time_bins(self):
        bins = table_i_time_bins(duration=60.0)
        assert [b.index for b in bins] == [1, 2, 3]
        assert all(b.duration == 60.0 for b in bins)

    def test_table_iii_values(self):
        assert TABLE_III_WORKLOAD[64] == pytest.approx(0.00051852)
        assert sorted(TABLE_III_WORKLOAD) == [4, 16, 64, 256, 1024]

    def test_table_iii_arrival_rates(self):
        rates = table_iii_arrival_rates(16, num_objects=100)
        assert len(rates) == 100
        assert all(rate == pytest.approx(0.00010824) for rate in rates.values())
        with pytest.raises(WorkloadError):
            table_iii_arrival_rates(5, 100)
        with pytest.raises(WorkloadError):
            table_iii_arrival_rates(16, 0)

    def test_aggregate_rate_split(self):
        rates = aggregate_rate_to_per_object(2.0, 400)
        assert len(rates) == 400
        assert sum(rates.values()) == pytest.approx(2.0)
        with pytest.raises(WorkloadError):
            aggregate_rate_to_per_object(-1.0, 10)
        with pytest.raises(WorkloadError):
            aggregate_rate_to_per_object(1.0, 0)


class TestSlidingWindowEstimator:
    def test_estimates_constant_rate(self):
        estimator = SlidingWindowRateEstimator(window=100.0)
        rng = np.random.default_rng(1)
        time = 0.0
        while time < 1000.0:
            time += rng.exponential(1.0 / 0.5)
            estimator.record_arrival("f", time)
        assert estimator.estimated_rate("f", now=1000.0) == pytest.approx(0.5, rel=0.4)

    def test_detects_rate_increase(self):
        estimator = SlidingWindowRateEstimator(
            window=50.0, change_threshold=0.5, min_observations=5
        )
        estimator.freeze_bin_rates({"f": 0.1})
        rng = np.random.default_rng(2)
        arrivals = []
        time = 0.0
        while time < 200.0:
            time += rng.exponential(1.0 / 0.1)
            arrivals.append((time, "f"))
        time = max(time, 200.0)
        while time < 400.0:
            time += rng.exponential(1.0 / 1.0)
            arrivals.append((time, "f"))
        events = estimator.replay(arrivals)
        assert events, "a rate change should have been detected"
        assert events[0].new_rate > events[0].previous_rate
        assert estimator.current_bin >= 2

    def test_no_false_trigger_for_stable_rate(self):
        estimator = SlidingWindowRateEstimator(
            window=200.0, change_threshold=1.5, min_observations=5
        )
        estimator.freeze_bin_rates({"f": 0.2})
        rng = np.random.default_rng(3)
        time = 0.0
        arrivals = []
        while time < 2000.0:
            time += rng.exponential(1.0 / 0.2)
            arrivals.append((time, "f"))
        assert estimator.replay(arrivals) == []

    def test_validation(self):
        with pytest.raises(WorkloadError):
            SlidingWindowRateEstimator(window=0.0)
        with pytest.raises(WorkloadError):
            SlidingWindowRateEstimator(window=1.0, change_threshold=0.0)
        estimator = SlidingWindowRateEstimator(window=10.0)
        estimator.record_arrival("f", 5.0)
        with pytest.raises(WorkloadError):
            estimator.record_arrival("f", 1.0)  # time went backwards


class TestCosbenchWorkload:
    def test_stage_validation(self):
        with pytest.raises(WorkloadError):
            WorkloadStage(name="x", operation="erase")
        with pytest.raises(WorkloadError):
            WorkloadStage(name="x", operation="read", duration_s=0.0)
        with pytest.raises(WorkloadError):
            WorkloadStage(name="x", operation="read", duration_s=5.0, arrival_rates={})

    def test_workload_validation(self):
        stage = WorkloadStage(name="prepare", operation="write")
        with pytest.raises(WorkloadError):
            CosbenchWorkload([stage], mode="bogus")
        with pytest.raises(WorkloadError):
            CosbenchWorkload([], mode="optimal")

    def test_read_before_write_rejected(self):
        config = ClusterConfig(object_size_mb=16, cache_capacity_mb=512, seed=1)
        cluster = CephLikeCluster(config)
        workload = CosbenchWorkload(
            [
                WorkloadStage(
                    name="main",
                    operation="read",
                    duration_s=10.0,
                    arrival_rates={"obj-0": 0.1},
                )
            ],
            mode="baseline",
        )
        with pytest.raises(WorkloadError):
            workload.run(cluster)

    def test_standard_workload_baseline_end_to_end(self):
        config = ClusterConfig(object_size_mb=16, cache_capacity_mb=256, seed=1)
        cluster = CephLikeCluster(config)
        rates = {f"obj-{i}": 0.05 for i in range(20)}
        workload = standard_read_workload(rates, duration_s=100.0, mode="baseline")
        results = workload.run(cluster, seed=2)
        assert results[0].objects_written == 20
        assert results[1].read_result is not None
        assert results[1].read_result.requests > 0

    def test_standard_workload_optimal_requires_pool_map(self):
        config = ClusterConfig(object_size_mb=16, cache_capacity_mb=256, seed=1)
        cluster = CephLikeCluster(config)
        rates = {f"obj-{i}": 0.05 for i in range(5)}
        workload = standard_read_workload(rates, duration_s=50.0, mode="optimal")
        with pytest.raises(WorkloadError):
            workload.run(cluster)
        results = workload.run(cluster, object_pool_map={name: 1 for name in rates}, seed=2)
        assert results[-1].read_result is not None
