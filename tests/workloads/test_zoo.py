"""Property tests of the non-stationary workload zoo and the Workload API."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Scenario, get_workload, run_scenario
from repro.core.model import StorageSystemModel
from repro.exceptions import ScenarioError, WorkloadError
from repro.workloads import (
    DiurnalWorkload,
    FlashCrowdWorkload,
    PopularityDriftWorkload,
    RequestStream,
    StationaryWorkload,
    Workload,
    as_workload,
    paper_default_model,
    zipf_weights,
)

HORIZON = 5_000.0


def assert_valid_stream(stream: RequestStream, num_files: int) -> None:
    assert np.all(np.diff(stream.times) >= 0)
    assert stream.times.size == 0 or stream.times[0] >= 0.0
    assert stream.times.size == 0 or stream.times[-1] < HORIZON
    assert stream.num_objects == num_files
    if stream.num_requests:
        assert stream.object_positions.min() >= 0
        assert stream.object_positions.max() < num_files


class TestDiurnal:
    @given(
        amplitude=st.floats(0.0, 1.0),
        period=st.floats(100.0, 200_000.0),
        phase=st.floats(0.0, 100_000.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_rates_nonnegative(self, amplitude, period, phase):
        workload = DiurnalWorkload(
            num_files=10, amplitude=amplitude, period=period, phase=phase
        )
        times = np.linspace(0.0, 3 * period, 512)
        assert np.all(workload.rate_at(times) >= 0.0)
        assert np.all(workload._mean_rates() >= 0.0)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_seeded_determinism(self, seed):
        workload = DiurnalWorkload(num_files=12, total_rate=0.5)
        a = workload.sample(np.random.default_rng(seed), horizon=HORIZON)
        b = workload.sample(np.random.default_rng(seed), horizon=HORIZON)
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.object_positions, b.object_positions)

    def test_stream_shape(self):
        workload = DiurnalWorkload(num_files=12, total_rate=0.5)
        stream = workload.sample(np.random.default_rng(3), horizon=HORIZON)
        assert_valid_stream(stream, 12)
        assert stream.num_requests > 0

    def test_amplitude_validated(self):
        with pytest.raises(WorkloadError, match="amplitude"):
            DiurnalWorkload(amplitude=1.5)

    def test_horizon_required(self):
        with pytest.raises(WorkloadError, match="horizon"):
            DiurnalWorkload().sample(np.random.default_rng(0))


class TestFlashCrowd:
    @given(
        spike_rate=st.floats(0.0, 5.0),
        decay=st.floats(1.0, 10_000.0),
        flash_time=st.floats(0.0, HORIZON),
    )
    @settings(max_examples=25, deadline=None)
    def test_rates_nonnegative(self, spike_rate, decay, flash_time):
        workload = FlashCrowdWorkload(
            num_files=10, spike_rate=spike_rate, decay=decay, flash_time=flash_time
        )
        times = np.linspace(0.0, HORIZON, 512)
        assert np.all(workload.spike_rate_at(times) >= 0.0)
        assert np.all(workload._mean_rates() >= 0.0)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_seeded_determinism(self, seed):
        workload = FlashCrowdWorkload(num_files=12, base_rate=0.3, spike_rate=0.5)
        a = workload.sample(np.random.default_rng(seed), horizon=HORIZON)
        b = workload.sample(np.random.default_rng(seed), horizon=HORIZON)
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.object_positions, b.object_positions)

    def test_spike_is_silent_before_flash_time(self):
        workload = FlashCrowdWorkload(num_files=10, flash_time=1_000.0)
        assert np.all(workload.spike_rate_at(np.array([0.0, 999.9])) == 0.0)
        assert workload.spike_rate_at(np.array([1_000.0]))[0] == pytest.approx(
            workload.spike_rate
        )

    def test_spike_adds_requests_on_hot_set(self):
        quiet = FlashCrowdWorkload(num_files=10, base_rate=0.2, spike_rate=0.0)
        loud = FlashCrowdWorkload(
            num_files=10, base_rate=0.2, spike_rate=2.0, decay=HORIZON
        )
        rng_quiet = np.random.default_rng(5)
        rng_loud = np.random.default_rng(5)
        assert (
            loud.sample(rng_loud, horizon=HORIZON).num_requests
            > quiet.sample(rng_quiet, horizon=HORIZON).num_requests
        )

    def test_hot_objects_validated(self):
        with pytest.raises(WorkloadError, match="hot_objects"):
            FlashCrowdWorkload(num_files=4, hot_objects=9)


class TestDrift:
    @given(
        shift_every=st.floats(1.0, 100_000.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_positions_in_range_and_deterministic(self, shift_every, seed):
        workload = PopularityDriftWorkload(
            num_files=9, total_rate=0.4, shift_every=shift_every
        )
        a = workload.sample(np.random.default_rng(seed), horizon=HORIZON)
        b = workload.sample(np.random.default_rng(seed), horizon=HORIZON)
        assert_valid_stream(a, 9)
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.object_positions, b.object_positions)

    def test_ranking_rotates(self):
        workload = PopularityDriftWorkload(num_files=10, shift_every=100.0)
        shifts = workload.shift_at(np.array([0.0, 99.9, 100.0, 1_050.0]))
        assert shifts.tolist() == [0, 0, 1, 10 % 10]

    def test_mean_rates_uniform(self):
        workload = PopularityDriftWorkload(num_files=8, total_rate=0.4)
        np.testing.assert_allclose(workload._mean_rates(), 0.05)


class TestWorkloadProtocol:
    def test_zoo_models_expose_mean_rates(self):
        for workload in (
            DiurnalWorkload(num_files=10, cache_capacity=5),
            FlashCrowdWorkload(num_files=10, cache_capacity=5),
            PopularityDriftWorkload(num_files=10, cache_capacity=5),
        ):
            model = workload.model()
            assert isinstance(model, StorageSystemModel)
            assert model.num_files == 10
            assert not workload.stationary
            assert workload.default_horizon() is None

    def test_as_workload_wraps_models(self):
        model = paper_default_model(num_files=5, cache_capacity=2)
        workload = as_workload(model, name="wrapped")
        assert isinstance(workload, StationaryWorkload)
        assert workload.stationary and workload.name == "wrapped"
        assert workload.model() is model
        stream = workload.sample(np.random.default_rng(1), horizon=HORIZON)
        assert_valid_stream(stream, 5)

    def test_as_workload_passes_workloads_through(self):
        workload = DiurnalWorkload(num_files=5)
        assert as_workload(workload, name="diurnal") is workload
        assert workload.name == "diurnal"

    def test_as_workload_rejects_other_types(self):
        with pytest.raises(WorkloadError, match="must return"):
            as_workload({"not": "a workload"})

    def test_zipf_weights_normalized(self):
        weights = zipf_weights(17, 0.9)
        assert weights.sum() == pytest.approx(1.0)
        assert np.all(np.diff(weights) <= 0)

    def test_registry_specs_expose_kind_and_params(self):
        spec = get_workload("diurnal")
        assert spec.kind == "non-stationary"
        assert "amplitude" in spec.accepted_params()
        assert get_workload("paper_default").kind == "stationary"
        assert get_workload("trace").kind == "trace"

    def test_workload_params_validated_eagerly(self):
        with pytest.raises(ScenarioError, match="accepted parameters"):
            Scenario(workload="flash_crowd", workload_params={"spike": 2.0})
        # Valid names construct fine.
        Scenario(workload="flash_crowd", workload_params={"spike_rate": 2.0})

    def test_scenario_seed_changes_sampled_stream(self):
        base = Scenario(
            workload="diurnal",
            num_files=10,
            cache_capacity=5,
            horizon=4_000.0,
            workload_params={"total_rate": 0.5},
        )
        a = run_scenario(base)
        b = run_scenario(base.replace(seed=99))
        assert (
            a.simulation.requests_completed != b.simulation.requests_completed
            or a.simulated_mean_latency != b.simulated_mean_latency
        )
