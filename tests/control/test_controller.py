"""Tests for the swap planner, the online controller and the builtins."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import CONTROLLERS, WORKLOADS
from repro.api.scenario import Scenario
from repro.control import OnlineController, SwapPlanner
from repro.control.builtins import PeriodicController
from repro.exceptions import ControlError

allocations = st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=12)


def drift_stream(num_files=12, horizon=4000.0, seed=5):
    scenario = Scenario(
        workload="drift",
        num_files=num_files,
        cache_capacity=num_files,
        simulate=False,
        seed=seed,
        workload_params={"shift_every": 800.0},
    )
    built = WORKLOADS.get("drift").create(scenario)
    rng = np.random.default_rng(seed)
    return built.model(), built.sample(rng, horizon=horizon)


class TestSwapPlanner:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), budget=st.integers(min_value=0, max_value=10))
    def test_budget_is_never_exceeded(self, data, budget):
        desired = np.array(data.draw(allocations), dtype=np.int64)
        current = np.array(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=8),
                    min_size=desired.size,
                    max_size=desired.size,
                )
            ),
            dtype=np.int64,
        )
        priorities = np.array(
            data.draw(
                st.lists(
                    st.floats(0.0, 1.0, allow_nan=False),
                    min_size=desired.size,
                    max_size=desired.size,
                )
            )
        )
        plan = SwapPlanner(budget).plan(current, desired, priorities)
        assert plan.added_chunks <= budget
        # Drops are always applied in full; applied stays between
        # min(current, desired) and desired.
        assert np.all(plan.applied >= np.minimum(current, desired))
        assert np.all(plan.applied <= np.maximum(current, desired))
        assert np.all(plan.applied <= desired) or np.all(
            plan.applied <= np.maximum(current, desired)
        )
        assert plan.deferred_chunks == int(
            np.maximum(desired - current, 0).sum()
        ) - plan.added_chunks

    def test_unbounded_budget_applies_desired_exactly(self):
        current = np.array([3, 0, 2, 5])
        desired = np.array([1, 4, 2, 0])
        for planner in (SwapPlanner(None), SwapPlanner(float("inf"))):
            plan = planner.plan(current, desired)
            assert np.array_equal(plan.applied, desired)
            assert plan.deferred_chunks == 0

    def test_priorities_rank_the_grants(self):
        planner = SwapPlanner(3)
        plan = planner.plan(
            np.zeros(3, dtype=np.int64),
            np.array([2, 2, 2]),
            priorities=np.array([0.1, 0.9, 0.5]),
        )
        assert plan.applied[1] == 2  # hottest file fully granted
        assert plan.applied[2] == 1  # next one partially
        assert plan.applied[0] == 0
        assert plan.added_chunks == 3
        assert plan.deferred_chunks == 3

    def test_plans_are_deterministic(self):
        rng = np.random.default_rng(2)
        current = rng.integers(0, 6, size=20)
        desired = rng.integers(0, 6, size=20)
        priorities = rng.random(20)
        first = SwapPlanner(5).plan(current, desired, priorities)
        second = SwapPlanner(5).plan(current, desired, priorities)
        assert np.array_equal(first.applied, second.applied)

    def test_budgeted_plans_converge_to_desired(self):
        # With stationary desired rates, repeated bins drain the deferred
        # adds: after ceil(total_adds / budget) bins the cache matches the
        # re-solve exactly (infinite budget reaches it in one bin).
        desired = np.array([4, 3, 0, 5, 2])
        planner = SwapPlanner(3)
        current = np.zeros_like(desired)
        for _ in range(int(np.ceil(desired.sum() / 3))):
            current = planner.plan(current, desired).applied
        assert np.array_equal(current, desired)

    def test_validation(self):
        with pytest.raises(ControlError):
            SwapPlanner(-1)
        with pytest.raises(ControlError):
            SwapPlanner(2).plan(np.zeros(3), np.zeros(4))


class TestOnlineController:
    def test_stream_run_opens_bins_and_tracks_churn(self):
        model, stream = drift_stream()
        controller = OnlineController(
            model, window=600.0, churn_budget=4, build_placements=False
        )
        result = controller.run(stream, num_chunks=64)
        assert result.num_bins >= 2
        assert result.bins[0].report.kind == "bootstrap"
        assert result.num_drift_events == result.num_bins - 1
        assert result.churn_budget == 4
        for record in result.bins:
            assert record.churn.added_chunks <= 4
        applied = controller.applied_allocation
        assert np.array_equal(applied, result.bins[-1].churn.applied)
        assert applied.sum() <= model.cache_capacity

    def test_cold_controller_resolves_cold(self):
        model, stream = drift_stream()
        controller = OnlineController(model, warm=False, build_placements=False)
        result = controller.run(stream, num_chunks=64)
        assert not result.warm
        assert all(
            record.report.kind in ("bootstrap", "cold") for record in result.bins
        )

    def test_result_serializes(self):
        from repro.api.serialize import json_dumps

        model, stream = drift_stream()
        controller = OnlineController(model, build_placements=False)
        result = controller.run(stream, num_chunks=32)
        payload = result.to_dict()
        assert payload["num_bins"] == result.num_bins
        json_dumps(payload)  # must not raise
        assert "bin 1" in result.summary()

    def test_process_bin_accepts_mapping_and_vector(self, small_model):
        controller = OnlineController(small_model)
        by_id = controller.process_bin({"file-0": 0.2})
        assert by_id.report.kind == "bootstrap"
        by_vector = controller.process_bin(np.full(small_model.num_files, 0.05))
        assert by_vector.report.kind == "warm"
        assert by_vector.index == by_id.index + 1

    def test_process_bin_placements_are_valid_per_bin(self, small_model):
        controller = OnlineController(small_model, alternation_tolerance=0.01)
        base = {spec.file_id: spec.arrival_rate for spec in small_model.files}
        hot_second_bin = dict(base)
        hot_second_bin["file-5"] = 0.12  # file-5 becomes the hottest
        for index, rates in enumerate((base, hot_second_bin, base), start=1):
            record = controller.process_bin(rates, index=index)
            record.placement.validate_against(small_model.copy_with_arrival_rates(rates))
            assert record.placement.time_bin == index

    def test_process_bin_validates_inputs(self, small_model):
        controller = OnlineController(small_model)
        with pytest.raises(ControlError):
            controller.process_bin({"no-such-file": 1.0})
        with pytest.raises(ControlError):
            controller.process_bin(np.ones(small_model.num_files + 1))

    def test_double_bootstrap_is_rejected(self, small_model):
        controller = OnlineController(small_model)
        controller.bootstrap()
        with pytest.raises(ControlError):
            controller.bootstrap()

    def test_stream_positions_require_model_files(self, small_model):
        _, stream = drift_stream(num_files=12)
        controller = OnlineController(small_model)
        with pytest.raises(ControlError):
            controller.run(stream)


class TestBuiltins:
    def test_registry_lists_the_builtin_controllers(self):
        names = CONTROLLERS.names()
        assert {"online", "cold", "periodic"} <= set(names)

    def test_online_and_cold_builders(self, small_model):
        online = CONTROLLERS.get("online").build(small_model, churn_budget=2)
        assert isinstance(online, OnlineController)
        assert online.planner.churn_budget == 2
        cold = CONTROLLERS.get("cold").build(small_model)
        assert isinstance(cold, OnlineController)

    def test_periodic_controller_opens_bins_on_the_interval(self):
        model, stream = drift_stream()
        controller = PeriodicController(model, interval=1000.0, window=600.0)
        result = controller.run(stream, num_chunks=64)
        # Bootstrap plus roughly one bin per interval, never drift bins.
        assert result.num_drift_events == 0
        assert result.num_bins >= 3
        opened = [record.opened_at for record in result.bins[1:]]
        assert all(
            later - earlier >= 1000.0 - 1e-9
            for earlier, later in zip(opened, opened[1:])
        )

    def test_periodic_validates_interval(self, small_model):
        with pytest.raises(ControlError):
            PeriodicController(small_model, interval=0.0)

    def test_controller_spec_rejects_unknown_params(self, small_model):
        from repro.exceptions import ScenarioError

        spec = CONTROLLERS.get("online")
        with pytest.raises(ScenarioError, match="no_such_knob"):
            spec.validate_params({"no_such_knob": 1})
