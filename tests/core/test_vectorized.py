"""Tests for the vectorised system: agreement with the scalar oracle in
``tests/scalar_oracle.py`` and correctness of the polytope projection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scalar_oracle import (
    initial_solution,
    node_moments,
    objective_gradient_pi,
    per_file_bounds,
    system_objective,
)

from repro.core.vectorized import VectorizedSystem
from repro.exceptions import InfeasibleError


class TestAgreementWithReference:
    def test_objective_matches_dict_implementation(self, small_model):
        system = VectorizedSystem(small_model)
        state = initial_solution(small_model)
        pi = system.from_state(state)
        z = np.asarray(state.z_values)
        vectorised = system.objective(pi, z)
        reference = system_objective(small_model, state, use_given_z=True)
        assert vectorised == pytest.approx(reference, rel=1e-9)

    def test_per_file_bounds_match(self, small_model):
        system = VectorizedSystem(small_model)
        state = initial_solution(small_model)
        pi = system.from_state(state)
        z = np.asarray(state.z_values)
        vectorised = system.per_file_bounds(pi, z)
        reference = per_file_bounds(small_model, state, use_given_z=True)
        assert np.allclose(vectorised, reference)

    def test_node_rates_match_model(self, small_model):
        system = VectorizedSystem(small_model)
        state = initial_solution(small_model)
        pi = system.from_state(state)
        rates = system.node_rates(pi)
        reference = small_model.node_arrival_rates(state.probabilities)
        for position, node_id in enumerate(small_model.node_ids):
            assert rates[position] == pytest.approx(reference[node_id])

    def test_queue_moments_match(self, small_model):
        system = VectorizedSystem(small_model)
        state = initial_solution(small_model)
        pi = system.from_state(state)
        mean, variance = system.queue_moments(system.node_rates(pi))
        reference = node_moments(small_model, state)
        for position, node_id in enumerate(small_model.node_ids):
            assert mean[position] == pytest.approx(reference[node_id].mean)
            assert variance[position] == pytest.approx(reference[node_id].variance)

    def test_gradient_matches_reference(self, small_model):
        system = VectorizedSystem(small_model)
        state = initial_solution(small_model)
        pi = system.from_state(state)
        z = np.asarray(state.z_values)
        _, gradient = system.objective_and_gradient(pi, z)
        reference = objective_gradient_pi(small_model, state)
        for pair_index in range(system.num_pairs):
            file_position = int(system.pair_file[pair_index])
            node_id = small_model.node_ids[int(system.pair_node[pair_index])]
            assert gradient[pair_index] == pytest.approx(
                reference[file_position][node_id], rel=1e-6
            )

    def test_gradient_matches_finite_differences(self, small_model):
        system = VectorizedSystem(small_model)
        pi = system.initial_pi() * 0.9
        z = system.optimal_z(pi)
        _, gradient = system.objective_and_gradient(pi, z)
        eps = 1e-6
        for pair_index in range(0, system.num_pairs, 7):
            perturbed_up = pi.copy()
            perturbed_up[pair_index] += eps
            perturbed_down = pi.copy()
            perturbed_down[pair_index] -= eps
            numeric = (
                system.objective(perturbed_up, z) - system.objective(perturbed_down, z)
            ) / (2 * eps)
            assert gradient[pair_index] == pytest.approx(numeric, rel=1e-3, abs=1e-8)

    def test_state_round_trip(self, small_model):
        system = VectorizedSystem(small_model)
        state = initial_solution(small_model)
        pi = system.from_state(state)
        rebuilt = system.to_state(pi, np.asarray(state.z_values))
        for original, round_tripped in zip(state.probabilities, rebuilt.probabilities):
            assert original == pytest.approx(round_tripped)


class TestOptimalZ:
    def test_vectorised_z_minimises_objective(self, small_model):
        system = VectorizedSystem(small_model)
        pi = system.initial_pi()
        z_star = system.optimal_z(pi)
        assert np.all(z_star >= 0.0)
        best = system.objective(pi, z_star)
        for delta in (-0.5, -0.1, 0.1, 0.5, 2.0):
            candidate = np.maximum(z_star + delta, 0.0)
            assert best <= system.objective(pi, candidate) + 1e-6

    def test_zero_probabilities_give_zero_z(self, small_model):
        system = VectorizedSystem(small_model)
        pi = np.zeros(system.num_pairs)
        assert np.allclose(system.optimal_z(pi), 0.0)


class TestProjection:
    def test_projection_is_feasible(self, small_model, rng):
        system = VectorizedSystem(small_model)
        lower = np.zeros(system.num_files)
        upper = system.k_values.copy()
        for _ in range(10):
            point = rng.normal(0.5, 1.0, size=system.num_pairs)
            projected = system.project(point, lower, upper)
            assert np.all(projected >= -1e-9)
            assert np.all(projected <= 1.0 + 1e-9)
            sums = system.file_sums(projected)
            assert np.all(sums <= upper + 1e-6)
            assert np.all(sums >= lower - 1e-6)
            assert projected.sum() >= system.required_total() - 1e-6

    def test_projection_is_idempotent(self, small_model, rng):
        system = VectorizedSystem(small_model)
        lower = np.zeros(system.num_files)
        upper = system.k_values.copy()
        point = rng.normal(0.5, 1.0, size=system.num_pairs)
        once = system.project(point, lower, upper)
        twice = system.project(once, lower, upper)
        assert np.allclose(once, twice, atol=1e-6)

    def test_projection_of_feasible_point_is_identity(self, small_model):
        system = VectorizedSystem(small_model)
        lower = np.zeros(system.num_files)
        upper = system.k_values.copy()
        pi = system.initial_pi()  # feasible with d = 0
        projected = system.project(pi, lower, upper)
        assert np.allclose(projected, pi, atol=1e-6)

    def test_projection_respects_equal_bounds(self, small_model):
        # With per-file totals pinned at 2 the cache must hold one chunk per
        # file, so the capacity needs to be at least 6 for feasibility.
        system = VectorizedSystem(small_model.copy_with_cache_capacity(6))
        lower = np.full(system.num_files, 2.0)
        upper = np.full(system.num_files, 2.0)
        projected = system.project(system.initial_pi() * 0.1, lower, upper)
        assert np.allclose(system.file_sums(projected), 2.0, atol=1e-5)

    def test_projection_infeasible_bounds_raise(self, small_model):
        system = VectorizedSystem(small_model)
        lower = np.full(system.num_files, 3.0)
        upper = np.full(system.num_files, 2.0)
        with pytest.raises(InfeasibleError):
            system.project(system.initial_pi(), lower, upper)

    def test_projection_infeasible_capacity_raises(self, small_model):
        # Force an impossible situation: every file's total capped below what
        # the cache constraint requires.
        system = VectorizedSystem(small_model.copy_with_cache_capacity(0))
        lower = np.zeros(system.num_files)
        upper = np.full(system.num_files, 1.0)  # < k = 3 per file, C = 0
        with pytest.raises(InfeasibleError):
            system.project(system.initial_pi(), lower, upper)

    def test_projection_minimises_distance_on_simple_case(self, small_model):
        # With generous capacity, the projection of an in-box point that
        # violates nothing must be the point itself; moving any coordinate
        # would only add distance.
        system = VectorizedSystem(small_model.copy_with_cache_capacity(18))
        lower = np.zeros(system.num_files)
        upper = system.k_values.copy()
        point = np.full(system.num_pairs, 0.2)
        projected = system.project(point, lower, upper)
        assert np.allclose(projected, point, atol=1e-9)

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_property_projection_feasibility(self, small_model, seed):
        system = VectorizedSystem(small_model)
        rng = np.random.default_rng(seed)
        point = rng.normal(0.0, 2.0, size=system.num_pairs)
        lower = np.zeros(system.num_files)
        upper = system.k_values.copy()
        projected = system.project(point, lower, upper)
        sums = system.file_sums(projected)
        assert np.all(projected >= -1e-9) and np.all(projected <= 1 + 1e-9)
        assert np.all(sums <= upper + 1e-5)
        assert projected.sum() >= system.required_total() - 1e-5


class TestRebind:
    def test_rebind_updates_capacity_and_rates(self, small_model):
        system = VectorizedSystem(small_model)
        doubled = small_model.copy_with_arrival_rates(
            [spec.arrival_rate * 2.0 for spec in small_model.files]
        ).copy_with_cache_capacity(small_model.cache_capacity + 3)
        assert system.rebind(doubled) is system
        assert system.cache_capacity == small_model.cache_capacity + 3
        assert np.allclose(
            system.arrival_rates,
            [spec.arrival_rate * 2.0 for spec in small_model.files],
        )
        # Pair aggregations were refreshed alongside the rates.
        assert np.allclose(system.pair_rates, system.arrival_rates[system.pair_file])

    def test_rebind_rejects_different_placements(self, small_model):
        from repro.core.model import FileSpec, StorageSystemModel
        from repro.exceptions import OptimizationError

        system = VectorizedSystem(small_model)
        files = []
        for spec in small_model.files:
            placement = list(spec.placement)
            placement[0], placement[-1] = placement[-1], placement[0]
            # Same node multiset per file but rotated order across files
            # changes the compiled pair structure for at least one file.
            files.append(
                FileSpec(
                    file_id=spec.file_id,
                    n=spec.n,
                    k=spec.k,
                    placement=placement,
                    arrival_rate=spec.arrival_rate,
                    chunk_size=spec.chunk_size,
                )
            )
        other = StorageSystemModel(
            services=small_model.services,
            files=files,
            cache_capacity=small_model.cache_capacity,
        )
        with pytest.raises(OptimizationError):
            system.rebind(other)

    def test_rebind_rejects_different_file_count(self, small_model):
        from repro.core.model import StorageSystemModel
        from repro.exceptions import OptimizationError

        system = VectorizedSystem(small_model)
        fewer = StorageSystemModel(
            services=small_model.services,
            files=small_model.files[:-1],
            cache_capacity=small_model.cache_capacity,
        )
        with pytest.raises(OptimizationError):
            system.rebind(fewer)
