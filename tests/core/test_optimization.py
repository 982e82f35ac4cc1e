"""Tests for the Prob Pi solver and Algorithm 1."""

from __future__ import annotations

import numpy as np
import pytest

from scalar_oracle import solve_slsqp

from repro.baselines.static import no_cache_placement
from repro.core.algorithm import CacheOptimizer
from repro.core.placement import compare_placements, placement_histogram
from repro.core.prob_pi import solve_projected_gradient
from repro.core.vectorized import SolutionState, VectorizedSystem
from repro.exceptions import OptimizationError


class TestProbPiSolvers:
    def _setup(self, model):
        system = VectorizedSystem(model)
        pi = system.initial_pi()
        z = system.optimal_z(pi)
        lower = np.zeros(system.num_files)
        upper = system.k_values.copy()
        return system, pi, z, lower, upper

    def test_projected_gradient_decreases_objective(self, small_model):
        system, pi, z, lower, upper = self._setup(small_model)
        start = system.objective(pi, z)
        result = solve_projected_gradient(system, z, lower, upper, initial_pi=pi)
        assert result.objective <= start + 1e-9
        # Feasibility of the result.
        sums = system.file_sums(result.pi)
        assert np.all(result.pi >= -1e-9) and np.all(result.pi <= 1 + 1e-9)
        assert np.all(sums <= upper + 1e-5)
        assert result.pi.sum() >= system.required_total() - 1e-5

    def test_solvers_agree_on_small_instance(self, small_model):
        system, pi, z, lower, upper = self._setup(small_model)
        pgd = solve_projected_gradient(system, z, lower, upper, initial_pi=pi, max_iterations=300)
        reference = solve_slsqp(system, z, lower, upper, initial_pi=pi)
        assert reference.converged
        # Measured relative gap on this instance: 1.5e-4.
        gap = abs(pgd.objective - reference.objective)
        assert gap <= 1e-3 * max(abs(reference.objective), 1.0)

    def test_respects_fixed_per_file_totals(self, small_model):
        system, pi, z, lower, upper = self._setup(small_model)
        lower = lower.copy()
        upper = upper.copy()
        lower[0] = upper[0] = 2.0  # pin file-0 to exactly one cached chunk
        result = solve_projected_gradient(system, z, lower, upper, initial_pi=pi)
        sums = system.file_sums(result.pi)
        assert sums[0] == pytest.approx(2.0, abs=1e-4)


class TestAlgorithm1:
    def test_optimizer_produces_valid_placement(self, small_model):
        outcome = CacheOptimizer(small_model, tolerance=0.001).optimize()
        placement = outcome.placement
        placement.validate_against(small_model)
        assert placement.total_cached_chunks <= small_model.cache_capacity
        # Integer allocations and integral storage fetches per file.
        for entry in placement.files:
            total_pi = sum(entry.scheduling_probabilities.values())
            assert total_pi == pytest.approx(entry.k - entry.cached_chunks, abs=1e-3)

    def test_objective_trace_is_monotone(self, small_model):
        trace = CacheOptimizer(small_model, tolerance=0.001).optimize().objective_trace
        assert all(b <= a + 1e-6 for a, b in zip(trace, trace[1:]))

    def test_caching_never_hurts(self, small_model):
        optimized = CacheOptimizer(small_model, tolerance=0.001).optimize().placement
        baseline = no_cache_placement(small_model)
        assert optimized.objective <= baseline.objective + 1e-6

    def test_more_cache_never_hurts(self, paper_like_model):
        small_cache = CacheOptimizer(paper_like_model, tolerance=0.01).optimize().placement
        bigger_model = paper_like_model.copy_with_cache_capacity(
            paper_like_model.cache_capacity * 2
        )
        big_cache = CacheOptimizer(bigger_model, tolerance=0.01).optimize().placement
        assert big_cache.objective <= small_cache.objective + 1e-3

    def test_full_cache_gives_near_zero_latency(self, small_model):
        full = small_model.copy_with_cache_capacity(small_model.max_cache_demand())
        placement = CacheOptimizer(full, tolerance=0.001).optimize().placement
        assert placement.total_cached_chunks == small_model.max_cache_demand()
        assert placement.objective == pytest.approx(0.0, abs=1e-6)

    def test_zero_cache_capacity(self, small_model):
        zero = small_model.copy_with_cache_capacity(0)
        placement = CacheOptimizer(zero, tolerance=0.001).optimize().placement
        assert placement.total_cached_chunks == 0

    def test_warm_start_accepted(self, small_model):
        first = CacheOptimizer(small_model, tolerance=0.001).optimize()
        warm = SolutionState(
            probabilities=[
                dict(entry.scheduling_probabilities) for entry in first.placement.files
            ],
            z_values=[0.0] * small_model.num_files,
        )
        second = CacheOptimizer(small_model, tolerance=0.001).optimize(initial_state=warm)
        assert second.placement.objective <= first.placement.objective * 1.05

    def test_hot_files_get_cache_priority(self, paper_like_model):
        placement = CacheOptimizer(paper_like_model, tolerance=0.01).optimize().placement
        cached = placement.cached_chunks()
        rates = {spec.file_id: spec.arrival_rate for spec in paper_like_model.files}
        mean_rate_cached = np.mean(
            [rates[f] for f, d in cached.items() if d > 0] or [0.0]
        )
        mean_rate_uncached = np.mean(
            [rates[f] for f, d in cached.items() if d == 0] or [0.0]
        )
        # Cached files should not be systematically colder than uncached ones.
        assert mean_rate_cached >= mean_rate_uncached * 0.8

    def test_single_file_rounding_variant(self, small_model):
        outcome = CacheOptimizer(
            small_model, tolerance=0.01, rounding_fraction=0.0
        ).optimize()
        outcome.placement.validate_against(small_model)

    def test_invalid_parameters(self, small_model):
        with pytest.raises(OptimizationError):
            CacheOptimizer(small_model, tolerance=0.0)
        with pytest.raises(OptimizationError):
            CacheOptimizer(small_model, rounding_fraction=1.5)

    def test_overloaded_system_still_uses_cache(self, small_model):
        # Scale the arrival rates so the uncached system would be unstable;
        # the optimizer must still fill the cache (which restores stability
        # or at least strictly reduces load).
        hot = small_model.copy_with_arrival_rates(
            [spec.arrival_rate * 20 for spec in small_model.files]
        )
        placement = CacheOptimizer(hot, tolerance=0.01).optimize().placement
        assert placement.total_cached_chunks == hot.cache_capacity


class TestPlacementHelpers:
    def test_histogram_and_compare(self, small_model):
        placement = CacheOptimizer(small_model, tolerance=0.001).optimize().placement
        histogram = placement_histogram(placement)
        assert sum(count for count in histogram.values()) == small_model.num_files
        baseline = no_cache_placement(small_model)
        delta = compare_placements(baseline, placement)
        assert sum(delta.values()) == placement.total_cached_chunks

    def test_pool_assignment_partition(self, small_model):
        placement = CacheOptimizer(small_model, tolerance=0.001).optimize().placement
        pools = placement.pool_assignment()
        assigned = [f for files in pools.values() for f in files]
        assert sorted(assigned) == sorted(spec.file_id for spec in small_model.files)

    def test_summary_and_lookup(self, small_model):
        placement = CacheOptimizer(small_model, tolerance=0.001).optimize().placement
        text = placement.summary()
        assert "CachePlacement" in text and "file-0" in text
        entry = placement.placement_for("file-0")
        assert entry.equivalent_code == (entry.n, entry.k - entry.cached_chunks)
        assert placement.mean_latency_bound() > 0
