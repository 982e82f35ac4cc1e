"""End-to-end tests of the run_scenario facade and RunResult serialization,
including parity of the registry path with the legacy per-module API."""

from __future__ import annotations

import json

import pytest

from repro.api import RunResult, Scenario, Session, get_experiment, run_scenario
from repro.core.algorithm import CacheOptimizer
from repro.experiments import fig4_cache_size
from repro.workloads.catalog import paper_default_model


@pytest.fixture(scope="module")
def small_run() -> RunResult:
    scenario = Scenario(
        num_files=20, cache_capacity=10, horizon=50_000.0, seed=2016
    )
    return run_scenario(scenario)


class TestRunScenario:
    def test_end_to_end_pipeline(self, small_run):
        assert small_run.objective > 0.0
        placement = small_run.placement
        assert placement.total_cached_chunks <= placement.cache_capacity
        assert small_run.optimization is not None
        assert small_run.optimization.converged
        assert small_run.simulation is not None
        assert small_run.simulated_mean_latency > 0.0
        assert 0.0 <= small_run.cache_chunk_fraction <= 1.0
        assert {"build_model", "optimize", "simulate", "total"} <= set(small_run.timings)

    def test_summary_is_readable(self, small_run):
        text = small_run.summary()
        assert "analytical bound" in text
        assert "Algorithm 1" in text
        assert "simulated (batch)" in text

    def test_json_serialization_round_trips(self, small_run, tmp_path):
        payload = json.loads(small_run.to_json())
        assert payload["scenario"]["num_files"] == 20
        assert payload["objective"] == pytest.approx(small_run.objective)
        assert payload["optimization"]["converged"] is True
        assert payload["simulation"]["engine"] == "batch"
        assert payload["simulation"]["requests_completed"] > 0
        path = small_run.write_json(tmp_path / "run.json")
        assert json.loads(path.read_text()) == payload

    def test_keyword_facade_and_overrides(self):
        result = run_scenario(
            num_files=12, cache_capacity=6, simulate=False, tolerance=0.05
        )
        assert result.simulation is None
        assert result.scenario.num_files == 12
        base = Scenario(num_files=12, cache_capacity=6, simulate=False, tolerance=0.05)
        overridden = run_scenario(base, policy="no_cache")
        assert overridden.scenario.policy == "no_cache"

    def test_seeded_runs_are_reproducible(self):
        scenario = Scenario(num_files=15, cache_capacity=8, horizon=30_000.0)
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first.objective == pytest.approx(second.objective)
        assert first.simulated_mean_latency == pytest.approx(
            second.simulated_mean_latency
        )

    def test_engines_are_statistically_consistent(self):
        scenario = Scenario(num_files=15, cache_capacity=8, horizon=100_000.0)
        batch = run_scenario(scenario)
        event = run_scenario(scenario.replace(engine="event"))
        assert batch.simulated_mean_latency == pytest.approx(
            event.simulated_mean_latency, rel=0.25
        )

    def test_baseline_policies_run_without_optimizer(self):
        for policy in ("no_cache", "whole_file", "proportional", "exact"):
            result = run_scenario(
                Scenario(num_files=12, cache_capacity=8, policy=policy, simulate=False)
            )
            assert result.optimization is None
            assert "baseline" in result.timings
            if policy == "no_cache":
                assert result.placement.total_cached_chunks == 0

    def test_optimal_beats_no_cache_bound(self):
        shared = dict(num_files=20, cache_capacity=20, simulate=False)
        optimal = run_scenario(Scenario(**shared))
        no_cache = run_scenario(Scenario(policy="no_cache", **shared))
        assert optimal.objective <= no_cache.objective + 1e-9

    def test_ten_file_workload(self):
        result = run_scenario(
            Scenario(
                workload="ten_file",
                num_files=10,
                cache_capacity=10,
                rate_scale=65.0,
                simulate=False,
                tolerance=0.001,
            )
        )
        assert len(result.placement.files) == 10

    def test_session_keeps_history(self):
        session = Session()
        scenario = Scenario(num_files=10, cache_capacity=5, simulate=False)
        session.run(scenario)
        session.run(scenario.replace(policy="no_cache"))
        assert len(session.results) == 2
        assert session.results[0].scenario.uses_optimizer
        assert not session.results[1].scenario.uses_optimizer


class TestParityWithLegacyApi:
    """The redesigned surface must reproduce the pre-redesign outputs."""

    def test_run_scenario_matches_direct_optimizer(self):
        scenario = Scenario(num_files=25, cache_capacity=12, simulate=False)
        via_facade = run_scenario(scenario)
        model = paper_default_model(num_files=25, cache_capacity=12, seed=2016)
        direct = CacheOptimizer(model, tolerance=0.01).optimize()
        assert via_facade.objective == pytest.approx(direct.placement.objective)
        assert (
            via_facade.placement.cached_chunks() == direct.placement.cached_chunks()
        )

    def test_registry_fig4_matches_legacy_module_run(self):
        kwargs = dict(cache_sizes=(0, 30, 60), num_files=30)
        via_registry = get_experiment("fig4").run(scale="fast", **kwargs)
        legacy = fig4_cache_size.run(**kwargs)
        assert via_registry.latencies() == legacy.latencies()
        assert [p.cached_chunks for p in via_registry.points] == [
            p.cached_chunks for p in legacy.points
        ]

    def test_solver_registry_matches_direct_solver_choice(self):
        from repro.api import get_solver

        model = paper_default_model(num_files=15, cache_capacity=8, seed=4)
        via_registry = get_solver("projected_gradient").optimize(model, tolerance=0.05)
        direct = CacheOptimizer(model, tolerance=0.05).optimize()
        assert via_registry.final_objective == direct.final_objective
        assert (
            via_registry.placement.cached_chunks() == direct.placement.cached_chunks()
        )
