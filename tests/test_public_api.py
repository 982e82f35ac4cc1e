"""Tests for the package-level public API and the exception hierarchy."""

from __future__ import annotations

import pytest

import repro
from repro import exceptions


class TestPublicApi:
    def test_version_exposed(self):
        assert repro.__version__ == "3.1.0"

    def test_top_level_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_api_facade_exports_resolve(self):
        import repro.api as api

        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_facade_reexported_at_top_level(self):
        assert repro.Scenario is repro.api.Scenario
        assert repro.run_scenario is repro.api.run_scenario
        assert repro.run_experiment is repro.api.run_experiment

    def test_subpackage_exports_resolve(self):
        import repro.baselines as baselines
        import repro.cluster as cluster
        import repro.erasure as erasure
        import repro.queueing as queueing
        import repro.scheduling as scheduling
        import repro.simulation as simulation
        import repro.workloads as workloads

        for module in (erasure, queueing, scheduling, simulation, baselines, cluster, workloads):
            for name in module.__all__:
                assert getattr(module, name) is not None

    def test_quickstart_snippet_from_docstring(self):
        # The module docstring promises this three-line workflow.
        from repro import Scenario, run_scenario

        result = run_scenario(
            Scenario(num_files=10, cache_capacity=5, tolerance=0.05, simulate=False)
        )
        assert result.placement.total_cached_chunks <= 5
        assert "analytical bound" in result.summary()


class TestExceptionHierarchy:
    def test_all_errors_derive_from_sprout_error(self):
        leaf_exceptions = [
            exceptions.ErasureCodeError,
            exceptions.InsufficientChunksError,
            exceptions.GaloisFieldError,
            exceptions.ModelError,
            exceptions.StabilityError,
            exceptions.OptimizationError,
            exceptions.InfeasibleError,
            exceptions.SimulationError,
            exceptions.ClusterError,
            exceptions.PoolNotFoundError,
            exceptions.ObjectNotFoundError,
            exceptions.CacheError,
            exceptions.WorkloadError,
            exceptions.RegistryError,
            exceptions.ScenarioError,
        ]
        for exception_type in leaf_exceptions:
            assert issubclass(exception_type, exceptions.SproutError)

    def test_specialisations(self):
        assert issubclass(exceptions.InsufficientChunksError, exceptions.ErasureCodeError)
        assert issubclass(exceptions.StabilityError, exceptions.ModelError)
        assert issubclass(exceptions.InfeasibleError, exceptions.OptimizationError)
        assert issubclass(exceptions.ObjectNotFoundError, exceptions.ClusterError)

    def test_catching_base_class(self):
        with pytest.raises(exceptions.SproutError):
            raise exceptions.CacheError("boom")
