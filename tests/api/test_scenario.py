"""Tests for the Scenario dataclass and the component registries."""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import (
    BASELINES,
    ENGINES,
    SOLVERS,
    WORKLOADS,
    Registry,
    Scenario,
    get_baseline,
    get_engine,
    get_experiment,
    get_solver,
    get_workload,
    list_baselines,
    list_engines,
    list_experiments,
    list_solvers,
    list_workloads,
    register_solver,
)
from repro.exceptions import RegistryError, ScenarioError, SproutError


class TestScenarioValidation:
    def test_defaults_are_valid(self):
        scenario = Scenario()
        assert scenario.workload == "paper_default"
        assert scenario.engine == "batch"
        assert scenario.solver == "projected_gradient"
        assert scenario.uses_optimizer
        assert scenario.n == 7 and scenario.k == 4

    def test_frozen(self):
        scenario = Scenario()
        with pytest.raises(dataclasses.FrozenInstanceError):
            scenario.engine = "event"

    def test_unknown_engine_lists_known_names(self):
        with pytest.raises(RegistryError, match="unknown engine 'warp'") as excinfo:
            Scenario(engine="warp")
        assert "batch" in str(excinfo.value) and "event" in str(excinfo.value)

    def test_unknown_solver_and_workload_and_policy(self):
        with pytest.raises(RegistryError, match="unknown solver"):
            Scenario(solver="newton")
        with pytest.raises(RegistryError, match="unknown workload"):
            Scenario(workload="zipf")
        with pytest.raises(RegistryError, match="unknown baseline"):
            Scenario(policy="belady")

    def test_baseline_policy_is_valid(self):
        scenario = Scenario(policy="no_cache")
        assert not scenario.uses_optimizer

    @pytest.mark.parametrize(
        "fields",
        [
            {"num_files": 0},
            {"cache_capacity": -1},
            {"code": (4, 7)},
            {"code": (7, 0)},
            {"code": (7, 4, 2)},
            {"code": 74},
            {"code": "74"},
            {"code": (None, 4)},
            {"scale": "huge"},
            {"tolerance": 0.0},
            {"rate_scale": 0.0},
            {"horizon": -1.0},
            {"warmup_fraction": 1.0},
            {"seed": "2016"},
        ],
    )
    def test_invalid_fields_rejected(self, fields):
        with pytest.raises(ScenarioError):
            Scenario(**fields)

    @pytest.mark.parametrize(
        "solver_params", [{"pi_solver": "frank_wolfe"}, {"bogus": 1}]
    )
    def test_unknown_solver_params_rejected_at_construction(self, solver_params):
        unknown = next(iter(solver_params))
        with pytest.raises(ScenarioError, match=f"{unknown}.*pi_max_iterations"):
            Scenario(solver_params=solver_params)

    def test_solver_params_mirror_cache_optimizer(self):
        import inspect

        from repro.core.algorithm import CacheOptimizer

        accepted = get_solver("projected_gradient").accepted_params()
        options = inspect.signature(CacheOptimizer).parameters
        assert set(accepted) == set(options) - {"model", "tolerance"}
        registry_options = inspect.signature(
            get_solver("projected_gradient").optimize
        ).parameters
        for name, option in options.items():
            if name != "model":
                assert registry_options[name].default == option.default
        Scenario(solver_params={"pi_max_iterations": 60, "rounding_fraction": 0.0})

    def test_effective_horizon_follows_scale(self):
        assert Scenario(scale="fast").effective_horizon == pytest.approx(200_000.0)
        assert Scenario(scale="paper").effective_horizon == pytest.approx(2_000_000.0)
        assert Scenario(horizon=123.0).effective_horizon == pytest.approx(123.0)

    def test_replace_revalidates(self):
        scenario = Scenario()
        assert scenario.replace(engine="event").engine == "event"
        with pytest.raises(RegistryError):
            scenario.replace(engine="warp")


class TestScenarioSerialization:
    def test_dict_round_trip(self):
        scenario = Scenario(
            workload="ten_file",
            num_files=10,
            cache_capacity=10,
            policy="whole_file",
            engine="event",
            seed=7,
            scale="paper",
            rate_scale=65.0,
            workload_params={"placement_mode": "split"},
        )
        data = scenario.to_dict()
        rebuilt = Scenario.from_dict(data)
        assert rebuilt == scenario
        # to_dict must be JSON-safe: plain types only.
        assert data["code"] == [7, 4]
        assert isinstance(data["workload_params"], dict)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ScenarioError, match="unknown Scenario fields"):
            Scenario.from_dict({"num_files": 10, "files": 10})
        # The kernels have one (NumPy) path: no backend field, no alias.
        with pytest.raises(ScenarioError, match="unknown Scenario fields"):
            Scenario.from_dict({"num_files": 10, "backend": "numpy"})

    def test_describe_mentions_components(self):
        text = Scenario(policy="exact").describe()
        assert "exact" in text and "paper_default" in text

    def test_scenarios_are_hashable(self):
        base = Scenario(num_files=12, cache_capacity=6, workload_params={"num_nodes": 9})
        same = Scenario(num_files=12, cache_capacity=6, workload_params={"num_nodes": 9})
        other = base.replace(seed=1)
        assert base == same and hash(base) == hash(same)
        assert {base, same, other} == {base, other}
        # hash/eq contract holds for value-equal params of different types
        float_params = Scenario(
            num_files=12, cache_capacity=6, workload_params={"num_nodes": 9.0}
        )
        assert base == float_params and hash(base) == hash(float_params)


class TestRegistries:
    def test_builtin_components_registered(self):
        from repro.api import list_policies

        assert set(list_solvers()) == {"projected_gradient"}
        assert set(list_engines()) == {"event", "batch"}
        assert set(list_baselines()) == {"no_cache", "whole_file", "proportional", "exact"}
        assert set(list_workloads()) == {
            "paper_default", "ten_file", "diurnal", "flash_crowd", "drift", "trace",
        }
        assert set(list_policies()) == {"lru", "functional_static"}
        assert set(list_experiments()) == {
            "fig3", "fig4", "fig5", "fig6", "fig7", "fig9", "fig10", "fig11",
            "fig12", "fig13", "fig14", "tables", "scenario",
        }
        from repro.api import list_controllers, list_faults

        assert set(list_faults()) == {
            "osd_crash", "degraded_read", "straggler", "repair_traffic",
        }
        assert set(list_controllers()) == {"online", "cold", "periodic"}

    def test_lookups_return_specs(self):
        assert get_solver("projected_gradient").name == "projected_gradient"
        assert get_engine("batch").description
        assert callable(get_baseline("no_cache").build)
        assert callable(get_workload("paper_default").build)
        assert get_experiment("fig4").title.startswith("Latency")

    def test_unknown_experiment_error(self):
        with pytest.raises(RegistryError, match="unknown experiment 'fig8'"):
            get_experiment("fig8")

    def test_registry_error_is_sprout_error(self):
        with pytest.raises(SproutError):
            get_engine("warp")

    def test_duplicate_registration_rejected(self):
        registry = Registry("widget")
        registry.register("a", 1)
        with pytest.raises(RegistryError, match="already registered"):
            registry.register("a", 2)
        registry.register("a", 2, replace=True)
        assert registry.get("a") == 2

    def test_registry_container_protocol(self):
        assert "batch" in ENGINES
        assert "warp" not in ENGINES
        assert len(SOLVERS) == 1
        assert list(iter(WORKLOADS)) == sorted(list_workloads())
        assert BASELINES.kind == "baseline"

    def test_plugging_in_a_solver_makes_scenarios_valid(self):
        @register_solver("custom_test_solver", description="test-only stub")
        def optimize(model, **kwargs):  # pragma: no cover - never run
            raise NotImplementedError

        try:
            scenario = Scenario(solver="custom_test_solver")
            assert scenario.solver == "custom_test_solver"
        finally:
            SOLVERS.unregister("custom_test_solver")
        with pytest.raises(RegistryError):
            Scenario(solver="custom_test_solver")


class TestExperimentSpec:
    def test_scales_have_fast_and_paper(self):
        for name in list_experiments():
            spec = get_experiment(name)
            assert {"fast", "paper"} <= set(spec.scale_names())

    def test_unknown_scale_rejected(self):
        with pytest.raises(RegistryError, match="has no scale"):
            get_experiment("fig4").kwargs_for("gigantic")

    def test_kwargs_for_returns_copy(self):
        spec = get_experiment("fig4")
        kwargs = spec.kwargs_for("fast")
        kwargs["num_files"] = -1
        assert spec.kwargs_for("fast")["num_files"] == 100

    def test_accepts_reflects_signature(self):
        assert get_experiment("fig7").accepts("engine")
        assert not get_experiment("fig3").accepts("engine")
        assert get_experiment("fig9").accepts("seed")

    def test_unsupported_uniform_flags_are_dropped(self):
        # fig3 takes no engine parameter; a uniform CLI flag must not crash.
        result = get_experiment("fig3").run(
            scale="fast", cache_sizes=(10,), num_files=10, engine="event"
        )
        assert len(result.curves) == 1

    def test_unknown_override_is_an_error(self):
        # Typo'd parameters must not silently run with defaults.
        with pytest.raises(RegistryError, match="does not accept parameter"):
            get_experiment("fig3").run(scale="fast", cache_sizez=(10,))
