"""``repro.api`` -- the single public entry point of the reproduction.

The facade is declarative: describe a run as a frozen
:class:`~repro.api.scenario.Scenario` (workload, erasure code, cache
policy, solver, engine, seed, scale), execute it with
:func:`~repro.api.session.run_scenario`, and get a typed
:class:`~repro.api.session.RunResult` with uniform JSON serialization::

    from repro.api import Scenario, run_scenario

    result = run_scenario(Scenario(num_files=60, cache_capacity=30))
    print(result.summary())

Swappable components live in named registries -- solvers, simulation
engines, baseline policies, workload builders and the paper's experiments
-- and new backends register with a decorator::

    from repro.api import register_baseline

    @register_baseline("my_policy")
    def build(model):
        return some_cache_placement

The figures and tables of the paper are registered
:class:`~repro.api.experiments.ExperimentSpec` entries with per-scale
parameter sets; run them by name::

    from repro.api import run_experiment

    fig4 = run_experiment("fig4", scale="fast")
"""

from repro.api.experiments import (
    ExperimentSpec,
    get_experiment,
    register_experiment,
    run_experiment,
)
from repro.api.registry import (
    BASELINES,
    CONTROLLERS,
    ENGINES,
    EXPERIMENTS,
    FAULTS,
    POLICIES,
    SOLVERS,
    WORKLOADS,
    BaselineSpec,
    ControllerSpec,
    EngineSpec,
    FaultSpec,
    PolicySpec,
    Registry,
    SolverSpec,
    WorkloadSpec,
    get_baseline,
    get_controller,
    get_engine,
    get_fault,
    get_policy,
    get_solver,
    get_workload,
    list_baselines,
    list_controllers,
    list_engines,
    list_experiments,
    list_faults,
    list_policies,
    list_solvers,
    list_workloads,
    register_baseline,
    register_controller,
    register_engine,
    register_fault,
    register_policy,
    register_solver,
    register_workload,
)
from repro.api.scenario import OPTIMAL_POLICY, SCALES, Scenario
from repro.api.serialize import json_dumps, to_jsonable, write_json
from repro.api.session import CachedRunResult, RunResult, Session, run_scenario
from repro.exec import (
    CacheStats,
    ResultCache,
    SweepSpec,
    available_cpus,
    default_cache,
    default_cache_dir,
    resolve_cache,
    spawn_point_seeds,
    sweep_map,
    sweep_scan,
)

__all__ = [
    # scenario + facade
    "Scenario",
    "Session",
    "RunResult",
    "CachedRunResult",
    "run_scenario",
    "OPTIMAL_POLICY",
    "SCALES",
    # parallel execution + result cache (repro.exec)
    "SweepSpec",
    "sweep_map",
    "sweep_scan",
    "available_cpus",
    "spawn_point_seeds",
    "ResultCache",
    "CacheStats",
    "default_cache",
    "default_cache_dir",
    "resolve_cache",
    # experiments
    "ExperimentSpec",
    "register_experiment",
    "get_experiment",
    "run_experiment",
    "list_experiments",
    # registries
    "Registry",
    "SolverSpec",
    "EngineSpec",
    "BaselineSpec",
    "WorkloadSpec",
    "PolicySpec",
    "FaultSpec",
    "ControllerSpec",
    "SOLVERS",
    "ENGINES",
    "BASELINES",
    "WORKLOADS",
    "POLICIES",
    "FAULTS",
    "CONTROLLERS",
    "EXPERIMENTS",
    "register_solver",
    "register_engine",
    "register_baseline",
    "register_workload",
    "register_policy",
    "register_fault",
    "register_controller",
    "get_solver",
    "get_engine",
    "get_baseline",
    "get_workload",
    "get_policy",
    "get_fault",
    "get_controller",
    "list_solvers",
    "list_engines",
    "list_baselines",
    "list_workloads",
    "list_policies",
    "list_faults",
    "list_controllers",
    # serialization
    "to_jsonable",
    "json_dumps",
    "write_json",
]
