"""Pluggable registries behind the :mod:`repro.api` facade.

Every swappable component of the pipeline -- Prob-Pi solver, simulation
engine, baseline caching policy, workload builder and experiment -- lives in
a named :class:`Registry`.  A :class:`~repro.api.scenario.Scenario` refers to
components purely by name, so new backends plug in with a decorator instead
of a code change in the facade:

    from repro.api import register_engine

    @register_engine("sharded", description="sharded multi-process engine")
    def simulate(model, placement, config):
        ...
        return SimulationResult(...)

Built-in components (Algorithm 1's projected-gradient solver, the event/batch
simulation engines, the static/exact baselines and the paper's workloads) are
registered at import time; the experiment registry is populated lazily by
importing :mod:`repro.experiments`, whose modules register themselves.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.exceptions import RegistryError, ScenarioError

T = TypeVar("T")


class Registry(Generic[T]):
    """A named mapping from component names to registered specs.

    Parameters
    ----------
    kind:
        Human-readable component kind (``"solver"``, ``"engine"``, ...),
        used in error messages and listings.
    populate:
        Optional callable invoked once, on first lookup, to self-populate
        the registry (used by the experiment registry, whose entries live in
        the :mod:`repro.experiments` modules and register on import).
    """

    def __init__(
        self,
        kind: str,
        populate: Optional[Callable[[], None]] = None,
        plural: Optional[str] = None,
    ):
        self._kind = kind
        self._plural = plural if plural is not None else f"{kind}s"
        self._entries: Dict[str, T] = {}
        self._populate = populate
        self._populating = False

    @property
    def kind(self) -> str:
        """The component kind this registry holds."""
        return self._kind

    def _ensure_populated(self) -> None:
        if self._populate is not None and not self._populating:
            self._populating = True
            try:
                self._populate()
            finally:
                self._populating = False
            # Only drop the callback on success: a failed populate (e.g. a
            # transient ImportError) propagates and is retried next lookup
            # instead of leaving a silently empty registry.
            self._populate = None

    def register(self, name: str, entry: T, replace: bool = False) -> T:
        """Register ``entry`` under ``name``; duplicate names are an error."""
        if not name or not isinstance(name, str):
            raise RegistryError(f"{self._kind} names must be non-empty strings, got {name!r}")
        if name in self._entries and not replace:
            raise RegistryError(
                f"{self._kind} {name!r} is already registered; pass replace=True to override"
            )
        self._entries[name] = entry
        return entry

    def unregister(self, name: str) -> None:
        """Remove a registered entry (mostly for tests and plugin teardown)."""
        self._entries.pop(name, None)

    def get(self, name: str) -> T:
        """Look up a component by name, with the known names in the error."""
        self._ensure_populated()
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(sorted(self._entries)) or "<none>"
            raise RegistryError(
                f"unknown {self._kind} {name!r}; registered {self._plural}: {known}"
            ) from None

    def names(self) -> List[str]:
        """All registered names, sorted."""
        self._ensure_populated()
        return sorted(self._entries)

    def items(self) -> List[Tuple[str, T]]:
        """``(name, entry)`` pairs, sorted by name."""
        self._ensure_populated()
        return sorted(self._entries.items())

    def __contains__(self, name: object) -> bool:
        self._ensure_populated()
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        self._ensure_populated()
        return len(self._entries)

    def __repr__(self) -> str:
        return f"Registry(kind={self._kind!r}, names={self.names()})"


# ----------------------------------------------------------------------
# Component specs
# ----------------------------------------------------------------------


class _KeywordParams:
    """Eager validation of a spec's ``*_params`` against its callable.

    The accepted names are the keyword parameters of the callable named by
    ``_params_callable``, after its first ``_params_skip`` parameters (the
    arguments the pipeline passes positionally) and minus
    ``_params_reserved`` (keywords the pipeline passes itself).  A callable
    with a ``**kwargs`` catch-all, or one that cannot be introspected,
    accepts anything.  ``_params_kind`` and ``_params_field`` name the
    component and the scenario field in the error message.
    """

    name: str
    _params_callable = ""
    _params_skip = 1
    _params_reserved: Tuple[str, ...] = ()
    _params_kind = ""
    _params_field = ""

    def _signature_parameters(self) -> Optional[List[inspect.Parameter]]:
        try:
            signature = inspect.signature(getattr(self, self._params_callable))
        except (TypeError, ValueError):  # builtins / C callables
            return None
        return list(signature.parameters.values())

    def accepted_params(self) -> Optional[Tuple[str, ...]]:
        """The parameter names the callable accepts (``None`` = any)."""
        parameters = self._signature_parameters()
        if parameters is None or any(
            parameter.kind is inspect.Parameter.VAR_KEYWORD
            for parameter in parameters
        ):
            return None
        return tuple(
            parameter.name
            for parameter in parameters[self._params_skip:]
            if parameter.kind
            in (
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                inspect.Parameter.KEYWORD_ONLY,
            )
            and parameter.name not in self._params_reserved
        )

    def validate_params(self, params: Any) -> None:
        """Fail fast with :class:`ScenarioError` on parameters not accepted."""
        if not params:
            return
        accepted = self.accepted_params()
        if accepted is None:
            return
        unknown = sorted(set(params) - set(accepted))
        if unknown:
            raise ScenarioError(
                f"{self._params_kind} {self.name!r} does not accept "
                f"{self._params_field} {unknown}; accepted parameters: "
                f"{sorted(accepted) or '<none>'}"
            )


@dataclass(frozen=True)
class SolverSpec(_KeywordParams):
    """A cache-optimization backend.

    ``optimize(model, **kwargs)`` must return an
    :class:`~repro.core.algorithm.OptimizationResult`; ``kwargs`` carry the
    scenario's ``tolerance``, optional ``warm_start`` / ``time_bin`` and any
    ``solver_params``.  The keyword names of ``optimize`` other than those
    three become the accepted ``solver_params``, validated eagerly at
    :class:`Scenario` construction.
    """

    _params_callable = "optimize"
    _params_reserved = ("tolerance", "warm_start", "time_bin")
    _params_kind = "solver"
    _params_field = "solver_params"

    name: str
    description: str
    optimize: Callable[..., Any]


@dataclass(frozen=True)
class EngineSpec:
    """A simulation backend.

    ``simulate(model, placement, config)`` must return a
    :class:`~repro.simulation.simulator.SimulationResult`.
    """

    name: str
    description: str
    simulate: Callable[..., Any]


@dataclass(frozen=True)
class BaselineSpec:
    """A baseline caching policy: ``build(model)`` returns a placement."""

    name: str
    description: str
    build: Callable[..., Any]


@dataclass(frozen=True)
class WorkloadSpec(_KeywordParams):
    """A workload builder behind the unified :class:`Workload` protocol.

    ``builder(scenario, **workload_params)`` returns a
    :class:`~repro.workloads.base.Workload` (or, for legacy builders, a
    bare :class:`~repro.core.model.StorageSystemModel`, coerced into a
    stationary workload).  Two builder styles are recognised:

    * *new-style* -- ``builder(scenario, *, param=..., ...)``: the
      scenario's ``workload_params`` are passed as keywords and validated
      eagerly against the signature at :class:`Scenario` construction.
    * *legacy* -- ``builder(scenario)`` (a single parameter): the builder
      reads ``scenario.workload_params`` itself; no eager validation.

    ``kind`` labels the workload family for listings: ``"stationary"``,
    ``"non-stationary"`` or ``"trace"``.
    """

    _params_callable = "builder"
    _params_kind = "workload"
    _params_field = "workload_params"

    name: str
    description: str
    builder: Callable[..., Any]
    kind: str = "stationary"

    @property
    def legacy(self) -> bool:
        """Whether the builder takes only the scenario (pre-protocol style)."""
        parameters = self._signature_parameters()
        if parameters is None:
            return True
        extra = parameters[1:]
        return not extra and not any(
            parameter.kind is inspect.Parameter.VAR_KEYWORD
            for parameter in parameters
        )

    def accepted_params(self) -> Optional[Tuple[str, ...]]:
        """The ``workload_params`` names the builder accepts.

        ``None`` means unconstrained: a legacy builder (which reads the
        params itself), an un-introspectable callable, or a builder with a
        ``**kwargs`` catch-all.
        """
        if self.legacy:
            return None
        return super().accepted_params()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def create(self, scenario: Any) -> Any:
        """Build the scenario's :class:`Workload` (protocol-coerced)."""
        from repro.workloads.base import as_workload

        if self.legacy:
            built = self.builder(scenario)
        else:
            built = self.builder(scenario, **dict(scenario.workload_params))
        return as_workload(built, name=self.name)

    def build(self, scenario: Any) -> Any:
        """Backwards-compatible view: the workload's stationary model."""
        return self.create(scenario).model()


@dataclass(frozen=True)
class FaultSpec(_KeywordParams):
    """A seeded fault-schedule generator for the failure suite.

    ``build(num_osds, horizon_ms, rng, service_ms, **params)`` must return a
    :class:`~repro.faults.base.FaultTimeline`: the compiled piecewise-constant
    cluster state (availability masks, straggler multipliers, background
    repair jobs) the replay engines consume.  ``rng`` is a seeded
    ``numpy.random.Generator`` and ``service_ms`` the replay's nominal chunk
    service time (the default sizing for repair jobs).  The keyword names
    after those four become the accepted ``fault_params``, validated eagerly
    at :class:`Scenario` construction.
    """

    _params_callable = "build"
    _params_skip = 4
    _params_kind = "fault generator"
    _params_field = "fault_params"

    name: str
    description: str
    build: Callable[..., Any]


@dataclass(frozen=True)
class ControllerSpec(_KeywordParams):
    """An online re-optimization controller for the control subsystem.

    ``build(model, **params)`` must return a
    :class:`~repro.control.controller.OnlineController` (or subclass) bound
    to the given :class:`~repro.core.model.StorageSystemModel`.  The
    keyword names after ``model`` become the accepted
    ``controller_params``, validated eagerly at :class:`Scenario`
    construction.
    """

    _params_callable = "build"
    _params_kind = "controller"
    _params_field = "controller_params"

    name: str
    description: str
    build: Callable[..., Any]


@dataclass(frozen=True)
class PolicySpec:
    """A chunk-caching policy backend.

    ``factory(capacity_chunks, chunks_per_file=None, **params)`` must return
    a :class:`~repro.policies.base.ChunkCachingPolicy`; ``params`` carry the
    scenario's ``policy_params`` (e.g. ``replication`` for LRU).
    """

    name: str
    description: str
    factory: Callable[..., Any]


# ----------------------------------------------------------------------
# The registries
# ----------------------------------------------------------------------


def _import_experiment_modules() -> None:
    # The experiment modules register themselves on import (see
    # repro.api.experiments.register_experiment).
    importlib.import_module("repro.experiments")


def _import_fault_generators() -> None:
    # The built-in generators register themselves on import; lazy like the
    # experiment registry so repro.faults can import repro.api.registry
    # without a cycle.
    importlib.import_module("repro.faults.generators")


def _import_controllers() -> None:
    # The built-in controllers register themselves on import; lazy so
    # repro.control can import repro.api.registry without a cycle.
    importlib.import_module("repro.control.builtins")


SOLVERS: Registry[SolverSpec] = Registry("solver")
ENGINES: Registry[EngineSpec] = Registry("engine")
BASELINES: Registry[BaselineSpec] = Registry("baseline")
WORKLOADS: Registry[WorkloadSpec] = Registry("workload")
POLICIES: Registry[PolicySpec] = Registry("cache policy", plural="cache policies")
FAULTS: Registry[FaultSpec] = Registry("fault generator", populate=_import_fault_generators)
CONTROLLERS: Registry[ControllerSpec] = Registry("controller", populate=_import_controllers)
EXPERIMENTS: Registry[Any] = Registry("experiment", populate=_import_experiment_modules)


# ----------------------------------------------------------------------
# Registration decorators
# ----------------------------------------------------------------------


def _first_doc_line(func: Callable[..., Any]) -> str:
    doc = (func.__doc__ or "").strip()
    return doc.splitlines()[0] if doc else ""


def register_solver(name: str, description: str = "") -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register ``optimize(model, **kwargs) -> OptimizationResult`` as a solver."""

    def decorate(func: Callable[..., Any]) -> Callable[..., Any]:
        SOLVERS.register(
            name, SolverSpec(name=name, description=description or _first_doc_line(func), optimize=func)
        )
        return func

    return decorate


def register_engine(name: str, description: str = "") -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register ``simulate(model, placement, config) -> SimulationResult`` as an engine."""

    def decorate(func: Callable[..., Any]) -> Callable[..., Any]:
        ENGINES.register(
            name, EngineSpec(name=name, description=description or _first_doc_line(func), simulate=func)
        )
        return func

    return decorate


def register_baseline(name: str, description: str = "") -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register ``build(model) -> CachePlacement`` as a baseline policy."""

    def decorate(func: Callable[..., Any]) -> Callable[..., Any]:
        BASELINES.register(
            name, BaselineSpec(name=name, description=description or _first_doc_line(func), build=func)
        )
        return func

    return decorate


def register_workload(
    name: str, description: str = "", kind: str = "stationary"
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a workload builder under the unified protocol.

    New-style builders take ``(scenario, *, param=..., ...)`` and return a
    :class:`~repro.workloads.base.Workload`; the keyword names become the
    accepted ``workload_params``, validated eagerly at scenario
    construction.  Legacy single-parameter builders returning a bare
    :class:`~repro.core.model.StorageSystemModel` keep working unchanged
    (the model is wrapped as a stationary workload, no eager validation).
    """

    def decorate(func: Callable[..., Any]) -> Callable[..., Any]:
        WORKLOADS.register(
            name,
            WorkloadSpec(
                name=name,
                description=description or _first_doc_line(func),
                builder=func,
                kind=kind,
            ),
        )
        return func

    return decorate


def register_policy(name: str, description: str = "") -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a :class:`ChunkCachingPolicy` factory as a cache policy.

    The decorated callable (a policy class works directly) must accept
    ``(capacity_chunks, chunks_per_file=None, **params)``.  Registered
    policies become valid ``Scenario(policy=...)`` values and are available
    to the cluster cache tier and the trace-replay engines by name.
    """

    def decorate(factory: Callable[..., Any]) -> Callable[..., Any]:
        POLICIES.register(
            name,
            PolicySpec(
                name=name,
                description=description or _first_doc_line(factory),
                factory=factory,
            ),
        )
        return factory

    return decorate


def register_fault(name: str, description: str = "") -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a seeded fault-schedule generator for the failure suite.

    The decorated callable must accept
    ``(num_osds, horizon_ms, rng, service_ms, *, param=..., ...)`` and
    return a :class:`~repro.faults.base.FaultTimeline`.  Registered
    generators become valid ``Scenario(faults=...)`` values and ``--fault``
    choices on the experiments CLI::

        from repro.api import register_fault
        from repro.faults import FaultWindow, timeline_from_windows

        @register_fault("maintenance", description="rolling one-OSD reboots")
        def build_maintenance(num_osds, horizon_ms, rng, service_ms, *, downtime_ms=60000.0):
            windows = [
                FaultWindow("down", osd, osd * downtime_ms, (osd + 1) * downtime_ms)
                for osd in range(num_osds)
            ]
            return timeline_from_windows(windows, num_osds, horizon_ms)
    """

    def decorate(func: Callable[..., Any]) -> Callable[..., Any]:
        FAULTS.register(
            name, FaultSpec(name=name, description=description or _first_doc_line(func), build=func)
        )
        return func

    return decorate


def register_controller(name: str, description: str = "") -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register an online-controller builder for the control subsystem.

    The decorated callable must accept ``(model, *, param=..., ...)`` and
    return a :class:`~repro.control.controller.OnlineController` (or
    subclass).  Registered controllers become valid
    ``Scenario(controller=...)`` values and ``--controller`` choices on the
    experiments CLI::

        from repro.api import register_controller
        from repro.control import OnlineController

        @register_controller("eager", description="hair-trigger drift controller")
        def build_eager(model, *, window=120.0):
            return OnlineController(model, window=window, change_threshold=0.1)
    """

    def decorate(func: Callable[..., Any]) -> Callable[..., Any]:
        CONTROLLERS.register(
            name, ControllerSpec(name=name, description=description or _first_doc_line(func), build=func)
        )
        return func

    return decorate


# ----------------------------------------------------------------------
# Lookup helpers (re-exported by repro.api)
# ----------------------------------------------------------------------


def get_solver(name: str) -> SolverSpec:
    """Look up a registered solver."""
    return SOLVERS.get(name)


def get_engine(name: str) -> EngineSpec:
    """Look up a registered simulation engine."""
    return ENGINES.get(name)


def get_baseline(name: str) -> BaselineSpec:
    """Look up a registered baseline policy."""
    return BASELINES.get(name)


def get_workload(name: str) -> WorkloadSpec:
    """Look up a registered workload builder."""
    return WORKLOADS.get(name)


def get_policy(name: str) -> PolicySpec:
    """Look up a registered cache policy."""
    return POLICIES.get(name)


def list_solvers() -> List[str]:
    """Names of the registered solvers."""
    return SOLVERS.names()


def list_engines() -> List[str]:
    """Names of the registered simulation engines."""
    return ENGINES.names()


def list_baselines() -> List[str]:
    """Names of the registered baseline policies."""
    return BASELINES.names()


def list_workloads() -> List[str]:
    """Names of the registered workload builders."""
    return WORKLOADS.names()


def list_policies() -> List[str]:
    """Names of the registered cache policies."""
    return POLICIES.names()


def get_fault(name: str) -> FaultSpec:
    """Look up a registered fault generator."""
    return FAULTS.get(name)


def list_faults() -> List[str]:
    """Names of the registered fault generators."""
    return FAULTS.names()


def get_controller(name: str) -> ControllerSpec:
    """Look up a registered controller."""
    return CONTROLLERS.get(name)


def list_controllers() -> List[str]:
    """Names of the registered controllers."""
    return CONTROLLERS.names()


def list_experiments() -> List[str]:
    """Names of the registered experiments."""
    return EXPERIMENTS.names()


# ----------------------------------------------------------------------
# Built-in components
# ----------------------------------------------------------------------


def _register_builtin_solvers() -> None:
    from repro.core.algorithm import CacheOptimizer

    def optimize(
        model,
        warm_start=None,
        time_bin=None,
        *,
        tolerance=0.01,
        max_outer_iterations=50,
        rounding_fraction=0.3,
        pi_max_iterations=120,
        system=None,
    ):
        optimizer = CacheOptimizer(
            model,
            tolerance=tolerance,
            max_outer_iterations=max_outer_iterations,
            rounding_fraction=rounding_fraction,
            pi_max_iterations=pi_max_iterations,
            system=system,
        )
        return optimizer.optimize(initial_state=warm_start, time_bin=time_bin)

    SOLVERS.register(
        "projected_gradient",
        SolverSpec(
            "projected_gradient",
            "Algorithm 1 with the projected-gradient Prob-Pi solver "
            "(exact segmented projection)",
            optimize,
        ),
    )


def _register_builtin_engines() -> None:
    from repro.simulation.simulator import StorageSimulator

    descriptions = {
        "event": "per-arrival discrete-event loop (reference; supports keep_node_records)",
        "batch": "fully vectorised batch engine (~70x faster; preferred for sweeps)",
    }

    def make(engine_name: str) -> Callable[..., Any]:
        def simulate(model, placement, config, requests=None):
            return StorageSimulator(model, placement, engine=engine_name).run(
                config, requests=requests
            )

        return simulate

    for engine_name, blurb in descriptions.items():
        ENGINES.register(engine_name, EngineSpec(engine_name, blurb, make(engine_name)))


def _register_builtin_baselines() -> None:
    from repro.baselines.exact import exact_caching_placement
    from repro.baselines.static import (
        no_cache_placement,
        popularity_whole_file_placement,
        proportional_placement,
    )

    BASELINES.register(
        "no_cache",
        BaselineSpec("no_cache", "no caching: every chunk is fetched from storage", no_cache_placement),
    )
    BASELINES.register(
        "whole_file",
        BaselineSpec(
            "whole_file",
            "cache the most popular files in their entirety until capacity runs out",
            popularity_whole_file_placement,
        ),
    )
    BASELINES.register(
        "proportional",
        BaselineSpec(
            "proportional",
            "spread cache space across files proportionally to arrival rates",
            proportional_placement,
        ),
    )
    BASELINES.register(
        "exact",
        BaselineSpec(
            "exact",
            "exact caching of verbatim chunks, filled greedily by popularity",
            exact_caching_placement,
        ),
    )


def _register_builtin_workloads() -> None:
    from repro.workloads.base import StationaryWorkload
    from repro.workloads.catalog import (
        DEFAULT_CODE,
        paper_default_model,
        ten_file_model,
    )
    from repro.workloads.ingest.trace_workload import build_trace
    from repro.workloads.zoo import build_diurnal, build_drift, build_flash_crowd

    def build_paper_default(
        scenario, *, num_nodes=12, arrival_rate_pattern=None, service_rates=None
    ):
        n, k = scenario.code
        model = paper_default_model(
            num_files=scenario.num_files,
            cache_capacity=scenario.cache_capacity,
            num_nodes=num_nodes,
            n=n,
            k=k,
            arrival_rate_pattern=arrival_rate_pattern,
            service_rates=service_rates,
            seed=scenario.seed,
            rate_scale=scenario.rate_scale,
        )
        return StationaryWorkload(model, name="paper_default")

    def build_ten_file(scenario, *, arrival_rates=None, placement_mode="random"):
        if scenario.num_files != 10:
            raise RegistryError(
                f"workload 'ten_file' is fixed at 10 files, got num_files={scenario.num_files}"
            )
        if tuple(scenario.code) != DEFAULT_CODE:
            raise RegistryError(
                f"workload 'ten_file' uses the fixed {DEFAULT_CODE} code, got {scenario.code}"
            )
        model = ten_file_model(
            cache_capacity=scenario.cache_capacity,
            arrival_rates=arrival_rates,
            placement_mode=placement_mode,
            seed=scenario.seed,
            rate_scale=scenario.rate_scale,
        )
        return StationaryWorkload(model, name="ten_file")

    WORKLOADS.register(
        "paper_default",
        WorkloadSpec(
            "paper_default",
            "Section V-A default: 12 heterogeneous servers, (7,4) code, cyclic rates",
            build_paper_default,
        ),
    )
    WORKLOADS.register(
        "ten_file",
        WorkloadSpec(
            "ten_file",
            "the 10-file model of Figs. 5-6 (random or split placement)",
            build_ten_file,
        ),
    )
    WORKLOADS.register(
        "diurnal",
        WorkloadSpec(
            "diurnal",
            "day/night sinusoidal rate cycle over a Zipf object population",
            build_diurnal,
            kind="non-stationary",
        ),
    )
    WORKLOADS.register(
        "flash_crowd",
        WorkloadSpec(
            "flash_crowd",
            "stationary background plus an exponentially decaying flash crowd",
            build_flash_crowd,
            kind="non-stationary",
        ),
    )
    WORKLOADS.register(
        "drift",
        WorkloadSpec(
            "drift",
            "constant-rate traffic whose Zipf popularity ranking rotates over time",
            build_drift,
            kind="non-stationary",
        ),
    )
    WORKLOADS.register(
        "trace",
        WorkloadSpec(
            "trace",
            "replay an ingested trace file (CSV/JSONL/NPZ) through the pipeline",
            build_trace,
            kind="trace",
        ),
    )


def _register_builtin_policies() -> None:
    from repro.policies import LRUPolicy, StaticFunctionalPolicy

    entries = (
        ("lru", "least-recently-used whole-object caching (Ceph cache tier)", LRUPolicy),
        (
            "functional_static",
            "static functional cache: fixed d_i chunks per file, no eviction",
            StaticFunctionalPolicy,
        ),
    )
    for policy_name, blurb, factory in entries:
        POLICIES.register(policy_name, PolicySpec(policy_name, blurb, factory))


_register_builtin_solvers()
_register_builtin_engines()
_register_builtin_baselines()
_register_builtin_workloads()
_register_builtin_policies()
