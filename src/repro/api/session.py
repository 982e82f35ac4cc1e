"""The execution facade: ``Scenario`` in, typed ``RunResult`` out.

:func:`run_scenario` (or a reusable :class:`Session`) drives the paper's
full pipeline from a single declarative description:

    from repro.api import Scenario, run_scenario

    result = run_scenario(Scenario(num_files=60, cache_capacity=30))
    print(result.summary())
    print(result.to_json())

Every stage is resolved through the component registries, so a scenario
with ``engine="batch"`` or ``policy="whole_file"`` swaps backends without
any code change.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.api.registry import (
    BASELINES,
    CONTROLLERS,
    ENGINES,
    POLICIES,
    SOLVERS,
    WORKLOADS,
)
from repro.api.scenario import Scenario
from repro.api.serialize import json_dumps, write_json
from repro.cluster.replay import ReplayResult
from repro.exec.cache import CacheLike, ResultCache, resolve_cache, scenario_key
from repro.control.controller import ControlResult
from repro.core.algorithm import OptimizationResult
from repro.core.model import StorageSystemModel
from repro.core.placement import CachePlacement, placement_histogram
from repro.simulation.simulator import SimulationConfig, SimulationResult


@dataclass
class RunResult:
    """Typed outcome of one scenario run, with uniform JSON serialization.

    Attributes
    ----------
    scenario:
        The scenario that produced this result.
    placement:
        The cache placement the policy decided on.
    optimization:
        Full Algorithm-1 outcome (``None`` for baseline policies).
    simulation:
        Simulation outcome (``None`` when ``scenario.simulate`` is false).
    replay:
        Cluster trace-replay outcome (``None`` unless ``scenario.faults``
        requested a fault schedule -- the emulated cluster is the only
        layer where OSD failures are observable).
    control:
        Online-controller outcome (``None`` unless ``scenario.controller``
        named a registered controller): per-bin drift events, re-solve
        reports and churn plans from driving the sampled request stream
        through the control subsystem.
    timings:
        Wall-clock seconds per stage (``build_model``, ``optimize`` /
        ``baseline``, ``simulate``, ``replay``, ``control``, ``total``).
    """

    scenario: Scenario
    placement: CachePlacement
    optimization: Optional[OptimizationResult] = None
    simulation: Optional[SimulationResult] = None
    replay: Optional[ReplayResult] = None
    control: Optional[ControlResult] = None
    timings: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def objective(self) -> float:
        """The analytical mean-latency bound of the placement."""
        return self.placement.objective

    @property
    def simulated_mean_latency(self) -> Optional[float]:
        """Simulated mean file latency (``None`` without a simulation)."""
        if self.simulation is None:
            return None
        return self.simulation.mean_latency()

    @property
    def cache_chunk_fraction(self) -> Optional[float]:
        """Fraction of chunk requests served from the cache (simulated)."""
        if self.simulation is None:
            return None
        return self.simulation.cache_chunk_fraction()

    def summary(self) -> str:
        """Human-readable multi-line summary of the run."""
        lines = [self.scenario.describe()]
        lines.append(
            f"  analytical bound: {self.objective:.4f}  "
            f"(cache {self.placement.total_cached_chunks}/{self.placement.cache_capacity} "
            f"chunks, histogram {placement_histogram(self.placement)})"
        )
        if self.optimization is not None:
            lines.append(
                f"  Algorithm 1: {self.optimization.outer_iterations} outer iterations, "
                f"{self.optimization.inner_solves} convex solves, "
                f"converged={self.optimization.converged}"
            )
        if self.simulation is not None:
            lines.append(
                f"  simulated ({self.scenario.engine}): mean latency "
                f"{self.simulation.mean_latency():.4f} over "
                f"{self.simulation.requests_completed} requests, "
                f"{self.simulation.cache_chunk_fraction():.1%} of chunks from cache"
            )
        if self.replay is not None:
            mean = self.replay.mean_latency_ms()
            mean_text = "n/a" if math.isnan(mean) else f"{mean:.1f} ms"
            lines.append(
                f"  cluster replay (faults={self.replay.faults or 'none'}): "
                f"mean latency {mean_text} over "
                f"{self.replay.served}/{self.replay.reads} served reads, "
                f"{self.replay.degraded_reads} degraded, "
                f"{self.replay.failed_reads} failed, "
                f"{self.replay.repair_jobs} repair jobs"
            )
        if self.control is not None:
            lines.append(
                f"  controller ({self.scenario.controller}): "
                f"{self.control.num_bins} bins, "
                f"{self.control.num_drift_events} drift events, "
                f"-{self.control.total_dropped_chunks}"
                f"/+{self.control.total_added_chunks} chunks "
                f"({self.control.total_deferred_chunks} deferred)"
            )
        lines.append(
            "  timings: "
            + ", ".join(f"{stage}={seconds:.3f}s" for stage, seconds in self.timings.items())
        )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dictionary with scenario, placement and metrics."""
        payload: Dict[str, Any] = {
            "scenario": self.scenario.to_dict(),
            "objective": float(self.objective),
            "cache_capacity": self.placement.cache_capacity,
            "total_cached_chunks": self.placement.total_cached_chunks,
            "cached_chunks": self.placement.cached_chunks(),
            "timings": dict(self.timings),
        }
        if self.optimization is not None:
            payload["optimization"] = {
                "converged": self.optimization.converged,
                "outer_iterations": self.optimization.outer_iterations,
                "inner_solves": self.optimization.inner_solves,
                "objective_trace": [float(v) for v in self.optimization.objective_trace],
            }
        if self.simulation is not None:
            payload["simulation"] = {
                "engine": self.scenario.engine,
                "mean_latency": self.simulation.mean_latency(),
                "requests_completed": self.simulation.requests_completed,
                "chunks_from_cache": self.simulation.chunks_from_cache,
                "chunks_from_storage": self.simulation.chunks_from_storage,
                "cache_chunk_fraction": self.simulation.cache_chunk_fraction(),
                "latency": self.simulation.metrics.summary(),
            }
        if self.replay is not None:
            mean = self.replay.mean_latency_ms()
            p99 = self.replay.percentile_ms(99.0)
            payload["cluster_replay"] = {
                "engine": self.replay.engine,
                "policy": self.replay.policy,
                "faults": self.replay.faults,
                "reads": self.replay.reads,
                "served": self.replay.served,
                "hits": self.replay.hits,
                "hit_ratio": self.replay.hit_ratio,
                "degraded_reads": self.replay.degraded_reads,
                "failed_reads": self.replay.failed_reads,
                "repair_jobs": self.replay.repair_jobs,
                "chunks_from_cache": self.replay.chunks_from_cache,
                "chunks_from_storage": self.replay.chunks_from_storage,
                # nan (no served reads) is not valid JSON -- encode as null.
                "mean_latency_ms": None if math.isnan(mean) else mean,
                "p99_latency_ms": None if math.isnan(p99) else p99,
            }
        if self.control is not None:
            payload["control"] = dict(
                self.control.to_dict(), controller=self.scenario.controller
            )
        return payload

    def to_json(self, indent: int = 2) -> str:
        """Serialize :meth:`to_dict` as a JSON string."""
        return json_dumps(self.to_dict(), indent=indent)

    def write_json(self, path: Any) -> Any:
        """Write :meth:`to_dict` to ``path`` and return the path."""
        return write_json(path, self.to_dict())


@dataclass
class CachedRunResult:
    """A scenario result served from the content-addressed cache.

    Wraps the stored ``RunResult.to_dict()`` payload behind the same
    reporting surface (``objective``, ``timings``, ``to_dict``/``to_json``
    /``write_json``, ``summary``), so cached and fresh runs serialize
    identically: ``json_dumps(fresh.to_dict()) ==
    json_dumps(cached.to_dict())``.  The rich in-memory stages
    (``placement``, ``simulation``, ...) are not reconstructed -- code
    needing those objects should run with the cache off.
    """

    scenario: Scenario
    payload: Dict[str, Any]
    cache_key: str

    #: Cached results always announce themselves (fresh RunResults lack
    #: the attribute, so ``getattr(result, "from_cache", False)`` works).
    from_cache: bool = True

    @property
    def objective(self) -> float:
        """The analytical mean-latency bound of the cached placement."""
        return float(self.payload["objective"])

    @property
    def timings(self) -> Dict[str, float]:
        """Wall-clock timings of the original (cache-missing) run."""
        return dict(self.payload.get("timings", {}))

    def to_dict(self) -> Dict[str, Any]:
        """The stored payload, bit-identical to the original run's."""
        return dict(self.payload)

    def to_json(self, indent: int = 2) -> str:
        """Serialize :meth:`to_dict` as a JSON string."""
        return json_dumps(self.to_dict(), indent=indent)

    def write_json(self, path: Any) -> Any:
        """Write :meth:`to_dict` to ``path`` and return the path."""
        return write_json(path, self.to_dict())

    def summary(self) -> str:
        """Human-readable summary of the cached run."""
        return (
            f"{self.scenario.describe()}\n"
            f"  analytical bound: {self.objective:.4f} "
            f"(served from cache, key {self.cache_key[:12]}...)"
        )


class Session:
    """Reusable executor of scenarios.

    A session keeps the scenario history (``session.results``) and is the
    natural place for cross-run reuse; scenarios themselves stay immutable.

    Parameters
    ----------
    cache:
        Content-addressed result cache for scenario runs: ``True`` uses
        ``~/.cache/repro`` (or ``$REPRO_CACHE_DIR``), a path selects that
        directory, a prebuilt :class:`~repro.exec.ResultCache` is shared.
        A hit skips the whole pipeline -- zero solver calls -- and returns
        a :class:`CachedRunResult` whose ``to_dict`` is bit-identical to
        the original run's.  Keys cover the scenario (including the seed)
        and the package version, so upgrades re-run.
    """

    def __init__(self, cache: CacheLike = None) -> None:
        self._results: list[Any] = []
        self._cache: Optional[ResultCache] = resolve_cache(cache)

    @property
    def results(self) -> list[Any]:
        """All results produced by this session, in run order."""
        return list(self._results)

    @property
    def cache(self) -> Optional[ResultCache]:
        """The session's result cache (``None`` when caching is off)."""
        return self._cache

    # ------------------------------------------------------------------
    # Pipeline stages
    # ------------------------------------------------------------------

    def build_workload(self, scenario: Scenario):
        """Materialize the scenario's workload object (unified protocol).

        Returns a :class:`~repro.workloads.base.Workload`: ``model()``
        yields the stationary system description the optimizer and the
        baselines consume, ``sample(rng, horizon)`` draws the request
        stream non-stationary workloads replay through the engines.
        """
        return WORKLOADS.get(scenario.workload).create(scenario)

    def build_model(self, scenario: Scenario) -> StorageSystemModel:
        """Materialize the scenario's workload into a system model."""
        return self.build_workload(scenario).model()

    def build_faults(self, scenario: Scenario):
        """Materialize the scenario's fault schedule (``None`` if healthy).

        Returns a :class:`~repro.faults.base.GeneratedFaultSchedule` bound
        to ``scenario.faults``/``scenario.fault_params``; compiling it is
        deferred to the replay, which knows the OSD count and horizon.
        """
        if scenario.faults is None:
            return None
        from repro.faults import GeneratedFaultSchedule

        return GeneratedFaultSchedule(scenario.faults, dict(scenario.fault_params))

    #: Cluster-replay benchmark duration (seconds) per scenario scale.
    REPLAY_DURATION_S = {"fast": 120.0, "paper": 1800.0}

    def replay_cluster(
        self,
        scenario: Scenario,
        *,
        duration_s: Optional[float] = None,
        engine: str = "epoch",
        num_osds: int = 12,
        total_rate_rps: float = 4.0,
        model: Optional[StorageSystemModel] = None,
        placement: Optional[CachePlacement] = None,
    ) -> ReplayResult:
        """Replay the scenario's workload against the emulated cluster.

        This is the layer where ``scenario.faults`` becomes observable: the
        model-level simulation has no OSDs to crash, so fault schedules are
        applied to the trace-replay engines of :mod:`repro.cluster.replay`.
        Cache-policy scenarios replay under the named policy; optimizer and
        baseline scenarios freeze their computed placement into a static
        functional allocation.  Pass ``model``/``placement`` to reuse
        already-built pipeline stages.

        The model's analytical arrival rates are normalized to an aggregate
        of ``total_rate_rps`` requests per second, preserving the per-file
        popularity skew: the emulated device model serves chunks in
        hundreds of milliseconds, so the raw analytical rates (tuned to the
        queueing model's own service scale) would leave the cluster idle.
        """
        from repro.cluster.cluster import ClusterConfig
        from repro.cluster.devices import chunk_size_for_object
        from repro.cluster.replay import ClusterReplay, ReplayTrace
        from repro.policies.functional import StaticFunctionalPolicy

        if model is None:
            model = self.build_model(scenario)
        n, k = scenario.code
        object_size_mb = 64
        chunk_mb = chunk_size_for_object(object_size_mb, k)
        config = ClusterConfig(
            num_osds=max(int(num_osds), n),
            n=n,
            k=k,
            object_size_mb=object_size_mb,
            cache_capacity_mb=int(model.cache_capacity) * chunk_mb,
            seed=scenario.seed,
        )
        if scenario.uses_cache_policy:
            policy: Any = scenario.policy
            policy_params: Dict[str, object] = dict(scenario.policy_params)
        else:
            if placement is None:
                placement, _ = self._place(scenario, model)
            allocation = placement.cached_chunks()

            def policy(capacity, chunks_per_file, allocation=allocation):
                return StaticFunctionalPolicy(
                    capacity, chunks_per_file, allocation=allocation
                )

            policy_params = {}
        if duration_s is None:
            duration_s = self.REPLAY_DURATION_S.get(scenario.scale, 120.0)
        raw_rates = {file.file_id: file.arrival_rate for file in model.files}
        total_rate = sum(raw_rates.values())
        rate_scale = total_rate_rps / total_rate if total_rate > 0 else 1.0
        rates = {fid: rate * rate_scale for fid, rate in raw_rates.items()}
        trace = ReplayTrace.from_rates(
            rates, float(duration_s), seed=scenario.seed + 101
        )
        replay = ClusterReplay(
            config,
            [file.file_id for file in model.files],
            policy=policy,
            policy_params=policy_params,
        )
        return replay.run(
            trace,
            engine=engine,
            seed=scenario.seed + 1,
            faults=scenario.faults,
            fault_params=dict(scenario.fault_params),
        )

    def run_controller(
        self,
        scenario: Scenario,
        *,
        model: Optional[StorageSystemModel] = None,
        workload=None,
        horizon: Optional[float] = None,
    ) -> ControlResult:
        """Drive the scenario's workload stream through its controller.

        The controller named by ``scenario.controller`` is built against
        the model and fed the workload's sampled request stream: streaming
        rate estimation, drift-triggered (or scheduled) re-solves and
        bounded-churn placement swaps.  The sampling generator is
        seed-sequence child 5, disjoint from the engine's internal streams
        (children 0-3) and the simulation's non-stationary sampler
        (child 4), so control and simulation see independent draws.  Pass
        ``model``/``workload`` to reuse already-built pipeline stages.
        """
        if workload is None:
            workload = self.build_workload(scenario)
        if model is None:
            model = workload.model()
        spec = CONTROLLERS.get(scenario.controller)
        controller = spec.build(model, **dict(scenario.controller_params))
        if horizon is None:
            horizon = scenario.horizon
        if horizon is None:
            horizon = workload.default_horizon()
        if horizon is None:
            horizon = scenario.effective_horizon
        rng = np.random.default_rng(
            np.random.SeedSequence(scenario.seed).spawn(6)[5]
        )
        stream = workload.sample(rng, horizon=horizon)
        return controller.run(stream)

    def _place(self, scenario: Scenario, model: StorageSystemModel):
        if scenario.uses_optimizer:
            solver = SOLVERS.get(scenario.solver)
            outcome = solver.optimize(
                model, tolerance=scenario.tolerance, **dict(scenario.solver_params)
            )
            return outcome.placement, outcome
        if scenario.uses_cache_policy:
            from repro.policies import placement_from_trace_replay

            spec = POLICIES.get(scenario.policy)
            chunks_per_file = {file.file_id: file.k for file in model.files}
            policy = spec.factory(
                model.cache_capacity, chunks_per_file, **dict(scenario.policy_params)
            )
            placement = placement_from_trace_replay(
                model, policy, seed=scenario.seed
            )
            return placement, None
        baseline = BASELINES.get(scenario.policy)
        return baseline.build(model), None

    def _simulate(
        self,
        scenario: Scenario,
        model: StorageSystemModel,
        placement: CachePlacement,
        workload=None,
    ) -> SimulationResult:
        engine = ENGINES.get(scenario.engine)
        horizon = scenario.horizon
        if horizon is None and workload is not None:
            horizon = workload.default_horizon()
        if horizon is None:
            horizon = scenario.effective_horizon
        config = SimulationConfig(
            horizon=horizon,
            seed=scenario.seed,
            warmup=horizon * scenario.warmup_fraction,
        )
        if workload is not None and not workload.stationary:
            # Non-stationary workloads supply the request stream themselves;
            # the sampling generator is seed-sequence child 4, disjoint from
            # the engine's four internal streams (children 0-3).
            rng = np.random.default_rng(
                np.random.SeedSequence(scenario.seed).spawn(5)[4]
            )
            stream = workload.sample(rng, horizon=horizon)
            return engine.simulate(model, placement, config, requests=stream)
        return engine.simulate(model, placement, config)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def run(self, scenario: Scenario) -> "RunResult | CachedRunResult":
        """Execute optimize -> schedule -> simulate for one scenario.

        When ``scenario.faults`` names a fault schedule, a fault-aware
        cluster replay stage runs after the simulation (see
        :meth:`replay_cluster`) and lands in ``result.replay``.  When
        ``scenario.controller`` names a registered controller, the online
        control stage runs last (see :meth:`run_controller`) and lands in
        ``result.control``.

        With the session cache on, a key hit returns a
        :class:`CachedRunResult` without running any stage.
        """
        key: Optional[str] = None
        if self._cache is not None:
            key = scenario_key(self._cache, scenario)
            stored = self._cache.get(key)
            if stored is not None:
                cached = CachedRunResult(
                    scenario=scenario, payload=stored, cache_key=key
                )
                self._results.append(cached)
                return cached

        timings: Dict[str, float] = {}
        started = time.perf_counter()

        stage = time.perf_counter()
        workload = self.build_workload(scenario)
        model = workload.model()
        timings["build_model"] = time.perf_counter() - stage

        stage = time.perf_counter()
        placement, optimization = self._place(scenario, model)
        if scenario.uses_optimizer:
            place_stage = "optimize"
        elif scenario.uses_cache_policy:
            place_stage = "policy"
        else:
            place_stage = "baseline"
        timings[place_stage] = time.perf_counter() - stage

        simulation: Optional[SimulationResult] = None
        if scenario.simulate:
            stage = time.perf_counter()
            simulation = self._simulate(scenario, model, placement, workload)
            timings["simulate"] = time.perf_counter() - stage

        replay: Optional[ReplayResult] = None
        if scenario.faults is not None:
            stage = time.perf_counter()
            replay = self.replay_cluster(
                scenario, model=model, placement=placement
            )
            timings["replay"] = time.perf_counter() - stage

        control: Optional[ControlResult] = None
        if scenario.controller is not None:
            stage = time.perf_counter()
            control = self.run_controller(
                scenario, model=model, workload=workload
            )
            timings["control"] = time.perf_counter() - stage

        timings["total"] = time.perf_counter() - started
        result = RunResult(
            scenario=scenario,
            placement=placement,
            optimization=optimization,
            simulation=simulation,
            replay=replay,
            control=control,
            timings=timings,
        )
        if self._cache is not None and key is not None:
            self._cache.put(key, result.to_dict())
        self._results.append(result)
        return result


def run_scenario(
    scenario: Optional[Scenario] = None,
    session: Optional[Session] = None,
    cache: CacheLike = None,
    **fields: Any,
) -> "RunResult | CachedRunResult":
    """Run one scenario end-to-end and return its :class:`RunResult`.

    Accepts either a prebuilt :class:`Scenario` (optionally overridden by
    keyword ``fields``) or the scenario fields directly::

        run_scenario(num_files=60, cache_capacity=30, engine="batch")

    ``cache`` configures the one-shot session's result cache (ignored
    when an explicit ``session`` is passed -- the session's own cache
    configuration governs).
    """
    if scenario is None:
        scenario = Scenario(**fields)
    elif fields:
        scenario = scenario.replace(**fields)
    return (session or Session(cache=cache)).run(scenario)
