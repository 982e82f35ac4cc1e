"""The declarative :class:`Scenario` description of one end-to-end run.

A scenario names *what* to run -- workload, erasure code, cache policy,
solver, simulation engine, seed, scale -- and the
:class:`~repro.api.session.Session` facade turns it into the paper's
pipeline (model -> Algorithm-1 optimization -> probabilistic scheduling ->
simulation).  Every component reference is a registry name, so scenarios
serialize cleanly (``to_dict`` / ``from_dict``) and new components plug in
without touching this class.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import PurePath
from types import MappingProxyType
from typing import Any, ClassVar, Dict, Mapping, Optional, Tuple

from repro.api.registry import (
    BASELINES,
    CONTROLLERS,
    ENGINES,
    FAULTS,
    POLICIES,
    SOLVERS,
    WORKLOADS,
)
from repro.exceptions import RegistryError, ScenarioError

#: Recognised experiment scales.
SCALES = ("fast", "paper")

#: The cache policy that runs Algorithm 1 (anything else is a baseline name).
OPTIMAL_POLICY = "optimal"


@dataclass(frozen=True)
class Scenario:
    """Frozen, validated description of one optimize/schedule/simulate run.

    Attributes
    ----------
    workload:
        Registered workload builder (``repro.api.list_workloads()``).
    num_files, cache_capacity:
        Number of files and cache size in chunks.
    code:
        Erasure code ``(n, k)``.
    policy:
        ``"optimal"`` (Algorithm 1), a registered baseline name, or a
        registered cache policy name (``repro.api.list_policies()``); a
        cache policy is warmed on a seeded trace and its chunk-occupancy
        snapshot becomes the placement.
    solver:
        Registered cache-optimization solver, used when
        ``policy == "optimal"``.
    engine:
        Registered simulation engine (sweeps default to ``"batch"``).
    seed:
        Root seed for model construction and every simulation stream.
    scale:
        ``"fast"`` or ``"paper"``; picks the default simulation horizon.
    tolerance:
        Algorithm-1 outer-loop convergence threshold (seconds).
    rate_scale:
        Multiplier applied to every arrival rate (load sweeps).
    simulate:
        Whether to replay the placement through the simulator.
    horizon:
        Simulation horizon in model time units; ``None`` uses the scale
        default (see :attr:`DEFAULT_HORIZONS`).
    warmup_fraction:
        Fraction of the horizon discarded as simulation warm-up.
    workload_params:
        Extra keyword arguments for the workload builder.
    solver_params:
        Extra keyword arguments for the solver (e.g. ``pi_max_iterations``),
        validated against the solver's signature at construction.
    policy_params:
        Extra keyword arguments for a registered cache policy (e.g.
        ``replication`` for LRU); only valid with a cache policy.
    faults:
        Optional registered fault-generator name
        (``repro.api.list_faults()``: ``osd_crash``, ``degraded_read``,
        ``straggler``, ``repair_traffic``, ...).  When set, cluster-replay
        runs driven by this scenario execute under the compiled fault
        schedule; ``None`` (default) replays a healthy cluster.
    fault_params:
        Keyword parameters for the fault generator (e.g. ``crash_rate``,
        ``downtime_ms`` for ``osd_crash``); validated eagerly against the
        generator's signature, only valid together with ``faults``.
    controller:
        Optional registered online-controller name
        (``repro.api.list_controllers()``: ``online``, ``cold``,
        ``periodic``, ...).  When set, the session samples the workload's
        request stream and drives it through the controller -- streaming
        drift detection, warm re-solves, bounded-churn swaps -- landing a
        :class:`~repro.control.controller.ControlResult` on the run;
        ``None`` (default) skips the control stage.
    controller_params:
        Keyword parameters for the controller builder (e.g. ``window``,
        ``change_threshold``, ``churn_budget`` for ``online``); validated
        eagerly against the builder's signature, only valid together with
        ``controller``.
    """

    workload: str = "paper_default"
    num_files: int = 100
    cache_capacity: int = 50
    code: Tuple[int, int] = (7, 4)
    policy: str = OPTIMAL_POLICY
    solver: str = "projected_gradient"
    engine: str = "batch"
    seed: int = 2016
    scale: str = "fast"
    tolerance: float = 0.01
    rate_scale: float = 1.0
    simulate: bool = True
    horizon: Optional[float] = None
    warmup_fraction: float = 0.05
    workload_params: Mapping[str, Any] = field(default_factory=dict)
    solver_params: Mapping[str, Any] = field(default_factory=dict)
    policy_params: Mapping[str, Any] = field(default_factory=dict)
    faults: Optional[str] = None
    fault_params: Mapping[str, Any] = field(default_factory=dict)
    controller: Optional[str] = None
    controller_params: Mapping[str, Any] = field(default_factory=dict)

    #: Default simulation horizons per scale (model time units).
    DEFAULT_HORIZONS: ClassVar[Dict[str, float]] = {"fast": 200_000.0, "paper": 2_000_000.0}

    def __post_init__(self) -> None:
        if isinstance(self.code, (str, bytes)) or not hasattr(self.code, "__len__") or len(self.code) != 2:
            raise ScenarioError(f"code must be a (n, k) pair, got {self.code!r}")
        try:
            object.__setattr__(self, "code", tuple(int(value) for value in self.code))
        except (TypeError, ValueError):
            raise ScenarioError(f"code must be a pair of integers, got {self.code!r}") from None
        # Path-like values (e.g. a trace file path) become strings so the
        # scenario stays JSON-serializable and round-trips via from_dict.
        workload_params = {
            key: str(value) if isinstance(value, PurePath) else value
            for key, value in dict(self.workload_params).items()
        }
        object.__setattr__(self, "workload_params", MappingProxyType(workload_params))
        object.__setattr__(self, "solver_params", MappingProxyType(dict(self.solver_params)))
        object.__setattr__(self, "policy_params", MappingProxyType(dict(self.policy_params)))
        object.__setattr__(self, "fault_params", MappingProxyType(dict(self.fault_params)))
        object.__setattr__(
            self, "controller_params", MappingProxyType(dict(self.controller_params))
        )
        self._validate()

    def __hash__(self) -> int:
        # The generated hash would choke on the MappingProxyType fields.
        # Param *values* stay out of the hash: the generated __eq__ compares
        # them by value (1 == 1.0, order-insensitive dicts), which no value
        # serialization reproduces; hashing only the keys keeps the
        # hash/eq contract, equal-keyed scenarios merely collide.
        return hash(
            (
                self.workload,
                self.num_files,
                self.cache_capacity,
                self.code,
                self.policy,
                self.solver,
                self.engine,
                self.seed,
                self.scale,
                self.tolerance,
                self.rate_scale,
                self.simulate,
                self.horizon,
                self.warmup_fraction,
                tuple(sorted(self.workload_params)),
                tuple(sorted(self.solver_params)),
                tuple(sorted(self.policy_params)),
                self.faults,
                tuple(sorted(self.fault_params)),
                self.controller,
                tuple(sorted(self.controller_params)),
            )
        )

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def _validate(self) -> None:
        # Registry lookups raise RegistryError listing the known names.
        # The workload builder's and solver's signatures then vet their
        # params eagerly, so an unknown parameter fails at construction time
        # (listing the accepted names) instead of deep inside a run.
        WORKLOADS.get(self.workload).validate_params(self.workload_params)
        ENGINES.get(self.engine)
        SOLVERS.get(self.solver).validate_params(self.solver_params)
        if (
            self.policy != OPTIMAL_POLICY
            and self.policy not in BASELINES
            and self.policy not in POLICIES
        ):
            baselines = ", ".join(BASELINES.names()) or "<none>"
            policies = ", ".join(POLICIES.names()) or "<none>"
            raise RegistryError(
                f"unknown baseline or cache policy {self.policy!r}; "
                f"registered baselines: {baselines}; "
                f"registered cache policies: {policies}"
            )
        if self.policy_params and not self.uses_cache_policy:
            raise ScenarioError(
                f"policy_params only apply to a registered cache policy, "
                f"not policy={self.policy!r}"
            )
        if self.faults is not None:
            if not isinstance(self.faults, str):
                raise ScenarioError(
                    f"faults must be a registered fault-generator name, got {self.faults!r}"
                )
            FAULTS.get(self.faults).validate_params(self.fault_params)
        elif self.fault_params:
            raise ScenarioError("fault_params require a faults generator name")
        if self.controller is not None:
            if not isinstance(self.controller, str):
                raise ScenarioError(
                    f"controller must be a registered controller name, got {self.controller!r}"
                )
            CONTROLLERS.get(self.controller).validate_params(self.controller_params)
        elif self.controller_params:
            raise ScenarioError("controller_params require a controller name")
        # Type checks first, so e.g. string-typed numbers from a config file
        # raise ScenarioError instead of a raw comparison TypeError.
        for name, value in (("num_files", self.num_files), ("cache_capacity", self.cache_capacity)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ScenarioError(f"{name} must be an integer, got {value!r}")
        numeric = [
            ("tolerance", self.tolerance),
            ("rate_scale", self.rate_scale),
            ("warmup_fraction", self.warmup_fraction),
        ]
        if self.horizon is not None:
            numeric.append(("horizon", self.horizon))
        for name, value in numeric:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ScenarioError(f"{name} must be a number, got {value!r}")
        n, k = self.code
        if k < 1 or n < k:
            raise ScenarioError(f"code must satisfy n >= k >= 1, got (n, k) = ({n}, {k})")
        if self.num_files < 1:
            raise ScenarioError(f"num_files must be positive, got {self.num_files}")
        if self.cache_capacity < 0:
            raise ScenarioError(f"cache_capacity must be non-negative, got {self.cache_capacity}")
        if self.scale not in SCALES:
            raise ScenarioError(f"scale must be one of {SCALES}, got {self.scale!r}")
        if self.tolerance <= 0:
            raise ScenarioError(f"tolerance must be positive, got {self.tolerance}")
        if self.rate_scale <= 0:
            raise ScenarioError(f"rate_scale must be positive, got {self.rate_scale}")
        if self.horizon is not None and self.horizon <= 0:
            raise ScenarioError(f"horizon must be positive, got {self.horizon}")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ScenarioError(
                f"warmup_fraction must lie in [0, 1), got {self.warmup_fraction}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ScenarioError(f"seed must be an integer, got {self.seed!r}")

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Erasure-code length ``n``."""
        return self.code[0]

    @property
    def k(self) -> int:
        """Erasure-code dimension ``k``."""
        return self.code[1]

    @property
    def effective_horizon(self) -> float:
        """The simulation horizon: explicit value or the scale default."""
        if self.horizon is not None:
            return self.horizon
        return self.DEFAULT_HORIZONS[self.scale]

    @property
    def uses_optimizer(self) -> bool:
        """Whether this scenario runs Algorithm 1 (vs a baseline policy)."""
        return self.policy == OPTIMAL_POLICY

    @property
    def uses_cache_policy(self) -> bool:
        """Whether ``policy`` names a registered dynamic cache policy.

        Baseline names win on collision, preserving pre-policy behaviour.
        """
        return (
            self.policy != OPTIMAL_POLICY
            and self.policy not in BASELINES
            and self.policy in POLICIES
        )

    def describe(self) -> str:
        """One-line human-readable summary."""
        policy = self.policy if not self.uses_optimizer else f"optimal/{self.solver}"
        faults = f", faults={self.faults}" if self.faults is not None else ""
        controller = (
            f", controller={self.controller}" if self.controller is not None else ""
        )
        return (
            f"Scenario({self.workload}: {self.num_files} files, "
            f"C={self.cache_capacity}, code={self.code}, policy={policy}, "
            f"engine={self.engine}, seed={self.seed}, scale={self.scale}"
            f"{faults}{controller})"
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def replace(self, **changes: Any) -> "Scenario":
        """A new validated scenario with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dictionary representation (round-trips via from_dict)."""
        return {
            "workload": self.workload,
            "num_files": self.num_files,
            "cache_capacity": self.cache_capacity,
            "code": list(self.code),
            "policy": self.policy,
            "solver": self.solver,
            "engine": self.engine,
            "seed": self.seed,
            "scale": self.scale,
            "tolerance": self.tolerance,
            "rate_scale": self.rate_scale,
            "simulate": self.simulate,
            "horizon": self.horizon,
            "warmup_fraction": self.warmup_fraction,
            "workload_params": dict(self.workload_params),
            "solver_params": dict(self.solver_params),
            "policy_params": dict(self.policy_params),
            "faults": self.faults,
            "fault_params": dict(self.fault_params),
            "controller": self.controller,
            "controller_params": dict(self.controller_params),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Build a scenario from a dictionary, rejecting unknown keys."""
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ScenarioError(
                f"unknown Scenario fields {unknown}; valid fields: {sorted(known)}"
            )
        return cls(**dict(data))
