"""Algorithm 1: alternating minimization with iterative integer rounding.

The cache-content optimization (Eqs. 6-11) is an integer program because
``d_{i}``, the number of functional chunks of file ``i`` kept in the cache,
must be an integer.  Algorithm 1 of the paper tackles it heuristically:

1. **Outer loop** -- alternate between solving ``Prob Z`` (the per-file
   auxiliary variables ``z_i``, convex) and ``Prob Pi`` (the scheduling
   probabilities ``pi_{i,j}``, convex after relaxing integrality), until the
   objective improvement drops below a tolerance ``epsilon``.
2. **Inner rounding loop** -- after each relaxed ``Prob Pi`` solve, pick the
   file (or, for speed, a fixed fraction of the files) with the largest
   fractional part of ``sum_j pi_{i,j}`` and pin its total to the ceiling,
   i.e. round its cache allocation *down*; re-solve and repeat until every
   file's allocation is integral.

The implementation operates on the vectorised system for speed and returns a
:class:`~repro.core.placement.CachePlacement` plus a full convergence trace
(used to regenerate Fig. 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.model import StorageSystemModel
from repro.core.placement import CachePlacement, FilePlacement
from repro.core.prob_pi import solve_projected_gradient
from repro.core.vectorized import SolutionState, VectorizedSystem
from repro.exceptions import OptimizationError


@dataclass
class OptimizationResult:
    """Outcome of a full Algorithm-1 run."""

    placement: CachePlacement
    objective_trace: List[float] = field(default_factory=list)
    outer_iterations: int = 0
    inner_solves: int = 0
    converged: bool = False

    @property
    def final_objective(self) -> float:
        """The last objective value reached."""
        return self.placement.objective


class CacheOptimizer:
    """Algorithm 1 of the Sprout paper.

    Parameters
    ----------
    model:
        The storage-system model for the current time bin.
    tolerance:
        Outer-loop convergence threshold ``epsilon`` on the objective
        (the paper uses 0.01 seconds).
    max_outer_iterations:
        Safety cap on outer alternating-minimization iterations.
    rounding_fraction:
        Fraction of still-fractional files rounded per inner iteration.  The
        paper rounds one file at a time but notes that rounding a ``ceil``
        of a fixed fraction gives an ``O(log r)`` inner loop; 0 selects the
        single-file variant.
    pi_max_iterations:
        Iteration cap handed to the Prob-Pi solver
        (:func:`~repro.core.prob_pi.solve_projected_gradient`).
    system:
        Optional precompiled :class:`VectorizedSystem` to reuse.  Sweeps
        that solve the same instance for many cache sizes or arrival-rate
        predictions (Figs. 3 and 4) pass the previous optimizer's system
        here; it is rebound to ``model`` instead of being recompiled, which
        skips the pair-array construction at every sweep point.
    """

    def __init__(
        self,
        model: StorageSystemModel,
        tolerance: float = 0.01,
        max_outer_iterations: int = 50,
        rounding_fraction: float = 0.3,
        pi_max_iterations: int = 120,
        system: Optional[VectorizedSystem] = None,
    ):
        if tolerance <= 0:
            raise OptimizationError("tolerance must be positive")
        if not 0.0 <= rounding_fraction < 1.0:
            raise OptimizationError("rounding_fraction must lie in [0, 1)")
        self._model = model
        self._system = system.rebind(model) if system is not None else VectorizedSystem(model)
        self._tolerance = float(tolerance)
        self._max_outer_iterations = int(max_outer_iterations)
        self._rounding_fraction = float(rounding_fraction)
        self._pi_max_iterations = int(pi_max_iterations)

    @property
    def model(self) -> StorageSystemModel:
        """The model being optimized."""
        return self._model

    @property
    def system(self) -> VectorizedSystem:
        """The compiled vectorised system."""
        return self._system

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------

    def optimize(
        self,
        initial_state: Optional[SolutionState] = None,
        time_bin: Optional[int] = None,
        warm_start: Optional[np.ndarray] = None,
    ) -> OptimizationResult:
        """Run Algorithm 1 and return the optimized cache placement.

        Parameters
        ----------
        initial_state:
            Optional warm start (e.g. the converged solution of the previous
            cache size or the previous time bin, as done for Fig. 3).
        time_bin:
            Identifier recorded in the resulting placement.
        warm_start:
            Optional warm start as a flat pair vector (the representation
            the solvers and :class:`VectorizedSystem` use natively).  The
            online controller keeps its state in this form to avoid the
            per-pair Python loops of :class:`SolutionState` conversion at
            paper scale; takes precedence over ``initial_state``.
        """
        system = self._system
        if warm_start is not None:
            pi = system.project(
                np.asarray(warm_start, dtype=float),
                np.zeros(system.num_files),
                system.k_values.copy(),
            )
        elif initial_state is not None:
            pi = system.project(
                system.from_state(initial_state),
                np.zeros(system.num_files),
                system.k_values.copy(),
            )
        else:
            pi = system.project(
                system.initial_pi(),
                np.zeros(system.num_files),
                system.k_values.copy(),
            )
        z = system.optimal_z(pi)
        objective = system.objective(pi, z)
        trace: List[float] = [objective]
        inner_solves = 0
        converged = False
        outer_iterations = 0

        for outer in range(self._max_outer_iterations):
            outer_iterations = outer + 1
            # ---- Prob Z: optimal auxiliary variables for the current pi.
            z = system.optimal_z(pi)
            # ---- Prob Pi with iterative integer rounding.
            lower_sums = np.zeros(system.num_files)
            upper_sums = system.k_values.copy()
            fixed_file = np.zeros(system.num_files, dtype=bool)
            current_pi = pi.copy()
            for _ in range(system.num_files + 1):
                result = solve_projected_gradient(
                    system,
                    z,
                    lower_sums,
                    upper_sums,
                    initial_pi=current_pi,
                    max_iterations=self._pi_max_iterations,
                )
                inner_solves += 1
                current_pi = result.pi
                sums = system.file_sums(current_pi)
                fractional = sums - np.floor(sums + 1e-9)
                fractional[fixed_file] = 0.0
                fractional[fractional < 1e-6] = 0.0
                if not np.any(fractional > 0.0):
                    break
                # Select the file(s) with the largest fractional part and pin
                # their totals to the ceiling (cache allocation rounded down).
                candidates = np.where(fractional > 0.0)[0]
                if self._rounding_fraction <= 0.0:
                    count = 1
                else:
                    count = max(
                        1, int(math.ceil(self._rounding_fraction * candidates.size))
                    )
                chosen = candidates[np.argsort(fractional[candidates])[::-1][:count]]
                for file_position in chosen:
                    target = float(np.ceil(sums[file_position] - 1e-9))
                    target = min(target, float(system.k_values[file_position]))
                    lower_sums[file_position] = target
                    upper_sums[file_position] = target
                    fixed_file[file_position] = True
            pi = current_pi
            new_objective = system.objective(pi, z)
            trace.append(new_objective)
            if abs(trace[-2] - new_objective) <= self._tolerance:
                converged = True
                break

        # The ceiling-based rounding can leave cache capacity unused (it
        # always rounds a file's allocation *down*).  A final greedy pass --
        # "identify the files whose latency benefits most from caching and
        # construct chunks until the cache is filled up", as the paper
        # describes the heuristic -- assigns any remaining capacity.
        pi, z = self._greedy_refill(pi, z)
        final_objective = system.objective(pi, z)
        if final_objective < trace[-1] - 1e-12:
            trace.append(final_objective)

        placement = self._build_placement(pi, z, time_bin)
        return OptimizationResult(
            placement=placement,
            objective_trace=trace,
            outer_iterations=outer_iterations,
            inner_solves=inner_solves,
            converged=converged,
        )

    # ------------------------------------------------------------------
    # Greedy refill of unused cache capacity
    # ------------------------------------------------------------------

    def _greedy_refill(
        self, pi: np.ndarray, z: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Assign leftover cache capacity one chunk at a time.

        Each step evaluates, for every file that still fetches at least one
        chunk from storage, the objective decrease obtained by moving one of
        its chunks into the cache (its scheduling probabilities are scaled
        down proportionally, which preserves feasibility), and applies the
        best move.  The loop stops when the cache is full or no move helps.
        """
        system = self._system
        capacity = self._model.cache_capacity
        if capacity <= 0:
            return pi, z
        pi = pi.copy()
        for _ in range(capacity):
            sums = system.file_sums(pi)
            cached = np.rint(system.k_values - sums)
            free_capacity = capacity - float(cached.sum())
            if free_capacity < 1.0 - 1e-6:
                break
            eligible = sums >= 1.0 - 1e-9
            if not np.any(eligible):
                break
            current_bounds = system.per_file_bounds(pi, z)
            # Candidate: scale each eligible file's probabilities by
            # (s_i - 1) / s_i, evaluated with node moments held at the
            # current operating point (a standard greedy approximation).
            scale = np.ones(system.num_files)
            scale[eligible] = (sums[eligible] - 1.0) / np.maximum(sums[eligible], 1e-12)
            candidate_pi = pi * scale[system.pair_file]
            candidate_bounds = system.per_file_bounds(candidate_pi, z)
            gains = np.where(
                eligible, system.weights * (current_bounds - candidate_bounds), -np.inf
            )
            best = int(np.argmax(gains))
            if not np.isfinite(gains[best]) or gains[best] <= 1e-15:
                break
            mask = system.pair_file == best
            pi[mask] *= scale[best]
            z = system.optimal_z(pi)
        return pi, system.optimal_z(pi)

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------

    def _build_placement(
        self, pi: np.ndarray, z: np.ndarray, time_bin: Optional[int]
    ) -> CachePlacement:
        return build_placement(self._system, self._model, pi, z, time_bin)


def build_placement(
    system: VectorizedSystem,
    model: StorageSystemModel,
    pi: np.ndarray,
    z: np.ndarray,
    time_bin: Optional[int] = None,
    cached_chunks: Optional[np.ndarray] = None,
) -> CachePlacement:
    """Assemble a validated :class:`CachePlacement` from a solver iterate.

    Shared by :class:`CacheOptimizer` and the online re-solver
    (:mod:`repro.control.resolve`).  The arrival rates recorded per file are
    taken from ``system`` (not ``model``) so placements built after
    :meth:`VectorizedSystem.set_arrival_rates` carry the measured rates.

    Parameters
    ----------
    cached_chunks:
        Optional integer per-file cache allocation to record instead of
        rounding ``k_i - sum_j pi_{i,j}``; the online re-solver passes its
        apportionment-rounded allocation here so the placement matches the
        pinned solve exactly.
    """
    sums = system.file_sums(pi)
    if cached_chunks is None:
        cached = np.rint(system.k_values - sums).astype(int)
        cached = np.clip(cached, 0, system.k_values.astype(int))
    else:
        cached = np.asarray(cached_chunks, dtype=int).copy()
    # Guard the capacity constraint against accumulated rounding noise:
    # greedily trim files with the smallest latency benefit if needed.
    overflow = int(cached.sum()) - model.cache_capacity
    if overflow > 0:
        order = np.argsort(system.weights)  # least-weighted files first
        for file_position in order:
            if overflow <= 0:
                break
            reducible = min(int(cached[file_position]), overflow)
            cached[file_position] -= reducible
            overflow -= reducible
    bounds = system.per_file_bounds(pi, system.optimal_z(pi))
    objective = float(np.dot(system.weights, bounds))

    state = system.to_state(pi, z)
    files: List[FilePlacement] = []
    for file_position, spec in enumerate(model.files):
        files.append(
            FilePlacement(
                file_id=spec.file_id,
                cached_chunks=int(cached[file_position]),
                scheduling_probabilities=dict(state.probabilities[file_position]),
                latency_bound=float(bounds[file_position]),
                arrival_rate=float(system.arrival_rates[file_position]),
                k=spec.k,
                n=spec.n,
            )
        )
    placement = CachePlacement(
        files=files,
        objective=objective,
        cache_capacity=model.cache_capacity,
        time_bin=time_bin,
        metadata={"total_fractional_cache": float((system.k_values - sums).sum())},
    )
    placement.validate_against(model)
    return placement

