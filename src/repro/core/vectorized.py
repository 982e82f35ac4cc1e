"""Vectorised evaluation of the Eq. (6) objective and its gradient.

Per-file dictionaries (:class:`SolutionState`) are convenient for small
examples and warm starts but too slow for the paper-scale instances (1000
files x 7 chunk placements).  This module compiles a
:class:`~repro.core.model.StorageSystemModel` into flat numpy arrays
indexed by (file, node) *pairs* -- one entry for every ``pi_{i,j}`` with
``j in S_i`` -- and provides:

* node arrival rates, M/G/1 moments and their derivatives,
* the weighted latency objective and its gradient with respect to ``pi``,
* vectorised per-file optimisation of the auxiliary variables ``z_i``,
* Euclidean projection onto the Prob-Pi feasible polytope
  ``{0 <= pi <= 1, K_L,i <= sum_j pi_{i,j} <= K_U,i, sum_i,j pi_{i,j} >= T}``
  where ``T = sum_i k_i - C`` encodes the cache-capacity constraint.

This is the only evaluator of the bound in the library: Algorithm 1, the
online re-solver and the static/exact baselines all go through it.  The
tests in ``tests/core/test_vectorized.py`` verify that it agrees with the
dictionary-based scalar oracle kept in ``tests/scalar_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.model import StorageSystemModel
from repro.exceptions import InfeasibleError, OptimizationError
from repro.kernels import segment_max, segment_sum

#: Utilisation clamp used to keep the objective finite (and extremely large)
#: when a candidate point drives a node beyond its stability region.
_RHO_CLAMP = 1.0 - 1e-7


@dataclass
class SolutionState:
    """A candidate solution of the cache optimization.

    Attributes
    ----------
    probabilities:
        One mapping per file (aligned with the model's file order) from node
        id to the scheduling probability ``pi_{i,j}``.
    z_values:
        Per-file auxiliary variables ``z_i``.
    """

    probabilities: List[Dict[int, float]]
    z_values: List[float] = field(default_factory=list)

    def copy(self) -> "SolutionState":
        """Deep copy of the candidate solution."""
        return SolutionState(
            probabilities=[dict(p) for p in self.probabilities],
            z_values=list(self.z_values),
        )

    def cache_allocation(self, model: StorageSystemModel) -> List[float]:
        """Return per-file cache allocations ``d_i = k_i - sum_j pi_{i,j}``.

        Fractional values are possible before the integer rounding finishes.
        """
        allocations = []
        for spec, file_probs in zip(model.files, self.probabilities):
            allocations.append(spec.k - sum(file_probs.values()))
        return allocations

    def total_cache_usage(self, model: StorageSystemModel) -> float:
        """Total (possibly fractional) number of cached chunks."""
        return sum(max(d, 0.0) for d in self.cache_allocation(model))


#: Relative residual at which a projection root search stops.  A safeguarded
#: Newton step is exact once it reaches the root's linear piece, so this only
#: has to sit above the round-off of a segmented sum.
_ROOT_RTOL = 1e-12
#: Iterations after which a root search is reported as broken.  It is an
#: error, not a stopping rule: the safeguarded steps settle long before.
_ROOT_ITERATION_CAP = 200


def _newton_roots(evaluate, theta, low, high, edge, tolerance):
    """Safeguarded Newton roots of non-decreasing piecewise-linear maps.

    Solves ``h_s(theta_s) = t_s`` for every entry ``s`` at once.
    ``evaluate(theta)`` returns the residuals ``t - h(theta)`` and a
    function mapping them to the one-sided slopes of ``h`` toward each root
    (the right slope where the residual is positive, else the left one).
    ``low < root <= high`` brackets every root.  A Newton step that leaves
    the bracket or lands on one of its ends is replaced by a bisection
    step, so the search cannot cycle between two ends; a step that reaches
    the root's linear piece is exact.  Roots are sought on
    ``theta >= edge``: a step below ``edge`` is raised to it, and an entry
    whose residual is negative at ``edge`` keeps it (with ``low = -inf``
    the first step left of the start probes ``edge``).  An entry whose
    bracket has shrunk to adjacent doubles settles at ``high``.  Once half
    the entries have settled the rest go on alone, through
    ``evaluate.subset(keep)``.
    """
    settled = np.zeros(theta.shape, dtype=bool)
    for _ in range(_ROOT_ITERATION_CAP):
        residual, slopes = evaluate(theta)
        settled |= (np.abs(residual) <= tolerance) | (
            (theta <= edge) & (residual < 0.0)
        )
        if settled.all():
            return theta
        rising = residual > 0.0
        low = np.where(rising, theta, low)
        high = np.where(rising, high, theta)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = theta + residual / slopes(residual)
        step = np.where((step > low) & (step < high), step, 0.5 * (low + high))
        step = np.maximum(step, edge)
        collapsed = (step <= low) | (step >= high)
        theta = np.where(settled, theta, np.where(collapsed, high, step))
        settled |= collapsed
        if 2 * np.count_nonzero(~settled) <= settled.size:
            keep = ~settled
            if keep.any():
                theta[keep] = _newton_roots(
                    evaluate.subset(keep),
                    theta[keep],
                    low[keep],
                    high[keep],
                    edge,
                    tolerance[keep],
                )
            return theta
    raise OptimizationError(
        f"projection root search did not settle in {_ROOT_ITERATION_CAP} steps"
    )


class _ClipSums:
    """Residuals ``t_s - sum_j clip(v_j + theta_s, 0, 1)`` of contiguous segments."""

    def __init__(self, values: np.ndarray, counts: np.ndarray, targets: np.ndarray):
        self._values, self._counts, self._targets = values, counts, targets
        self._segment = np.repeat(np.arange(counts.size), counts)
        self._offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])

    def subset(self, keep: np.ndarray) -> "_ClipSums":
        return _ClipSums(
            self._values[keep[self._segment]], self._counts[keep], self._targets[keep]
        )

    def __call__(self, theta: np.ndarray):
        shifted = self._values + theta[self._segment]
        sums = segment_sum(np.clip(shifted, 0.0, 1.0), self._offsets)

        def slopes(residual: np.ndarray) -> np.ndarray:
            moving = np.where(
                (residual > 0.0)[self._segment],
                (shifted >= 0.0) & (shifted < 1.0),
                (shifted > 0.0) & (shifted <= 1.0),
            )
            return segment_sum(moving.astype(float), self._offsets)

        return self._targets - sums, slopes


class VectorizedSystem:
    """Array-based view of a storage-system model for fast optimization.

    Parameters
    ----------
    model:
        The storage-system model to compile.
    """

    def __init__(self, model: StorageSystemModel):
        self._node_ids: List[int] = model.node_ids
        self._node_index: Dict[int, int] = {
            node_id: position for position, node_id in enumerate(self._node_ids)
        }
        files = model.files
        self.num_files = len(files)
        self.num_nodes = len(self._node_ids)

        pair_file: List[int] = []
        pair_node: List[int] = []
        for file_position, spec in enumerate(files):
            for node_id in spec.placement:
                pair_file.append(file_position)
                pair_node.append(self._node_index[node_id])
        # Node ids per pair, and each file's slice of them, for the
        # SolutionState conversions.
        self._pair_node_ids = [self._node_ids[node] for node in pair_node]
        ends = np.cumsum([len(spec.placement) for spec in files]).tolist()
        self._file_node_ids = [
            self._pair_node_ids[end - len(spec.placement) : end]
            for spec, end in zip(files, ends)
        ]
        self.pair_file = np.asarray(pair_file, dtype=np.int64)
        self.pair_node = np.asarray(pair_node, dtype=np.int64)
        self.num_pairs = self.pair_file.size

        # The pair arrays are built file by file, so ``pair_file`` is sorted
        # and every file owns one contiguous segment: per-file reductions run
        # as ``np.add.reduceat`` over these offsets, which is considerably
        # faster than ``np.bincount`` with weights in the solver's inner
        # loop.  Per-pair gathers of static file quantities (``_bind``) are
        # cached once instead of being re-gathered on every objective call.
        pair_counts = np.bincount(self.pair_file, minlength=self.num_files)
        self._file_segments_contiguous = bool(pair_counts.min() > 0)
        self._file_offsets = np.concatenate(
            [[0], np.cumsum(pair_counts)[:-1]]
        ).astype(np.int64)
        # Fingerprint of the placement structure, used by rebind() to refuse
        # models whose (file, node) pairs differ from the compiled arrays.
        self._placement_signature = tuple(spec.placement for spec in files)
        self._bind(model)

    def _bind(self, model: StorageSystemModel) -> None:
        """Load the rates, service moments and capacity of ``model``."""
        files = model.files
        self._model = model
        self.arrival_rates = np.asarray(
            [spec.arrival_rate for spec in files], dtype=float
        )
        total_rate = float(self.arrival_rates.sum())
        if total_rate <= 0:
            raise OptimizationError("total arrival rate must be positive")
        self.weights = self.arrival_rates / total_rate
        self.k_values = np.asarray([spec.k for spec in files], dtype=float)
        self.n_values = np.asarray([spec.n for spec in files], dtype=float)
        self.cache_capacity = float(model.cache_capacity)
        services = [model.service(node_id) for node_id in self._node_ids]
        self.mu = np.asarray([service.rate for service in services], dtype=float)
        self.gamma2 = np.asarray(
            [service.second_moment for service in services], dtype=float
        )
        self.gamma3 = np.asarray(
            [service.third_moment for service in services], dtype=float
        )
        self.sigma2 = np.asarray([service.variance for service in services], dtype=float)
        self.pair_weights = self.weights[self.pair_file]
        self.pair_rates = self.arrival_rates[self.pair_file]

    # ------------------------------------------------------------------
    # Per-file segmented reductions
    # ------------------------------------------------------------------

    def _file_sum(self, values: np.ndarray) -> np.ndarray:
        """Per-file sums of a pair vector (segmented kernel fast path)."""
        if self._file_segments_contiguous:
            return segment_sum(values, self._file_offsets)
        return np.bincount(self.pair_file, weights=values, minlength=self.num_files)

    def _file_max(self, values: np.ndarray) -> np.ndarray:
        """Per-file maxima of a pair vector."""
        if self._file_segments_contiguous:
            return segment_max(values, self._file_offsets)
        result = np.full(self.num_files, -np.inf)
        np.maximum.at(result, self.pair_file, values)
        return result

    # ------------------------------------------------------------------
    # Conversions between flat vectors and SolutionState
    # ------------------------------------------------------------------

    @property
    def model(self) -> StorageSystemModel:
        """The underlying model."""
        return self._model

    def set_cache_capacity(self, cache_capacity: float) -> None:
        """Update the cache capacity without recompiling the pair arrays."""
        self.cache_capacity = float(cache_capacity)

    def set_arrival_rates(self, arrival_rates: Sequence[float]) -> None:
        """Re-point the compiled system at new per-file arrival rates.

        This is the hot path of the online controller: when the streaming
        estimator opens a new time bin, only the rates (and the weights /
        per-pair gathers derived from them) change -- the pair structure,
        service moments and cache capacity stay untouched, so no model
        rebuild or :meth:`rebind` is needed.  Note the underlying
        ``StorageSystemModel`` is *not* updated; callers that need a
        consistent model (e.g. for simulation) should build one with
        ``model.copy_with_arrival_rates``.
        """
        rates = np.asarray(arrival_rates, dtype=float)
        if rates.shape != (self.num_files,):
            raise OptimizationError(
                f"expected {self.num_files} arrival rates, got {rates.shape}"
            )
        if np.any(rates < 0.0):
            raise OptimizationError("arrival rates must be non-negative")
        total_rate = float(rates.sum())
        if total_rate <= 0:
            raise OptimizationError("total arrival rate must be positive")
        self.arrival_rates = rates
        self.weights = rates / total_rate
        self.pair_weights = self.weights[self.pair_file]
        self.pair_rates = self.arrival_rates[self.pair_file]

    def rebind(self, model: StorageSystemModel) -> "VectorizedSystem":
        """Re-point the compiled system at a structurally identical model.

        Sweeps such as Fig. 3 / Fig. 4 solve the same 1000-file instance for
        many cache sizes (or re-predicted arrival rates); recompiling the
        (file, node) pair arrays each time dominates the solve at paper
        scale.  ``rebind`` refreshes everything that is cheap to recompute
        -- arrival rates, weights, service moments, cache capacity -- and
        keeps the pair structure, which must be unchanged: same files in
        the same order with the same placements on the same node set.
        """
        files = model.files
        if (
            len(files) != self.num_files
            or len(model.node_ids) != self.num_nodes
            or model.node_ids != self._node_ids
        ):
            raise OptimizationError(
                "rebind requires a model with the same files and node set"
            )
        if tuple(spec.placement for spec in files) != self._placement_signature:
            raise OptimizationError("rebind requires identical chunk placements")
        self._bind(model)
        return self

    def initial_pi(self) -> np.ndarray:
        """Uniform no-cache starting point ``pi_{i,j} = k_i / n_i``."""
        return (self.k_values / self.n_values)[self.pair_file]

    def from_state(self, state: SolutionState) -> np.ndarray:
        """Flatten a :class:`SolutionState` into a pair vector."""
        values = [
            value
            for file_position, node_ids in enumerate(self._file_node_ids)
            for value in map(
                state.probabilities[file_position].get, node_ids, repeat(0.0)
            )
        ]
        return np.asarray(values, dtype=float).reshape(self.num_pairs)

    def to_state(self, pi: np.ndarray, z: Optional[np.ndarray] = None) -> SolutionState:
        """Expand a pair vector (and optional z vector) into a SolutionState."""
        pairs = zip(self._pair_node_ids, np.asarray(pi, dtype=float).tolist())
        probabilities: List[Dict[int, float]] = [
            dict(islice(pairs, len(node_ids))) for node_ids in self._file_node_ids
        ]
        if z is None:
            z = self.optimal_z(pi)
        return SolutionState(
            probabilities=probabilities,
            z_values=np.asarray(z, dtype=float).tolist(),
        )

    # ------------------------------------------------------------------
    # Queueing quantities
    # ------------------------------------------------------------------

    def node_rates(self, pi: np.ndarray) -> np.ndarray:
        """Aggregate chunk arrival rate ``Lambda_j`` at every node."""
        contributions = self.pair_rates * pi
        return np.bincount(self.pair_node, weights=contributions, minlength=self.num_nodes)

    def queue_moments(self, node_rates: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised Eqs. (3)-(4): mean and variance of node sojourn times."""
        rho = np.minimum(node_rates / self.mu, _RHO_CLAMP)
        effective_rates = rho * self.mu
        one_minus_rho = 1.0 - rho
        mean = 1.0 / self.mu + effective_rates * self.gamma2 / (2.0 * one_minus_rho)
        variance = (
            self.sigma2
            + effective_rates * self.gamma3 / (3.0 * one_minus_rho)
            + effective_rates**2 * self.gamma2**2 / (4.0 * one_minus_rho**2)
        )
        return mean, variance

    def queue_moment_derivatives(self, node_rates: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Derivatives of the node moments with respect to ``Lambda_j``."""
        rho = np.minimum(node_rates / self.mu, _RHO_CLAMP)
        effective_rates = rho * self.mu
        one_minus_rho = 1.0 - rho
        d_mean = self.gamma2 / (2.0 * one_minus_rho**2)
        d_var = (
            self.gamma3 / (3.0 * one_minus_rho**2)
            + effective_rates * self.gamma2**2 / (2.0 * one_minus_rho**2)
            + effective_rates**2 * self.gamma2**2 / (2.0 * self.mu * one_minus_rho**3)
        )
        return d_mean, d_var

    # ------------------------------------------------------------------
    # Objective, bounds and gradients
    # ------------------------------------------------------------------

    def per_file_bounds(self, pi: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Per-file Lemma-1 bounds evaluated at the given ``z``."""
        mean, variance = self.queue_moments(self.node_rates(pi))
        diff = mean[self.pair_node] - z[self.pair_file]
        root = np.sqrt(diff * diff + variance[self.pair_node])
        pair_terms = 0.5 * pi * (diff + root)
        return z + self._file_sum(pair_terms)

    def objective(self, pi: np.ndarray, z: np.ndarray) -> float:
        """The weighted latency objective of Eq. (6)."""
        return float(np.dot(self.weights, self.per_file_bounds(pi, z)))

    def objective_and_gradient(
        self, pi: np.ndarray, z: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """Objective value and its gradient with respect to ``pi``.

        Each ``pi_{i,j}`` has a direct effect on the file-``i`` bound and an
        indirect effect through the node load ``Lambda_j`` which every file
        scheduling that node experiences; both are included.
        """
        node_rates = self.node_rates(pi)
        mean, variance = self.queue_moments(node_rates)
        d_mean, d_var = self.queue_moment_derivatives(node_rates)

        diff = mean[self.pair_node] - z[self.pair_file]
        root = np.sqrt(diff * diff + variance[self.pair_node])
        safe_root = np.where(root > 0.0, root, 1.0)

        pair_weights = self.pair_weights
        pair_terms = 0.5 * pi * (diff + root)
        bounds = z + self._file_sum(pair_terms)
        objective = float(np.dot(self.weights, bounds))

        direct = pair_weights * 0.5 * (diff + root)

        # Sensitivity of the whole objective to each node's moments.
        d_bound_d_mean = pair_weights * 0.5 * pi * (1.0 + np.where(root > 0.0, diff / safe_root, 1.0))
        d_bound_d_var = np.where(root > 0.0, pair_weights * 0.25 * pi / safe_root, 0.0)
        sensitivity_mean = np.bincount(
            self.pair_node, weights=d_bound_d_mean, minlength=self.num_nodes
        )
        sensitivity_var = np.bincount(
            self.pair_node, weights=d_bound_d_var, minlength=self.num_nodes
        )

        coupling = self.pair_rates * (
            sensitivity_mean[self.pair_node] * d_mean[self.pair_node]
            + sensitivity_var[self.pair_node] * d_var[self.pair_node]
        )
        gradient = direct + coupling
        return objective, gradient

    # ------------------------------------------------------------------
    # Auxiliary variables z
    # ------------------------------------------------------------------

    def optimal_z(self, pi: np.ndarray, iterations: int = 80) -> np.ndarray:
        """Vectorised per-file bisection for the optimal ``z_i >= 0``.

        The per-file objective is convex in ``z_i`` with derivative
        ``1 - sum_j (pi_{i,j}/2) (1 + diff / root)``; the root of the
        derivative is bracketed in ``[0, max_j(E[Q_j] + sqrt(Var[Q_j]))]``
        and found by simultaneous bisection over all files.
        """
        mean, variance = self.queue_moments(self.node_rates(pi))
        pair_mean = mean[self.pair_node]
        pair_var = variance[self.pair_node]

        upper_candidate = pair_mean + np.sqrt(np.maximum(pair_var, 0.0))
        active = pi > 0.0
        upper = np.maximum(
            self._file_max(np.where(active, upper_candidate, 0.0)), 1e-12
        )

        lower = np.zeros(self.num_files)

        def derivative(z: np.ndarray) -> np.ndarray:
            diff = pair_mean - z[self.pair_file]
            root = np.sqrt(diff * diff + pair_var)
            safe_root = np.where(root > 0.0, root, 1.0)
            terms = 0.5 * pi * (1.0 + np.where(root > 0.0, diff / safe_root, 0.0))
            return 1.0 - self._file_sum(terms)

        # Files whose derivative at z=0 is already non-negative sit at z=0.
        at_zero = derivative(np.zeros(self.num_files)) >= 0.0
        # Expand the bracket for files whose derivative is still negative at
        # the initial upper bound (possible with pi summing to > 2).
        for _ in range(60):
            negative_at_upper = derivative(upper) < 0.0
            negative_at_upper &= ~at_zero
            if not np.any(negative_at_upper):
                break
            upper[negative_at_upper] *= 2.0

        for _ in range(iterations):
            midpoint = 0.5 * (lower + upper)
            # A file whose midpoint rounds onto a bracket end has reached
            # the bisection's fixed point: every later step leaves its z at
            # this midpoint, so stop once all files not at zero are there.
            if np.all(at_zero | (midpoint == lower) | (midpoint == upper)):
                break
            negative = derivative(midpoint) < 0.0
            lower = np.where(negative, midpoint, lower)
            upper = np.where(negative, upper, midpoint)
        z = 0.5 * (lower + upper)
        z[at_zero] = 0.0
        return np.maximum(z, 0.0)

    # ------------------------------------------------------------------
    # Cache allocation helpers
    # ------------------------------------------------------------------

    def file_sums(self, pi: np.ndarray) -> np.ndarray:
        """Per-file totals ``s_i = sum_j pi_{i,j}``."""
        return self._file_sum(pi)

    def cache_allocation(self, pi: np.ndarray) -> np.ndarray:
        """Per-file cache allocations ``d_i = k_i - s_i`` (possibly fractional)."""
        return self.k_values - self.file_sums(pi)

    def cache_usage(self, pi: np.ndarray) -> float:
        """Total cache usage ``sum_i d_i``."""
        return float(np.sum(self.cache_allocation(pi)))

    def required_total(self) -> float:
        """Lower bound ``T = sum_i k_i - C`` on the total of all ``pi``."""
        return float(self.k_values.sum() - self.cache_capacity)

    # ------------------------------------------------------------------
    # Projection onto the Prob-Pi feasible polytope
    # ------------------------------------------------------------------

    def project(
        self,
        pi: np.ndarray,
        lower_sums: np.ndarray,
        upper_sums: np.ndarray,
        fixed_mask: Optional[np.ndarray] = None,
        fixed_values: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Euclidean projection onto the feasible set of Prob Pi.

        Parameters
        ----------
        pi:
            The point to project (pair vector).
        lower_sums, upper_sums:
            Per-file bounds ``K_L,i`` and ``K_U,i`` on ``sum_j pi_{i,j}``.
        fixed_mask, fixed_values:
            Optional per-pair mask of coordinates that are frozen at
            ``fixed_values`` (used to pin fully-rounded files).

        Notes
        -----
        A one-shot :class:`PolytopeProjection`, which finds the coupling
        multiplier and the per-file shifts by safeguarded Newton steps on
        their breakpoints.  Solvers that project many points onto one
        polytope keep a :class:`PolytopeProjection`, so that each call
        starts from the previous call's solution.
        """
        projection = PolytopeProjection(
            self, lower_sums, upper_sums, fixed_mask, fixed_values
        )
        return projection(pi)


class PolytopeProjection:
    """Euclidean projection onto one Prob-Pi polytope.

    The polytope is ``{x : 0 <= x <= 1, K_L,i <= sum_{j in S_i} x_{i,j} <=
    K_U,i, sum x >= T, x = fixed on the pinned pairs}`` with
    ``T = sum_i k_i - C``.  Pinned pairs drop out: each file's bounds and
    ``T`` shrink by the pinned totals, and the file bounds are clipped to
    what the file's free pairs can hold.  On the free pairs the projection
    of ``v`` is ``x = clip(v + clamp(nu, a_i, b_i), 0, 1)``, where ``a_i``
    and ``b_i`` solve ``f_i(theta) = sum_j clip(v_j + theta, 0, 1) = K_L,i``
    and ``= K_U,i``, and the coupling multiplier ``nu >= 0`` is ``0`` when
    ``G(0) = sum_i clamp(f_i(0), K_L,i, K_U,i) >= T``, else the root of
    ``G(nu) = T``.  Every ``f_i`` and ``G`` is non-decreasing and piecewise
    linear, with breakpoints where a coordinate enters or leaves the box,
    so :func:`_newton_roots` finds ``nu`` and then the shifts of the files
    whose ``f_i(nu)`` leaves its bounds (Kiwiel, Math. Prog. 2008; Condat,
    Math. Prog. 2016).

    Each call starts its ``nu`` search at the previous call's root, which
    successive iterates of a converging solver barely move; a clamped
    file's search starts at ``nu``, one end of its bracket.  Solvers create
    one instance per solve, so a solve's output depends only on its inputs.

    Raises
    ------
    InfeasibleError
        When a file's lower bound exceeds its upper bound, or the file
        bounds cannot reach ``T``.
    """

    def __init__(
        self,
        system: VectorizedSystem,
        lower_sums: np.ndarray,
        upper_sums: np.ndarray,
        fixed_mask: Optional[np.ndarray] = None,
        fixed_values: Optional[np.ndarray] = None,
    ):
        lower_sums = np.asarray(lower_sums, dtype=float)
        upper_sums = np.asarray(upper_sums, dtype=float)
        if np.any(lower_sums > upper_sums + 1e-12):
            raise InfeasibleError("per-file lower sum exceeds upper sum")
        self._free: Optional[np.ndarray] = None
        self._template: Optional[np.ndarray] = None
        pair_file = system.pair_file
        fixed_sums = np.zeros(system.num_files)
        if fixed_mask is not None and np.any(fixed_mask):
            fixed_mask = np.asarray(fixed_mask, dtype=bool)
            values = np.zeros(system.num_pairs) if fixed_values is None else fixed_values
            self._template = np.where(fixed_mask, values, 0.0)
            self._free = np.flatnonzero(~fixed_mask)
            fixed_sums = system.file_sums(self._template)
            pair_file = pair_file[self._free]
        counts = np.bincount(pair_file, minlength=system.num_files)
        files = np.flatnonzero(counts)
        self._counts = counts[files]
        self._offsets = np.concatenate([[0], np.cumsum(self._counts)[:-1]])
        self._segment = np.repeat(np.arange(files.size), self._counts)
        sizes = self._counts.astype(float)
        self._lower = np.clip(lower_sums[files] - fixed_sums[files], 0.0, sizes)
        self._upper = np.clip(upper_sums[files] - fixed_sums[files], 0.0, sizes)
        self._target = system.required_total() - float(fixed_sums.sum())
        max_total = float(self._upper.sum())
        if self._target > max_total + 1e-9:
            raise InfeasibleError(
                "cache capacity constraint cannot be met: requires total "
                f"{self._target:.3f} but the per-file bounds only allow "
                f"{max_total:.3f}"
            )
        # The coupling multiplier of the last call: the next call's start.
        self._nu = 0.0

    def __call__(self, point: np.ndarray) -> np.ndarray:
        point = np.asarray(point, dtype=float)
        values = point if self._free is None else point[self._free]
        if values.size:
            values = self._project(values)
        if self._template is None:
            return values
        out = self._template.copy()
        out[self._free] = values
        return out

    def _project(self, values: np.ndarray) -> np.ndarray:
        offsets, segment = self._offsets, self._segment
        lower, upper, target = self._lower, self._upper, self._target
        shifted = np.empty_like(values)
        clipped = np.empty_like(values)
        evaluated = {}

        def coupling(nu: np.ndarray):
            np.add(values, nu, out=shifted)
            np.clip(shifted, 0.0, 1.0, out=clipped)
            sums = segment_sum(clipped, offsets)
            evaluated["nu"], evaluated["sums"] = float(nu[0]), sums

            def slopes(residual: np.ndarray) -> np.ndarray:
                if residual[0] > 0.0:
                    moving = (shifted >= 0.0) & (shifted < 1.0)
                    open_files = (sums >= lower) & (sums < upper)
                else:
                    moving = (shifted > 0.0) & (shifted <= 1.0)
                    open_files = (sums > lower) & (sums <= upper)
                return np.array([float(np.count_nonzero(moving & open_files[segment]))])

            return np.array([target - float(np.clip(sums, lower, upper).sum())]), slopes

        smallest = float(values.min())
        if np.isnan(smallest):
            raise OptimizationError("cannot project a point with NaN coordinates")
        high = max(1.0 - smallest, 0.0)
        nu = float(
            _newton_roots(
                coupling,
                np.array([min(self._nu, high)]),
                np.array([-np.inf]),
                np.array([high]),
                0.0,
                _ROOT_RTOL * max(1.0, abs(target)),
            )[0]
        )
        if evaluated["nu"] == nu:
            sums = evaluated["sums"]
        else:
            np.clip(values + nu, 0.0, 1.0, out=clipped)
            sums = segment_sum(clipped, offsets)

        # Files whose sum at nu leaves [lower, upper] sit on that bound: their
        # own shift solves f_i(theta) = bound, bracketed by nu on one side and
        # by a box corner (-max v or 1 - min v) on the other.
        below = sums < lower - _ROOT_RTOL
        above = sums > upper + _ROOT_RTOL
        violating = np.flatnonzero(below | above)
        self._nu = nu
        if not violating.size:
            return clipped
        lifted = below[violating]
        targets = np.where(lifted, lower[violating], upper[violating])
        shifts = _ClipSums(
            values[(below | above)[segment]], self._counts[violating], targets
        )
        shift = np.full(offsets.size, nu)
        shift[violating] = _newton_roots(
            shifts,
            np.full(violating.size, nu),
            np.where(lifted, nu, -float(values.max())),
            np.where(lifted, 1.0 - smallest, nu),
            -np.inf,
            _ROOT_RTOL * np.maximum(targets, 1.0),
        )
        return np.clip(values + shift[segment], 0.0, 1.0)
