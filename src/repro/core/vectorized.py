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


def _piecewise_clip_sum_inverse(
    values: np.ndarray,
    segment_counts: np.ndarray,
    targets: np.ndarray,
) -> np.ndarray:
    """Solve ``sum_j clip(v_j + theta_s, 0, 1) = t_s`` for every segment.

    ``values`` holds the concatenated per-segment coordinates (segments are
    contiguous, with ``segment_counts[s]`` entries each) and ``targets`` the
    per-segment right-hand sides, pre-clamped to ``[0, n_s]``.  The map
    ``theta -> sum_j clip(v_j + theta)`` is piecewise linear and
    non-decreasing with breakpoints at ``-v_j`` (coordinate leaves the lower
    clip) and ``1 - v_j`` (coordinate saturates), so the exact root is found
    by sorting the ``2 n_s`` breakpoints, accumulating the function value at
    each one, and interpolating inside the bracketing linear piece -- no
    iterative bisection.  Everything is segmented: one ``lexsort`` and a few
    cumulative sums solve all segments at once.
    """
    num_segments = segment_counts.size
    total = values.size
    width = int(segment_counts[0]) if num_segments else 0
    if num_segments and np.all(segment_counts == width):
        # Uniform-width fast path (the common case: every file is stored on
        # the same number of nodes): one per-row argsort over a
        # (segments, 2*width) matrix instead of a global lexsort.
        value_rows = values.reshape(num_segments, width)
        row_breaks = np.concatenate([-value_rows, 1.0 - value_rows], axis=1)
        row_slopes = np.concatenate(
            [np.ones((num_segments, width)), -np.ones((num_segments, width))], axis=1
        )
        order = np.argsort(row_breaks, axis=1)
        row_breaks = np.take_along_axis(row_breaks, order, axis=1)
        row_slopes = np.take_along_axis(row_slopes, order, axis=1)
        active = np.cumsum(row_slopes, axis=1)
        f = np.zeros_like(row_breaks)
        f[:, 1:] = np.cumsum(
            active[:, :-1] * (row_breaks[:, 1:] - row_breaks[:, :-1]), axis=1
        )
        position = np.sum(f < targets[:, None], axis=1)
        rows = np.arange(num_segments)
        high = np.clip(position, 0, 2 * width - 1)
        low = np.clip(position - 1, 0, 2 * width - 1)
        f_high = f[rows, high]
        f_low = f[rows, low]
        e_high = row_breaks[rows, high]
        e_low = row_breaks[rows, low]
        denominator = f_high - f_low
        safe = denominator > 0.0
        theta = np.where(
            safe,
            e_high
            - (f_high - targets) * (e_high - e_low) / np.where(safe, denominator, 1.0),
            e_high,
        )
        at_start = position <= 0
        past_end = position >= 2 * width
        theta[at_start] = row_breaks[at_start, 0]
        theta[past_end] = row_breaks[past_end, -1]
        return theta

    segments = np.repeat(np.arange(num_segments), segment_counts)

    breakpoints = np.concatenate([-values, 1.0 - values])
    slopes = np.concatenate([np.ones(total), -np.ones(total)])
    break_segments = np.concatenate([segments, segments])
    order = np.lexsort((breakpoints, break_segments))
    breakpoints = breakpoints[order]
    slopes = slopes[order]

    counts = segment_counts * 2
    ends = np.cumsum(counts)
    offsets = ends - counts

    # Active-coordinate count after each breakpoint (segmented cumsum).
    cumulative_slope = np.cumsum(slopes)
    slope_base = np.concatenate([[0.0], cumulative_slope[ends[:-1] - 1]])
    active = cumulative_slope - np.repeat(slope_base, counts)

    # Function value at each breakpoint: f[m] = f[m-1] + active[m-1] * gap.
    increments = np.zeros_like(breakpoints)
    increments[1:] = active[:-1] * (breakpoints[1:] - breakpoints[:-1])
    increments[offsets] = 0.0
    cumulative_f = np.cumsum(increments)
    f_base = np.concatenate([[0.0], cumulative_f[ends[:-1] - 1]])
    f = cumulative_f - np.repeat(f_base, counts)

    # Segmented searchsorted: shift every segment's (non-decreasing) f range
    # into its own disjoint band so one flat searchsorted finds, for every
    # segment, the first breakpoint with f >= t.
    band = float(segment_counts.max()) + 2.0
    bands = np.arange(num_segments) * band
    flat_f = f + np.repeat(bands, counts)
    insert = np.searchsorted(flat_f, targets + bands, side="left")
    position = insert - offsets

    high = np.clip(insert, 0, breakpoints.size - 1)
    low = np.clip(insert - 1, 0, breakpoints.size - 1)
    denominator = f[high] - f[low]
    safe = denominator > 0.0
    theta = np.where(
        safe,
        breakpoints[high]
        - (f[high] - targets)
        * (breakpoints[high] - breakpoints[low])
        / np.where(safe, denominator, 1.0),
        breakpoints[high],
    )
    at_start = position <= 0
    past_end = position >= counts
    theta[at_start] = breakpoints[offsets[at_start]]
    theta[past_end] = breakpoints[ends[past_end] - 1]
    return theta


class VectorizedSystem:
    """Array-based view of a storage-system model for fast optimization.

    Parameters
    ----------
    model:
        The storage-system model to compile.
    """

    def __init__(self, model: StorageSystemModel):
        self._model = model
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
        self.pair_file = np.asarray(pair_file, dtype=np.int64)
        self.pair_node = np.asarray(pair_node, dtype=np.int64)
        self.num_pairs = self.pair_file.size

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

        self.mu = np.asarray(
            [model.service(node_id).rate for node_id in self._node_ids], dtype=float
        )
        self.gamma2 = np.asarray(
            [model.service(node_id).second_moment for node_id in self._node_ids],
            dtype=float,
        )
        self.gamma3 = np.asarray(
            [model.service(node_id).third_moment for node_id in self._node_ids],
            dtype=float,
        )
        self.sigma2 = np.asarray(
            [model.service(node_id).variance for node_id in self._node_ids],
            dtype=float,
        )

        # The pair arrays are built file by file, so ``pair_file`` is sorted
        # and every file owns one contiguous segment: per-file reductions run
        # as ``np.add.reduceat`` over these offsets, which is considerably
        # faster than ``np.bincount`` with weights in the solver's inner
        # loop (projection bisections call ``file_sums`` hundreds of times
        # per solve).  Per-pair gathers of static file quantities are cached
        # here once instead of being re-gathered on every objective call.
        pair_counts = np.bincount(self.pair_file, minlength=self.num_files)
        self._file_segments_contiguous = bool(pair_counts.min() > 0)
        self._file_offsets = np.concatenate(
            [[0], np.cumsum(pair_counts)[:-1]]
        ).astype(np.int64)
        self.pair_weights = self.weights[self.pair_file]
        self.pair_rates = self.arrival_rates[self.pair_file]
        # Fingerprint of the placement structure, used by rebind() to refuse
        # models whose (file, node) pairs differ from the compiled arrays.
        self._placement_signature = tuple(spec.placement for spec in files)

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
        self.mu = np.asarray(
            [model.service(node_id).rate for node_id in self._node_ids], dtype=float
        )
        self.gamma2 = np.asarray(
            [model.service(node_id).second_moment for node_id in self._node_ids],
            dtype=float,
        )
        self.gamma3 = np.asarray(
            [model.service(node_id).third_moment for node_id in self._node_ids],
            dtype=float,
        )
        self.sigma2 = np.asarray(
            [model.service(node_id).variance for node_id in self._node_ids],
            dtype=float,
        )
        self.pair_weights = self.weights[self.pair_file]
        self.pair_rates = self.arrival_rates[self.pair_file]
        return self

    def initial_pi(self) -> np.ndarray:
        """Uniform no-cache starting point ``pi_{i,j} = k_i / n_i``."""
        return (self.k_values / self.n_values)[self.pair_file]

    def from_state(self, state: SolutionState) -> np.ndarray:
        """Flatten a :class:`SolutionState` into a pair vector."""
        pi = np.zeros(self.num_pairs, dtype=float)
        for pair_index in range(self.num_pairs):
            file_position = int(self.pair_file[pair_index])
            node_id = self._node_ids[int(self.pair_node[pair_index])]
            pi[pair_index] = state.probabilities[file_position].get(node_id, 0.0)
        return pi

    def to_state(self, pi: np.ndarray, z: Optional[np.ndarray] = None) -> SolutionState:
        """Expand a pair vector (and optional z vector) into a SolutionState."""
        probabilities: List[Dict[int, float]] = [dict() for _ in range(self.num_files)]
        for pair_index in range(self.num_pairs):
            file_position = int(self.pair_file[pair_index])
            node_id = self._node_ids[int(self.pair_node[pair_index])]
            probabilities[file_position][node_id] = float(pi[pair_index])
        if z is None:
            z = self.optimal_z(pi)
        return SolutionState(probabilities=probabilities, z_values=[float(v) for v in z])

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
        The single coupling constraint ``sum pi >= T`` is dualised with a
        multiplier ``nu >= 0``: the optimal point is the per-file projection
        of ``pi + nu``, and ``nu`` is found by bisection.  The projected
        total for a trial ``nu`` has the closed form
        ``sum_i clamp(sum_j clip(pi_{i,j} + nu, 0, 1), K_L,i, K_U,i)``, so
        the outer bisection never needs the (more expensive) per-file
        multipliers; those are solved only once, for the final ``nu``, by
        the exact segmented breakpoint solver
        :func:`_piecewise_clip_sum_inverse` (no inner bisection loops).
        """
        lower_sums = np.asarray(lower_sums, dtype=float)
        upper_sums = np.asarray(upper_sums, dtype=float)
        if np.any(lower_sums > upper_sums + 1e-12):
            raise InfeasibleError("per-file lower sum exceeds upper sum")

        if fixed_mask is None:
            fixed_mask = np.zeros(self.num_pairs, dtype=bool)
            any_fixed = False
        else:
            any_fixed = bool(np.any(fixed_mask))
        if fixed_values is None:
            fixed_values = np.zeros(self.num_pairs, dtype=float)

        target_total = self.required_total()
        work = np.empty_like(pi)

        def clipped(values: np.ndarray) -> np.ndarray:
            result = np.clip(values, 0.0, 1.0)
            if any_fixed:
                result[fixed_mask] = fixed_values[fixed_mask]
            return result

        def projected_total(nu: float) -> float:
            # Buffer-reusing fast path: this runs ~40 times per projection
            # inside the bisection, so it avoids fresh allocations.
            np.add(pi, nu, out=work)
            np.clip(work, 0.0, 1.0, out=work)
            if any_fixed:
                work[fixed_mask] = fixed_values[fixed_mask]
            sums = self._file_sum(work)
            np.clip(sums, lower_sums, upper_sums, out=sums)
            return float(sums.sum())

        def per_file_projection(values: np.ndarray) -> np.ndarray:
            projected = clipped(values)
            sums = self.file_sums(projected)
            below = sums < lower_sums - 1e-12
            above = sums > upper_sums + 1e-12
            needs_shift = below | above
            if not np.any(needs_shift):
                return projected
            # Per-file shift theta_i with x = clip(v + theta_i); the shift
            # only moves the non-fixed coordinates, so fixed contributions
            # are subtracted from the targets and excluded from the solve.
            free_mask = needs_shift[self.pair_file]
            targets = np.where(below, lower_sums, upper_sums)
            if any_fixed:
                free_mask &= ~fixed_mask
                fixed_contribution = self._file_sum(
                    np.where(fixed_mask, fixed_values, 0.0)
                )
                targets = targets - fixed_contribution
            free_counts = np.bincount(
                self.pair_file[free_mask], minlength=self.num_files
            )
            needs_shift &= free_counts > 0
            free_mask &= needs_shift[self.pair_file]
            violating = np.flatnonzero(needs_shift)
            if violating.size == 0:
                return projected
            segment_counts = free_counts[violating]
            segment_targets = np.clip(
                targets[violating], 0.0, segment_counts.astype(float)
            )
            theta = _piecewise_clip_sum_inverse(
                values[free_mask], segment_counts, segment_targets
            )
            shift = np.zeros(self.num_files)
            shift[violating] = theta
            return clipped(values + shift[self.pair_file])

        if target_total <= projected_total(0.0) + 1e-9:
            return per_file_projection(pi)

        # The cache-capacity constraint is violated: raise all coordinates by
        # a common multiplier nu until the projected total reaches T.
        max_total = float(np.minimum(upper_sums, self.n_values).sum())
        if target_total > max_total + 1e-9:
            raise InfeasibleError(
                "cache capacity constraint cannot be met: requires total "
                f"{target_total:.3f} but the per-file bounds only allow "
                f"{max_total:.3f}"
            )
        nu_low, nu_high = 0.0, 2.0
        for _ in range(40):
            if projected_total(nu_high) >= target_total - 1e-9:
                break
            nu_high *= 2.0
        while nu_high - nu_low > 1e-11 * max(1.0, nu_high):
            nu_mid = 0.5 * (nu_low + nu_high)
            if projected_total(nu_mid) < target_total:
                nu_low = nu_mid
            else:
                nu_high = nu_mid
        return per_file_projection(pi + nu_high)
