"""Scalar reference implementations the vectorised library code is checked against.

The library evaluates the Eq. (6) latency bound only through
:class:`repro.core.vectorized.VectorizedSystem`.  This module keeps the
straightforward per-file, dictionary-based evaluation of the same quantities
-- node moments, per-file Lemma-1 bounds, the weighted objective and its
gradient -- built directly on :mod:`repro.queueing.mg1` and
:mod:`repro.queueing.order_stats`, plus a SciPy SLSQP solve of Prob Pi that
serves as the reference optimum for
:func:`repro.core.prob_pi.solve_projected_gradient`.

Tests import it as ``scalar_oracle`` (``tests/`` is on ``sys.path`` through
the root ``conftest.py``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional

import numpy as np
from scipy import optimize

from repro.core.model import StorageSystemModel
from repro.core.prob_pi import ProbPiResult
from repro.core.vectorized import SolutionState, VectorizedSystem
from repro.exceptions import OptimizationError
from repro.queueing.mg1 import QueueMoments, queue_moment_derivatives, queue_moments
from repro.queueing.order_stats import latency_bound_at_z, optimal_z


def initial_solution(model: StorageSystemModel) -> SolutionState:
    """Build a feasible starting point with nothing in the cache.

    Every file spreads its ``k_i`` chunk requests uniformly over its ``n_i``
    hosting nodes (``pi_{i,j} = k_i / n_i <= 1``), which satisfies all
    constraints with ``d_i = 0``.
    """
    probabilities: List[Dict[int, float]] = []
    for spec in model.files:
        pi = spec.k / spec.n
        probabilities.append({node_id: pi for node_id in spec.placement})
    state = SolutionState(probabilities=probabilities, z_values=[0.0] * model.num_files)
    moments = node_moments(model, state)
    state.z_values = [
        optimal_z(file_probs, {j: moments[j] for j in file_probs})
        for file_probs in state.probabilities
    ]
    return state


def node_moments(
    model: StorageSystemModel,
    state: SolutionState,
    strict: bool = False,
) -> Dict[int, QueueMoments]:
    """Sojourn-time moments at every node under the candidate schedule."""
    arrival_rates = model.node_arrival_rates(state.probabilities)
    moments: Dict[int, QueueMoments] = {}
    for node_id in model.node_ids:
        moments[node_id] = queue_moments(
            arrival_rates[node_id], model.service(node_id), strict=strict
        )
    return moments


def per_file_bounds(
    model: StorageSystemModel,
    state: SolutionState,
    moments: Optional[Mapping[int, QueueMoments]] = None,
    use_given_z: bool = False,
) -> List[float]:
    """Per-file latency bounds ``U_i`` for the candidate solution.

    Parameters
    ----------
    use_given_z:
        When ``True`` the bounds are evaluated at the candidate ``z_i``;
        otherwise each file's bound is minimised over ``z_i`` (tightest).
    """
    if moments is None:
        moments = node_moments(model, state)
    bounds: List[float] = []
    for index, file_probs in enumerate(state.probabilities):
        relevant = {j: moments[j] for j in file_probs}
        if use_given_z and state.z_values:
            bounds.append(
                latency_bound_at_z(state.z_values[index], file_probs, relevant)
            )
        else:
            z_star = optimal_z(file_probs, relevant)
            bounds.append(latency_bound_at_z(z_star, file_probs, relevant))
    return bounds


def system_objective(
    model: StorageSystemModel,
    state: SolutionState,
    moments: Optional[Mapping[int, QueueMoments]] = None,
    use_given_z: bool = False,
) -> float:
    """The weighted objective of Eq. (6): ``sum_i (lambda_i / lambda_hat) U_i``."""
    total_rate = model.total_arrival_rate
    if total_rate <= 0:
        raise OptimizationError("total arrival rate must be positive")
    bounds = per_file_bounds(model, state, moments=moments, use_given_z=use_given_z)
    objective = 0.0
    for spec, bound in zip(model.files, bounds):
        objective += (spec.arrival_rate / total_rate) * bound
    return objective


def objective_gradient_pi(
    model: StorageSystemModel,
    state: SolutionState,
) -> List[Dict[int, float]]:
    """Gradient of the Eq. (6) objective with respect to every ``pi_{i,j}``.

    The objective couples files through the node arrival rates
    ``Lambda_j = sum_i lambda_i pi_{i,j}``: increasing ``pi_{i,j}`` both adds
    a direct term for file ``i`` and inflates the queueing moments that every
    file scheduling node ``j`` experiences.  Both effects are accounted for.
    """
    total_rate = model.total_arrival_rate
    arrival_rates = model.node_arrival_rates(state.probabilities)
    moments: Dict[int, QueueMoments] = {}
    moment_derivatives: Dict[int, tuple] = {}
    for node_id in model.node_ids:
        service = model.service(node_id)
        moments[node_id] = queue_moments(arrival_rates[node_id], service, strict=False)
        moment_derivatives[node_id] = queue_moment_derivatives(
            arrival_rates[node_id], service
        )

    # Pre-compute, for every node, the sensitivity of the whole objective to
    # the node's E[Q_j] and Var[Q_j]:  sum over files using that node of the
    # weighted partial derivatives of the Lemma-1 expression.
    sensitivity_mean: Dict[int, float] = {j: 0.0 for j in model.node_ids}
    sensitivity_var: Dict[int, float] = {j: 0.0 for j in model.node_ids}
    direct_terms: List[Dict[int, float]] = []
    for index, (spec, file_probs) in enumerate(zip(model.files, state.probabilities)):
        weight = spec.arrival_rate / total_rate
        z_i = state.z_values[index] if state.z_values else 0.0
        direct: Dict[int, float] = {}
        for node_id, pi in file_probs.items():
            moment = moments[node_id]
            diff = moment.mean - z_i
            root = math.sqrt(diff * diff + moment.variance)
            # Direct derivative of the file-i bound w.r.t. pi_{i,j}.
            direct[node_id] = weight * 0.5 * (diff + root)
            # Derivative w.r.t. the node moments (chain rule terms).
            if root > 0:
                d_mean = weight * 0.5 * pi * (1.0 + diff / root)
                d_var = weight * 0.25 * pi / root
            else:
                d_mean = weight * 0.5 * pi
                d_var = 0.0
            sensitivity_mean[node_id] += d_mean
            sensitivity_var[node_id] += d_var
        direct_terms.append(direct)

    gradients: List[Dict[int, float]] = []
    for spec, file_probs, direct in zip(model.files, state.probabilities, direct_terms):
        gradient: Dict[int, float] = {}
        for node_id in file_probs:
            d_mean_d_lambda, d_var_d_lambda = moment_derivatives[node_id]
            coupling = spec.arrival_rate * (
                sensitivity_mean[node_id] * d_mean_d_lambda
                + sensitivity_var[node_id] * d_var_d_lambda
            )
            gradient[node_id] = direct[node_id] + coupling
        gradients.append(gradient)
    return gradients


def solve_slsqp(
    system: VectorizedSystem,
    z: np.ndarray,
    lower_sums: np.ndarray,
    upper_sums: np.ndarray,
    initial_pi: Optional[np.ndarray] = None,
    max_iterations: int = 200,
) -> ProbPiResult:
    """Solve Prob Pi with ``scipy.optimize`` SLSQP (small instances only)."""
    if initial_pi is None:
        initial_pi = system.initial_pi()
    initial_pi = system.project(initial_pi, lower_sums, upper_sums)

    def objective(pi: np.ndarray) -> float:
        return system.objective(pi, z)

    def gradient(pi: np.ndarray) -> np.ndarray:
        return system.objective_and_gradient(pi, z)[1]

    constraints = []
    target_total = system.required_total()
    constraints.append(
        {"type": "ineq", "fun": lambda pi: float(pi.sum()) - target_total}
    )
    for file_position in range(system.num_files):
        mask = system.pair_file == file_position
        constraints.append(
            {
                "type": "ineq",
                "fun": (lambda pi, m=mask, u=float(upper_sums[file_position]): u - float(pi[m].sum())),
            }
        )
        constraints.append(
            {
                "type": "ineq",
                "fun": (lambda pi, m=mask, l=float(lower_sums[file_position]): float(pi[m].sum()) - l),
            }
        )
    bounds = [(0.0, 1.0)] * system.num_pairs
    result = optimize.minimize(
        objective,
        initial_pi,
        jac=gradient,
        bounds=bounds,
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": max_iterations, "ftol": 1e-9},
    )
    pi = np.clip(result.x, 0.0, 1.0)
    return ProbPiResult(
        pi=pi,
        objective=float(result.fun),
        iterations=int(result.nit),
        converged=bool(result.success),
    )
