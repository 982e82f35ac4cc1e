"""Solvers for the ``Prob Pi`` sub-problem of Algorithm 1.

For fixed auxiliary variables ``z_i`` the paper minimizes the objective of
Eq. (6) over the scheduling probabilities ``pi_{i,j}`` in the polytope

    0 <= pi_{i,j} <= 1,              pi_{i,j} = 0 for j not in S_i,
    K_L,i <= sum_j pi_{i,j} <= K_U,i,
    sum_i (k_i - sum_j pi_{i,j}) <= C,

treating it as convex (the online re-solver's docstring records a case
where the implemented objective is not).  The paper solves it with
projected gradient descent, using MOSEK for the projection step.  Both
solvers here use the exact polytope projection of
:class:`repro.core.vectorized.PolytopeProjection`, whose multiplier and
per-file shifts are roots of piecewise-linear functions found by a few
safeguarded Newton steps.  Each solve builds one projection for its bounds
and reuses it, so every projection starts its root searches from the
previous one's solution:

* :func:`solve_projected_gradient` -- Armijo-backtracking projected
  gradient descent, the Prob-Pi step of Algorithm 1
  (:class:`repro.core.algorithm.CacheOptimizer`).
* :func:`solve_fista` -- accelerated projected gradient (FISTA with a
  monotone restart and backtracking Lipschitz estimation), the workhorse of
  the online re-solver in :mod:`repro.control.resolve`; it accepts a custom
  ``projector`` so warm-started solves can project over a reduced active
  set.

Both take the starting point as ``initial_pi``: the online controller passes
the previous bin's converged iterate there, which is what makes per-drift
re-solves cheap relative to cold starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.core.vectorized import PolytopeProjection, VectorizedSystem
from repro.exceptions import OptimizationError


@dataclass
class ProbPiResult:
    """Outcome of a Prob-Pi solve."""

    pi: np.ndarray
    objective: float
    iterations: int
    converged: bool
    #: Final backtracked Lipschitz estimate (FISTA only); carrying it into
    #: the next warm solve skips the initial step-size search.
    lipschitz: float = 0.0


def solve_projected_gradient(
    system: VectorizedSystem,
    z: np.ndarray,
    lower_sums: np.ndarray,
    upper_sums: np.ndarray,
    initial_pi: Optional[np.ndarray] = None,
    fixed_mask: Optional[np.ndarray] = None,
    fixed_values: Optional[np.ndarray] = None,
    max_iterations: int = 120,
    tolerance: float = 1e-6,
    initial_step: float = 1.0,
) -> ProbPiResult:
    """Projected gradient descent with Armijo backtracking.

    Parameters
    ----------
    system:
        The compiled system providing objective, gradient and projection.
    z:
        Fixed per-file auxiliary variables.
    lower_sums, upper_sums:
        Per-file bounds ``K_L,i`` / ``K_U,i`` on ``sum_j pi_{i,j}``.
    initial_pi:
        Warm-start point; defaults to the projected no-cache start.
    fixed_mask, fixed_values:
        Per-pair coordinates frozen by the integer-rounding outer loop.
    """
    if initial_pi is None:
        initial_pi = system.initial_pi()
    project = PolytopeProjection(
        system, lower_sums, upper_sums, fixed_mask, fixed_values
    )
    pi = project(initial_pi)
    objective, gradient = system.objective_and_gradient(pi, z)
    step = initial_step
    converged = False
    iterations_used = 0
    for iteration in range(max_iterations):
        iterations_used = iteration + 1
        candidate = project(pi - step * gradient)
        direction = candidate - pi
        direction_norm = float(np.linalg.norm(direction))
        if direction_norm < tolerance:
            converged = True
            break
        # Armijo backtracking *along the feasible segment* pi -> candidate:
        # both endpoints are feasible, so every interior point is feasible
        # and no further projections are needed during the line search.
        expected_decrease = float(np.dot(gradient, direction))
        alpha = 1.0
        candidate_objective = system.objective(pi + alpha * direction, z)
        backtracks = 0
        while (
            candidate_objective > objective + 1e-4 * alpha * expected_decrease
            and backtracks < 25
        ):
            alpha *= 0.5
            candidate_objective = system.objective(pi + alpha * direction, z)
            backtracks += 1
        if candidate_objective >= objective - 1e-15:
            # No descent even with a tiny step: treat as converged.
            converged = True
            break
        improvement = objective - candidate_objective
        pi = pi + alpha * direction
        objective, gradient = system.objective_and_gradient(pi, z)
        if backtracks == 0:
            step *= 1.5
        elif backtracks > 2:
            step *= 0.5
        if improvement < tolerance * max(abs(objective), 1.0):
            converged = True
            break
    return ProbPiResult(
        pi=pi, objective=objective, iterations=iterations_used, converged=converged
    )


#: Backtracking doublings of ``L`` before/after which solve_fista falls back
#: from the quadratic-model test to plain monotone descent (see below).
_MIN_BACKTRACKS = 30
_MAX_BACKTRACKS = 60


def solve_fista(
    system: VectorizedSystem,
    z: np.ndarray,
    lower_sums: np.ndarray,
    upper_sums: np.ndarray,
    initial_pi: Optional[np.ndarray] = None,
    fixed_mask: Optional[np.ndarray] = None,
    fixed_values: Optional[np.ndarray] = None,
    max_iterations: int = 400,
    tolerance: float = 1e-10,
    check_window: int = 20,
    initial_lipschitz: float = 1.0,
    projector: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> ProbPiResult:
    """Accelerated projected gradient (FISTA) with a monotone restart.

    The step size is governed by a backtracked Lipschitz estimate ``L``:
    whenever the quadratic upper model at ``L`` is violated the estimate
    doubles, and after every accepted step it decays slightly (x0.95, or
    x0.9 on a restart) so the method re-probes for longer steps as the
    local curvature flattens.  Acceleration is restarted (momentum reset,
    iterate rewound) whenever the candidate would increase the objective,
    which keeps the iteration monotone -- important because the stopping
    rule is *windowed improvement*: every ``check_window`` iterations the
    solver stops once the objective improved by less than
    ``tolerance * max(|objective|, 1)`` over the window.  Unlike a
    gradient-norm test this is robust to the slow tail of the condition
    number and is what the warm/cold parity guarantee of
    :mod:`repro.control.resolve` is calibrated against.

    Parameters
    ----------
    projector:
        Optional replacement for the solve's own
        :class:`~repro.core.vectorized.PolytopeProjection`: a callable
        mapping a trial point to its projection onto the feasible set.  The online
        re-solver passes a reduced active-set projector here so warm
        solves only pay for the coordinates the previous solution left
        strictly inside the box.
    initial_lipschitz:
        Starting value of the backtracked Lipschitz estimate; pass the
        ``lipschitz`` field of a previous result to skip the warm-up.
    """
    if initial_pi is None:
        initial_pi = system.initial_pi()
    if projector is None:
        projector = PolytopeProjection(
            system, lower_sums, upper_sums, fixed_mask, fixed_values
        )
    if initial_lipschitz <= 0.0:
        raise OptimizationError("initial_lipschitz must be positive")

    pi = projector(np.asarray(initial_pi, dtype=float))
    momentum_point = pi.copy()
    t = 1.0
    objective = system.objective(pi, z)
    lipschitz = float(initial_lipschitz)
    anchor = objective
    iterations_used = 0
    converged = False
    for iteration in range(max_iterations):
        iterations_used = iteration + 1
        objective_y, gradient_y = system.objective_and_gradient(momentum_point, z)
        # Backtracking: double L until the quadratic model at L upper-bounds
        # the objective at the projected gradient step.  Near a queueing
        # saturation pole the gradient spans many orders of magnitude and
        # the linear term of the model wildly overestimates the possible
        # descent, so no finite L satisfies the test even though the
        # candidates descend enormously; after a bounded number of
        # doublings, accept any candidate that strictly improves on the
        # current objective (plain monotone descent still converges).
        for backtrack in range(_MAX_BACKTRACKS + 1):
            candidate = projector(momentum_point - gradient_y / lipschitz)
            step = candidate - momentum_point
            quadratic = (
                objective_y
                + float(np.dot(gradient_y, step))
                + 0.5 * lipschitz * float(np.dot(step, step))
            )
            candidate_objective = system.objective(candidate, z)
            if candidate_objective <= quadratic + 1e-12:
                break
            if backtrack >= _MIN_BACKTRACKS and candidate_objective < objective:
                break
            lipschitz *= 2.0
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        if candidate_objective > objective:
            # Monotone restart: rewind to the best iterate, drop momentum.
            momentum_point = pi.copy()
            t = 1.0
            lipschitz *= 0.9
        else:
            momentum = (t - 1.0) / t_next
            momentum_point = candidate + momentum * (candidate - pi)
            pi = candidate
            objective = candidate_objective
            t = t_next
            lipschitz *= 0.95
        if (iteration + 1) % check_window == 0:
            if anchor - objective < tolerance * max(abs(objective), 1.0):
                converged = True
                break
            anchor = objective
    return ProbPiResult(
        pi=pi,
        objective=objective,
        iterations=iterations_used,
        converged=converged,
        lipschitz=lipschitz,
    )
