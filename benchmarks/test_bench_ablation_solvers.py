"""Ablation benchmark: Algorithm 1's solver and exact vs functional caching.

Two design choices called out in DESIGN.md are benchmarked here:

* Algorithm 1 with its projected-gradient Prob-Pi solver -- the converged
  objective and iteration counts, and
* functional caching vs exact caching with the *same* per-file allocation --
  the structural claim of Section III that functional caching is never
  worse.

Solvers are resolved through the ``repro.api`` solver registry, so any
newly registered backend can be benchmarked the same way.
"""

from __future__ import annotations

import numpy as np
from conftest import print_report, timed_run

from repro.api import get_solver
from repro.baselines.exact import popularity_allocation
from repro.baselines.static import exact_vs_functional_bounds
from repro.workloads.catalog import paper_default_model


def _optimize(solver_name: str):
    model = paper_default_model(num_files=60, cache_capacity=30, seed=3, rate_scale=8.0)
    solver = get_solver(solver_name)
    return solver.optimize(model, tolerance=0.01, pi_max_iterations=80)


def _solver_metrics(outcome):
    return {
        "objective": outcome.final_objective,
        "outer_iterations": outcome.outer_iterations,
        "inner_solves": outcome.inner_solves,
    }


def test_ablation_projected_gradient(benchmark, scale):
    outcome, _ = timed_run(
        benchmark,
        "ablation_projected_gradient",
        scale,
        _optimize,
        "projected_gradient",
        metrics=_solver_metrics,
    )
    print_report(
        "Ablation -- Prob-Pi solver: projected gradient",
        f"objective = {outcome.final_objective:.4f} s, "
        f"outer iterations = {outcome.outer_iterations}",
    )
    assert outcome.converged


def test_ablation_functional_vs_exact(benchmark, scale):
    model = paper_default_model(num_files=80, cache_capacity=40, seed=5, rate_scale=8.0)
    allocation = popularity_allocation(model)

    def run():
        return exact_vs_functional_bounds(model, allocation)

    comparison, _ = timed_run(
        benchmark, "ablation_functional_vs_exact", scale, run
    )
    functional = np.array([v["functional"] for v in comparison.values()])
    exact = np.array([v["exact"] for v in comparison.values()])
    gain = 1.0 - functional.sum() / exact.sum()
    print_report(
        "Ablation -- functional vs exact caching (same allocation)",
        f"mean functional bound = {functional.mean():.3f} s, "
        f"mean exact bound = {exact.mean():.3f} s, "
        f"aggregate latency advantage of functional caching = {gain:.1%}",
    )
    # Both policies here use uniform (not optimized) scheduling, so the
    # guarantee of Section III applies to the aggregate objective rather
    # than to every file in isolation (the two policies induce different
    # node loads for the *other* files).
    assert functional.sum() <= exact.sum() * 1.02
