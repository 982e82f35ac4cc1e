"""Fig. 3: convergence of Algorithm 1 for different cache sizes.

The paper runs the cache optimization on the default 1000-file model for
cache sizes C = 100..700 chunks, warm-starting each size from the previous
one's converged solution, and plots the objective (average latency bound)
against the iteration count; every run converges in fewer than 20 iterations
with a 0.01 s tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.api.experiments import register_experiment
from repro.core.algorithm import CacheOptimizer
from repro.core.vectorized import SolutionState, VectorizedSystem
from repro.exec import ProgressLike, sweep_scan
from repro.workloads.catalog import paper_default_model


@dataclass
class ConvergenceCurve:
    """Objective trace of one cache-size run."""

    cache_size: int
    objective_trace: List[float]
    converged: bool
    outer_iterations: int

    @property
    def final_latency(self) -> float:
        """The converged latency bound (seconds)."""
        return self.objective_trace[-1]


@dataclass
class Fig3Result:
    """All convergence curves of the experiment."""

    curves: List[ConvergenceCurve] = field(default_factory=list)
    num_files: int = 0
    tolerance: float = 0.01

    def max_iterations(self) -> int:
        """Largest iteration count over all cache sizes."""
        return max(curve.outer_iterations for curve in self.curves)


@register_experiment(
    "fig3",
    title="Convergence of Algorithm 1 (Fig. 3)",
    description="objective trace of the alternating minimization per cache size",
    scales={"fast": {"cache_sizes": (20, 40, 60, 80, 100), "num_files": 100}},
)
def run(
    cache_sizes: Sequence[int] = (100, 200, 300, 400, 500, 600, 700),
    num_files: int = 1000,
    tolerance: float = 0.01,
    seed: int = 2016,
    pi_max_iterations: int = 80,
    rounding_fraction: float = 0.3,
    progress: ProgressLike = None,
) -> Fig3Result:
    """Run the Fig. 3 convergence experiment.

    Parameters
    ----------
    cache_sizes:
        Cache sizes (in chunks) to sweep; the converged solution of each size
        warm-starts the next, exactly as in the paper.  The chain is
        inherently sequential (each point's warm start IS the previous
        solution), so it runs as a ``sweep_scan``, never in parallel.
    num_files:
        Number of files (1000 in the paper; smaller values give a faster,
        shape-preserving run for CI).
    """
    base_model = paper_default_model(
        num_files=num_files, cache_capacity=cache_sizes[0], seed=seed
    )

    def solve_size(cache_size, carry):
        warm_start, system = carry if carry is not None else (None, None)
        # One model instance and one compiled system serve the whole sweep:
        # only the cache capacity changes between the sizes.
        model = base_model.copy_with_cache_capacity(cache_size)
        optimizer = CacheOptimizer(
            model,
            tolerance=tolerance,
            pi_max_iterations=pi_max_iterations,
            rounding_fraction=rounding_fraction,
            system=system,
        )
        outcome = optimizer.optimize(initial_state=warm_start)
        curve = ConvergenceCurve(
            cache_size=cache_size,
            objective_trace=list(outcome.objective_trace),
            converged=outcome.converged,
            outer_iterations=outcome.outer_iterations,
        )
        # Warm-start the next size from this converged solution.
        placement = outcome.placement
        next_start = SolutionState(
            probabilities=[
                dict(entry.scheduling_probabilities) for entry in placement.files
            ],
            z_values=[0.0] * model.num_files,
        )
        return curve, (next_start, optimizer.system)

    curves = sweep_scan(
        solve_size, list(cache_sizes), label="fig3", progress=progress
    )
    return Fig3Result(curves=curves, num_files=num_files, tolerance=tolerance)


def format_result(result: Fig3Result) -> str:
    """Render the convergence curves as the series the paper plots."""
    lines = [
        f"Fig. 3 -- convergence of Algorithm 1 "
        f"(r={result.num_files} files, tolerance={result.tolerance})",
        f"{'C (chunks)':>12} {'iterations':>11} {'final latency (s)':>18}  trace",
    ]
    for curve in result.curves:
        trace = ", ".join(f"{value:.2f}" for value in curve.objective_trace)
        lines.append(
            f"{curve.cache_size:>12} {curve.outer_iterations:>11} "
            f"{curve.final_latency:>18.3f}  [{trace}]"
        )
    lines.append(
        f"max iterations over all cache sizes: {result.max_iterations()} "
        "(paper: < 20)"
    )
    return "\n".join(lines)
