"""Fig. 4: average latency versus cache size.

The paper sweeps the cache size of the default 1000-file model from 0 to
4000 chunks (4000 = every file keeps all four of its chunks in the cache)
and plots the optimized average latency: it decreases convexly and reaches
(approximately) zero at 4000 chunks, showing diminishing returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.api.experiments import register_experiment
from repro.core.algorithm import CacheOptimizer
from repro.core.vectorized import SolutionState, VectorizedSystem
from repro.exec import ProgressLike, sweep_scan
from repro.workloads.catalog import paper_default_model


@dataclass
class CacheSizePoint:
    """One point of the latency-vs-cache-size curve."""

    cache_size: int
    latency: float
    cached_chunks: int


@dataclass
class Fig4Result:
    """The full latency-vs-cache-size sweep."""

    points: List[CacheSizePoint] = field(default_factory=list)
    num_files: int = 0

    def latencies(self) -> List[float]:
        """Latency series in sweep order."""
        return [point.latency for point in self.points]

    def is_nonincreasing(self, tolerance: float = 1e-6) -> bool:
        """Whether latency never increases as the cache grows."""
        series = self.latencies()
        return all(b <= a + tolerance for a, b in zip(series, series[1:]))


@register_experiment(
    "fig4",
    title="Latency vs cache size (Fig. 4)",
    description="converged latency bound as the cache grows from 0 to full",
    scales={"fast": {"num_files": 100}},
)
def run(
    cache_sizes: Optional[Sequence[int]] = None,
    num_files: int = 1000,
    seed: int = 2016,
    tolerance: float = 0.01,
    pi_max_iterations: int = 80,
    rounding_fraction: float = 0.3,
    progress: ProgressLike = None,
) -> Fig4Result:
    """Run the Fig. 4 cache-size sweep.

    ``cache_sizes`` defaults to 0..4k in steps of k/2 files' worth of chunks
    scaled to ``num_files`` (so a 100-file run sweeps 0..400).  Each size
    warm-starts from the previous converged solution, so the sweep is a
    sequential ``sweep_scan``, never a parallel fan-out.
    """
    if cache_sizes is None:
        full_cache = 4 * num_files
        step = max(full_cache // 8, 1)
        cache_sizes = list(range(0, full_cache + 1, step))
    base_model = paper_default_model(
        num_files=num_files, cache_capacity=0, seed=seed
    )

    def solve_size(cache_size, carry):
        warm_start, system = carry if carry is not None else (None, None)
        # One model instance and one compiled system serve the whole sweep:
        # only the cache capacity changes between the points.
        model = base_model.copy_with_cache_capacity(cache_size)
        optimizer = CacheOptimizer(
            model,
            tolerance=tolerance,
            pi_max_iterations=pi_max_iterations,
            rounding_fraction=rounding_fraction,
            system=system,
        )
        outcome = optimizer.optimize(initial_state=warm_start)
        placement = outcome.placement
        point = CacheSizePoint(
            cache_size=cache_size,
            latency=placement.objective,
            cached_chunks=placement.total_cached_chunks,
        )
        next_start = SolutionState(
            probabilities=[
                dict(entry.scheduling_probabilities) for entry in placement.files
            ],
            z_values=[0.0] * model.num_files,
        )
        return point, (next_start, optimizer.system)

    points = sweep_scan(
        solve_size, list(cache_sizes), label="fig4", progress=progress
    )
    return Fig4Result(points=points, num_files=num_files)


def format_result(result: Fig4Result) -> str:
    """Render the sweep as the rows behind Fig. 4."""
    lines = [
        f"Fig. 4 -- average latency vs cache size (r={result.num_files} files)",
        f"{'C (chunks)':>12} {'avg latency (s)':>16} {'chunks cached':>14}",
    ]
    for point in result.points:
        lines.append(
            f"{point.cache_size:>12} {point.latency:>16.3f} {point.cached_chunks:>14}"
        )
    lines.append(
        "latency non-increasing in cache size: "
        f"{result.is_nonincreasing()} (paper: convex decreasing to ~0)"
    )
    return "\n".join(lines)
