"""Core contribution of the Sprout paper: the latency bound for functional
caching and the cache-content optimization (Algorithm 1).

Public entry points:

* :class:`repro.core.model.StorageSystemModel` -- files, codes, placement,
  server service distributions and per-file arrival rates.
* :class:`repro.core.vectorized.VectorizedSystem` -- the weighted latency
  bound of Eq. (6), its gradient and the per-file bounds for a candidate
  solution, plus the Prob-Z solve and the Prob-Pi polytope projection.
* :class:`repro.core.algorithm.CacheOptimizer` -- Algorithm 1 (alternating
  minimization with iterative integer rounding).
* :class:`repro.core.placement.CachePlacement` -- the optimized placement,
  scheduling probabilities and per-file latency bounds.

Re-optimization across time bins lives in :mod:`repro.control`
(:class:`~repro.control.OnlineController`).
"""

from repro.core.model import FileSpec, StorageSystemModel
from repro.core.vectorized import SolutionState
from repro.core.algorithm import CacheOptimizer, OptimizationResult
from repro.core.placement import CachePlacement

__all__ = [
    "FileSpec",
    "StorageSystemModel",
    "SolutionState",
    "CacheOptimizer",
    "OptimizationResult",
    "CachePlacement",
]
