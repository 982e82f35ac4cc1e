"""Parallel sweep execution: process-pool fan-out plus a result cache.

Every experiment of the reproduction is a sweep over *independent* points
-- arrival rates, object sizes, crash rates, seeds -- and this package is
the one place that knows how to run such a sweep fast and reproducibly:

* :mod:`repro.exec.sweep` -- :func:`sweep_map` fans the per-point function
  out over a ``ProcessPoolExecutor`` (serial in-process for ``jobs=1`` and
  on platforms without ``fork``), with chunked dispatch, centralized
  ``completed/total`` progress reporting and deterministic per-point seed
  spawning; :func:`sweep_scan` is its sequential sibling for warm-started
  chains (Figs. 3/4/5) where each point depends on the previous one.
* :mod:`repro.exec.worker` -- per-worker warm state: one compiled
  :class:`~repro.core.vectorized.VectorizedSystem` is rebound across all
  points a worker executes instead of being recompiled per point.
* :mod:`repro.exec.cache` -- the content-addressed result cache: keys are
  SHA-256 digests of the canonical JSON of (scenario/point, seed, package
  version); values are JSON documents under
  ``~/.cache/repro`` (override with ``REPRO_CACHE_DIR``).

Determinism guarantee: ``jobs=1`` and ``jobs=N`` produce bit-identical
sweep results.  Each point is computed from its own explicit inputs (its
RNG derives from ``SeedSequence.spawn`` keyed by point index, never from
shared mutable state), ``ordered=True`` reassembles results in point
order, and the per-worker warm system is a pure recompilation cache
(``rebind`` recomputes exactly what a fresh compile would).
"""

from repro.exec.cache import (
    CACHE_DIR_ENV_VAR,
    CacheLike,
    CacheStats,
    ResultCache,
    default_cache,
    default_cache_dir,
    experiment_point_key,
    package_version,
    resolve_cache,
    scenario_key,
)
from repro.exec.sweep import (
    ProgressLike,
    SweepSpec,
    available_cpus,
    fork_available,
    resolve_jobs,
    spawn_point_seeds,
    sweep_map,
    sweep_scan,
)
from repro.exec.worker import reset_worker_state, shared_system, worker_state

__all__ = [
    # sweep execution
    "SweepSpec",
    "sweep_map",
    "sweep_scan",
    "available_cpus",
    "fork_available",
    "resolve_jobs",
    "spawn_point_seeds",
    # worker warm state
    "shared_system",
    "worker_state",
    "reset_worker_state",
    "ProgressLike",
    # result cache
    "ResultCache",
    "CacheLike",
    "CacheStats",
    "default_cache",
    "default_cache_dir",
    "resolve_cache",
    "scenario_key",
    "experiment_point_key",
    "package_version",
    "CACHE_DIR_ENV_VAR",
]
