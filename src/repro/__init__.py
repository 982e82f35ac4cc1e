"""Sprout: functional caching for erasure-coded storage (ICDCS 2016 reproduction).

The package is organised as:

* :mod:`repro.api` -- **the public facade**: declarative scenarios,
  pluggable component registries and the experiment registry.
* :mod:`repro.erasure` -- GF(2^8) / Reed-Solomon substrate and functional
  cache chunk construction.
* :mod:`repro.queueing` -- service-time distributions, M/G/1 moments and the
  order-statistics latency bound (Lemma 1).
* :mod:`repro.core` -- the system model, the latency objective and
  Algorithm 1 (alternating minimization with integer rounding).
* :mod:`repro.scheduling` -- probabilistic request scheduling.
* :mod:`repro.simulation` -- the event and batch simulation engines.
* :mod:`repro.policies` -- the pluggable cache-policy layer (Ceph's LRU
  tier and the static functional cache) behind one protocol.
* :mod:`repro.baselines` -- exact-caching and static baselines.
* :mod:`repro.cluster` -- Ceph-like cluster emulation (equivalent-code pools,
  LRU cache tier, measured device latencies).
* :mod:`repro.workloads` -- the paper's workload tables and generators.
* :mod:`repro.exec` -- parallel sweep execution (``sweep_map`` over a
  process pool with deterministic per-point seeds) and the
  content-addressed scenario result cache.
* :mod:`repro.experiments` -- one registered experiment per table/figure.

Quickstart::

    from repro import Scenario, run_scenario

    result = run_scenario(Scenario(num_files=100, cache_capacity=50))
    print(result.summary())

Every figure/table of the paper is a registered experiment::

    from repro.api import run_experiment

    fig4 = run_experiment("fig4", scale="fast")
"""

from repro.core.algorithm import CacheOptimizer
from repro.core.model import FileSpec, StorageSystemModel
from repro.core.placement import CachePlacement
from repro.erasure.functional import FunctionalCacheCoder
from repro.erasure.reed_solomon import ReedSolomonCode
from repro.api.scenario import Scenario
from repro.api.session import RunResult, Session, run_scenario
from repro.api.experiments import get_experiment, register_experiment, run_experiment
from repro.api.registry import (
    register_baseline,
    register_engine,
    register_policy,
    register_solver,
    register_workload,
)
from repro.exec import ResultCache, sweep_map, sweep_scan
from repro.policies import ChunkCachingPolicy

__version__ = "3.0.0"

__all__ = [
    # facade
    "Scenario",
    "Session",
    "RunResult",
    "run_scenario",
    "run_experiment",
    "get_experiment",
    "register_solver",
    "register_engine",
    "register_baseline",
    "register_workload",
    "register_policy",
    "register_experiment",
    "ChunkCachingPolicy",
    # parallel execution + result cache
    "sweep_map",
    "sweep_scan",
    "ResultCache",
    # core building blocks
    "CacheOptimizer",
    "StorageSystemModel",
    "FileSpec",
    "CachePlacement",
    "ReedSolomonCode",
    "FunctionalCacheCoder",
    "__version__",
]
