"""Baseline caching policies the paper compares against.

* :mod:`repro.baselines.exact` -- exact caching of ``d`` verbatim chunks
  (the strawman functional caching strictly dominates).
* :mod:`repro.baselines.static` -- no caching and whole-file caching of the
  most popular files.

Ceph's LRU cache tier, the paper's dynamic baseline, is a cache policy:
:class:`repro.policies.lru.LRUPolicy`.
"""

from repro.baselines.exact import ExactCachingPolicy, exact_caching_placement
from repro.baselines.static import (
    no_cache_placement,
    popularity_whole_file_placement,
    proportional_placement,
)

__all__ = [
    "ExactCachingPolicy",
    "exact_caching_placement",
    "no_cache_placement",
    "popularity_whole_file_placement",
    "proportional_placement",
]
