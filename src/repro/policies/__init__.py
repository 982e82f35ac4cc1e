"""The pluggable cache-policy layer.

The two caches the paper compares -- Ceph's replicated LRU tier and the
static functional cache -- implement the single
:class:`~repro.policies.base.ChunkCachingPolicy` protocol
(``observe``/``lookup``/``evict``, the chunk-occupancy snapshot and the
bulk ``classify`` pass over a whole trace), so
the cluster cache tier, the epoch-batched trace replay and the scenario
facade all consume policies interchangeably.  Policies register under
``repro.api.registry.POLICIES`` (``@register_policy``) and become valid
``Scenario(policy=...)`` values; :func:`create_policy` builds one by
registered name.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.policies.base import AccessOutcome, ChunkCachingPolicy, Eviction, PolicyStats
from repro.policies.functional import StaticFunctionalPolicy, round_robin_allocation
from repro.policies.lru import LRUPolicy
from repro.policies.placement import placement_from_trace_replay

__all__ = [
    "AccessOutcome",
    "ChunkCachingPolicy",
    "Eviction",
    "PolicyStats",
    "LRUPolicy",
    "StaticFunctionalPolicy",
    "round_robin_allocation",
    "placement_from_trace_replay",
    "create_policy",
]


def create_policy(
    name: str,
    capacity_chunks: int,
    chunks_per_file: Optional[Mapping[str, int]] = None,
    **params: Any,
) -> ChunkCachingPolicy:
    """Instantiate a registered policy by name.

    The lookup goes through ``repro.api.registry.POLICIES`` (imported
    lazily to keep this package independent of the facade at import time),
    so plugins registered with ``@register_policy`` work here too.
    """
    from repro.api.registry import POLICIES

    spec = POLICIES.get(name)
    return spec.factory(capacity_chunks, chunks_per_file, **params)
