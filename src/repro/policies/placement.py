"""Turn a cache policy into an analytical cache placement via trace replay.

The optimize/schedule/simulate pipeline works on a static
:class:`~repro.core.placement.CachePlacement`; a dynamic policy (Ceph's
LRU tier) has no closed-form placement.  The bridge is a seeded synthetic
trace: draw a Poisson request stream from the model's arrival rates, replay
it through the policy in one :meth:`~repro.policies.base.ChunkCachingPolicy.classify`
call, and freeze the final chunk-occupancy snapshot into a functional
placement with uniform scheduling.  This is exactly how the
paper treats the Ceph cache tier analytically -- the steady-state content
of the dynamic cache, evaluated with the Lemma-1 bound.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.static import functional_placement_from_allocation
from repro.core.model import StorageSystemModel
from repro.core.placement import CachePlacement
from repro.policies.base import ChunkCachingPolicy
from repro.simulation.arrivals import generate_request_arrays


def placement_from_trace_replay(
    model: StorageSystemModel,
    policy: ChunkCachingPolicy,
    seed: Optional[int] = None,
    target_requests: int = 4000,
) -> CachePlacement:
    """Replay a seeded trace through ``policy`` and snapshot its occupancy.

    Parameters
    ----------
    model:
        The storage-system model supplying files, rates and cache capacity.
    policy:
        A policy instance sized for ``model.cache_capacity`` chunks.
    seed:
        Trace seed; the same seed always yields the same placement.
    target_requests:
        Expected length of the warm-up trace (the horizon is chosen as
        ``target_requests / total_arrival_rate``).
    """
    rates = {spec.file_id: spec.arrival_rate for spec in model.files}
    total_rate = sum(rates.values())
    rng = np.random.default_rng(seed)
    if total_rate > 0 and target_requests > 0:
        horizon = target_requests / total_rate
        _, positions, file_ids = generate_request_arrays(rates, horizon, rng)
        policy.classify([file_ids[position] for position in positions.tolist()])
    allocation = {
        file_id: min(chunks, model.file(file_id).k)
        for file_id, chunks in policy.occupancy().items()
    }
    return functional_placement_from_allocation(model, allocation)
