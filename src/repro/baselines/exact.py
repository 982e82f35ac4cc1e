"""Exact caching baseline: cache ``d`` verbatim copies of storage chunks.

Under exact caching the ``d_i`` cached chunks are identical to chunks held on
specific storage nodes, so those nodes become useless for the remaining
``k_i - d_i`` fetches of a request.  Functional caching removes that
restriction; the paper argues (Section III) that its latency is therefore
never worse.  This module builds exact-caching placements so the claim can be
checked quantitatively in simulations and benchmarks.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.model import StorageSystemModel
from repro.core.placement import CachePlacement, FilePlacement
from repro.core.vectorized import SolutionState, VectorizedSystem
from repro.exceptions import ModelError


def placement_with_bounds(
    model: StorageSystemModel,
    probabilities: List[Dict[int, float]],
    cached_chunks: Sequence[int],
    metadata: Optional[Dict[str, float]] = None,
) -> CachePlacement:
    """A :class:`CachePlacement` for a fixed schedule and cache allocation.

    Each file's Lemma-1 bound is minimised over its own ``z_i`` by
    :class:`VectorizedSystem`; a file that fetches nothing from storage
    (every ``pi_{i,j} = 0``) has bound 0.
    """
    system = VectorizedSystem(model)
    pi = system.from_state(SolutionState(probabilities=probabilities))
    bounds = system.per_file_bounds(pi, system.optimal_z(pi))
    files = [
        FilePlacement(
            file_id=spec.file_id,
            cached_chunks=int(cached),
            scheduling_probabilities=dict(file_probs),
            latency_bound=float(bound),
            arrival_rate=spec.arrival_rate,
            k=spec.k,
            n=spec.n,
        )
        for spec, file_probs, cached, bound in zip(
            model.files, probabilities, cached_chunks, bounds
        )
    ]
    return CachePlacement(
        files=files,
        objective=float(np.dot(system.weights, bounds)),
        cache_capacity=model.cache_capacity,
        metadata=dict(metadata or {}),
    )


class ExactCachingPolicy:
    """Exact caching with a fixed per-file allocation.

    Parameters
    ----------
    model:
        The storage-system model.
    allocation:
        Mapping from file id to ``d_i`` -- how many verbatim chunks to cache.
    cached_nodes:
        Optional mapping from file id to the list of nodes whose chunks were
        copied into the cache.  Defaults to the first ``d_i`` nodes of the
        file's placement (the "most popular chunks" convention).
    """

    def __init__(
        self,
        model: StorageSystemModel,
        allocation: Mapping[str, int],
        cached_nodes: Optional[Mapping[str, List[int]]] = None,
    ):
        self._model = model
        self._allocation: Dict[str, int] = {}
        self._cached_nodes: Dict[str, List[int]] = {}
        total = 0
        for spec in model.files:
            d = int(allocation.get(spec.file_id, 0))
            if not 0 <= d <= spec.k:
                raise ModelError(
                    f"file {spec.file_id}: exact-cache allocation {d} outside [0, {spec.k}]"
                )
            self._allocation[spec.file_id] = d
            if cached_nodes is not None and spec.file_id in cached_nodes:
                nodes = list(cached_nodes[spec.file_id])
            else:
                nodes = list(spec.placement[:d])
            if len(nodes) != d:
                raise ModelError(
                    f"file {spec.file_id}: expected {d} cached nodes, got {len(nodes)}"
                )
            for node_id in nodes:
                if node_id not in spec.placement:
                    raise ModelError(
                        f"file {spec.file_id}: cached chunk from node {node_id} "
                        "that does not store the file"
                    )
            self._cached_nodes[spec.file_id] = nodes
            total += d
        if total > model.cache_capacity:
            raise ModelError(
                f"exact caching allocation uses {total} chunks, capacity is "
                f"{model.cache_capacity}"
            )

    @property
    def allocation(self) -> Dict[str, int]:
        """Per-file number of exactly cached chunks."""
        return dict(self._allocation)

    def usable_nodes(self, file_id: str) -> List[int]:
        """Storage nodes still usable for a read of ``file_id``.

        The nodes whose chunks were copied verbatim into the cache cannot
        contribute new chunks, so they are excluded.
        """
        spec = self._model.file(file_id)
        excluded = set(self._cached_nodes[file_id])
        return [node_id for node_id in spec.placement if node_id not in excluded]

    def to_solution_state(self) -> SolutionState:
        """Uniform scheduling over the usable nodes, as a SolutionState."""
        probabilities: List[Dict[int, float]] = []
        for spec in self._model.files:
            d = self._allocation[spec.file_id]
            usable = self.usable_nodes(spec.file_id)
            needed = spec.k - d
            if needed > len(usable):
                raise ModelError(
                    f"file {spec.file_id}: needs {needed} storage chunks but only "
                    f"{len(usable)} usable nodes remain"
                )
            pi = needed / len(usable) if usable else 0.0
            probabilities.append({node_id: pi for node_id in usable})
        return SolutionState(
            probabilities=probabilities, z_values=[0.0] * self._model.num_files
        )

    def latency_bounds(self) -> Dict[str, float]:
        """Per-file Lemma-1 bounds under uniform scheduling on usable nodes."""
        placement = self.to_placement()
        return {entry.file_id: entry.latency_bound for entry in placement.files}

    def to_placement(self) -> CachePlacement:
        """Express the policy as a :class:`CachePlacement` for the simulator."""
        return placement_with_bounds(
            self._model,
            self.to_solution_state().probabilities,
            [self._allocation[spec.file_id] for spec in self._model.files],
            metadata={"policy": 1.0},
        )


def exact_caching_placement(
    model: StorageSystemModel,
    allocation: Optional[Mapping[str, int]] = None,
) -> CachePlacement:
    """Build an exact-caching placement.

    When ``allocation`` is omitted, the cache is filled greedily by file
    popularity (highest arrival rate first), one chunk at a time -- the
    classic "cache the most popular data" heuristic.
    """
    if allocation is None:
        allocation = popularity_allocation(model)
    policy = ExactCachingPolicy(model, allocation)
    return policy.to_placement()


def popularity_allocation(model: StorageSystemModel) -> Dict[str, int]:
    """Greedy popularity-based allocation of the cache, one chunk per round."""
    remaining = model.cache_capacity
    allocation = {spec.file_id: 0 for spec in model.files}
    ranked = sorted(model.files, key=lambda spec: spec.arrival_rate, reverse=True)
    while remaining > 0:
        progressed = False
        for spec in ranked:
            if remaining <= 0:
                break
            if allocation[spec.file_id] < spec.k:
                allocation[spec.file_id] += 1
                remaining -= 1
                progressed = True
        if not progressed:
            break
    return allocation
