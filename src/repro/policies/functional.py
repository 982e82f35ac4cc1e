"""The static functional cache: a fixed per-file chunk allocation.

This is the paper's functional-caching idea viewed through the policy
protocol: every file holds a constant ``d_i`` of its ``k_i`` chunks in the
cache (functionally re-encoded, so any ``d_i`` chunks work) and no request
ever changes the allocation -- there is nothing to promote or evict at
request time; allocations change only between optimization epochs.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import CacheError
from repro.policies.base import ChunkCachingPolicy, Eviction


def round_robin_allocation(
    chunks_per_file: Mapping[str, int], capacity_chunks: int
) -> Dict[str, int]:
    """Spread ``capacity_chunks`` one chunk at a time over the files.

    Files are visited in sorted-id order, receiving one chunk per round up
    to their ``k_i``, until the capacity is exhausted -- the uniform static
    split used when no explicit allocation is supplied.
    """
    allocation = {file_id: 0 for file_id in sorted(chunks_per_file)}
    remaining = int(capacity_chunks)
    progress = True
    while remaining > 0 and progress:
        progress = False
        for file_id in allocation:
            if remaining == 0:
                break
            if allocation[file_id] < chunks_per_file[file_id]:
                allocation[file_id] += 1
                remaining -= 1
                progress = True
    return {file_id: d for file_id, d in allocation.items() if d > 0}


class StaticFunctionalPolicy(ChunkCachingPolicy):
    """Fixed functional chunk allocation; observes are pure bookkeeping.

    Parameters
    ----------
    capacity_chunks, chunks_per_file:
        As for every policy.
    allocation:
        Explicit per-file cached chunk counts ``d_i``; defaults to the
        uniform :func:`round_robin_allocation` over the registered files.
        The total allocation may not exceed the capacity.
    """

    def __init__(
        self,
        capacity_chunks: int,
        chunks_per_file: Optional[Mapping[str, int]] = None,
        allocation: Optional[Mapping[str, int]] = None,
    ):
        super().__init__(capacity_chunks, chunks_per_file)
        if allocation is None:
            allocation = round_robin_allocation(
                self._chunks_per_file, capacity_chunks
            )
        self._allocation: Dict[str, int] = {}
        total = 0
        for file_id, chunks in allocation.items():
            chunks = int(chunks)
            if chunks < 0:
                raise CacheError(
                    f"file {file_id!r}: allocation must be non-negative"
                )
            if chunks == 0:
                continue
            footprint = self.footprint(str(file_id))
            if chunks > footprint:
                raise CacheError(
                    f"file {file_id!r}: allocation {chunks} exceeds its "
                    f"{footprint} chunks"
                )
            self._allocation[str(file_id)] = chunks
            total += chunks
        if total > self._capacity:
            raise CacheError(
                f"allocation of {total} chunks exceeds capacity {self._capacity}"
            )

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------

    def lookup(self, file_id: str) -> int:
        return self._allocation.get(file_id, 0)

    def evict(self, file_id: str) -> bool:
        return self._allocation.pop(file_id, None) is not None

    def occupancy(self) -> Dict[str, int]:
        return dict(self._allocation)

    @property
    def used_chunks(self) -> int:
        return sum(self._allocation.values())

    def _on_hit(self, file_id: str) -> None:
        pass

    def _on_miss(self, file_id: str) -> Tuple[bool, List[Eviction]]:
        # Static: misses never promote and never evict.
        return False, []

    def classify(
        self, file_ids: Sequence[str]
    ) -> Tuple[np.ndarray, np.ndarray, int, int]:
        # Residency never changes, so one gather of d_i per request decides
        # every access: a hit is d_i >= k_i, and nothing is promoted or
        # evicted.
        codes = {file_id: code for code, file_id in enumerate(self._chunks_per_file)}
        try:
            requested = np.fromiter(
                map(codes.__getitem__, file_ids), dtype=np.int64, count=len(file_ids)
            )
        except KeyError as error:
            raise CacheError(f"unknown file id {error.args[0]!r}") from error
        allocated = np.asarray(
            [self._allocation.get(file_id, 0) for file_id in codes], dtype=np.int64
        )
        footprints = np.asarray(list(self._chunks_per_file.values()), dtype=np.int64)
        cached_chunks = allocated[requested]
        hit_mask = cached_chunks >= footprints[requested]
        self.stats.reads += int(requested.size)
        self.stats.hits += int(np.count_nonzero(hit_mask))
        return hit_mask, cached_chunks, 0, 0
